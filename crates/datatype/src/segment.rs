//! Contiguous segments — the flattened view of a datatype.

/// One maximal contiguous run of real data within a typed buffer:
/// `len` bytes starting `disp` bytes from the buffer origin. `disp` is
/// signed because MPI lower bounds may be negative.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    pub disp: i64,
    pub len: u64,
}

impl Segment {
    pub fn new(disp: i64, len: u64) -> Self {
        Segment { disp, len }
    }

    /// End displacement (one past the last byte).
    pub fn end(self) -> i64 {
        self.disp + self.len as i64
    }
}

/// Accumulates segments, merging runs that turn out to be adjacent (the
/// convertor and DEV generator both want maximal segments so, e.g., a
/// `contiguous(vector)` composition doesn't shatter into needless
/// pieces).
#[derive(Default)]
pub(crate) struct SegmentSink {
    pending: Option<Segment>,
    out: Vec<Segment>,
}

impl SegmentSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, disp: i64, len: u64) {
        if len == 0 {
            return;
        }
        match &mut self.pending {
            Some(p) if p.end() == disp => p.len += len,
            Some(p) => {
                self.out.push(*p);
                self.pending = Some(Segment::new(disp, len));
            }
            None => self.pending = Some(Segment::new(disp, len)),
        }
    }

    pub fn finish(mut self) -> Vec<Segment> {
        if let Some(p) = self.pending.take() {
            self.out.push(p);
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_adjacent_runs() {
        let mut s = SegmentSink::new();
        s.push(0, 4);
        s.push(4, 4);
        s.push(16, 8);
        s.push(24, 8);
        s.push(40, 8);
        let v = s.finish();
        assert_eq!(
            v,
            vec![
                Segment::new(0, 8),
                Segment::new(16, 16),
                Segment::new(40, 8)
            ]
        );
    }

    #[test]
    fn skips_empty_runs() {
        let mut s = SegmentSink::new();
        s.push(0, 0);
        s.push(8, 4);
        s.push(12, 0);
        s.push(12, 4);
        assert_eq!(s.finish(), vec![Segment::new(8, 8)]);
    }

    #[test]
    fn negative_displacements() {
        let mut s = SegmentSink::new();
        s.push(-16, 8);
        s.push(-8, 8);
        let v = s.finish();
        assert_eq!(v, vec![Segment::new(-16, 16)]);
        assert_eq!(v[0].end(), 0);
    }
}
