//! The stack-based convertor: Open MPI's pack/unpack machine.
//!
//! A [`Convertor`] walks `count` instances of a committed datatype as a
//! stream of contiguous segments using an explicit frame stack (the
//! in-Rust equivalent of `opal_convertor_t` and its `dt_stack_t`), and
//! copies bytes to (pack) or from (unpack) a contiguous buffer. The walk
//! can stop at **any byte position** and resume later — this is what
//! lets the PML fragment a message and lets the GPU pipeline convert the
//! datatype chunk by chunk while kernels run.

use crate::error::TypeError;
use crate::segment::Segment;
use crate::typ::{DataType, Kind};

/// Direction of a conversion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PackKind {
    /// Typed (possibly non-contiguous) memory → contiguous buffer.
    Pack,
    /// Contiguous buffer → typed memory.
    Unpack,
}

/// One frame of the datatype walk.
struct Frame {
    ty: DataType,
    base: i64,
    i: u64,
    j: u64,
}

/// Resumable stream of contiguous segments for `count` instances of a
/// datatype, with adjacent-segment merging.
pub(crate) struct SegStream {
    stack: Vec<Frame>,
    pending: Option<Segment>,
    done: bool,
}

impl SegStream {
    pub(crate) fn new(ty: &DataType, count: u64) -> SegStream {
        let mut stack = Vec::with_capacity(ty.depth() as usize + 2);
        if count > 0 && ty.size() > 0 {
            // Wrap in a synthetic contiguous(count) so instance
            // iteration reuses the normal frame machinery.
            let whole = if count == 1 {
                ty.clone()
            } else {
                DataType::contiguous(count, ty).expect("count > 0")
            };
            stack.push(Frame {
                ty: whole,
                base: 0,
                i: 0,
                j: 0,
            });
        }
        SegStream {
            stack,
            pending: None,
            done: false,
        }
    }

    fn next_raw(&mut self) -> Option<Segment> {
        loop {
            let top = self.stack.last_mut()?;
            let node = top.ty.clone();
            let base = top.base;

            // Fast path: a gapless subtree is one segment.
            if node.is_gapless() && node.size() > 0 {
                self.stack.pop();
                return Some(Segment::new(base + node.true_lb(), node.size()));
            }
            if node.size() == 0 {
                self.stack.pop();
                continue;
            }

            match node.kind() {
                Kind::Primitive(p) => {
                    let s = Segment::new(base, p.size());
                    self.stack.pop();
                    return Some(s);
                }
                Kind::Contiguous { count, child } => {
                    if top.i == *count {
                        self.stack.pop();
                        continue;
                    }
                    let b = base + top.i as i64 * child.extent();
                    top.i += 1;
                    if child.dense() || child.is_gapless() {
                        if child.size() > 0 {
                            return Some(Segment::new(b + child.true_lb(), child.size()));
                        }
                    } else {
                        let child = child.clone();
                        self.stack.push(Frame {
                            ty: child,
                            base: b,
                            i: 0,
                            j: 0,
                        });
                    }
                }
                Kind::Vector {
                    count,
                    blocklen,
                    stride_bytes,
                    child,
                } => {
                    if top.i == *count {
                        self.stack.pop();
                        continue;
                    }
                    let block_base = base + top.i as i64 * stride_bytes;
                    if child.dense() {
                        // Whole block in one segment.
                        let len = blocklen * child.size();
                        top.i += 1;
                        return Some(Segment::new(block_base + child.true_lb(), len));
                    }
                    let b = block_base + top.j as i64 * child.extent();
                    top.j += 1;
                    if top.j == *blocklen {
                        top.j = 0;
                        top.i += 1;
                    }
                    if child.is_gapless() {
                        if child.size() > 0 {
                            return Some(Segment::new(b + child.true_lb(), child.size()));
                        }
                    } else {
                        let child = child.clone();
                        self.stack.push(Frame {
                            ty: child,
                            base: b,
                            i: 0,
                            j: 0,
                        });
                    }
                }
                Kind::Indexed { blocks, child } => {
                    // Skip empty blocks.
                    while (top.i as usize) < blocks.len() && blocks[top.i as usize].0 == 0 {
                        top.i += 1;
                    }
                    if top.i as usize == blocks.len() {
                        self.stack.pop();
                        continue;
                    }
                    let (l, d) = blocks[top.i as usize];
                    let block_base = base + d;
                    if child.dense() {
                        top.i += 1;
                        return Some(Segment::new(block_base + child.true_lb(), l * child.size()));
                    }
                    let b = block_base + top.j as i64 * child.extent();
                    top.j += 1;
                    if top.j == l {
                        top.j = 0;
                        top.i += 1;
                    }
                    if child.is_gapless() {
                        if child.size() > 0 {
                            return Some(Segment::new(b + child.true_lb(), child.size()));
                        }
                    } else {
                        let child = child.clone();
                        self.stack.push(Frame {
                            ty: child,
                            base: b,
                            i: 0,
                            j: 0,
                        });
                    }
                }
                Kind::Struct { fields } => {
                    // Skip empty fields.
                    while (top.i as usize) < fields.len()
                        && (fields[top.i as usize].0 == 0 || fields[top.i as usize].2.size() == 0)
                    {
                        top.i += 1;
                    }
                    if top.i as usize == fields.len() {
                        self.stack.pop();
                        continue;
                    }
                    let (l, d, t) = &fields[top.i as usize];
                    let b = base + d + top.j as i64 * t.extent();
                    let t = t.clone();
                    top.j += 1;
                    if top.j == *l {
                        top.j = 0;
                        top.i += 1;
                    }
                    if t.is_gapless() {
                        if t.size() > 0 {
                            return Some(Segment::new(b + t.true_lb(), t.size()));
                        }
                    } else {
                        self.stack.push(Frame {
                            ty: t,
                            base: b,
                            i: 0,
                            j: 0,
                        });
                    }
                }
                Kind::Resized { child, .. } => {
                    if top.i == 1 {
                        self.stack.pop();
                        continue;
                    }
                    top.i = 1;
                    let child = child.clone();
                    self.stack.push(Frame {
                        ty: child,
                        base,
                        i: 0,
                        j: 0,
                    });
                }
            }
        }
    }
}

impl Iterator for SegStream {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.done {
            return None;
        }
        loop {
            match self.next_raw() {
                Some(s) => match &mut self.pending {
                    Some(p) if p.end() == s.disp => p.len += s.len,
                    Some(p) => {
                        let out = *p;
                        *p = s;
                        return Some(out);
                    }
                    None => self.pending = Some(s),
                },
                None => {
                    self.done = true;
                    return self.pending.take();
                }
            }
        }
    }
}

/// A resumable pack/unpack machine over `count` instances of a datatype.
pub struct Convertor {
    stream: SegStream,
    kind: PackKind,
    total: u64,
    position: u64,
    cur: Option<Segment>,
    cur_off: u64,
}

impl Convertor {
    /// Create a convertor. The datatype must be committed.
    pub fn new(ty: &DataType, count: u64, kind: PackKind) -> Result<Convertor, TypeError> {
        if !ty.is_committed() {
            return Err(TypeError::NotCommitted);
        }
        Ok(Convertor {
            stream: SegStream::new(ty, count),
            kind,
            total: ty.size() * count,
            position: 0,
            cur: None,
            cur_off: 0,
        })
    }

    /// Total bytes this convertor will move.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Bytes moved so far (the "position" in packed-stream space).
    pub fn position(&self) -> u64 {
        self.position
    }

    pub fn finished(&self) -> bool {
        self.position >= self.total
    }

    pub fn kind(&self) -> PackKind {
        self.kind
    }

    fn next_segment(&mut self) -> Option<(Segment, u64)> {
        if let Some(s) = self.cur {
            return Some((s, self.cur_off));
        }
        let s = self.stream.next()?;
        self.cur = Some(s);
        self.cur_off = 0;
        Some((s, 0))
    }

    fn consume(&mut self, n: u64) {
        let s = self.cur.expect("consume without segment");
        self.cur_off += n;
        self.position += n;
        debug_assert!(self.cur_off <= s.len);
        if self.cur_off == s.len {
            self.cur = None;
            self.cur_off = 0;
        }
    }

    /// Pack up to `out.len()` bytes into `out`. `typed` is the memory
    /// the datatype describes; `base` is the byte index in `typed` that
    /// corresponds to displacement 0 (so negative lower bounds work).
    /// Returns the number of bytes produced.
    pub(crate) fn pack_into(&mut self, typed: &[u8], base: i64, out: &mut [u8]) -> usize {
        assert_eq!(
            self.kind,
            PackKind::Pack,
            "pack_into on an unpack convertor"
        );
        let mut produced = 0usize;
        while produced < out.len() {
            let Some((seg, off)) = self.next_segment() else {
                break;
            };
            let want = ((seg.len - off) as usize).min(out.len() - produced);
            let src_idx = (base + seg.disp) as usize + off as usize;
            out[produced..produced + want].copy_from_slice(&typed[src_idx..src_idx + want]);
            produced += want;
            self.consume(want as u64);
        }
        produced
    }

    /// Unpack up to `inp.len()` bytes from `inp` into the typed memory.
    /// Returns the number of bytes consumed.
    pub(crate) fn unpack_from(&mut self, typed: &mut [u8], base: i64, inp: &[u8]) -> usize {
        assert_eq!(
            self.kind,
            PackKind::Unpack,
            "unpack_from on a pack convertor"
        );
        let mut consumed = 0usize;
        while consumed < inp.len() {
            let Some((seg, off)) = self.next_segment() else {
                break;
            };
            let want = ((seg.len - off) as usize).min(inp.len() - consumed);
            let dst_idx = (base + seg.disp) as usize + off as usize;
            typed[dst_idx..dst_idx + want].copy_from_slice(&inp[consumed..consumed + want]);
            consumed += want;
            self.consume(want as u64);
        }
        consumed
    }

    /// Produce the next batch of raw segments covering at most
    /// `max_bytes` of packed-stream space, *without* moving data. This
    /// is the DEV-generation entry point: the GPU engine calls it
    /// repeatedly to convert the datatype part by part (the paper's
    /// CPU-side pipeline stage). Segments are relative to displacement 0
    /// and already clipped to the requested byte window. Clears `out`
    /// and fills it, so a caller streaming many batches can reuse one
    /// buffer for the whole conversion.
    pub fn next_segments_into(&mut self, max_bytes: u64, out: &mut Vec<(Segment, u64)>) {
        out.clear();
        self.for_next_segments(max_bytes, |seg, at| out.push((seg, at)));
    }

    /// Hand `f` what [`Self::next_segments_into`] collects, one clipped
    /// segment at a time with its offset in packed-stream space, with no
    /// buffer in between.
    pub fn for_next_segments(&mut self, max_bytes: u64, mut f: impl FnMut(Segment, u64)) {
        let mut taken = 0u64;
        while taken < max_bytes {
            let Some((seg, off)) = self.next_segment() else {
                break;
            };
            let want = (seg.len - off).min(max_bytes - taken);
            f(Segment::new(seg.disp + off as i64, want), self.position);
            taken += want;
            self.consume(want);
        }
    }
}

/// One-shot helper: pack everything.
pub fn pack_all(ty: &DataType, count: u64, typed: &[u8], base: i64) -> Vec<u8> {
    let mut cv = Convertor::new(ty, count, PackKind::Pack).expect("committed");
    let mut out = vec![0u8; cv.total_bytes() as usize];
    let n = cv.pack_into(typed, base, &mut out);
    assert_eq!(n as u64, cv.total_bytes(), "short pack");
    out
}

/// One-shot helper: unpack everything.
pub fn unpack_all(ty: &DataType, count: u64, typed: &mut [u8], base: i64, inp: &[u8]) {
    let mut cv = Convertor::new(ty, count, PackKind::Unpack).expect("committed");
    let n = cv.unpack_from(typed, base, inp);
    assert_eq!(n, inp.len(), "short unpack");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dbl() -> DataType {
        DataType::double()
    }

    /// Reference pack via the simple materializing path.
    fn reference_pack(ty: &DataType, count: u64, typed: &[u8], base: i64) -> Vec<u8> {
        let mut out = Vec::with_capacity((ty.size() * count) as usize);
        for s in ty.segments(count) {
            let idx = (base + s.disp) as usize;
            out.extend_from_slice(&typed[idx..idx + s.len as usize]);
        }
        out
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131 + 17) % 255 + 1) as u8).collect()
    }

    #[test]
    fn stream_matches_segments() {
        let v = DataType::vector(5, 3, 7, &dbl()).unwrap();
        let via_stream: Vec<Segment> = SegStream::new(&v, 3).collect();
        assert_eq!(via_stream, v.segments(3));
    }

    #[test]
    fn stream_of_nested_types() {
        let inner = DataType::vector(2, 1, 2, &dbl()).unwrap();
        let outer = DataType::hvector(3, 2, 64, &inner).unwrap();
        let via_stream: Vec<Segment> = SegStream::new(&outer, 2).collect();
        assert_eq!(via_stream, outer.segments(2));
    }

    #[test]
    fn stream_of_struct_with_resized() {
        let v = DataType::vector(2, 1, 2, &dbl()).unwrap();
        let r = DataType::resized(&v, 0, 32).unwrap();
        let s = DataType::structure(&[2, 1], &[0, 80], &[r, DataType::int()]).unwrap();
        let via_stream: Vec<Segment> = SegStream::new(&s, 2).collect();
        assert_eq!(via_stream, s.segments(2));
    }

    #[test]
    fn pack_vector_matches_reference() {
        let v = DataType::vector(4, 2, 5, &dbl()).unwrap().commit();
        let typed = pattern(v.extent() as usize * 2);
        let packed = pack_all(&v, 2, &typed, 0);
        assert_eq!(packed, reference_pack(&v, 2, &typed, 0));
        assert_eq!(packed.len() as u64, v.size() * 2);
    }

    #[test]
    fn pack_unpack_roundtrip_indexed() {
        let n = 8u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap().commit();
        let typed = pattern((n * n * 8) as usize);
        let packed = pack_all(&t, 1, &typed, 0);

        let mut out = vec![0u8; typed.len()];
        unpack_all(&t, 1, &mut out, 0, &packed);
        // Every byte covered by the type must match; others stay zero.
        for s in t.segments(1) {
            let r = s.disp as usize..(s.disp + s.len as i64) as usize;
            assert_eq!(&out[r.clone()], &typed[r]);
        }
    }

    #[test]
    fn fragmented_pack_equals_oneshot() {
        let v = DataType::vector(16, 3, 5, &dbl()).unwrap().commit();
        let count = 4;
        let typed = pattern(v.extent() as usize * count as usize);
        let oneshot = pack_all(&v, count, &typed, 0);

        // Pack in awkward fragment sizes.
        let mut cv = Convertor::new(&v, count, PackKind::Pack).unwrap();
        let mut got = Vec::new();
        for frag in [1usize, 7, 64, 13, 100, 1000, 9999] {
            let mut buf = vec![0u8; frag];
            let n = cv.pack_into(&typed, 0, &mut buf);
            got.extend_from_slice(&buf[..n]);
            if cv.finished() {
                break;
            }
        }
        // Drain the rest.
        while !cv.finished() {
            let mut buf = vec![0u8; 128];
            let n = cv.pack_into(&typed, 0, &mut buf);
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, oneshot);
    }

    #[test]
    fn fragmented_unpack_equals_oneshot() {
        let t = DataType::indexed(&[3, 1, 4], &[0, 5, 8], &dbl())
            .unwrap()
            .commit();
        let count = 3;
        let typed = pattern(t.extent() as usize * count as usize);
        let packed = pack_all(&t, count, &typed, 0);

        let mut out = vec![0u8; typed.len()];
        let mut cv = Convertor::new(&t, count, PackKind::Unpack).unwrap();
        let mut fed = 0usize;
        for frag in [3usize, 17, 41, 5, 1000] {
            let end = (fed + frag).min(packed.len());
            let n = cv.unpack_from(&mut out, 0, &packed[fed..end]);
            assert_eq!(n, end - fed);
            fed = end;
        }
        assert_eq!(fed, packed.len());
        for s in t.segments(count) {
            let r = s.disp as usize..(s.disp + s.len as i64) as usize;
            assert_eq!(&out[r.clone()], &typed[r]);
        }
    }

    #[test]
    fn negative_displacement_with_base() {
        let r = DataType::resized(&dbl(), -8, 16).unwrap();
        let t = DataType::hindexed(&[1, 1], &[-16, 0], &r).unwrap().commit();
        assert_eq!(t.true_lb(), -16);
        let typed = pattern(64);
        // Base 32: data segments at typed[16] and typed[32].
        let packed = pack_all(&t, 1, &typed, 32);
        assert_eq!(&packed[0..8], &typed[16..24]);
        assert_eq!(&packed[8..16], &typed[32..40]);
    }

    #[test]
    fn next_segments_clips_to_window() {
        let v = DataType::vector(4, 2, 4, &dbl()).unwrap().commit();
        let mut cv = Convertor::new(&v, 1, PackKind::Pack).unwrap();
        // Blocks of 16 bytes; ask for 24: one full + half of next.
        let mut segs = Vec::new();
        cv.next_segments_into(24, &mut segs);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0, Segment::new(0, 16));
        assert_eq!(segs[1].0, Segment::new(32, 8));
        assert_eq!(cv.position(), 24);
        // Resume mid-segment.
        cv.next_segments_into(1000, &mut segs);
        assert_eq!(segs[0].0, Segment::new(40, 8));
        assert_eq!(cv.position(), 64);
        assert!(cv.finished());
    }

    #[test]
    fn uncommitted_type_rejected() {
        let v = DataType::vector(2, 1, 2, &dbl()).unwrap();
        assert!(matches!(
            Convertor::new(&v, 1, PackKind::Pack),
            Err(TypeError::NotCommitted)
        ));
    }

    #[test]
    fn zero_count_is_empty() {
        let v = DataType::vector(2, 1, 2, &dbl()).unwrap().commit();
        let mut cv = Convertor::new(&v, 0, PackKind::Pack).unwrap();
        assert_eq!(cv.total_bytes(), 0);
        assert!(cv.finished());
        let mut buf = vec![0u8; 16];
        assert_eq!(cv.pack_into(&[0u8; 64], 0, &mut buf), 0);
    }

    #[test]
    fn contiguous_fast_path_merges_instances() {
        let c = DataType::contiguous(4, &dbl()).unwrap();
        let segs: Vec<Segment> = SegStream::new(&c, 8).collect();
        assert_eq!(segs, vec![Segment::new(0, 256)]);
    }
}
