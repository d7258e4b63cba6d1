//! Type signatures and send/recv matching.
//!
//! MPI requires the *signature* (the ordered sequence of primitive
//! types) of the send and receive datatypes to match, while the layouts
//! may differ arbitrarily — this is exactly what the paper's
//! vector↔contiguous FFT benchmark (Figure 11) and transpose benchmark
//! (Figure 12) exploit. The signature is stored as run-length-encoded
//! `(primitive, count)` runs per instance plus an instance count;
//! homogeneous types (the overwhelmingly common case) compare in O(1),
//! heterogeneous ones stream lazily without materializing repetitions.

use crate::error::TypeError;
use crate::primitive::Primitive;
use crate::typ::DataType;
use std::rc::Rc;

/// Run-length-encoded type signature of `count` instances of a type.
#[derive(Clone, Debug)]
pub struct Signature {
    /// Merged runs of one instance, shared with the type tree.
    runs: Rc<[(Primitive, u64)]>,
    /// Number of instances.
    count: u64,
}

/// Lazily yields the fully merged run stream of a signature: the
/// per-instance runs repeated `count` times, with adjacent equal
/// primitives merged (including across instance boundaries).
struct MergedRuns<'a> {
    runs: &'a [(Primitive, u64)],
    reps_left: u64,
    idx: usize,
    carry: Option<(Primitive, u64)>,
}

impl<'a> MergedRuns<'a> {
    fn new(sig: &'a Signature) -> Self {
        let empty = sig.runs.is_empty() || sig.count == 0;
        MergedRuns {
            runs: if empty { &[] } else { &sig.runs },
            // Instances remaining *after* the one idx currently walks.
            reps_left: if empty { 0 } else { sig.count - 1 },
            idx: 0,
            carry: None,
        }
    }
}

impl Iterator for MergedRuns<'_> {
    type Item = (Primitive, u64);

    fn next(&mut self) -> Option<(Primitive, u64)> {
        loop {
            if self.idx == self.runs.len() {
                if self.reps_left == 0 {
                    return self.carry.take();
                }
                self.reps_left -= 1;
                self.idx = 0;
                // Homogeneous fast path: a single-run instance merges
                // wholly into the carry, so fold all remaining
                // repetitions at once.
                if self.runs.len() == 1 {
                    let (p, n) = self.runs[0];
                    let folded = n * (self.reps_left + 1);
                    self.reps_left = 0;
                    self.idx = 1;
                    match self.carry {
                        Some((cp, cn)) if cp == p => self.carry = Some((p, cn + folded)),
                        Some(out) => {
                            self.carry = Some((p, folded));
                            return Some(out);
                        }
                        None => self.carry = Some((p, folded)),
                    }
                    continue;
                }
                continue;
            }
            let (p, n) = self.runs[self.idx];
            self.idx += 1;
            match self.carry {
                Some((cp, cn)) if cp == p => self.carry = Some((p, cn + n)),
                Some(out) => {
                    self.carry = Some((p, n));
                    return Some(out);
                }
                None => self.carry = Some((p, n)),
            }
        }
    }
}

impl Signature {
    /// O(1) on a type whose signature was taken before: the type tree
    /// keeps its per-instance runs.
    pub fn of(ty: &DataType, count: u64) -> Signature {
        Signature {
            runs: ty.signature_runs(),
            count,
        }
    }

    /// Total number of primitive elements described.
    pub fn element_count(&self) -> u64 {
        self.runs.iter().map(|(_, n)| n).sum::<u64>() * self.count
    }

    /// Total bytes described.
    pub(crate) fn byte_count(&self) -> u64 {
        self.runs.iter().map(|(p, n)| p.size() * n).sum::<u64>() * self.count
    }

    /// Do two signatures describe the same primitive sequence?
    pub fn matches(&self, other: &Signature) -> bool {
        if self.byte_count() != other.byte_count() || self.element_count() != other.element_count()
        {
            return false;
        }
        let mut a = MergedRuns::new(self);
        let mut b = MergedRuns::new(other);
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if x == y => continue,
                _ => return false,
            }
        }
    }

    /// MPI receive semantics: the receiver may post a *larger* type than
    /// the incoming message, but the message must be a signature prefix
    /// of the receive type; a longer message is `MPI_ERR_TRUNCATE`.
    pub fn check_recv(&self, incoming: &Signature) -> Result<(), TypeError> {
        let inc_bytes = incoming.byte_count();
        let cap = self.byte_count();
        if inc_bytes > cap {
            return Err(TypeError::Truncated {
                incoming: inc_bytes,
                capacity: cap,
            });
        }
        let mut mine = MergedRuns::new(self);
        let mut have: Option<(Primitive, u64)> = None;
        for (p, mut need) in MergedRuns::new(incoming) {
            while need > 0 {
                let (mp, mn) = match have.take() {
                    Some(h) => h,
                    None => match mine.next() {
                        Some(h) => h,
                        None => return Err(TypeError::SignatureMismatch),
                    },
                };
                if mp != p {
                    return Err(TypeError::SignatureMismatch);
                }
                if mn > need {
                    have = Some((mp, mn - need));
                    need = 0;
                } else {
                    need -= mn;
                }
            }
        }
        Ok(())
    }
}

impl PartialEq for Signature {
    fn eq(&self, other: &Self) -> bool {
        self.matches(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dbl() -> DataType {
        DataType::double()
    }

    /// The per-instance runs as they were computed before the type tree
    /// kept them: one walk over every primitive leaf.
    fn fresh_runs(ty: &DataType) -> Vec<(Primitive, u64)> {
        let mut runs: Vec<(Primitive, u64)> = Vec::new();
        ty.for_each_primitive(|p, n| {
            if n == 0 {
                return;
            }
            match runs.last_mut() {
                Some((lp, ln)) if *lp == p => *ln += n,
                _ => runs.push((p, n)),
            }
        });
        runs
    }

    /// [`Signature::of`] for every test below, checked on the way: the
    /// first call on a tree computes its runs, later calls — on the
    /// type, a `dup` or a `commit` of it — read the very same list
    /// back, and all of them equal the unmemoised walk.
    fn of(ty: &DataType, count: u64) -> Signature {
        let fresh = fresh_runs(ty);
        let first = Signature::of(ty, count);
        assert_eq!(first.runs[..], fresh[..], "first call for {ty}");
        for again in [ty.clone(), ty.dup(), ty.clone().commit()] {
            let kept = Signature::of(&again, count);
            assert!(
                Rc::ptr_eq(&kept.runs, &first.runs),
                "runs not kept for {ty}"
            );
            assert_eq!(kept.count, count);
        }
        first
    }

    #[test]
    fn homogeneous_signatures_match_across_layouts() {
        // A 64-double vector layout vs a 64-double contiguous layout:
        // same signature (the FFT reshape case).
        let v = DataType::vector(8, 8, 16, &dbl()).unwrap();
        let c = DataType::contiguous(64, &dbl()).unwrap();
        let sv = of(&v, 1);
        let sc = of(&c, 1);
        assert!(sv.matches(&sc));
        assert_eq!(sv.byte_count(), 512);
        assert_eq!(sv.element_count(), 64);
    }

    #[test]
    fn counts_multiply() {
        let c4 = of(&DataType::contiguous(4, &dbl()).unwrap(), 2);
        let c8 = of(&DataType::contiguous(8, &dbl()).unwrap(), 1);
        assert!(c4.matches(&c8));
    }

    #[test]
    fn different_primitives_do_not_match() {
        let a = of(&DataType::int(), 2);
        let b = of(&DataType::long(), 1);
        // Same byte count (8) but different signature.
        assert_eq!(a.byte_count(), b.byte_count());
        assert!(!a.matches(&b));
    }

    #[test]
    fn struct_signature_order_matters() {
        let id = DataType::structure(&[1, 1], &[0, 8], &[DataType::int(), dbl()]).unwrap();
        let di = DataType::structure(&[1, 1], &[0, 8], &[dbl(), DataType::int()]).unwrap();
        let a = of(&id, 1);
        let b = of(&di, 1);
        assert!(!a.matches(&b));
        assert!(a.matches(&of(&id, 1)));
    }

    #[test]
    fn regrouped_heterogeneous_runs_match() {
        // [int, double] x2 vs [int, double, int, double] x1.
        let one = DataType::structure(&[1, 1], &[0, 8], &[DataType::int(), dbl()]).unwrap();
        let two = DataType::structure(
            &[1, 1, 1, 1],
            &[0, 8, 16, 24],
            &[DataType::int(), dbl(), DataType::int(), dbl()],
        )
        .unwrap();
        assert!(of(&one, 2).matches(&of(&two, 1)));
    }

    #[test]
    fn boundary_merge_across_instances() {
        // [double, int] repeated twice = d,i,d,i — the i|d boundary must
        // NOT merge; compare against d,i,d,i expressed flat.
        let di = DataType::structure(&[1, 1], &[0, 8], &[dbl(), DataType::int()]).unwrap();
        let flat = DataType::structure(
            &[1, 1, 1, 1],
            &[0, 8, 16, 24],
            &[dbl(), DataType::int(), dbl(), DataType::int()],
        )
        .unwrap();
        assert!(of(&di, 2).matches(&of(&flat, 1)));
        // [int, int] x2 merges into one run of 4.
        let ii = DataType::contiguous(2, &DataType::int()).unwrap();
        let i4 = DataType::contiguous(4, &DataType::int()).unwrap();
        assert!(of(&ii, 2).matches(&of(&i4, 1)));
    }

    #[test]
    fn recv_allows_shorter_message() {
        let recv = of(&DataType::contiguous(10, &dbl()).unwrap(), 1);
        let msg = of(&DataType::contiguous(6, &dbl()).unwrap(), 1);
        assert!(recv.check_recv(&msg).is_ok());
    }

    #[test]
    fn recv_rejects_truncation() {
        let recv = of(&DataType::contiguous(4, &dbl()).unwrap(), 1);
        let msg = of(&DataType::contiguous(6, &dbl()).unwrap(), 1);
        assert!(matches!(
            recv.check_recv(&msg),
            Err(TypeError::Truncated { .. })
        ));
    }

    #[test]
    fn recv_rejects_wrong_primitive_prefix() {
        let recv = of(&DataType::contiguous(8, &DataType::int()).unwrap(), 1);
        let msg = of(&DataType::contiguous(2, &dbl()).unwrap(), 1);
        assert!(matches!(
            recv.check_recv(&msg),
            Err(TypeError::SignatureMismatch)
        ));
    }

    #[test]
    fn recv_prefix_must_align_with_runs() {
        // recv = [int x4], msg = [int x2, double x1]: mismatch.
        let recv = of(&DataType::contiguous(4, &DataType::int()).unwrap(), 1);
        let s = DataType::structure(&[2, 1], &[0, 8], &[DataType::int(), dbl()]).unwrap();
        let msg = of(&s, 1);
        assert!(recv.check_recv(&msg).is_err());
    }

    #[test]
    fn heterogeneous_repetition() {
        let s = DataType::structure(&[1, 1], &[0, 8], &[DataType::int(), dbl()]).unwrap();
        let a = of(&s, 3);
        let b = of(&s, 3);
        assert!(a.matches(&b));
        assert_eq!(a.element_count(), 6);
        let c = of(&s, 2);
        assert!(!a.matches(&c));
    }

    #[test]
    fn empty_and_zero_count() {
        let z = of(&dbl(), 0);
        assert_eq!(z.byte_count(), 0);
        assert!(z.matches(&of(&DataType::int(), 0)));
        assert!(of(&dbl(), 1).check_recv(&z).is_ok());
    }
}
