//! The communication schedule of each collective, defined once: pure
//! index arithmetic — no `Sim`, no allocation. [`crate::coll`] posts a
//! schedule as point-to-point transfers on the full stack and
//! [`crate::scale`] walks the same functions as whole messages, so what
//! the 1024-rank model validates is what the full stack runs. Ranks are
//! `< n`, a round is `< rounds(n)`, a `root` is taken modulo `n`.

/// `x` reduced into `0..n`, for `x < 2n` (every distance here is `< n`).
fn wrap(x: usize, n: usize) -> usize {
    x - if x >= n { n } else { 0 }
}

/// `⌈log₂ n⌉`, with `0` for `n ≤ 1`.
pub(crate) fn ceil_log2(n: usize) -> usize {
    (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize
}

/// A round-structured exchange: per round, each rank sends and receives one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exchange {
    /// Allgather: pass blocks to the right neighbour, `n − 1` times.
    Ring,
    /// Pairwise alltoall: round `k` pairs a rank with the `k + 1`-th to its right.
    Rotation,
    /// Barrier: round `k` signals the rank `2ᵏ` to the right.
    Dissemination,
}

/// One rank's half of one round. Blocks index the `n` per-rank slots of
/// a buffer (for [`Exchange::Dissemination`]: whose token travels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub to: usize,
    pub from: usize,
    pub send_block: usize,
    pub recv_block: usize,
}

impl Exchange {
    pub fn rounds(self, n: usize) -> usize {
        match self {
            Exchange::Ring | Exchange::Rotation => n.saturating_sub(1),
            Exchange::Dissemination => ceil_log2(n),
        }
    }

    /// What `rank` sends and receives in `round`.
    pub fn step(self, rank: usize, round: usize, n: usize) -> Step {
        debug_assert!(rank < n && round < self.rounds(n));
        let dist = match self {
            Exchange::Ring => 1,
            Exchange::Rotation => round + 1,
            Exchange::Dissemination => 1 << round,
        };
        let (to, from) = (wrap(rank + dist, n), wrap(rank + n - dist, n));
        let (send_block, recv_block) = match self {
            // A rank forwards what it received the round before,
            // starting with its own contribution.
            Exchange::Ring => (wrap(rank + n - round, n), wrap(from + n - round, n)),
            Exchange::Rotation => (to, from),
            Exchange::Dissemination => (rank, from),
        };
        Step {
            to,
            from,
            send_block,
            recv_block,
        }
    }
}

/// `rank`'s position in the binomial tree rooted at `root`.
fn relative(rank: usize, root: usize, n: usize) -> usize {
    wrap(rank + n - root % n, n)
}

/// Binomial-tree broadcast: whom `rank` receives from — relative rank
/// with its lowest set bit cleared — or `None` at the root.
pub(crate) fn bcast_parent(rank: usize, root: usize, n: usize) -> Option<usize> {
    let v = relative(rank, root, n);
    (v != 0).then(|| wrap((v & (v - 1)) + root % n, n))
}

/// Binomial-tree broadcast: whom `rank` forwards to once it holds the
/// data — relative rank plus each power of two below its lowest set bit
/// (below `n` at the root), largest sub-tree first (MPICH order).
pub(crate) fn bcast_children(rank: usize, root: usize, n: usize) -> impl Iterator<Item = usize> {
    let v = relative(rank, root, n);
    let top = if v == 0 {
        n.next_power_of_two()
    } else {
        v & v.wrapping_neg()
    };
    (0..top.trailing_zeros())
        .rev()
        .map(move |bit| v + (1usize << bit))
        .filter(move |&child| child < n)
        .map(move |child| wrap(child + root % n, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 9] = [1, 2, 3, 4, 5, 7, 8, 33, 64];
    const KINDS: [Exchange; 3] = [Exchange::Ring, Exchange::Rotation, Exchange::Dissemination];

    /// Every send has its receive: the rank a step sends to names the
    /// sender as `from` in the same round, and both agree on the block.
    #[test]
    fn each_send_meets_its_receive() {
        for n in SIZES {
            for kind in KINDS {
                for round in 0..kind.rounds(n) {
                    for r in 0..n {
                        let s = kind.step(r, round, n);
                        assert!(s.to < n && s.from < n && s.send_block < n && s.recv_block < n);
                        assert_ne!(s.to, r, "{kind:?} n={n}: self-send");
                        let peer = kind.step(s.to, round, n);
                        assert_eq!(peer.from, r, "{kind:?} n={n} round {round} rank {r}");
                        // A rotation transposes — slot `to` of the sender
                        // lands in slot `from` of the receiver; the others
                        // carry one block identity end to end.
                        let sent = match kind {
                            Exchange::Rotation => (s.send_block == s.to).then_some(r),
                            _ => Some(s.send_block),
                        };
                        assert_eq!(Some(peer.recv_block), sent, "{kind:?} n={n} rank {r}");
                    }
                }
            }
        }
    }

    /// A ring only ever forwards a block it holds, and ends with every
    /// contributor's block at every rank, each delivered exactly once.
    #[test]
    fn ring_delivers_every_block_to_every_rank_once() {
        for n in SIZES {
            let mut holds: Vec<Vec<bool>> =
                (0..n).map(|r| (0..n).map(|b| b == r).collect()).collect();
            for round in 0..Exchange::Ring.rounds(n) {
                let steps: Vec<Step> = (0..n).map(|r| Exchange::Ring.step(r, round, n)).collect();
                for (r, s) in steps.iter().enumerate() {
                    assert!(
                        holds[r][s.send_block],
                        "n={n}: rank {r} forwards a block it lacks"
                    );
                }
                for (r, s) in steps.iter().enumerate() {
                    assert!(!holds[r][s.recv_block], "n={n}: block delivered twice");
                    holds[r][s.recv_block] = true;
                }
            }
            assert!(
                holds.iter().flatten().all(|&h| h),
                "n={n}: a block is missing"
            );
        }
    }

    /// A rotation pairs every ordered `(r, t)`, `r ≠ t`, exactly once;
    /// the block sent is the destination's, the block received the
    /// source's.
    #[test]
    fn rotation_pairs_every_ordered_pair_once() {
        for n in SIZES {
            let mut sent = vec![vec![0u32; n]; n];
            for round in 0..Exchange::Rotation.rounds(n) {
                for (r, row) in sent.iter_mut().enumerate() {
                    let s = Exchange::Rotation.step(r, round, n);
                    assert_eq!((s.send_block, s.recv_block), (s.to, s.from));
                    row[s.to] += 1;
                }
            }
            for (r, row) in sent.iter().enumerate() {
                for (t, &count) in row.iter().enumerate() {
                    assert_eq!(count, (r != t) as u32, "n={n}: {r} -> {t}");
                }
            }
        }
    }

    /// After `⌈log₂ n⌉` dissemination rounds every rank has (transitively)
    /// heard from every rank.
    #[test]
    fn dissemination_informs_everyone() {
        for n in SIZES {
            let mut knows: Vec<Vec<bool>> =
                (0..n).map(|r| (0..n).map(|b| b == r).collect()).collect();
            assert_eq!(Exchange::Dissemination.rounds(n), ceil_log2(n));
            for round in 0..ceil_log2(n) {
                let before = knows.clone();
                for (r, mine) in knows.iter_mut().enumerate() {
                    let from = Exchange::Dissemination.step(r, round, n).from;
                    for (b, k) in mine.iter_mut().enumerate() {
                        *k |= before[from][b];
                    }
                }
            }
            assert!(knows.iter().flatten().all(|&k| k), "n={n}");
        }
        assert_eq!([0, 1, 2, 33, 64, 65].map(ceil_log2), [0, 0, 1, 6, 6, 7]);
    }

    /// The broadcast tree gives every non-root exactly one parent — the
    /// one `bcast_parent` names — and reaches every rank from the root.
    #[test]
    fn bcast_tree_spans_every_rank_once() {
        for n in SIZES {
            for root in [0, n / 2, n - 1, n + 3] {
                let mut parent = vec![None; n];
                for r in 0..n {
                    for c in bcast_children(r, root, n) {
                        assert_eq!(
                            parent[c].replace(r),
                            None,
                            "n={n} root={root}: two parents for {c}"
                        );
                        assert_eq!(bcast_parent(c, root, n), Some(r));
                    }
                }
                assert_eq!(bcast_parent(root % n, root, n), None);
                assert_eq!(parent.iter().flatten().count(), n - 1, "n={n} root={root}");
                let mut reached = vec![root % n];
                let mut next = 0;
                while next < reached.len() {
                    reached.extend(bcast_children(reached[next], root, n));
                    next += 1;
                }
                reached.sort_unstable();
                assert_eq!(reached, (0..n).collect::<Vec<_>>(), "n={n} root={root}");
            }
        }
    }

    /// MPICH order: largest sub-tree first.
    #[test]
    fn bcast_children_are_in_mpich_order() {
        let kids = |r, root, n| bcast_children(r, root, n).collect::<Vec<_>>();
        assert_eq!(kids(3, 3, 8), [7, 5, 4]);
        assert_eq!(kids(0, 0, 6), [4, 2, 1]);
        assert_eq!(kids(4, 0, 6), [5]);
        assert_eq!(kids(7, 3, 8), [1, 0]);
        assert_eq!(kids(0, 0, 1), [] as [usize; 0]);
    }
}
