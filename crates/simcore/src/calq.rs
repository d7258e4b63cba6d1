//! Generic calendar queue: the future-event structure shared by the
//! closure driver ([`crate::event::Sim`]) and the message-level loop
//! ([`crate::msgsim`]).
//!
//! Entries are ordered by `(at, key)` where `key` is a caller-chosen
//! `u64` tiebreaker: the driver uses a globally monotonic sequence
//! number (insertion order), the message loop packs `(src_rank << 32) |
//! send_seq` so same-instant delivery order is a function of the
//! model's sends, not of insertion order. Three structures share the
//! order (DESIGN.md §13):
//!
//! * the **calendar ring** — entries bucketed by virtual-time epoch
//!   (`at >> shift`). A ring of `RING` buckets covers one *lap* of
//!   epochs; buckets are unsorted until promoted, so insertion is O(1);
//! * the **sorted active run** — the bucket at the current epoch,
//!   promoted, sorted by `(at, key)` and drained through a cursor;
//! * the **overflow rung** — entries beyond the current lap. When the
//!   ring drains, the rung is re-anchored: the bucket width (`shift`)
//!   widens until the rung's span fits in the next lap.
//!
//! The width also narrows: a bucket promoted with more than `CROWDED`
//! entries is not sorted as one run; it and the ring are re-bucketed at
//! a width that spreads it to about `PER_BUCKET` entries a bucket
//! (Brown's calendar queue sizes buckets to the event spacing for the
//! same reason).

use crate::time::SimTime;

/// Buckets in the calendar ring (one *lap* of epochs). Power of two.
const RING: usize = 1024;
const RING_MASK: u64 = RING as u64 - 1;
/// Initial bucket width: 2^10 = 1024 virtual nanoseconds. Re-anchoring
/// widens it to the event-time spread; a crowded promotion narrows it.
const INIT_SHIFT: u32 = 10;
/// Widest bucket the re-anchor adaptation may pick (2^40 ns ≈ 18 min of
/// virtual time per bucket): beyond this a lap covers any plausible run.
const MAX_SHIFT: u32 = 40;
/// A bucket promoted with more entries than this narrows the width
/// first. Measured on the 1024-rank alltoall soak, which promotes 543
/// envelopes per 1 µs bucket on average without it (EXPERIMENTS.md,
/// "Calendar buckets follow event density"): at 64 it narrows 3 times
/// per op and promotes at most 63; 32 narrows 17 times, 16 narrows 243
/// times and pushes 2.3× the entries through the overflow rung; 128
/// leaves 9 runs per op of up to 98 to sort. The `event::Sim`
/// workloads promote at most 64 (`a2a_64`, mostly one instant with one
/// entry per rank) and never narrow.
const CROWDED: usize = 64;
/// Entries per bucket a narrowing aims at. On the same soak 4 and 8
/// narrow 3 times per op and 32 narrows 4 times, with timings that did
/// not separate: a re-anchor, not the narrowing, sets the width most
/// laps run at.
const PER_BUCKET: u64 = 8;

#[derive(Clone, Copy, Debug)]
struct CalEntry<P: Copy> {
    at: SimTime,
    key: u64,
    payload: P,
}

impl<P: Copy> CalEntry<P> {
    fn order(&self) -> (SimTime, u64) {
        (self.at, self.key)
    }
}

/// Future events: calendar ring + sorted active run + overflow rung.
/// `P` is a small `Copy` payload (an event slot index, an envelope slab
/// index); anything bigger belongs behind an index.
pub struct CalendarQueue<P: Copy> {
    shift: u32,
    /// Epoch owned by `active`. Ring buckets hold epochs strictly
    /// greater, up to (not including) `lap_end`.
    cur_epoch: u64,
    /// First epoch beyond the ring's coverage; entries at or past it
    /// wait in `overflow` until the next re-anchor.
    lap_end: u64,
    ring: Vec<Vec<CalEntry<P>>>,
    /// Entries resting in ring buckets (excludes `active` and overflow).
    ring_len: usize,
    /// One-bit-per-bucket occupancy so the epoch advance skips empty
    /// buckets a word at a time.
    occupied: [u64; RING / 64],
    /// The promoted bucket, sorted ascending by `(at, key)`; positions
    /// before `cursor` have already been popped.
    active: Vec<CalEntry<P>>,
    cursor: usize,
    overflow: Vec<CalEntry<P>>,
    /// Total entries held (active remainder + ring + overflow),
    /// including any the caller considers logically dead.
    len: usize,
}

impl<P: Copy> Default for CalendarQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Copy> CalendarQueue<P> {
    pub fn new() -> Self {
        CalendarQueue {
            shift: INIT_SHIFT,
            cur_epoch: 0,
            lap_end: RING as u64,
            ring: (0..RING).map(|_| Vec::new()).collect(),
            ring_len: 0,
            occupied: [0; RING / 64],
            active: Vec::new(),
            cursor: 0,
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Entries held, including any the caller has logically cancelled
    /// but not yet swept.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn epoch_of(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.shift
    }

    /// O(1) insert (amortized): same-epoch entries keep the active run
    /// sorted via a bounded binary insert, in-lap entries append to
    /// their (unsorted) bucket, far-future entries join the overflow
    /// rung.
    ///
    /// For exact ordering the caller must never insert an entry that
    /// sorts before one already popped; with monotonically increasing
    /// pop order and `at` >= the last popped time, appending is safe.
    #[inline]
    pub fn insert(&mut self, at: SimTime, key: u64, payload: P) {
        let entry = CalEntry { at, key, payload };
        self.len += 1;
        let epoch = self.epoch_of(at);
        if epoch <= self.cur_epoch {
            // Short-delay insertion lands in the epoch being drained.
            // When the caller's keys are monotonic the new entry sorts
            // last among equal times: appending keeps `active` sorted
            // whenever its tail is not ahead of `at` (the common case
            // for event chains); anything else takes the binary-insert
            // slow path.
            match self.active.last() {
                Some(last) if last.order() > entry.order() => self.insert_slow(entry),
                _ => {
                    if self.cursor >= self.active.len() {
                        self.active.clear();
                        self.cursor = 0;
                    }
                    self.active.push(entry);
                }
            }
        } else {
            self.file(entry, epoch);
        }
    }

    /// Put a future entry (`epoch > cur_epoch`) in its ring bucket, or
    /// on the overflow rung when it lies past the lap.
    #[inline]
    fn file(&mut self, entry: CalEntry<P>, epoch: u64) {
        if epoch < self.lap_end {
            let b = (epoch & RING_MASK) as usize;
            self.ring[b].push(entry);
            self.ring_len += 1;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.overflow.push(entry);
        }
    }

    /// An entry for the currently draining epoch (or one already
    /// passed) that sorts before `active`'s tail: insert it in place so
    /// the (time, key) order is exact. Times only land here near the
    /// cursor, so the shifted tail is short.
    #[cold]
    fn insert_slow(&mut self, entry: CalEntry<P>) {
        let pos =
            self.cursor + self.active[self.cursor..].partition_point(|e| e.order() < entry.order());
        self.active.insert(pos, entry);
    }

    /// Next pending entry in `(time, key)` order, advancing epochs,
    /// promoting buckets and re-anchoring the overflow rung as needed.
    /// Does not remove anything — safe to use as a peek.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<(SimTime, u64)> {
        if self.cursor < self.active.len() {
            let e = &self.active[self.cursor];
            return Some((e.at, e.key));
        }
        self.peek_slow()
    }

    #[cold]
    fn peek_slow(&mut self) -> Option<(SimTime, u64)> {
        loop {
            if self.cursor < self.active.len() {
                let e = &self.active[self.cursor];
                return Some((e.at, e.key));
            }
            if self.ring_len > 0 {
                let next = self
                    .next_occupied((self.cur_epoch & RING_MASK) as usize)
                    .expect("ring_len > 0 but no occupied bucket");
                // Map the bucket index back to its (unique, in-lap)
                // epoch: the first epoch > cur_epoch with this residue.
                let cur_res = (self.cur_epoch & RING_MASK) as usize;
                let delta = (next + RING - cur_res - 1) % RING + 1;
                self.cur_epoch += delta as u64;
                debug_assert!(self.cur_epoch < self.lap_end);
                self.active.clear();
                self.cursor = 0;
                std::mem::swap(&mut self.active, &mut self.ring[next]);
                self.ring_len -= self.active.len();
                self.occupied[next / 64] &= !(1 << (next % 64));
            } else if !self.overflow.is_empty() {
                self.re_anchor();
            } else {
                return None;
            }
            while self.active.len() > CROWDED && self.narrow() {}
            if self.active.len() > 1 {
                self.active.sort_unstable_by_key(|e| e.order());
            }
        }
    }

    /// First occupied bucket index strictly after `from`, circularly.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let start = (from + 1) % RING;
        let (wi, bi) = (start / 64, start % 64);
        // The word holding `start`, masked to bits >= bi.
        let w = self.occupied[wi] & (!0u64 << bi);
        if w != 0 {
            return Some(wi * 64 + w.trailing_zeros() as usize);
        }
        for step in 1..=self.occupied.len() {
            let i = (wi + step) % self.occupied.len();
            let w = self.occupied[i];
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The just-promoted, still unsorted `active` run is crowded:
    /// narrow the width so its entries spread about [`PER_BUCKET`] to a
    /// bucket, and re-bucket it with the ring. The new current epoch is
    /// the narrow one holding the run's earliest entry, which is still
    /// in `active`; `now` is no later, so an insert at `now` lands there
    /// too. The lap never reaches past the old one, behind which the
    /// overflow rung waits. Returns false, leaving everything as it was,
    /// when no narrower width would split the run.
    #[cold]
    fn narrow(&mut self) -> bool {
        let (lo, hi) = self.active.iter().fold((u64::MAX, 0), |(lo, hi), e| {
            let t = e.at.as_nanos();
            (lo.min(t), hi.max(t))
        });
        let width = (hi - lo).saturating_mul(PER_BUCKET) / self.active.len() as u64;
        let shift = width.max(1).ilog2();
        if shift >= self.shift || lo >> shift == hi >> shift {
            return false;
        }
        let d = self.shift - shift;
        self.shift = shift;
        self.cur_epoch = lo >> shift;
        self.lap_end = self
            .lap_end
            .saturating_mul(1 << d)
            .min(self.cur_epoch + RING as u64);
        let mut moved = std::mem::take(&mut self.active);
        for (wi, word) in self.occupied.iter_mut().enumerate() {
            while *word != 0 {
                let b = wi * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                moved.append(&mut self.ring[b]);
            }
        }
        self.ring_len = 0;
        moved.retain(|e| {
            let epoch = e.at.as_nanos() >> shift;
            epoch == self.cur_epoch || {
                self.file(*e, epoch);
                false
            }
        });
        self.active = moved;
        true
    }

    /// Ring and active are empty: restart the calendar at the overflow
    /// rung's earliest entry, widening the bucket width until the rung's
    /// span fits in one lap (the far-future fallback the ring cannot
    /// cover with fine buckets). Leaves the first epoch's entries in
    /// `active`, unsorted, for `peek_slow` to promote.
    fn re_anchor(&mut self) {
        debug_assert!(self.cursor >= self.active.len() && self.ring_len == 0);
        let min_at = self.overflow.iter().map(|e| e.at).min().expect("non-empty");
        let max_at = self.overflow.iter().map(|e| e.at).max().expect("non-empty");
        let span = max_at.as_nanos() - min_at.as_nanos();
        // A width a crowded promotion narrowed is kept. Resetting to
        // 1 µs re-crowds the next lap: the soak then narrows 218 times
        // per op instead of 3, at twice the peak RSS (EXPERIMENTS.md).
        let mut shift = self.shift.min(INIT_SHIFT);
        while shift < MAX_SHIFT && (span >> shift) >= RING as u64 {
            shift += 1;
        }
        self.shift = shift;
        self.cur_epoch = min_at.as_nanos() >> shift;
        self.lap_end = self.cur_epoch + RING as u64;
        self.active.clear();
        self.cursor = 0;
        for entry in std::mem::take(&mut self.overflow) {
            let epoch = entry.at.as_nanos() >> shift;
            if epoch == self.cur_epoch {
                self.active.push(entry);
            } else {
                self.file(entry, epoch);
            }
        }
    }

    /// Take the entry `peek` reported. Must be called directly after a
    /// `Some` return from `peek`.
    #[inline]
    pub(crate) fn pop_head(&mut self) -> (SimTime, u64, P) {
        debug_assert!(self.cursor < self.active.len());
        let e = self.active[self.cursor];
        self.cursor += 1;
        self.len -= 1;
        if self.cursor == self.active.len() {
            self.active.clear();
            self.cursor = 0;
        }
        (e.at, e.key, e.payload)
    }

    /// Peek-and-pop in one call.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, P)> {
        self.peek()?;
        Some(self.pop_head())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_key() {
        let mut q = CalendarQueue::new();
        for (t, k) in [(30u64, 0u64), (10, 2), (10, 1), (20, 3)] {
            q.insert(SimTime::from_nanos(t), k, k as u32);
        }
        let mut out = Vec::new();
        while let Some((at, key, _)) = q.pop() {
            out.push((at.as_nanos(), key));
        }
        assert_eq!(out, vec![(10, 1), (10, 2), (20, 3), (30, 0)]);
    }

    #[test]
    fn non_monotonic_keys_still_sort_within_instant() {
        // The message loop's keys are (src_rank, seq): not globally
        // monotonic across inserts. Entries at one instant must still
        // pop in key order regardless of insertion order.
        let mut q = CalendarQueue::new();
        q.insert(SimTime::from_nanos(5), 9, 0u32);
        q.insert(SimTime::from_nanos(5), 3, 1);
        q.insert(SimTime::from_nanos(5), 7, 2);
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, k, _)| k)).collect();
        assert_eq!(keys, vec![3, 7, 9]);
    }

    #[test]
    fn overflow_re_anchor_round_trip() {
        let mut q = CalendarQueue::new();
        let times = [5_000_000_000u64, 40, 2_000_000, 100_000, 33_000];
        for (i, &t) in times.iter().enumerate() {
            q.insert(SimTime::from_nanos(t), i as u64, ());
        }
        let mut got: Vec<u64> =
            std::iter::from_fn(|| q.pop().map(|(t, _, _)| t.as_nanos())).collect();
        let mut expect = times.to_vec();
        expect.sort_unstable();
        got.sort_unstable(); // already sorted; keep the assert strict anyway
        assert_eq!(got, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn crowded_promotion_narrows_and_keeps_order() {
        // 600 entries ~1.7 ns apart in one 1 µs bucket (epoch 3), keys
        // descending so the input is far from sorted.
        let mut q = CalendarQueue::new();
        let times: Vec<u64> = (0..600u64).map(|i| 3_072 + i * 5 / 3).collect();
        for (i, &t) in times.iter().enumerate() {
            q.insert(SimTime::from_nanos(t), 600 - i as u64, ());
        }
        assert_eq!(q.pop().unwrap().0.as_nanos(), 3_072);
        assert!(q.shift < INIT_SHIFT, "a crowded bucket narrows the width");
        assert!(
            q.active.len() <= 2 * PER_BUCKET as usize,
            "{}",
            q.active.len()
        );
        // An insert at `now` still lands in the current epoch.
        q.insert(SimTime::from_nanos(3_072), 1_000, ());
        let mut got = vec![(3_072, 600)];
        got.extend(std::iter::from_fn(|| {
            q.pop().map(|(t, k, _)| (t.as_nanos(), k))
        }));
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, 600 - i as u64))
            .collect();
        want.push((3_072, 1_000));
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn one_instant_crowd_is_sorted_not_narrowed() {
        let mut q = CalendarQueue::new();
        for k in (0..100u64).rev() {
            q.insert(SimTime::from_nanos(5_000), k, ());
        }
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.shift, INIT_SHIFT, "no width splits one instant");
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, k, _)| k)).collect();
        assert_eq!(keys, (1..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_insert_pop_keeps_order() {
        let mut q = CalendarQueue::new();
        q.insert(SimTime::from_nanos(10), 0, 0u8);
        let (t, _, _) = q.pop().unwrap();
        assert_eq!(t.as_nanos(), 10);
        // Insert at the popped instant with a later key: must surface
        // before anything later.
        q.insert(SimTime::from_nanos(10), 1, 1);
        q.insert(SimTime::from_nanos(11), 2, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.pop().is_none());
    }
}
