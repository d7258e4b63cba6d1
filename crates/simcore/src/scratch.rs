//! Thread-local recycling of `CopyOp` unit buffers.
//!
//! The fragment pipeline needs an *owned* `Vec<CopyOp>` per in-flight
//! kernel (the completion event fires long after the engine has moved on
//! to the next fragment), so a purely borrowed API can't make the hot
//! path allocation-free by itself. Instead, the engine takes cleared
//! buffers from a thread-local shelf and the kernel-completion event
//! returns them, so steady-state streaming reuses the same few
//! allocations no matter how many fragments flow through.
//!
//! Retention is bounded two ways (the shelf once grew to a 9468-unit
//! high-water mark with nothing ever trimmed):
//!
//! * a **high-water cap** ([`SHELF_CAP_UNITS`]): a returned buffer that
//!   would push the *idle* total past the cap is dropped instead
//!   (counted in `trimmed`/`trimmed_units`). The one exception is a
//!   return to an empty shelf — a single working buffer bigger than the
//!   cap is the workload's legitimate footprint, and dropping it would
//!   force a fresh allocation every cycle;
//! * a **decay on take** ([`SHELF_DECAY_TAKES`]): the coldest shelved
//!   buffer is dropped once it has sat idle through that many takes
//!   (counted in `decayed`), so a burst's buffers don't linger after
//!   the workload shrinks.
//!
//! The shelf also counts its traffic ([`ScratchStats`]): the repo
//! benchmark's `simcore.scratch.fresh_per_op` probe reads `fresh` as an
//! allocation-pressure proxy, since the workspace has no global
//! allocator hooks; the unit tests below pin the trim and decay policy.

use crate::par::CopyOp;
use std::cell::RefCell;

/// Maximum number of idle buffers kept on the shelf. The pipeline keeps
/// at most a handful of fragments in flight, so this is generous; extra
/// returns are dropped (and counted) instead of hoarding memory.
const SHELF_CAP: usize = 64;

/// High-water cap on the total capacity (in `CopyOp` units) resting
/// idle on the shelf. One unit is 24 bytes, so this bounds idle shelf
/// memory to ~192 KiB per thread.
pub const SHELF_CAP_UNITS: u64 = 8192;

/// A shelved buffer untouched for this many takes is dropped: the
/// workload that needed it has moved on.
pub const SHELF_DECAY_TAKES: u64 = 256;

/// Counters describing shelf traffic since the last [`reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Buffers handed out by [`take_units_buf`].
    pub takes: u64,
    /// Hand-outs that had to heap-allocate a new `Vec` (shelf empty).
    pub fresh: u64,
    /// Hand-outs served from the shelf without allocating.
    pub recycled: u64,
    /// Returned buffers dropped because the shelf was full.
    pub dropped: u64,
    /// Returned buffers dropped by the high-water cap
    /// ([`SHELF_CAP_UNITS`]).
    pub trimmed: u64,
    /// Total capacity (in `CopyOp`s) dropped by the high-water cap.
    pub trimmed_units: u64,
    /// Shelved buffers dropped by idle decay ([`SHELF_DECAY_TAKES`]).
    pub decayed: u64,
    /// Buffers currently resting on the shelf.
    pub retained: u64,
    /// Total capacity (in `CopyOp`s) currently resting on the shelf.
    pub retained_units: u64,
    /// High-water mark of `retained_units` — the resident-memory proxy.
    pub peak_retained_units: u64,
}

struct Shelf {
    /// Idle buffers, LIFO (hottest last), each tagged with the value of
    /// `stats.takes` when it was shelved.
    bufs: Vec<(Vec<CopyOp>, u64)>,
    stats: ScratchStats,
}

thread_local! {
    static SHELF: RefCell<Shelf> = RefCell::new(Shelf {
        bufs: Vec::new(),
        stats: ScratchStats::default(),
    });
}

/// Take an empty unit buffer, reusing a recycled one when available.
pub fn take_units_buf() -> Vec<CopyOp> {
    SHELF.with(|s| {
        let mut s = s.borrow_mut();
        s.stats.takes += 1;
        // Idle decay: the coldest buffer sits at the bottom of the LIFO.
        // At most one drop per take keeps this O(1).
        if let Some((cold, shelved_at)) = s.bufs.first() {
            if s.stats.takes.saturating_sub(*shelved_at) > SHELF_DECAY_TAKES {
                let units = cold.capacity() as u64;
                s.bufs.remove(0);
                s.stats.decayed += 1;
                s.stats.retained -= 1;
                s.stats.retained_units -= units;
            }
        }
        match s.bufs.pop() {
            Some((mut v, _)) => {
                s.stats.recycled += 1;
                s.stats.retained -= 1;
                s.stats.retained_units -= v.capacity() as u64;
                v.clear();
                v
            }
            None => {
                s.stats.fresh += 1;
                Vec::new()
            }
        }
    })
}

/// Return a buffer to the shelf for reuse. Zero-capacity buffers,
/// overflow beyond the shelf cap, and returns that would push the idle
/// total past the high-water cap are dropped (the latter two counted).
pub fn recycle_units_buf(v: Vec<CopyOp>) {
    if v.capacity() == 0 {
        return;
    }
    SHELF.with(|s| {
        let mut s = s.borrow_mut();
        if s.bufs.len() >= SHELF_CAP {
            s.stats.dropped += 1;
            return;
        }
        let units = v.capacity() as u64;
        // High-water trim. An empty shelf always accepts: a single
        // working buffer larger than the cap is the live footprint, not
        // hoarding, and re-allocating it every cycle would be worse.
        if !s.bufs.is_empty() && s.stats.retained_units + units > SHELF_CAP_UNITS {
            s.stats.trimmed += 1;
            s.stats.trimmed_units += units;
            return;
        }
        s.stats.retained += 1;
        s.stats.retained_units += units;
        s.stats.peak_retained_units = s.stats.peak_retained_units.max(s.stats.retained_units);
        let takes = s.stats.takes;
        s.bufs.push((v, takes));
    });
}

/// Current counters for this thread's shelf.
pub fn stats() -> ScratchStats {
    SHELF.with(|s| s.borrow().stats)
}

/// Reset the traffic counters (the shelf's contents stay). `retained` /
/// `retained_units` describe live state and are preserved;
/// `peak_retained_units` restarts from the current level.
pub fn reset_stats() {
    SHELF.with(|s| {
        let mut s = s.borrow_mut();
        let (retained, retained_units) = (s.stats.retained, s.stats.retained_units);
        s.stats = ScratchStats {
            retained,
            retained_units,
            peak_retained_units: retained_units,
            ..ScratchStats::default()
        };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(len: usize) -> CopyOp {
        CopyOp {
            src_off: 0,
            dst_off: 0,
            len,
        }
    }

    /// Drain the shelf so a test starts from a known-empty state (the
    /// thread-local persists across tests on the same thread).
    fn drain_shelf() {
        loop {
            reset_stats();
            let v = take_units_buf();
            if stats().fresh == 1 {
                break; // shelf was empty
            }
            drop(v);
        }
        reset_stats();
    }

    #[test]
    fn recycling_reuses_capacity() {
        drain_shelf();
        let mut a = take_units_buf();
        a.extend((0..100).map(|_| op(1)));
        let cap = a.capacity();
        recycle_units_buf(a);
        let b = take_units_buf();
        assert!(b.is_empty());
        assert!(b.capacity() >= cap, "recycled buffer keeps its capacity");
        let st = stats();
        assert_eq!(st.takes, 2);
        assert!(st.recycled >= 1);
        recycle_units_buf(b);
    }

    #[test]
    fn stats_track_shelf_traffic() {
        drain_shelf();
        let base = stats();
        let mut v = take_units_buf();
        v.push(op(1));
        recycle_units_buf(v);
        let st = stats();
        assert_eq!(st.takes, base.takes + 1);
        assert_eq!(st.retained, base.retained + 1);
        assert!(st.retained_units > base.retained_units);
        assert!(st.peak_retained_units >= st.retained_units);
        // Empty-capacity returns are a no-op.
        recycle_units_buf(Vec::new());
        assert_eq!(stats().retained, st.retained);
    }

    #[test]
    fn high_water_cap_trims_overflow_but_keeps_working_buffer() {
        drain_shelf();
        // A working buffer larger than the cap is retained on an empty
        // shelf...
        let mut big = take_units_buf();
        big.reserve_exact(SHELF_CAP_UNITS as usize + 100);
        let big_cap = big.capacity() as u64;
        recycle_units_buf(big);
        let st = stats();
        assert_eq!(st.retained, 1);
        assert_eq!(st.trimmed, 0);
        assert!(st.retained_units >= big_cap);
        // ...but any further return that would exceed the cap is
        // trimmed, so the idle total stops growing.
        let mut extra = take_units_buf(); // takes the big buffer back
        assert!(extra.capacity() as u64 >= big_cap);
        recycle_units_buf(extra); // shelf empty again: retained
        extra = Vec::with_capacity(1277);
        recycle_units_buf(extra);
        let st = stats();
        assert_eq!(st.trimmed, 1);
        assert_eq!(st.trimmed_units, 1277);
        assert_eq!(st.retained, 1, "only the working buffer is shelved");
        // Clean up for other tests on this thread.
        drain_shelf();
    }

    #[test]
    fn small_buffers_fill_up_to_the_cap() {
        drain_shelf();
        // Returns within the cap all shelve; the first overflow trims.
        let n = 4usize;
        let each = (SHELF_CAP_UNITS as usize) / n;
        for _ in 0..n {
            recycle_units_buf(Vec::with_capacity(each));
        }
        assert_eq!(stats().trimmed, 0);
        assert_eq!(stats().retained, n as u64);
        recycle_units_buf(Vec::with_capacity(each));
        assert_eq!(stats().trimmed, 1);
        drain_shelf();
    }

    #[test]
    fn idle_buffers_decay_after_enough_takes() {
        drain_shelf();
        recycle_units_buf(Vec::with_capacity(500)); // the cold buffer
        recycle_units_buf(Vec::with_capacity(100)); // stays hot via reuse
        for _ in 0..=SHELF_DECAY_TAKES {
            let v = take_units_buf(); // pops the hot one (LIFO)
            recycle_units_buf(v);
        }
        let st = stats();
        assert_eq!(st.decayed, 1, "cold buffer should decay");
        assert_eq!(st.retained, 1);
        assert!(st.retained_units < 500);
        drain_shelf();
    }
}
