//! Thread-local recycling of released allocation backings.
//!
//! A figure cell builds a fresh [`crate::Memory`] per session and drops
//! it at the end, so without a shelf every backing of every session is a
//! fresh zeroed heap block that the kernel faults in page by page, and
//! that glibc hands back to the kernel at `free`. The shelf keeps the
//! released blocks instead, per thread — the thread that ran one session
//! runs the next — and serves the next session's first accesses from
//! them.
//!
//! The policy, and why it cannot raise the footprint:
//!
//! * only blocks of at least [`SHELF_MIN_BYTES`] are shelved (and only
//!   requests that large look at the shelf); smaller ones are left to
//!   the allocator's own free lists;
//! * a request takes the **smallest** shelved block that holds it;
//! * a request no shelved block holds (a **miss**) first evicts shelved
//!   blocks, coldest first, totalling at least the request (or all of
//!   them), then allocates fresh. So the bytes held — live blocks plus
//!   idle ones — grow only when the shelf has just been emptied, and
//!   never past the peak of the live blocks alone;
//! * a returned block that would take the idle total past
//!   [`SHELF_CAP_BYTES`] is dropped.
//!
//! A block must read as zeros to its next owner, exactly like a fresh
//! one. Its last owner reports how far it wrote — the **dirty** extent,
//! the end of the furthest mutable borrow — and everything past that is
//! still zero, so a reused block is re-zeroed below its dirty extent
//! only. [`stats`] counts the shelf's traffic, including those bytes.
//!
//! Every block's usable bytes start on a host cache line ([`LINE`]), so
//! a simulated 64-byte boundary is a real one: a store that fills a
//! simulated line fills one host line, and the copy layer's streaming
//! stores cover it whole. glibc's `malloc` places a block of 128 KiB or
//! more 16 bytes past a page and a smaller one at any 16-byte offset, so
//! a block is allocated [`LINE`]` - 1` bytes longer than it is used and
//! used from its first aligned byte on. The bytes before it — the
//! **lead** — are fixed for the block's life, since a block never grows
//! and so its bytes never move, and never written, so they stay zero;
//! the dirty extent counts from the aligned start.

use std::cell::RefCell;

/// Smallest block the shelf keeps or serves: glibc's default mmap
/// threshold, below which a freed block stays in the allocator's free
/// lists and costs no fault to reuse. Measured on `a2a_64`
/// (EXPERIMENTS.md, "Recycle released backings"): a 4 KiB threshold
/// also shelves its 16 KiB eager bounce buffers, and its minor faults
/// rose to 1.20× this threshold's (1.36× those of a run without the
/// shelf) in 5 of 5 pairs.
pub const SHELF_MIN_BYTES: usize = 128 << 10;

/// Cap on the idle bytes the shelf holds. A `cells_cold` row reuses two
/// 4.5 MiB blocks and peaks at 9 MiB idle; `a2a_64` frees up to 32
/// 2 MiB blocks at once and reuses the 32 the cap keeps. `pp_dense`'s
/// 128 MiB blocks stay above the cap, so they go back to the allocator
/// as they did before the shelf, and no thread holds more than this
/// idle after its last session.
pub const SHELF_CAP_BYTES: usize = 64 << 20;

/// Counters describing shelf traffic on this thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShelfStats {
    /// Requests of at least [`SHELF_MIN_BYTES`].
    pub takes: u64,
    /// Requests served from the shelf.
    pub hits: u64,
    /// Requests served by a fresh allocation (a miss).
    pub fresh: u64,
    /// Shelved blocks a miss dropped to make room.
    pub evicted: u64,
    /// Bytes re-zeroed on hits (the served blocks' dirty extents).
    pub zeroed_bytes: u64,
    /// Bytes currently resting on the shelf.
    pub idle_bytes: u64,
    /// High-water mark of `idle_bytes`.
    pub peak_idle_bytes: u64,
}

/// The host cache line every block's usable bytes start on.
pub const LINE: usize = 64;

/// A zeroed heap block whose usable bytes start on a [`LINE`] boundary.
/// Its length never changes. It is a `Vec` rather than a box so that a
/// block moved with its allocation's entry keeps the raw pointers the
/// copy lane holds into it valid: moving a `Vec` asserts nothing about
/// the bytes it points to.
pub(crate) struct Block {
    raw: Vec<u8>,
    /// Bytes of `raw` before the first aligned one.
    lead: usize,
}

impl Block {
    /// A fresh block of `len` usable bytes, all zero.
    fn fresh(len: usize) -> Block {
        let raw = vec![0u8; len + LINE - 1];
        // An address is always alignable for `u8`; the `min` only keeps
        // the window inside `raw` should `align_offset` ever decline.
        let lead = raw.as_ptr().align_offset(LINE).min(LINE - 1);
        Block { raw, lead }
    }

    /// Usable bytes: what the block was made for, wherever it landed.
    pub(crate) fn len(&self) -> usize {
        self.raw.len() - (LINE - 1)
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.raw[self.lead..][..self.len()]
    }

    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        let len = self.len();
        &mut self.raw[self.lead..][..len]
    }

    /// The first usable byte, for reading, with no reference made to
    /// the bytes: a queued landing may be writing them.
    pub(crate) fn as_ptr(&self) -> *const u8 {
        self.raw.as_ptr().wrapping_add(self.lead)
    }

    /// The first usable byte, for writing, with no reference made to
    /// the bytes.
    pub(crate) fn as_mut_ptr(&mut self) -> *mut u8 {
        self.raw.as_mut_ptr().wrapping_add(self.lead)
    }
}

/// A released block; its usable bytes from `dirty` on are zero.
struct Idle {
    block: Block,
    dirty: usize,
}

#[derive(Default)]
struct Shelf {
    /// Idle blocks, coldest first.
    idle: Vec<Idle>,
    stats: ShelfStats,
}

thread_local! {
    static SHELF: RefCell<Shelf> = RefCell::new(Shelf::default());
}

/// A block of at least `len` usable bytes, all zero.
pub(crate) fn take(len: usize) -> Block {
    if len < SHELF_MIN_BYTES {
        return Block::fresh(len);
    }
    SHELF
        .try_with(|s| s.borrow_mut().take(len))
        .unwrap_or_else(|_| Block::fresh(len))
}

/// Release `block`, whose usable bytes from `dirty` on are zero.
pub(crate) fn put(block: Block, dirty: usize) {
    if block.len() >= SHELF_MIN_BYTES {
        // During thread teardown the shelf may be gone: the block drops.
        let _ = SHELF.try_with(|s| s.borrow_mut().put(block, dirty));
    }
}

/// Current counters for this thread's shelf.
pub fn stats() -> ShelfStats {
    SHELF.with(|s| s.borrow().stats)
}

impl Shelf {
    fn take(&mut self, len: usize) -> Block {
        self.stats.takes += 1;
        // Best fit; among equal sizes the most recently shelved.
        let best = (self.idle.iter().enumerate().rev())
            .filter(|(_, b)| b.block.len() >= len)
            .min_by_key(|(_, b)| b.block.len())
            .map(|(i, _)| i);
        if let Some(i) = best {
            let Idle { mut block, dirty } = self.idle.remove(i);
            block.bytes_mut()[..dirty].fill(0);
            self.stats.hits += 1;
            self.stats.zeroed_bytes += dirty as u64;
            self.stats.idle_bytes -= block.len() as u64;
            return block;
        }
        // A miss: evict the coldest blocks until they cover `len`.
        let (mut n, mut freed) = (0, 0);
        while freed < len && n < self.idle.len() {
            freed += self.idle[n].block.len();
            n += 1;
        }
        for b in self.idle.drain(..n) {
            self.stats.idle_bytes -= b.block.len() as u64;
        }
        self.stats.evicted += n as u64;
        self.stats.fresh += 1;
        Block::fresh(len)
    }

    fn put(&mut self, block: Block, dirty: usize) {
        let idle = self.stats.idle_bytes + block.len() as u64;
        if idle > SHELF_CAP_BYTES as u64 {
            return;
        }
        self.stats.idle_bytes = idle;
        self.stats.peak_idle_bytes = self.stats.peak_idle_bytes.max(idle);
        let dirty = dirty.min(block.len());
        self.idle.push(Idle { block, dirty });
    }
}

/// Drop every idle block and zero the counters: a test's clean start.
#[cfg(test)]
pub(crate) fn clear() {
    SHELF.with(|s| *s.borrow_mut() = Shelf::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::SimRng;

    const MIN: usize = SHELF_MIN_BYTES;

    #[test]
    fn only_blocks_past_the_threshold_are_shelved_or_served() {
        clear();
        put(Block::fresh(MIN - 1), 0);
        assert_eq!(stats(), ShelfStats::default(), "a small block just drops");
        put(Block::fresh(MIN), 0);
        assert_eq!(stats().idle_bytes, MIN as u64);
        // A small request does not look at the shelf, even where a
        // shelved block would hold it.
        assert_eq!(take(MIN - 1).len(), MIN - 1);
        assert_eq!((stats().takes, stats().idle_bytes), (0, MIN as u64));
        assert_eq!(take(MIN).len(), MIN);
        let st = stats();
        assert_eq!((st.takes, st.hits, st.fresh, st.idle_bytes), (1, 1, 0, 0));
    }

    #[test]
    fn the_idle_total_never_passes_the_cap() {
        clear();
        put(Block::fresh(SHELF_CAP_BYTES + 1), 0);
        assert_eq!(stats().idle_bytes, 0, "above the cap even when empty");
        let quarter = SHELF_CAP_BYTES / 4;
        for _ in 0..4 {
            put(Block::fresh(quarter), 0);
        }
        assert_eq!(stats().idle_bytes, SHELF_CAP_BYTES as u64);
        put(Block::fresh(MIN), 0);
        let st = stats();
        assert_eq!(
            st.idle_bytes, SHELF_CAP_BYTES as u64,
            "a full shelf refuses"
        );
        assert_eq!(st.peak_idle_bytes, SHELF_CAP_BYTES as u64);
        // Room made by a take is room again.
        take(quarter);
        put(Block::fresh(MIN), 0);
        assert_eq!(stats().idle_bytes, (3 * quarter + MIN) as u64);
    }

    #[test]
    fn a_take_gets_the_smallest_block_that_holds_it_zeroed_below_its_dirty_end() {
        clear();
        for kib in [512, 256, 1024, 384] {
            let mut block = Block::fresh(kib << 10);
            block.bytes_mut()[..1000].fill(7);
            put(block, 1000);
        }
        for (want, got) in [(200, 256), (300, 384), (257, 512), (384, 1024)] {
            let block = take(want << 10);
            assert_eq!(block.len(), got << 10, "a {want} KiB request");
            assert!(block.raw.iter().all(|&b| b == 0));
        }
        let st = stats();
        assert_eq!((st.takes, st.hits, st.fresh, st.evicted), (4, 4, 0, 0));
        assert_eq!(st.zeroed_bytes, 4000, "only each block's dirty head");
        assert_eq!((st.idle_bytes, st.peak_idle_bytes), (0, 2176 << 10));
    }

    #[test]
    fn a_miss_evicts_the_coldest_blocks_totalling_at_least_the_request() {
        clear();
        for kib in [128, 256, 192, 320] {
            put(Block::fresh(kib << 10), 0);
        }
        // 400 KiB: no block holds it; 128 + 256 KiB is short of it, so
        // the first three go and 320 KiB stays.
        assert_eq!(take(400 << 10).len(), 400 << 10);
        let st = stats();
        assert_eq!((st.hits, st.fresh, st.evicted), (0, 1, 3));
        assert_eq!(st.idle_bytes, 320 << 10);
        // A miss bigger than the whole shelf empties it.
        take(1 << 20);
        assert_eq!((stats().evicted, stats().idle_bytes), (4, 0));
    }

    fn aligned(block: &Block) -> bool {
        (block.bytes().as_ptr() as usize).is_multiple_of(LINE)
    }

    /// Live blocks plus idle ones never exceed the peak of the live
    /// blocks alone, over a seeded mix of takes and releases. Every
    /// block starts on a line, fresh or reused, and a reused one reads
    /// zero — its lead included — wherever its last owner wrote below
    /// the dirty end it reported.
    #[test]
    fn evict_before_fresh_keeps_the_footprint_under_the_live_peak() {
        clear();
        let mut rng = SimRng::new(31);
        let mut live: Vec<Block> = Vec::new();
        let (mut live_bytes, mut peak_live) = (0usize, 0usize);
        for _ in 0..4000 {
            if live.is_empty() || rng.chance(0.55) {
                let len = MIN * rng.range(1, 24) + rng.range(0, 4096);
                let block = take(len);
                assert!(block.len() >= len && aligned(&block));
                // Everything a last owner may have written, and more:
                // the lead and 4 KiB, past the 2 KiB dirty ends below.
                assert!(block.raw[..block.lead + 4096].iter().all(|&b| b == 0));
                live_bytes += block.len();
                live.push(block);
            } else {
                let mut block = live.swap_remove(rng.range(0, live.len()));
                live_bytes -= block.len();
                let dirty = rng.range(0, 2048);
                block.bytes_mut()[..dirty].fill(0xA5);
                put(block, dirty);
            }
            peak_live = peak_live.max(live_bytes);
            let idle = stats().idle_bytes as usize;
            assert!(
                live_bytes + idle <= peak_live,
                "{live_bytes} + {idle} > {peak_live}"
            );
        }
        let st = stats();
        assert!(st.hits > 1000 && st.evicted > 100, "{st:?}");
        assert_eq!(st.takes, st.hits + st.fresh);
    }

    #[test]
    fn every_block_starts_on_a_line_fresh_or_reused() {
        clear();
        for len in [1, 63, 64, 4096, MIN - 1, MIN, MIN + 1, 4 * MIN] {
            let block = take(len);
            assert!(aligned(&block) && block.len() >= len, "fresh {len}");
            put(block, len);
            let block = take(len);
            assert!(aligned(&block), "{len} after the shelf");
            assert!(block.bytes().iter().all(|&b| b == 0));
        }
        assert_eq!(stats().hits, 3, "the blocks from MIN up came back");
    }
}
