//! Parallel byte movement on the host.
//!
//! The simulated GPU kernels *really* move bytes between host-backed
//! buffers; for multi-megabyte packs this is worth parallelizing across
//! host cores. Rayon is outside this workspace's dependency policy, so we
//! provide a tiny fork-join built on a **persistent worker pool** —
//! enough for the two access patterns the datatype engine needs:
//!
//! * [`par_copy`] — one large contiguous copy, split into chunks;
//! * [`par_transfer`] — a list of `(src_off, dst_off, len)` segment moves
//!   (the shape of a DEV work-unit list), partitioned across threads.
//!
//! The pool is lazily initialized on the first transfer that crosses the
//! parallel threshold and lives for the process. Workers block on
//! channels and are woken only when a sharded copy arrives, so the hot
//! data path never spawns OS threads (the pre-pool `std::thread::scope`
//! implementation paid a spawn+join for *every* large simulated kernel —
//! it is preserved in [`scoped`] for wall-clock comparison benchmarks).
//!
//! Pool size defaults to `min(available_parallelism, 8)` and can be
//! overridden with the `GPU_DDT_COPY_THREADS` environment variable
//! (validated, `1..=64`); the choice is logged once at initialization.
//! The shard count also adapts to the transfer size so medium transfers
//! don't wake more workers than they can feed.
//!
//! Safety relies on the segments being disjoint **in the destination**,
//! which the datatype engine guarantees by construction (a pack writes
//! each packed byte exactly once); debug builds verify it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::OnceLock;

/// One segment move, offsets relative to the source/destination slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyOp {
    pub src_off: usize,
    pub dst_off: usize,
    pub len: usize,
}

/// Below this total size the cross-thread handoff costs more than it
/// saves and the copy stays inline on the calling thread.
const PAR_THRESHOLD: usize = 1 << 20;

/// Each shard should carry at least this many bytes; transfers just over
/// the threshold wake fewer workers than the pool holds.
const MIN_BYTES_PER_SHARD: usize = 256 << 10;

/// Hard ceiling on the pool size (env override included).
pub const MAX_POOL_THREADS: usize = 64;

/// Default cap when the environment does not override the pool size.
const DEFAULT_POOL_CAP: usize = 8;

/// Environment variable overriding the copy-pool size.
pub const POOL_THREADS_ENV: &str = "GPU_DDT_COPY_THREADS";

/// How the pool was sized, for logging and benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolInfo {
    /// Copy lanes used for large transfers, *including* the calling
    /// thread (so `threads - 1` parked workers exist).
    pub threads: usize,
    /// Whether the size came from [`POOL_THREADS_ENV`].
    pub from_env: bool,
}

/// One sharded copy handed to a worker. Raw pointers erase the caller's
/// borrow lifetimes; the caller blocks until every shard completes, so
/// the pointee outlives the job (the classic scoped-pool contract).
struct Job {
    src: *const u8,
    dst: *mut u8,
    ops: *const CopyOp,
    ops_len: usize,
    done: *const Completion,
}
// SAFETY: the pointers stay valid until `done.remaining` hits zero (the
// submitting thread parks until then), and every job writes a disjoint
// destination range.
unsafe impl Send for Job {}

/// Completion latch shared by all shards of one call, on the caller's
/// stack.
struct Completion {
    remaining: AtomicUsize,
    caller: std::thread::Thread,
}

struct CopyPool {
    /// One channel per parked worker; shard `i` goes to worker `i - 1`.
    senders: Vec<Sender<Job>>,
    info: PoolInfo,
}

static POOL: OnceLock<CopyPool> = OnceLock::new();

fn desired_threads() -> PoolInfo {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(DEFAULT_POOL_CAP);
    match std::env::var(POOL_THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if (1..=MAX_POOL_THREADS).contains(&n) => PoolInfo {
                threads: n,
                from_env: true,
            },
            _ => {
                eprintln!(
                    "[simcore::par] ignoring invalid {POOL_THREADS_ENV}={raw:?} \
                     (expected 1..={MAX_POOL_THREADS}); using {default}"
                );
                PoolInfo {
                    threads: default,
                    from_env: false,
                }
            }
        },
        Err(_) => PoolInfo {
            threads: default,
            from_env: false,
        },
    }
}

fn pool() -> &'static CopyPool {
    POOL.get_or_init(|| {
        let info = desired_threads();
        let senders = (1..info.threads)
            .map(|i| {
                let (tx, rx) = channel::<Job>();
                std::thread::Builder::new()
                    .name(format!("gpuddt-copy-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn copy-pool worker");
                tx
            })
            .collect();
        // `get_or_init` runs this exactly once per process: the one-time
        // log of the sizing decision.
        eprintln!(
            "[simcore::par] copy pool: {} thread(s) ({})",
            info.threads,
            if info.from_env {
                POOL_THREADS_ENV
            } else {
                "default: min(available_parallelism, 8)"
            }
        );
        CopyPool { senders, info }
    })
}

/// The pool's sizing decision. Forces initialization (spawns the
/// workers) — benchmarks and the wall-clock harness call this; the data
/// path initializes lazily instead.
pub fn pool_info() -> PoolInfo {
    pool().info
}

/// The sizing decision if the pool has already been started, without
/// forcing initialization. Used to surface the choice through tracers.
pub fn pool_info_if_started() -> Option<PoolInfo> {
    POOL.get().map(|p| p.info)
}

fn worker_loop(rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        // SAFETY: the submitting thread keeps src/dst/ops/done alive
        // until the latch releases; destination ranges are disjoint
        // across shards (debug-checked before submission).
        unsafe {
            let ops = std::slice::from_raw_parts(job.ops, job.ops_len);
            copy_ops_raw(job.dst, job.src, ops);
            // Clone the caller handle *before* the decrement: once
            // `remaining` hits zero the Completion may be freed.
            let caller = (*job.done).caller.clone();
            if (*job.done).remaining.fetch_sub(1, Ordering::Release) == 1 {
                caller.unpark();
            }
        }
    }
}

/// How many copy lanes a transfer of `total_bytes` should use. Returns 1
/// (inline) below the threshold without touching — or initializing —
/// the pool.
fn lanes_for(total_bytes: usize) -> usize {
    if total_bytes < PAR_THRESHOLD {
        return 1;
    }
    let adaptive = (total_bytes / MIN_BYTES_PER_SHARD).max(1);
    pool().info.threads.min(adaptive).min(MAX_POOL_THREADS)
}

/// Execute `shards` (disjoint-destination op runs) using the pool: shard
/// 0 runs on the calling thread, the rest on parked workers. Blocks
/// until every shard has completed.
fn run_sharded(dst: &mut [u8], src: &[u8], shards: &[&[CopyOp]]) {
    let dst_ptr = dst.as_mut_ptr();
    let src_ptr = src.as_ptr();
    if shards.len() <= 1 {
        if let Some(ops) = shards.first() {
            // SAFETY: bounds checked by the caller.
            unsafe { copy_ops_raw(dst_ptr, src_ptr, ops) };
        }
        return;
    }
    let p = pool();
    let completion = Completion {
        remaining: AtomicUsize::new(shards.len() - 1),
        caller: std::thread::current(),
    };
    for (i, shard) in shards[1..].iter().enumerate() {
        let job = Job {
            src: src_ptr,
            dst: dst_ptr,
            ops: shard.as_ptr(),
            ops_len: shard.len(),
            done: &completion,
        };
        p.senders[i % p.senders.len()]
            .send(job)
            .expect("copy-pool worker died");
    }
    // The calling thread is lane 0 — it copies too instead of idling.
    // All writes go through the raw pointer so the worker aliases stay
    // legal.
    // SAFETY: destination ranges are disjoint across shards.
    unsafe { copy_ops_raw(dst_ptr, src_ptr, shards[0]) };
    while completion.remaining.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }
}

/// Segments at or above this length go to `memcpy`; below it the
/// explicit chunked loop in [`copy_segment`] wins (measured: a 64-byte
/// unit gather runs ~13% faster chunked, while glibc's dispatch is
/// unbeatable from two cache lines up).
const CHUNKED_COPY_MAX: usize = 128;

/// Copy one segment. Short segments — the unit moves a fine-grained
/// datatype produces — use explicit fixed-width chunks that the backend
/// autovectorizes into whole-register moves, skipping the size dispatch
/// a `memcpy` call pays on every segment. Long segments still belong to
/// `memcpy`.
///
/// # Safety
/// `src..src+len` must be readable, `dst..dst+len` writable, and the two
/// ranges must not overlap.
#[inline]
unsafe fn copy_segment(src: *const u8, dst: *mut u8, len: usize) {
    if len >= CHUNKED_COPY_MAX {
        // SAFETY: caller contract.
        unsafe { std::ptr::copy_nonoverlapping(src, dst, len) };
        return;
    }
    // Head-and-tail whole-register moves: the widest chunk that fits,
    // then one (possibly overlapping) chunk flush against the end.
    // Overlapped bytes are rewritten with identical values. Unaligned
    // reads/writes keep the split points free — callers still align
    // shard boundaries to cache lines where they can.
    macro_rules! tiers {
        ($($w:literal),*) => {$(
            if len >= $w {
                // SAFETY: len >= $w, so both chunks are in bounds.
                unsafe {
                    let head = src.cast::<[u8; $w]>().read_unaligned();
                    let tail = src.add(len - $w).cast::<[u8; $w]>().read_unaligned();
                    dst.cast::<[u8; $w]>().write_unaligned(head);
                    dst.add(len - $w).cast::<[u8; $w]>().write_unaligned(tail);
                }
                return;
            }
        )*};
    }
    tiers!(64, 32, 16, 8, 4, 2);
    if len == 1 {
        // SAFETY: caller contract.
        unsafe { *dst = *src };
    }
}

/// Raw-pointer segment copies (bounds already validated by the caller).
unsafe fn copy_ops_raw(dst: *mut u8, src: *const u8, ops: &[CopyOp]) {
    for o in ops {
        // SAFETY: bounds validated by the caller; destinations disjoint.
        unsafe { copy_segment(src.add(o.src_off), dst.add(o.dst_off), o.len) };
    }
}

/// Parallel contiguous copy: `dst.copy_from_slice(src)` using the pool
/// when the copy is large enough to benefit.
pub fn par_copy(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "par_copy length mismatch");
    let n = lanes_for(dst.len());
    if n <= 1 {
        dst.copy_from_slice(src);
        return;
    }
    // One whole-chunk op per lane, built on the stack. Chunk boundaries
    // round up to cache lines so no two lanes ever write the same line.
    let mut ops = [CopyOp {
        src_off: 0,
        dst_off: 0,
        len: 0,
    }; MAX_POOL_THREADS];
    let chunk = round_up_cache_line(dst.len().div_ceil(n));
    let mut lanes = 0usize;
    let mut off = 0usize;
    while off < dst.len() {
        let l = chunk.min(dst.len() - off);
        ops[lanes] = CopyOp {
            src_off: off,
            dst_off: off,
            len: l,
        };
        lanes += 1;
        off += l;
    }
    let mut shards: [&[CopyOp]; MAX_POOL_THREADS] = [&[]; MAX_POOL_THREADS];
    for (i, shard) in shards.iter_mut().enumerate().take(lanes) {
        *shard = &ops[i..i + 1];
    }
    run_sharded(dst, src, &shards[..lanes]);
}

#[cfg(debug_assertions)]
fn assert_dst_disjoint(ops: &[CopyOp]) {
    let mut spans: Vec<(usize, usize)> = ops
        .iter()
        .filter(|o| o.len > 0)
        .map(|o| (o.dst_off, o.dst_off + o.len))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "overlapping destination segments: {:?} and {:?}",
            w[0],
            w[1]
        );
    }
}

fn assert_in_bounds(dst: &[u8], src: &[u8], ops: &[CopyOp]) {
    for o in ops {
        assert!(
            o.src_off + o.len <= src.len(),
            "source segment out of bounds: {o:?} vs len {}",
            src.len()
        );
        assert!(
            o.dst_off + o.len <= dst.len(),
            "destination segment out of bounds: {o:?} vs len {}",
            dst.len()
        );
    }
}

/// Cache-line size the shard splits align to.
const CACHE_LINE: usize = 64;

fn round_up_cache_line(n: usize) -> usize {
    (n + (CACHE_LINE - 1)) & !(CACHE_LINE - 1)
}

/// Split `ops` into pieces no longer than `target` bytes (rounded up to
/// a cache line), so a transfer with fewer segments than copy lanes —
/// one huge contiguous block, say — still spreads across the pool, and
/// no two lanes share a destination cache line.
fn split_ops_to_target(ops: &[CopyOp], target: usize) -> Vec<CopyOp> {
    let target = round_up_cache_line(target.max(1));
    let mut out = Vec::with_capacity(ops.len() * 2);
    for o in ops {
        let mut off = 0usize;
        while o.len - off > target {
            out.push(CopyOp {
                src_off: o.src_off + off,
                dst_off: o.dst_off + off,
                len: target,
            });
            off += target;
        }
        out.push(CopyOp {
            src_off: o.src_off + off,
            dst_off: o.dst_off + off,
            len: o.len - off,
        });
    }
    out
}

/// Partition `ops` into at most `n` contiguous runs of roughly equal
/// byte volume. Returns the number of runs written into `bounds`
/// (half-open index ranges into `ops`).
fn partition_runs(
    ops: &[CopyOp],
    total: usize,
    n: usize,
    bounds: &mut [(usize, usize); MAX_POOL_THREADS],
) -> usize {
    let target = total.div_ceil(n);
    let mut runs = 0usize;
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, o) in ops.iter().enumerate() {
        acc += o.len;
        if acc >= target && runs + 1 < n {
            bounds[runs] = (start, i + 1);
            runs += 1;
            start = i + 1;
            acc = 0;
        }
    }
    if start < ops.len() {
        bounds[runs] = (start, ops.len());
        runs += 1;
    }
    runs
}

/// Execute a batch of segment moves from `src` into `dst`.
///
/// Segments must lie in bounds and be pairwise disjoint in `dst`
/// (overlap in `src` is fine — a broadcast-style unpack may read the same
/// source bytes twice).
pub fn par_transfer(dst: &mut [u8], src: &[u8], ops: &[CopyOp]) {
    par_transfer_total(dst, src, ops, ops.iter().map(|o| o.len).sum());
}

/// [`par_transfer`] for a caller that already holds the sum of the
/// segment lengths (it summed them for its own bookkeeping, or the list
/// is a cached one that carries its sum). `total` only sizes the lane
/// count and the shard split; every segment is still bounds-checked.
pub fn par_transfer_total(dst: &mut [u8], src: &[u8], ops: &[CopyOp], total: usize) {
    transfer_with(dst, src, ops, total, lanes_for(total));
}

/// [`par_transfer`] with an explicit lane count, clamped to the pool's
/// actual worker count (so the numbers stay honest on small machines —
/// requesting 8 lanes on a single-core box measures 1). This is the
/// per-core-count measurement hook for the wall-clock harness, not a
/// hot-path API: the adaptive `par_transfer` sizing is the production
/// path.
pub fn par_transfer_lanes(dst: &mut [u8], src: &[u8], ops: &[CopyOp], lanes: usize) -> usize {
    let total: usize = ops.iter().map(|o| o.len).sum();
    let n = lanes.clamp(1, pool().info.threads);
    transfer_with(dst, src, ops, total, n);
    n
}

fn transfer_with(dst: &mut [u8], src: &[u8], ops: &[CopyOp], total: usize, n: usize) {
    assert_in_bounds(dst, src, ops);
    #[cfg(debug_assertions)]
    assert_dst_disjoint(ops);
    debug_assert_eq!(total, ops.iter().map(|o| o.len).sum::<usize>());

    if n <= 1 {
        // Inline path: same chunked segment copies the workers use.
        // SAFETY: bounds asserted above; a single thread writes dst.
        unsafe { copy_ops_raw(dst.as_mut_ptr(), src.as_ptr(), ops) };
        return;
    }

    // Fewer segments than lanes (a contiguous block, or a couple of huge
    // extents): split the big ops at cache-line-aligned points so each
    // worker owns a chunk sized to the slice length.
    let split;
    let ops = if ops.len() < n {
        split = split_ops_to_target(ops, total.div_ceil(n));
        &split[..]
    } else {
        ops
    };

    let mut bounds = [(0usize, 0usize); MAX_POOL_THREADS];
    let runs = partition_runs(ops, total, n, &mut bounds);
    let mut shards: [&[CopyOp]; MAX_POOL_THREADS] = [&[]; MAX_POOL_THREADS];
    for (i, shard) in shards.iter_mut().enumerate().take(runs) {
        let (s, e) = bounds[i];
        *shard = &ops[s..e];
    }
    run_sharded(dst, src, &shards[..runs]);
}

pub mod scoped {
    //! The pre-pool implementation: spawn scoped threads per call. Kept
    //! as the wall-clock baseline the persistent pool is measured
    //! against (`cargo bench -p bench`, `hotpath_wallclock`) and as an
    //! independent correctness cross-check. Not used on the hot path.

    use super::{assert_in_bounds, lanes_for, CopyOp, MAX_POOL_THREADS};

    /// [`super::par_copy`] via `std::thread::scope` — spawns threads on
    /// every call.
    pub fn par_copy_scoped(dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "par_copy length mismatch");
        let n = lanes_for(dst.len());
        if n <= 1 {
            dst.copy_from_slice(src);
            return;
        }
        let chunk = dst.len().div_ceil(n);
        std::thread::scope(|scope| {
            for (d, s) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                scope.spawn(move || d.copy_from_slice(s));
            }
        });
    }

    /// Raw pointer wrapper so disjoint destination writes can cross the
    /// `std::thread::scope` boundary.
    #[derive(Clone, Copy)]
    struct SendPtr(*mut u8);
    // SAFETY: every thread writes a disjoint destination range, so
    // concurrent use is data-race free.
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}

    /// [`super::par_transfer`] via `std::thread::scope` — spawns threads
    /// on every call.
    pub fn par_transfer_scoped(dst: &mut [u8], src: &[u8], ops: &[CopyOp]) {
        let total: usize = ops.iter().map(|o| o.len).sum();
        assert_in_bounds(dst, src, ops);
        #[cfg(debug_assertions)]
        super::assert_dst_disjoint(ops);

        let n = lanes_for(total);
        if n <= 1 || ops.len() == 1 {
            for o in ops {
                dst[o.dst_off..o.dst_off + o.len]
                    .copy_from_slice(&src[o.src_off..o.src_off + o.len]);
            }
            return;
        }

        let mut bounds = [(0usize, 0usize); MAX_POOL_THREADS];
        let runs = super::partition_runs(ops, total, n, &mut bounds);
        let dst_ptr = SendPtr(dst.as_mut_ptr());
        std::thread::scope(|scope| {
            for &(s, e) in &bounds[..runs] {
                let run = &ops[s..e];
                scope.spawn(move || {
                    let dst_ptr = dst_ptr; // move the Copy wrapper into the thread
                    for o in run {
                        // SAFETY: bounds were checked above; destination
                        // ranges are disjoint across all ops.
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                src.as_ptr().add(o.src_off),
                                dst_ptr.0.add(o.dst_off),
                                o.len,
                            );
                        }
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::scoped::{par_copy_scoped, par_transfer_scoped};
    use super::*;

    #[test]
    fn par_copy_small_and_large() {
        for len in [0usize, 13, 4096, (1 << 20) + 17] {
            let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut dst = vec![0u8; len];
            par_copy(&mut dst, &src);
            assert_eq!(dst, src, "len={len}");
        }
    }

    #[test]
    fn transfer_gathers_segments() {
        // Gather every other 4-byte block of src into a packed dst.
        let src: Vec<u8> = (0..64u8).collect();
        let mut dst = vec![0u8; 32];
        let ops: Vec<CopyOp> = (0..8)
            .map(|i| CopyOp {
                src_off: i * 8,
                dst_off: i * 4,
                len: 4,
            })
            .collect();
        par_transfer(&mut dst, &src, &ops);
        let expect: Vec<u8> = (0..8)
            .flat_map(|i| i * 8..i * 8 + 4)
            .map(|v| v as u8)
            .collect();
        assert_eq!(dst, expect);
    }

    fn gather_case(seg: usize, count: usize) -> (Vec<u8>, Vec<CopyOp>) {
        let src: Vec<u8> = (0..seg * count * 2).map(|i| (i % 253) as u8).collect();
        let ops: Vec<CopyOp> = (0..count)
            .map(|i| CopyOp {
                src_off: i * 2 * seg,
                dst_off: i * seg,
                len: seg,
            })
            .collect();
        (src, ops)
    }

    #[test]
    fn transfer_large_parallel_path() {
        // Big enough to trigger the pooled path.
        let (seg, count) = (4096usize, 600usize); // ~2.4 MB
        let (src, ops) = gather_case(seg, count);
        let mut dst = vec![0u8; seg * count];
        par_transfer(&mut dst, &src, &ops);
        for i in 0..count {
            assert_eq!(
                &dst[i * seg..(i + 1) * seg],
                &src[i * 2 * seg..i * 2 * seg + seg],
                "segment {i}"
            );
        }
    }

    #[test]
    fn explicit_lane_counts_all_produce_the_same_bytes() {
        let (seg, count) = (4096usize, 512usize); // ~2 MB
        let (src, ops) = gather_case(seg, count);
        let mut want = vec![0u8; seg * count];
        par_transfer(&mut want, &src, &ops);
        for lanes in [1usize, 2, 4, 8, 64] {
            let mut dst = vec![0u8; seg * count];
            let used = par_transfer_lanes(&mut dst, &src, &ops, lanes);
            assert!((1..=lanes.max(1)).contains(&used));
            assert_eq!(dst, want, "lanes={lanes}");
        }
    }

    #[test]
    fn pooled_and_scoped_agree() {
        // Same inputs through the pool and the scoped baseline.
        let (seg, count) = (2048usize, 700usize); // ~1.4 MB
        let (src, ops) = gather_case(seg, count);
        let mut pooled = vec![0u8; seg * count];
        let mut scoped = vec![0u8; seg * count];
        par_transfer(&mut pooled, &src, &ops);
        par_transfer_scoped(&mut scoped, &src, &ops);
        assert_eq!(pooled, scoped);

        let big: Vec<u8> = (0..(1 << 21)).map(|i| (i % 241) as u8).collect();
        let mut a = vec![0u8; big.len()];
        let mut b = vec![0u8; big.len()];
        par_copy(&mut a, &big);
        par_copy_scoped(&mut b, &big);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_survives_repeated_large_transfers() {
        // Exercise the persistent workers across many calls (the
        // regression the pool exists for: no spawn per call, no leaked
        // completions).
        let (seg, count) = (4096usize, 300usize); // ~1.2 MB
        let (src, ops) = gather_case(seg, count);
        let mut dst = vec![0u8; seg * count];
        for round in 0..16 {
            dst.fill(0);
            par_transfer(&mut dst, &src, &ops);
            assert_eq!(&dst[..seg], &src[..seg], "round {round}");
        }
        let info = pool_info();
        assert!(info.threads >= 1 && info.threads <= MAX_POOL_THREADS);
        assert_eq!(pool_info_if_started(), Some(info));
    }

    #[test]
    fn a_handed_in_total_moves_the_same_bytes_and_skips_no_bounds_check() {
        // Small (inline) and large (pooled) lists.
        for (seg, count) in [(48usize, 40usize), (4096, 600)] {
            let (src, ops) = gather_case(seg, count);
            let mut want = vec![0u8; seg * count];
            par_transfer(&mut want, &src, &ops);
            let mut dst = vec![0u8; seg * count];
            par_transfer_total(&mut dst, &src, &ops, seg * count);
            assert_eq!(dst, want, "seg={seg}");
        }
        let src = vec![0u8; 16];
        let mut dst = vec![0u8; 16];
        let oob = [CopyOp {
            src_off: 10,
            dst_off: 0,
            len: 10,
        }];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_transfer_total(&mut dst, &src, &oob, 10);
        }));
        assert!(r.is_err(), "out-of-bounds op must panic");
    }

    #[test]
    fn transfer_rejects_oob() {
        let src = vec![0u8; 16];
        let mut dst = vec![0u8; 16];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_transfer(
                &mut dst,
                &src,
                &[CopyOp {
                    src_off: 10,
                    dst_off: 0,
                    len: 10,
                }],
            );
        }));
        assert!(r.is_err(), "out-of-bounds op must panic");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping destination")]
    fn transfer_rejects_overlap_in_debug() {
        let src = vec![0u8; 32];
        let mut dst = vec![0u8; 32];
        let ops = [
            CopyOp {
                src_off: 0,
                dst_off: 0,
                len: 8,
            },
            CopyOp {
                src_off: 8,
                dst_off: 4,
                len: 8,
            },
        ];
        par_transfer(&mut dst, &src, &ops);
    }

    #[test]
    fn empty_ops_are_fine() {
        let src = vec![1u8; 8];
        let mut dst = vec![2u8; 8];
        par_transfer(&mut dst, &src, &[]);
        assert_eq!(dst, vec![2u8; 8]);
    }

    #[test]
    fn chunked_segment_copy_all_small_lengths() {
        // Every length through the chunked tiers, with guard bytes to
        // catch overruns on either side.
        for len in 0..=2 * CHUNKED_COPY_MAX {
            let src: Vec<u8> = (0..len).map(|i| (i % 249) as u8 ^ 0x5a).collect();
            let mut dst = vec![0xEEu8; len + 16];
            unsafe { copy_segment(src.as_ptr(), dst.as_mut_ptr().add(8), len) };
            assert_eq!(&dst[..8], &[0xEE; 8], "head guard, len={len}");
            assert_eq!(&dst[8..8 + len], &src[..], "payload, len={len}");
            assert_eq!(&dst[8 + len..], &[0xEE; 8], "tail guard, len={len}");
        }
    }

    #[test]
    fn single_huge_op_splits_across_lanes() {
        // One contiguous 2 MB segment: previously forced inline, now
        // split at cache-line boundaries across the pool.
        let len = 2 << 20;
        let src: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
        let mut dst = vec![0u8; len];
        let op = [CopyOp {
            src_off: 0,
            dst_off: 0,
            len,
        }];
        par_transfer(&mut dst, &src, &op);
        assert_eq!(dst, src);
    }

    #[test]
    fn split_targets_are_cache_line_aligned_and_cover() {
        let ops = [
            CopyOp {
                src_off: 10,
                dst_off: 3,
                len: 1_000_000,
            },
            CopyOp {
                src_off: 2_000_000,
                dst_off: 1_000_003,
                len: 100,
            },
        ];
        let total: usize = ops.iter().map(|o| o.len).sum();
        let pieces = split_ops_to_target(&ops, total.div_ceil(4));
        assert!(pieces.len() >= 4);
        // Pieces tile each original op exactly, in order, and every
        // split point (piece length before the last of an op) is a
        // cache-line multiple.
        let mut idx = 0usize;
        for o in &ops {
            let mut off = 0usize;
            while off < o.len {
                let p = pieces[idx];
                assert_eq!(p.src_off, o.src_off + off);
                assert_eq!(p.dst_off, o.dst_off + off);
                if off + p.len < o.len {
                    assert_eq!(p.len % CACHE_LINE, 0, "interior split unaligned");
                }
                off += p.len;
                idx += 1;
            }
            assert_eq!(off, o.len);
        }
        assert_eq!(idx, pieces.len());
    }

    #[test]
    fn partitioning_covers_all_ops() {
        let ops: Vec<CopyOp> = (0..37)
            .map(|i| CopyOp {
                src_off: i * 100,
                dst_off: i * 50,
                len: 13 + (i % 7),
            })
            .collect();
        let total: usize = ops.iter().map(|o| o.len).sum();
        for n in 1..=8usize {
            let mut bounds = [(0usize, 0usize); MAX_POOL_THREADS];
            let runs = partition_runs(&ops, total, n, &mut bounds);
            assert!(runs >= 1 && runs <= n, "n={n} runs={runs}");
            let mut pos = 0usize;
            for &(s, e) in &bounds[..runs] {
                assert_eq!(s, pos, "runs must be contiguous");
                assert!(e > s);
                pos = e;
            }
            assert_eq!(pos, ops.len(), "runs must cover all ops (n={n})");
        }
    }
}

/// Loom model of the [`run_sharded`] handoff protocol. Run by the
/// nightly `loom` CI job only, which appends the target-gated loom
/// dependency at job time (loom never appears in the local manifest, by
/// the no-new-deps policy): `RUSTFLAGS="--cfg loom" cargo test -p
/// simcore --release loom_`. The worker pool itself
/// cannot run under loom — it parks on real channels and lives for the
/// process — so this models the exact protocol shape instead: workers
/// write disjoint destination ranges through a shared raw pointer, then
/// count a latch down with a Release `fetch_sub`; the submitter spins
/// on an Acquire load and reads the buffer once the latch hits zero.
/// Loom verifies the Release/Acquire pair is what makes every worker
/// write visible to the submitting thread.
#[cfg(all(test, loom))]
mod loom_tests {
    use loom::cell::UnsafeCell;
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::sync::Arc;
    use loom::thread;

    #[test]
    fn loom_job_handoff_publishes_disjoint_writes() {
        loom::model(|| {
            // Two "shards" of a destination buffer, one cell each (the
            // real code hands out disjoint CopyOp ranges of one slice).
            let buf = Arc::new([UnsafeCell::new(0u8), UnsafeCell::new(0u8)]);
            let remaining = Arc::new(AtomicUsize::new(2));
            let workers: Vec<_> = (0..2)
                .map(|i| {
                    let buf = Arc::clone(&buf);
                    let remaining = Arc::clone(&remaining);
                    thread::spawn(move || {
                        buf[i].with_mut(|p| unsafe { *p = i as u8 + 1 });
                        remaining.fetch_sub(1, Ordering::Release);
                    })
                })
                .collect();
            // Submitter side: `run_sharded` parks/unparks around the
            // same Acquire load; the spin models the wakeup.
            while remaining.load(Ordering::Acquire) != 0 {
                thread::yield_now();
            }
            let seen = [
                buf[0].with(|p| unsafe { *p }),
                buf[1].with(|p| unsafe { *p }),
            ];
            assert_eq!(
                seen,
                [1, 2],
                "worker writes must be visible after the latch"
            );
            for w in workers {
                w.join().unwrap();
            }
        });
    }
}
