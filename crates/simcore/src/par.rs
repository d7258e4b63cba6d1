//! Parallel byte movement on the host.
//!
//! The simulated GPU kernels *really* move bytes between host-backed
//! buffers, and a rendezvous transfer moves its landed fragments in as
//! few calls as it can, so the copies that matter are tens of
//! megabytes. Rayon is outside this workspace's dependency policy, so
//! this is a tiny fork-join on a **persistent worker pool**, with one
//! shape of work:
//!
//! * [`par_transfer_batch`] — a run of segment lists ([`SegList`]: a
//!   DEV work-unit list, or a [`StridedWindow`] that computes its
//!   segments, with the window of each buffer its offsets are relative
//!   to), copied as one job;
//! * [`par_transfer`] / [`par_transfer_total`] — its one-list case;
//! * [`par_copy`] — its one-list, one-segment case.
//!
//! One partitioner (`partition`) splits a batch's bytes evenly across
//! lanes at segment boundaries, and inside a segment that straddles a
//! boundary; one rule (`lanes_for`) decides how many lanes a batch is
//! worth, from the measured cost of handing work to a parked thread
//! (see `MIN_BYTES_PER_LANE`). The calling thread is always lane 0.
//!
//! The pool is lazily initialized by the first batch the rule gives a
//! second lane and lives for the process. Workers block on channels and
//! are woken only when a lane is theirs, so the data path never spawns
//! OS threads.
//!
//! Pool size defaults to `min(available_parallelism, 8)` and can be
//! overridden with the `GPU_DDT_COPY_THREADS` environment variable
//! (validated, `1..=64`); the choice is logged once at initialization.
//!
//! Safety relies on every segment lying inside its two buffers, which is
//! asserted — overflow-proof, per segment of a list and in closed form
//! on a strided window's extreme blocks, before a byte moves — and on
//! the segments being disjoint **in the destination**, which the
//! datatype engine guarantees by construction (a pack writes each packed
//! byte exactly once); debug builds verify it across the whole batch.

#![expect(
    unsafe_code,
    reason = "the copy pool hands each worker a disjoint destination range through \
              raw pointers; every block states its SAFETY argument"
)]
#![expect(
    clippy::disallowed_types,
    reason = "the lazily started copy pool is the one process-global state: its \
              workers never touch simulation state, only the bytes of the job"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::OnceLock;

mod strided;
pub use strided::{strided_units, Grid, Segments, Strided2D, StridedWindow};

/// One segment move, offsets relative to the source/destination slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyOp {
    pub src_off: usize,
    pub dst_off: usize,
    pub len: usize,
}

/// The segments of a [`SegList`]: listed, or computed by a strided
/// window block by block.
#[derive(Clone, Copy, Debug)]
pub enum Segs<'a> {
    List(&'a [CopyOp]),
    Strided(StridedWindow),
}

impl Segs<'_> {
    /// How many segments.
    fn len(&self) -> usize {
        match self {
            Segs::List(ops) => ops.len(),
            Segs::Strided(w) => w.segments() as usize,
        }
    }

    /// Segment `k`, if there is one.
    fn get(&self, k: usize) -> Option<CopyOp> {
        match self {
            Segs::List(ops) => ops.get(k).copied(),
            Segs::Strided(w) => (k < self.len()).then(|| w.segments_from(k as u64).next())?,
        }
    }

    /// Every segment, in order.
    fn iter(&self) -> impl Iterator<Item = CopyOp> + '_ {
        let (list, window) = match self {
            Segs::List(ops) => (Some(ops.iter().copied()), None),
            Segs::Strided(w) => (None, Some(w.segments_from(0))),
        };
        list.into_iter()
            .flatten()
            .chain(window.into_iter().flatten())
    }
}

/// One segment list of a batch: `segs` whose offsets are relative to
/// `src[src_at..]` / `dst[dst_at..]` and may reach `src_len` /
/// `dst_len` bytes past those points — every segment is checked against
/// that window, and the window against the buffer.
#[derive(Clone, Copy, Debug)]
pub struct SegList<'a> {
    pub src_at: usize,
    pub src_len: usize,
    pub dst_at: usize,
    pub dst_len: usize,
    /// Sum of the segment lengths. It only sizes the lane count and the
    /// split (debug builds check it); a wrong sum costs balance, never
    /// coverage.
    pub bytes: usize,
    pub segs: Segs<'a>,
    /// Land the whole destination cache lines of a coarse list with
    /// non-temporal stores (`copy_ops_stream`): for a destination
    /// nothing reads back soon, so a store need not first fetch the
    /// line it overwrites. A fine list ignores it.
    pub stream: bool,
}

impl<'a> SegList<'a> {
    /// `ops` relative to the whole of `dst` and `src`.
    fn whole(dst: &[u8], src: &[u8], ops: &'a [CopyOp], bytes: usize) -> Self {
        SegList {
            src_at: 0,
            src_len: src.len(),
            dst_at: 0,
            dst_len: dst.len(),
            bytes,
            segs: Segs::List(ops),
            stream: false,
        }
    }
}

/// A lane beyond the caller's must carry at least this much. Handing a
/// lane to a parked worker (channel send, `unpark`, the caller's `park`
/// and wake-up) was measured on the 2-vCPU boxes this runs on, with both
/// cores awake, at p50 38–45 µs back to back, 57–61 µs after 100 µs
/// idle, 100–110 µs after 1 ms idle, p99 80–280 µs back to back and up
/// to 1.4 ms after idle — against 60–80 µs to copy 512 KiB. The two
/// 67 MB triangles of a `pp_dense` round trip, handed over in jobs of
/// one 512 KiB fragment, read 26 ms on two lanes for 32 ms on one at
/// 10 % more CPU (and 18 ms for 12 ms when the vCPUs share a core); in
/// 4 MiB jobs 20 for 29 ms; as two whole lists 10 for 21 ms at equal
/// CPU (EXPERIMENTS.md, "Move per transfer"). 2 MiB is about 300 µs of
/// copying: six median wake-ups, one bad one.
const MIN_BYTES_PER_LANE: usize = 2 << 20;

/// Below this mean segment length a list is instruction-bound, not
/// bandwidth-bound: on 8 MiB of 36-byte segments a second lane buys
/// 18 % of wall time for 25 % more CPU (and first-touches a cold
/// destination from two threads), at 512 B and above 40 % of wall time
/// for none. The DEV engine's bare work units are 1 KiB runs with
/// shorter row ends (mean ≈ 960 B on a triangle), so the line sits one
/// power of two under that.
const MIN_MEAN_SEGMENT: usize = 512;

/// Hard ceiling on the pool size (env override included).
pub(crate) const MAX_POOL_THREADS: usize = 64;

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

/// A position in a batch's segment stream: everything before byte `byte`
/// of segment `op` of list `list`. A lane is the stretch between two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Cut {
    list: usize,
    op: usize,
    byte: usize,
}

/// One lane of a batch handed to a worker: the stretch `from..to` of
/// `lists`. Raw pointers erase the caller's borrow lifetimes; the caller
/// blocks until every lane completes, so the pointees outlive the job
/// (the classic scoped-pool contract).
struct Job {
    src: *const u8,
    dst: *mut u8,
    lists: *const SegList<'static>,
    lists_len: usize,
    from: Cut,
    to: Cut,
    done: *const Completion,
}
// SAFETY: the pointers stay valid until `done.remaining` hits zero (the
// submitting thread parks until then), the lists behind `lists` are
// plain shared data, and every job writes a disjoint destination range.
unsafe impl Send for Job {}

/// Completion latch shared by all lanes of one call, on the caller's
/// stack.
struct Completion {
    remaining: AtomicUsize,
    caller: std::thread::Thread,
}

struct CopyPool {
    /// One channel per parked worker; lane `i` goes to worker `i - 1`.
    senders: Vec<Sender<Job>>,
    info: PoolInfo,
}

static POOL: OnceLock<CopyPool> = OnceLock::new();

#[expect(
    clippy::disallowed_methods,
    reason = "GPU_DDT_COPY_THREADS sizes the copy pool: it changes wall time, never a run's output"
)]
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
/// workers) — the repo benchmark's probes call this; the data path
/// initializes lazily instead.
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
        // SAFETY: the submitting thread keeps src/dst/lists/done alive
        // until the latch releases, every segment was bounds-checked
        // before submission, and destination ranges are disjoint across
        // lanes (debug-checked before submission).
        unsafe {
            let lists = std::slice::from_raw_parts(job.lists, job.lists_len);
            // A lane that streamed has fenced by the time this returns,
            // so the Release decrement below publishes all its stores.
            copy_span(job.dst, job.src, lists, job.from, job.to);
            // Clone the caller handle *before* the decrement: once
            // `remaining` hits zero the Completion may be freed.
            let caller = (*job.done).caller.clone();
            if (*job.done).remaining.fetch_sub(1, Ordering::Release) == 1 {
                caller.unpark();
            }
        }
    }
}

/// How many lanes the rule wants for `bytes` in `segments` segments,
/// before the pool's size caps it: one, unless the list is coarse
/// ([`MIN_MEAN_SEGMENT`]) and every lane gets [`MIN_BYTES_PER_LANE`].
fn lanes_wanted(bytes: usize, segments: usize) -> usize {
    if bytes / MIN_MEAN_SEGMENT < segments {
        return 1;
    }
    (bytes / MIN_BYTES_PER_LANE).max(1)
}

/// How many copy lanes a batch of `bytes` in `segments` segments should
/// use — the one lane rule of every entry point. Returns 1 (inline)
/// without touching — or initializing — the pool when the rule wants no
/// second lane.
fn lanes_for(bytes: usize, segments: usize) -> usize {
    match lanes_wanted(bytes, segments) {
        1 => 1,
        n => n.min(pool().info.threads),
    }
}

/// Split the segment stream of `lists` into at most `n` lanes of equal
/// byte volume: `cuts[0]` is the start, `cuts[lanes]` the end, lane `k`
/// the stretch `cuts[k]..cuts[k + 1]`; returns `lanes`. A boundary falls
/// between two segments where it can; a segment that straddles one is
/// split a whole number of cache lines in, so a batch with fewer
/// segments than lanes — one huge block — still spreads, and no segment
/// shorter than a line is ever cut. Whole lists are skipped by their
/// `bytes`, so the walk reads only the lists a boundary falls in.
fn partition(lists: &[SegList<'_>], n: usize, cuts: &mut [Cut; MAX_POOL_THREADS + 1]) -> usize {
    let n = n.clamp(1, MAX_POOL_THREADS);
    let end = Cut {
        list: lists.len(),
        ..Cut::default()
    };
    let total: usize = lists.iter().map(|l| l.bytes).sum();
    let per_lane = total.div_ceil(n);
    cuts[0] = Cut::default();
    let mut lanes = 0;
    // `seen` bytes lie before segment `at.op` of list `at.list`.
    let (mut at, mut seen) = (Cut::default(), 0usize);
    for k in 1..n {
        let target = per_lane * k;
        while let Some(l) = lists.get(at.list) {
            if at.op == 0 && seen + l.bytes <= target {
                (at.list, seen) = (at.list + 1, seen + l.bytes);
            } else if let Some(o) = l.segs.get(at.op) {
                at.byte = round_up_cache_line(target.saturating_sub(seen));
                if at.byte < o.len {
                    break;
                }
                (at.op, seen) = (at.op + 1, seen + o.len);
            } else {
                at.list += 1;
                at.op = 0;
            }
            at.byte = 0;
        }
        // Rounding can make two boundaries meet: the lane between them
        // is dropped, as is one that would start at the end.
        if at > cuts[lanes] && at < end {
            lanes += 1;
            cuts[lanes] = at;
        }
    }
    cuts[lanes + 1] = end;
    lanes + 1
}

/// Copy the stretch `from..to` of the batch's segment stream: the tail
/// of a segment `from` cuts, whole segments, the head of one `to` cuts.
/// A list that streams ([`takes_stream_loop`]) goes through the stream
/// loop, the rest through the tier loop; if any streamed, the lane
/// fences before it returns, so its completion publishes those stores.
///
/// # Safety
/// Every segment of `lists` must lie inside `src` and `dst`
/// ([`assert_in_bounds`]), no other thread may write the destination
/// bytes of the stretch meanwhile, and `from..to` must come from
/// [`partition`] over the same `lists`.
unsafe fn copy_span(dst: *mut u8, src: *const u8, lists: &[SegList<'_>], from: Cut, to: Cut) {
    let mut streamed = false;
    for (li, l) in lists.iter().enumerate().take(to.list + 1).skip(from.list) {
        let (mut op, byte) = if li == from.list {
            (from.op, from.byte)
        } else {
            (0, 0)
        };
        let (end, tail) = if li == to.list {
            (to.op, to.byte)
        } else {
            (l.segs.len(), 0)
        };
        // The part `a..b` of the segment a cut falls in, as a segment.
        let part = |k: usize, a: usize, b: Option<usize>| {
            let o = l.segs.get(k).expect("a cut lies inside a segment");
            [CopyOp {
                src_off: o.src_off + a,
                dst_off: o.dst_off + a,
                len: b.unwrap_or(o.len) - a,
            }]
        };
        let stream = takes_stream_loop(l);
        streamed |= stream;
        let how = if stream { Loop::Stream } else { Loop::Tier };
        // SAFETY: the caller's contract — the list's windows and every
        // segment in them are in bounds, and a cut lies inside its
        // segment, so each part is too.
        unsafe {
            let (s, d) = (src.add(l.src_at), dst.add(l.dst_at));
            if byte > 0 {
                let stop = (op == end).then_some(tail);
                run_loop(how, d, s, part(op, byte, stop));
                if op == end {
                    continue;
                }
                op += 1;
            }
            copy_range(how, d, s, &l.segs, op..end);
            if tail > 0 {
                run_loop(how, d, s, part(end, 0, Some(tail)));
            }
        }
    }
    fence_streamed(streamed);
}

/// Run the two or more lanes `cuts` describes (lane `k` is
/// `cuts[k]..cuts[k + 1]`): lane 0 on the calling thread, the rest on
/// parked workers. Blocks until every lane has completed.
fn run_lanes(dst: &mut [u8], src: &[u8], lists: &[SegList<'_>], cuts: &[Cut]) {
    let (dst_ptr, src_ptr) = (dst.as_mut_ptr(), src.as_ptr());
    let p = pool();
    let completion = Completion {
        remaining: AtomicUsize::new(cuts.len() - 2),
        caller: std::thread::current(),
    };
    for (i, lane) in cuts[1..].windows(2).enumerate() {
        let job = Job {
            src: src_ptr,
            dst: dst_ptr,
            lists: lists.as_ptr().cast(),
            lists_len: lists.len(),
            from: lane[0],
            to: lane[1],
            done: &completion,
        };
        p.senders[i % p.senders.len()]
            .send(job)
            .expect("copy-pool worker died");
    }
    // The calling thread is lane 0 — it copies too instead of idling.
    // All writes go through the raw pointer so the worker aliases stay
    // legal.
    // SAFETY: bounds asserted by the caller, destination ranges are
    // disjoint across lanes, and the cuts are `partition`'s.
    unsafe { copy_span(dst_ptr, src_ptr, lists, cuts[0], cuts[1]) };
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
    // reads/writes keep the split points free.
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
/// The tiers of [`copy_segment`] inline into this loop.
unsafe fn copy_ops_raw(dst: *mut u8, src: *const u8, ops: impl IntoIterator<Item = CopyOp>) {
    ops.into_iter().for_each(|o| {
        // SAFETY: bounds validated by the caller; destinations disjoint.
        unsafe { copy_segment(src.add(o.src_off), dst.add(o.dst_off), o.len) };
    });
}

/// A single-thread segment loop: [`copy_ops_raw`], [`copy_ops_stream`]
/// or [`copy_ops_masked`]. Each takes its segments as an iterator and
/// drives it with `for_each`, so a list and a strided window run the
/// same loop body — a window through its 2-D loop
/// ([`Segments`]' `fold`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loop {
    Tier,
    Stream,
    Masked,
}

/// Run `segs` through the loop `how` names.
///
/// # Safety
/// [`copy_ops_raw`]'s contract, and [`Loop::Masked`] only where
/// [`masked_copy_available`].
#[inline]
unsafe fn run_loop(
    how: Loop,
    dst: *mut u8,
    src: *const u8,
    segs: impl IntoIterator<Item = CopyOp>,
) {
    // SAFETY: the caller's contract.
    unsafe {
        match how {
            Loop::Tier => copy_ops_raw(dst, src, segs),
            Loop::Stream => copy_ops_stream(dst, src, segs),
            #[cfg(target_arch = "x86_64")]
            Loop::Masked => copy_ops_masked(dst, src, segs),
            #[cfg(not(target_arch = "x86_64"))]
            Loop::Masked => copy_ops_raw(dst, src, segs),
        }
    }
}

/// Run segments `range` of `segs` through the loop `how` names: a
/// slice of a list, or a strided window's blocks stepped from the
/// range's first.
///
/// # Safety
/// [`run_loop`]'s.
unsafe fn copy_range(
    how: Loop,
    dst: *mut u8,
    src: *const u8,
    segs: &Segs<'_>,
    range: std::ops::Range<usize>,
) {
    // SAFETY: the caller's contract.
    unsafe {
        match segs {
            Segs::List(ops) => run_loop(how, dst, src, ops[range].iter().copied()),
            // A whole window keeps its 2-D loop; a lane's stretch of one
            // steps block by block.
            Segs::Strided(w) if range == (0..segs.len()) => {
                run_loop(how, dst, src, w.segments_from(0))
            }
            Segs::Strided(w) => {
                let blocks = w.segments_from(range.start as u64);
                run_loop(how, dst, src, blocks.take(range.len()))
            }
        }
    }
}

/// Whether this build has [`copy_ops_stream`]. SSE2, and with it the
/// non-temporal 16-byte store, is baseline on x86_64, so no detection
/// is needed. Miri cannot run the loop — `std` writes
/// `_mm_stream_si128` as inline assembly — so under Miri, as on every
/// other target, a streamed list takes the tier loop.
const STREAM_LOOP: bool = cfg!(all(target_arch = "x86_64", not(miri)));

/// [`copy_ops_raw`] for a destination nothing reads back soon, the way
/// a GPU unpack kernel writes whole memory transactions: each segment's
/// head up to the first destination cache-line boundary and its tail
/// past the last go through [`copy_segment`]; every whole line between
/// moves with four unaligned 16-byte loads and four non-temporal
/// stores, which write the line without first reading it for
/// ownership. The stores are weakly ordered: a lane that ran this loop
/// must [`fence_streamed`] before it reports completion.
///
/// # Safety
/// [`copy_ops_raw`]'s contract.
#[cfg(all(target_arch = "x86_64", not(miri)))]
unsafe fn copy_ops_stream(dst: *mut u8, src: *const u8, ops: impl IntoIterator<Item = CopyOp>) {
    use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_stream_si128};
    ops.into_iter().for_each(|o| {
        // SAFETY: bounds validated by the caller; destinations disjoint.
        // `head + lines · 64 + rest == len`, so every access stays in
        // the segment; each streamed store is 16-byte aligned, since
        // the line it lies in starts on a 64-byte boundary.
        unsafe {
            let (mut s, mut d) = (src.add(o.src_off), dst.add(o.dst_off));
            let head = d.align_offset(CACHE_LINE).min(o.len);
            copy_segment(s, d, head);
            (s, d) = (s.add(head), d.add(head));
            let lines = (o.len - head) / CACHE_LINE;
            for _ in 0..lines {
                for k in 0..CACHE_LINE / 16 {
                    let v = _mm_loadu_si128(s.cast::<__m128i>().add(k));
                    _mm_stream_si128(d.cast::<__m128i>().add(k), v);
                }
                (s, d) = (s.add(CACHE_LINE), d.add(CACHE_LINE));
            }
            copy_segment(s, d, o.len - head - lines * CACHE_LINE);
        }
    });
}

/// Where the build has no stream loop the tier loop stands in for it
/// ([`takes_stream_loop`] is then always false).
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
use copy_ops_raw as copy_ops_stream;

/// Whether `l` moves through [`copy_ops_stream`]: it asks to
/// ([`SegList::stream`]), it is not fine-grained — a fine list keeps
/// the masked / tier loop, whose short segments rarely hold a whole
/// line — and the build has the loop.
fn takes_stream_loop(l: &SegList<'_>) -> bool {
    STREAM_LOOP && l.stream && !is_fine(l)
}

/// Make this thread's non-temporal stores visible before what follows:
/// a release store (the pool's latch) does not order them on x86.
fn fence_streamed(streamed: bool) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if streamed {
        // SAFETY: `sfence` needs SSE, which every x86_64 CPU has.
        unsafe { std::arch::x86_64::_mm_sfence() };
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = streamed;
}

/// Segments up to this length move as one masked register in
/// [`copy_ops_masked`]: a 512-bit register holds 64 bytes.
#[cfg(target_arch = "x86_64")]
const MASKED_COPY_MAX: usize = 64;

/// Whether this CPU runs [`copy_ops_masked`]. The detection is cached
/// by `std` after its first call; under Miri it reports the features
/// absent, so Miri runs the tier loop.
fn masked_copy_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("bmi2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// [`copy_ops_raw`] for a fine-grained list, the way a CUDA-DEV warp
/// moves a work unit: a segment of at most [`MASKED_COPY_MAX`] bytes
/// moves with one masked load and one masked store whose mask holds its
/// first `len` byte lanes, so no branch depends on its length. Longer
/// segments go to [`copy_segment`].
///
/// # Safety
/// [`copy_ops_raw`]'s contract, and the CPU must have `avx512f`,
/// `avx512bw` and `bmi2` ([`masked_copy_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,bmi2")]
unsafe fn copy_ops_masked(dst: *mut u8, src: *const u8, ops: impl IntoIterator<Item = CopyOp>) {
    use std::arch::x86_64::{_bzhi_u64, _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi8};
    ops.into_iter().for_each(|o| {
        // SAFETY: bounds validated by the caller; destinations disjoint.
        // The mask holds lanes `0..len` (`bzhi` of 64 or more keeps all
        // 64), so the load reads and the store writes exactly the
        // segment's bytes. The register spans 64 bytes from each start,
        // past a short segment's end: masked-off elements of an AVX-512
        // masked load or store are fault-suppressed, so a segment ending
        // at the last mapped byte is still sound, and the store leaves
        // the destination bytes past `len` unwritten. The CPU features
        // are the caller's contract.
        unsafe {
            let (s, d) = (src.add(o.src_off), dst.add(o.dst_off));
            if o.len <= MASKED_COPY_MAX {
                let k = _bzhi_u64(!0, o.len as u32);
                _mm512_mask_storeu_epi8(d.cast(), k, _mm512_maskz_loadu_epi8(k, s.cast()));
            } else {
                copy_segment(s, d, o.len);
            }
        }
    });
}

/// Whether `l` is fine-grained: its mean segment is under
/// [`CHUNKED_COPY_MAX`].
fn is_fine(l: &SegList<'_>) -> bool {
    l.bytes / CHUNKED_COPY_MAX < l.segs.len()
}

/// Whether the one-lane path moves `l` through the masked loop: the list
/// is fine-grained and the CPU has the loop. Every other list takes the
/// stream loop ([`takes_stream_loop`]) or the tier loop.
fn takes_masked_loop(l: &SegList<'_>) -> bool {
    is_fine(l) && masked_copy_available()
}

/// Parallel contiguous copy: `dst.copy_from_slice(src)`, the one-list,
/// one-segment batch.
pub fn par_copy(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "par_copy length mismatch");
    let whole = [CopyOp {
        src_off: 0,
        dst_off: 0,
        len: dst.len(),
    }];
    par_transfer_total(dst, src, &whole, dst.len());
}

/// Debug builds: no two segments of the batch — a strided window's
/// expanded — write one destination byte.
#[cfg(debug_assertions)]
fn assert_dst_disjoint(lists: &[SegList<'_>]) {
    let mut spans: Vec<(usize, usize)> = lists
        .iter()
        .flat_map(|l| l.segs.iter().map(|o| (l.dst_at + o.dst_off, o.len)))
        .filter(|&(_, len)| len > 0)
        .map(|(at, len)| (at, at + len))
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

/// Every list's windows against the buffers and every segment against
/// its list's windows, with no addition that can wrap: the release
/// profile has overflow checks off, and a wrapped `off + len` passed
/// `<=` and read the bytes *before* the buffer. A sum that saturates
/// exceeds any window that fits a slice, and the windows are checked
/// against the slices first. A strided window is checked on its extreme
/// blocks ([`StridedWindow::needs`]), which holds exactly when every
/// block would pass: a block reaching below its base needs more than any
/// window holds, as a listed block's wrapped offset does.
fn assert_in_bounds(dst: &[u8], src: &[u8], lists: &[SegList<'_>]) {
    let fits = |at: usize, len: usize, room: usize| at.saturating_add(len) <= room;
    for l in lists {
        assert!(
            fits(l.src_at, l.src_len, src.len()) && fits(l.dst_at, l.dst_len, dst.len()),
            "segment list out of bounds: source {}+{} of {}, destination {}+{} of {}",
            l.src_at,
            l.src_len,
            src.len(),
            l.dst_at,
            l.dst_len,
            dst.len()
        );
        let ops = match l.segs {
            Segs::List(ops) => ops,
            Segs::Strided(w) => {
                let (src_need, dst_need) = w.needs();
                assert!(
                    src_need <= l.src_len as u64 && dst_need <= l.dst_len as u64,
                    "strided window out of bounds: needs {src_need} / {dst_need} of {} / {}: {w:?}",
                    l.src_len,
                    l.dst_len
                );
                continue;
            }
        };
        for o in ops {
            assert!(
                fits(o.src_off, o.len, l.src_len),
                "source segment out of bounds: {o:?} vs len {}",
                l.src_len
            );
            assert!(
                fits(o.dst_off, o.len, l.dst_len),
                "destination segment out of bounds: {o:?} vs len {}",
                l.dst_len
            );
        }
    }
}

/// Cache-line size the lane splits align to.
const CACHE_LINE: usize = 64;

fn round_up_cache_line(n: usize) -> usize {
    n.saturating_add(CACHE_LINE - 1) & !(CACHE_LINE - 1)
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
/// count and the split; every segment is still bounds-checked.
pub fn par_transfer_total(dst: &mut [u8], src: &[u8], ops: &[CopyOp], total: usize) {
    par_transfer_batch(dst, src, &[SegList::whole(dst, src, ops, total)]);
}

/// Execute a run of segment lists from `src` into `dst` as one job: the
/// lists' bytes are split across lanes as if they were one list, so a
/// hundred half-megabyte fragments share the pool the way one transfer
/// of their total size would. Every segment of every list is checked
/// before a byte moves; segments must be pairwise disjoint in `dst`
/// across the whole batch.
pub fn par_transfer_batch(dst: &mut [u8], src: &[u8], lists: &[SegList<'_>]) {
    let (bytes, segments) = lists
        .iter()
        .fold((0, 0), |(b, s), l| (b + l.bytes, s + l.segs.len()));
    transfer_with(dst, src, lists, lanes_for(bytes, segments));
}

fn transfer_with(dst: &mut [u8], src: &[u8], lists: &[SegList<'_>], n: usize) {
    assert_in_bounds(dst, src, lists);
    #[cfg(debug_assertions)]
    assert_dst_disjoint(lists);
    debug_assert!(lists
        .iter()
        .all(|l| l.bytes == l.segs.iter().map(|o| o.len).sum::<usize>()));
    if n > 1 {
        let mut cuts = [Cut::default(); MAX_POOL_THREADS + 1];
        let lanes = partition(lists, n, &mut cuts);
        if lanes > 1 {
            return run_lanes(dst, src, lists, &cuts[..=lanes]);
        }
    }
    // One lane is the whole stream, inline; the small copies that
    // dominate by count never see a cut or the pool.
    let (dst, src) = (dst.as_mut_ptr(), src.as_ptr());
    let mut streamed = false;
    for l in lists {
        // SAFETY: bounds asserted above; a single thread writes dst; the
        // masked loop runs only where `masked_copy_available` found its
        // features.
        unsafe {
            let (d, s) = (dst.add(l.dst_at), src.add(l.src_at));
            let how = if takes_stream_loop(l) {
                streamed = true;
                Loop::Stream
            } else if takes_masked_loop(l) {
                Loop::Masked
            } else {
                Loop::Tier
            };
            copy_range(how, d, s, &l.segs, 0..l.segs.len());
        }
    }
    fence_streamed(streamed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(src_off: usize, dst_off: usize, len: usize) -> CopyOp {
        CopyOp {
            src_off,
            dst_off,
            len,
        }
    }

    fn ops_of<'a>(l: &SegList<'a>) -> &'a [CopyOp] {
        match l.segs {
            Segs::List(ops) => ops,
            Segs::Strided(_) => panic!("a listed batch"),
        }
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn par_copy_small_and_large() {
        for len in [0usize, 13, 4096, (1 << 20) + 17, (5 << 20) + 3] {
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
        let ops: Vec<CopyOp> = (0..8).map(|i| op(i * 8, i * 4, 4)).collect();
        par_transfer(&mut dst, &src, &ops);
        let expect: Vec<u8> = (0..8)
            .flat_map(|i| i * 8..i * 8 + 4)
            .map(|v| v as u8)
            .collect();
        assert_eq!(dst, expect);
    }

    fn gather_case(seg: usize, count: usize) -> (Vec<u8>, Vec<CopyOp>) {
        let src: Vec<u8> = (0..seg * count * 2).map(|i| (i % 253) as u8).collect();
        let ops = (0..count).map(|i| op(i * 2 * seg, i * seg, seg)).collect();
        (src, ops)
    }

    /// The existing gather cases: (segment, count), fine to coarse, under
    /// and over the size the lane rule hands out a second lane at.
    const GATHERS: [(usize, usize); 4] = [(48, 40), (2048, 700), (4096, 600), (4096, 1200)];

    #[test]
    fn transfer_large_parallel_path() {
        // Coarse and big enough for the rule to want two lanes.
        let (seg, count) = (4096usize, 1200usize); // ~4.9 MB
        assert!(lanes_wanted(seg * count, count) >= 2);
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

    /// [`par_transfer`] with an explicit lane count, clamped to the
    /// pool's actual size; returns the count used.
    fn par_transfer_lanes(dst: &mut [u8], src: &[u8], ops: &[CopyOp], lanes: usize) -> usize {
        let total: usize = ops.iter().map(|o| o.len).sum();
        let n = lanes.clamp(1, pool_info().threads);
        transfer_with(dst, src, &[SegList::whole(dst, src, ops, total)], n);
        n
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

    /// Split `lists` into `n` lanes and run them one after the other on
    /// this thread — the partition and the span copy without the pool,
    /// so every lane count runs on every machine. Checks the cuts on
    /// the way: strictly ascending, inside their segments, a cut inside
    /// a segment a whole number of cache lines in.
    fn run_split(dst: &mut [u8], src: &[u8], lists: &[SegList<'_>], n: usize) -> Vec<Cut> {
        assert_in_bounds(dst, src, lists);
        let mut cuts = [Cut::default(); MAX_POOL_THREADS + 1];
        let lanes = partition(lists, n, &mut cuts);
        assert!((1..=n.max(1)).contains(&lanes), "n={n} lanes={lanes}");
        let cuts = &cuts[..=lanes];
        assert_eq!(cuts[0], Cut::default());
        assert_eq!((cuts[lanes].list, cuts[lanes].op), (lists.len(), 0));
        for w in cuts.windows(2) {
            assert!(w[0] < w[1] || lanes == 1, "cuts must ascend: {cuts:?}");
        }
        for c in &cuts[1..lanes] {
            let cut = lists[c.list].segs.get(c.op).expect("a cut names a segment");
            assert!(c.byte < cut.len, "cut outside its op");
            assert_eq!(c.byte % CACHE_LINE, 0, "interior split unaligned");
        }
        for w in cuts.windows(2) {
            // SAFETY: `assert_in_bounds` checked every window above, and
            // the ascending cuts hand each destination byte to one span.
            unsafe { copy_span(dst.as_mut_ptr(), src.as_ptr(), lists, w[0], w[1]) };
        }
        cuts.to_vec()
    }

    #[test]
    fn a_one_entry_batch_is_par_transfer_at_every_lane_count() {
        for (seg, count) in GATHERS {
            let (src, ops) = gather_case(seg, count);
            let mut want = vec![0u8; seg * count];
            par_transfer(&mut want, &src, &ops);
            let list = [SegList::whole(&want, &src, &ops, seg * count)];
            let mut dst = vec![0u8; seg * count];
            par_transfer_batch(&mut dst, &src, &list);
            assert_eq!(dst, want, "seg={seg}: batch");
            for lanes in [1usize, 2, 4, 8, 64] {
                dst.fill(0);
                run_split(&mut dst, &src, &list, lanes);
                assert_eq!(dst, want, "seg={seg} lanes={lanes}: split");
                // And through the pool, as many lanes as it has.
                dst.fill(0);
                transfer_with(&mut dst, &src, &list, lanes.min(pool_info().threads));
                assert_eq!(dst, want, "seg={seg} lanes={lanes}: pooled");
            }
        }
    }

    #[test]
    fn a_batch_moves_what_its_lists_move_one_by_one_wherever_the_lanes_cut() {
        // Three lists over one pair of buffers, each with its own base
        // offsets: a fine one, one huge segment, a coarse one.
        let src: Vec<u8> = (0..3 << 20).map(|i| (i % 247) as u8).collect();
        let fine: Vec<CopyOp> = (0..4096).map(|i| op(i * 80, i * 40, 40)).collect();
        let huge = [op(5, 0, (1 << 20) + 11)];
        let coarse: Vec<CopyOp> = (0..100).map(|i| op(i * 9000, i * 4500, 4500)).collect();
        let sum = |ops: &[CopyOp]| ops.iter().map(|o| o.len).sum::<usize>();
        let (f, h, c) = (sum(&fine), sum(&huge), sum(&coarse));
        let list = |src_at, dst_at, bytes, ops| SegList {
            src_at,
            src_len: src.len() - src_at,
            dst_at,
            dst_len: bytes,
            bytes,
            segs: Segs::List(ops),
            stream: false,
        };
        let lists = [
            list(100, 0, f, &fine[..]),
            list(400_000, f, h, &huge[..]),
            list(2_000_000, f + h, c, &coarse[..]),
        ];
        let mut want = vec![0u8; f + h + c];
        for l in &lists {
            let (d, s) = (&mut want[l.dst_at..], &src[l.src_at..]);
            par_transfer(d, s, ops_of(l));
        }
        let mut seen = [false; 2]; // a boundary inside a list / inside the huge op
        for n in 1..=64usize {
            let mut dst = vec![0u8; want.len()];
            for c in &run_split(&mut dst, &src, &lists, n)[1..] {
                seen[0] |= c.list == 0 && c.op > 0;
                seen[1] |= c.list == 1 && c.byte > 0;
            }
            assert!(dst == want, "n={n}");
            dst.fill(0);
            transfer_with(&mut dst, &src, &lists, n.min(pool_info().threads));
            assert!(dst == want, "n={n}, pooled");
        }
        assert_eq!(seen, [true; 2], "a kind of lane boundary never occurred");
        // Two lists of equal volume on two lanes: the boundary is the
        // seam, found without reading either list.
        let twins = [list(100, 0, f, &fine[..]), list(100, f, f, &fine[..])];
        let mut dst = vec![0u8; want.len()];
        let cuts = run_split(&mut dst, &src, &twins, 2);
        assert_eq!(
            (cuts.len(), cuts[1]),
            (
                3,
                Cut {
                    list: 1,
                    op: 0,
                    byte: 0
                }
            )
        );
        assert!(dst[..f] == want[..f] && dst[f..2 * f] == want[..f]);
        // A huge op next to a tiny one still spreads (the old `ops.len()
        // < n` guard left this on one lane).
        let pair = [op(0, 0, 1 << 20), op(1 << 20, 1 << 20, 8)];
        let lists = [SegList::whole(&want, &src, &pair, (1 << 20) + 8)];
        let mut dst = vec![0u8; want.len()];
        let cuts = run_split(&mut dst, &src, &lists, 2);
        assert_eq!((cuts.len(), cuts[1].op), (3, 0));
        assert!(cuts[1].byte.abs_diff(1 << 19) <= CACHE_LINE);
    }

    #[test]
    fn pooled_agrees_with_a_sequential_reference_at_every_lane_count() {
        // The reference shares nothing with `partition` / `copy_span`:
        // one bounds-checked slice copy per op, in order.
        fn reference(dst: &mut [u8], src: &[u8], ops: &[CopyOp]) {
            for o in ops {
                dst[o.dst_off..o.dst_off + o.len]
                    .copy_from_slice(&src[o.src_off..o.src_off + o.len]);
            }
        }
        let (seg, count) = (2048usize, 2400usize); // ~4.9 MB
        let (src, ops) = gather_case(seg, count);
        let mut want = vec![0u8; seg * count];
        reference(&mut want, &src, &ops);
        let mut pooled = vec![0u8; seg * count];
        par_transfer(&mut pooled, &src, &ops);
        assert!(pooled == want, "lane rule");
        for lanes in [1usize, 2, 4, 8, 64] {
            pooled.fill(0);
            par_transfer_lanes(&mut pooled, &src, &ops, lanes);
            assert!(pooled == want, "lanes={lanes}");
        }

        let big: Vec<u8> = (0..(5 << 20)).map(|i| (i % 241) as u8).collect();
        let whole = [op(0, 0, big.len())];
        let mut a = vec![0u8; big.len()];
        par_copy(&mut a, &big);
        assert!(a == big, "par_copy");
        for lanes in [1usize, 2, 4, 8, 64] {
            a.fill(0);
            par_transfer_lanes(&mut a, &big, &whole, lanes);
            assert!(a == big, "one segment, lanes={lanes}");
        }
    }

    #[test]
    fn pool_survives_repeated_large_transfers() {
        // Exercise the persistent workers across many calls (the
        // regression the pool exists for: no spawn per call, no leaked
        // completions).
        let (seg, count) = (4096usize, 1100usize); // ~4.5 MB
        let (src, ops) = gather_case(seg, count);
        let mut dst = vec![0u8; seg * count];
        for round in 0..16 {
            dst.fill(0);
            par_transfer(&mut dst, &src, &ops);
            assert_eq!(&dst[..seg], &src[..seg], "round {round}");
            assert_eq!(
                &dst[(count - 1) * seg..],
                &src[(count - 1) * 2 * seg..][..seg]
            );
        }
        let info = pool_info();
        assert!(info.threads >= 1 && info.threads <= MAX_POOL_THREADS);
        assert_eq!(pool_info_if_started(), Some(info));
    }

    /// Ops no buffer holds: past the end, and with an `off + len` that
    /// wraps (which a release build's unchecked `+` let through — it
    /// read the bytes *before* the buffer).
    fn bad_ops() -> [CopyOp; 4] {
        [
            op(10, 0, 10),
            op(0, 10, 10),
            op(usize::MAX - 3, 0, 8),
            op(0, usize::MAX - 3, 8),
        ]
    }

    #[test]
    fn a_handed_in_total_moves_the_same_bytes_and_skips_no_bounds_check() {
        // Small (inline) and large (pooled) lists.
        for (seg, count) in GATHERS {
            let (src, ops) = gather_case(seg, count);
            let mut want = vec![0u8; seg * count];
            par_transfer(&mut want, &src, &ops);
            let mut dst = vec![0u8; seg * count];
            par_transfer_total(&mut dst, &src, &ops, seg * count);
            assert_eq!(dst, want, "seg={seg}");
        }
        let src = vec![7u8; 16];
        let mut dst = vec![0u8; 16];
        for bad in bad_ops() {
            assert!(
                panics(|| par_transfer_total(&mut dst, &src, &[bad], bad.len)),
                "{bad:?} must panic"
            );
            assert_eq!(dst, [0u8; 16], "{bad:?} moved a byte");
        }
    }

    #[test]
    fn transfer_rejects_oob() {
        let src = vec![7u8; 16];
        let mut dst = vec![0u8; 16];
        for bad in bad_ops() {
            assert!(
                panics(|| par_transfer(&mut dst, &src, &[bad])),
                "{bad:?} must panic"
            );
            assert_eq!(dst, [0u8; 16], "{bad:?} moved a byte");
        }
    }

    #[test]
    fn a_bad_op_or_window_in_any_entry_panics_before_a_byte_moves() {
        fn list(
            src_at: usize,
            src_len: usize,
            dst_at: usize,
            dst_len: usize,
            ops: &[CopyOp],
        ) -> SegList<'_> {
            SegList {
                src_at,
                src_len,
                dst_at,
                dst_len,
                bytes: 16,
                segs: Segs::List(ops),
                stream: false,
            }
        }
        let src = vec![7u8; 64];
        let good = [op(0, 0, 8), op(8, 8, 8)];
        for bad in bad_ops() {
            let bad = [bad];
            for at in 0..3 {
                // The bad entry first, in the middle, last.
                let mut lists = vec![list(0, 16, 0, 16, &good[..]); 2];
                lists.insert(at, list(32, 16, 32, 16, &bad[..]));
                lists[(at + 1) % 3].dst_at = 16;
                let mut dst = vec![0u8; 64];
                assert!(
                    panics(|| par_transfer_batch(&mut dst, &src, &lists)),
                    "{bad:?} at {at}"
                );
                assert_eq!(dst, [0u8; 64], "{bad:?} at {at} moved a byte");
            }
        }
        // A window the buffer does not hold, plain and wrapping; and a
        // segment inside the buffer but outside its list's window.
        for (src_at, src_len, dst_at, dst_len) in [
            (56, 16, 0, 16),
            (0, 16, 56, 16),
            (usize::MAX - 7, 16, 0, 16),
            (0, 16, 8, usize::MAX),
            (0, 15, 0, 16),
            (0, 16, 0, 15),
        ] {
            let lists = [list(src_at, src_len, dst_at, dst_len, &good[..])];
            let mut dst = vec![0u8; 64];
            assert!(
                panics(|| par_transfer_batch(&mut dst, &src, &lists)),
                "{:?}",
                lists[0]
            );
            assert_eq!(dst, [0u8; 64]);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping destination")]
    fn transfer_rejects_overlap_in_debug() {
        let src = vec![0u8; 32];
        let mut dst = vec![0u8; 32];
        let ops = [op(0, 0, 8), op(8, 4, 8)];
        par_transfer(&mut dst, &src, &ops);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping destination")]
    fn a_batch_rejects_overlap_across_its_entries_in_debug() {
        // Each list is disjoint in itself; their windows are not.
        let src = vec![0u8; 32];
        let mut dst = vec![0u8; 32];
        let ops = [op(0, 0, 8)];
        let list = |dst_at| SegList {
            src_at: 0,
            src_len: 8,
            dst_at,
            dst_len: 8,
            bytes: 8,
            segs: Segs::List(&ops),
            stream: false,
        };
        par_transfer_batch(&mut dst, &src, &[list(0), list(4)]);
    }

    #[test]
    fn the_lane_rule_wants_lanes_only_for_coarse_multi_megabyte_batches() {
        const MIB: usize = 1 << 20;
        for (bytes, segments, wanted, why) in [
            (512 << 10, 512, 1, "one fragment"),
            (4_700_000, 131_072, 1, "4.7 MB of 36-byte segments"),
            (2_000_000, 2_000, 1, "2 MB, coarse"),
            (4 * MIB - 1, 1, 1, "not two full lanes"),
            (4 * MIB, 4096, 2, "two lanes' worth of 1 KiB units"),
            (8 * MIB, 8192, 4, "8 MiB coarse"),
            (
                8 * MIB,
                8 * MIB / 511,
                1,
                "8 MiB, mean segment under the line",
            ),
            (67 * MIB, 69_632, 33, "the dense triangle, one direction"),
            (0, 0, 1, "nothing"),
        ] {
            assert_eq!(lanes_wanted(bytes, segments), wanted, "{why}");
            let capped = wanted.min(pool_info().threads);
            assert_eq!(lanes_for(bytes, segments), capped, "{why}, capped");
        }
    }

    #[test]
    fn empty_ops_are_fine() {
        let src = vec![1u8; 8];
        let mut dst = vec![2u8; 8];
        par_transfer(&mut dst, &src, &[]);
        par_transfer_batch(&mut dst, &src, &[]);
        assert_eq!(dst, vec![2u8; 8]);
    }

    #[test]
    fn chunked_segment_copy_all_small_lengths() {
        // Every length through the chunked tiers, with guard bytes to
        // catch overruns on either side.
        for len in 0..=2 * CHUNKED_COPY_MAX {
            let src: Vec<u8> = (0..len).map(|i| (i % 249) as u8 ^ 0x5a).collect();
            let mut dst = vec![0xEEu8; len + 16];
            // SAFETY: `src` holds `len` bytes and `dst` holds `len` after
            // its 8-byte head guard; the two vectors are distinct.
            unsafe { copy_segment(src.as_ptr(), dst.as_mut_ptr().add(8), len) };
            assert_eq!(&dst[..8], &[0xEE; 8], "head guard, len={len}");
            assert_eq!(&dst[8..8 + len], &src[..], "payload, len={len}");
            assert_eq!(&dst[8 + len..], &[0xEE; 8], "tail guard, len={len}");
        }
    }

    /// The tier loop, the stream loop where the build has it, and the
    /// masked loop where this CPU has it (saying so when either is
    /// missing; under Miri both are).
    fn segment_loops() -> Vec<(&'static str, Loop)> {
        let mut loops = vec![("tier", Loop::Tier)];
        if STREAM_LOOP {
            loops.push(("stream", Loop::Stream));
        } else {
            eprintln!("stream segment loop skipped: not built for this target (or under Miri)");
        }
        #[cfg(target_arch = "x86_64")]
        if masked_copy_available() {
            loops.push(("masked", Loop::Masked));
        }
        if !loops.iter().any(|&(name, _)| name == "masked") {
            eprintln!("masked segment loop skipped: the CPU lacks avx512f, avx512bw or bmi2");
        }
        loops
    }

    /// The first offset from `at` into `buf` whose address lies `mis`
    /// bytes past a cache line.
    fn at_misalignment(buf: &[u8], at: usize, mis: usize) -> usize {
        let addr = buf.as_ptr() as usize + at;
        at + (mis + CACHE_LINE - addr % CACHE_LINE) % CACHE_LINE
    }

    #[test]
    fn both_segment_loops_move_what_a_bytewise_copy_moves_and_nothing_else() {
        const GUARD: u8 = 0xEE;
        const SEGS: usize = 3;
        // Payload bytes never equal the guard, so a byte a loop failed
        // to write cannot pass for one it wrote.
        const MAX_LEN: usize = 300;
        let src: Vec<u8> = (0..2 * CACHE_LINE + SEGS * (MAX_LEN + 16))
            .map(|i| (i % 237) as u8)
            .collect();
        let loops = segment_loops();
        for len in 0..=MAX_LEN {
            for mis in 0..CACHE_LINE {
                // Every source and every destination misalignment at
                // every length; the pairing shifts with the length.
                let s0 = at_misalignment(&src, 0, mis);
                let d_mis = (mis * 5 + len) % CACHE_LINE;
                // A gather packs its segments; a scatter leaves 2, then
                // 3 guard bytes between them.
                for gap in [0usize, 1] {
                    let ops: Vec<CopyOp> = (0..SEGS)
                        .map(|k| op(s0 + k * (len + 16), k * len + gap * k * (k + 3) / 2, len))
                        .collect();
                    let span = ops[SEGS - 1].dst_off + len;
                    for &(name, copy) in &loops {
                        // At least 64 guard bytes before the first
                        // segment and after the last.
                        let mut dst = vec![GUARD; 3 * CACHE_LINE + span];
                        let d0 = at_misalignment(&dst, CACHE_LINE, d_mis);
                        let mut want = dst.clone();
                        for o in &ops {
                            for i in 0..o.len {
                                want[d0 + o.dst_off + i] = src[o.src_off + i];
                            }
                        }
                        // SAFETY: every op lies inside `src` and inside
                        // `dst[d0..]`, destinations are disjoint, and the
                        // masked loop is in `loops` only where the CPU
                        // has its features.
                        unsafe {
                            run_loop(
                                copy,
                                dst.as_mut_ptr().add(d0),
                                src.as_ptr(),
                                ops.iter().copied(),
                            )
                        };
                        fence_streamed(name == "stream");
                        assert!(
                            dst == want,
                            "{name}: len={len} src mis={mis} dst mis={d_mis} gap={gap}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_batch_moves_the_same_bytes_whichever_loop_each_list_takes() {
        let sum = |ops: &[CopyOp]| ops.iter().map(|o| o.len).sum::<usize>();
        // Coarse and large enough to split: 4.5 MiB of 4.5 KiB units.
        let big: Vec<CopyOp> = (0..1024).map(|i| op(i * 4700, i * 4608, 4608)).collect();
        // Coarse, one lane's worth: 300-byte units 20 bytes apart.
        let coarse: Vec<CopyOp> = (0..64).map(|i| op(i * 320, i * 300, 300)).collect();
        // Fine: a scatter of 1..=64-byte segments whose last one ends at
        // the last byte of both buffers.
        let mut fine = Vec::new();
        let (mut s, mut d) = (3usize, 0usize);
        for i in 0..700usize {
            let len = 1 + (i * 29 + i / 7) % 64;
            fine.push(op(s, d, len));
            (s, d) = (s + len + i % 5, d + len + i % 3);
        }
        let (b, c, f) = (sum(&big), sum(&coarse), sum(&fine));
        let last = fine[fine.len() - 1];
        let (f_src, f_dst) = (last.src_off + last.len, last.dst_off + last.len);
        let (c_at, f_at) = (1024 * 4700, 1024 * 4700 + 64 * 320);
        let src: Vec<u8> = (0..f_at + f_src).map(|i| (i % 241) as u8).collect();
        let list = |src_at, src_len, dst_at, dst_len, bytes, ops| SegList {
            src_at,
            src_len,
            dst_at,
            dst_len,
            bytes,
            segs: Segs::List(ops),
            stream: false,
        };
        let plain = [
            list(0, c_at, 0, b, b, &big[..]),
            list(c_at, 64 * 320, b, c, c, &coarse[..]),
            list(f_at, f_src, b + c, f_dst, f, &fine[..]),
        ];
        assert!(lanes_wanted(b + c + f, 1024 + 64 + 700) >= 2);
        assert!(!takes_masked_loop(&plain[0]) && !takes_masked_loop(&plain[1]));
        assert_eq!(takes_masked_loop(&plain[2]), masked_copy_available());
        // The sequential reference: one bounds-checked slice copy per op.
        let mut want = vec![0u8; b + c + f_dst];
        for l in &plain {
            for o in ops_of(l) {
                let (s, d) = (l.src_at + o.src_off, l.dst_at + o.dst_off);
                want[d..d + o.len].copy_from_slice(&src[s..s + o.len]);
            }
        }
        // No list streams, then each mix of streamed and plain lists:
        // the big one alone (the pooled lanes stream it), the other two.
        for streams in [[false; 3], [true, false, false], [false, true, true]] {
            let mut lists = plain;
            for (l, stream) in lists.iter_mut().zip(streams) {
                l.stream = stream;
            }
            let streamed = lists.iter().map(takes_stream_loop).collect::<Vec<_>>();
            let asked = streams.map(|s| s && STREAM_LOOP);
            assert_eq!(streamed, [asked[0], asked[1], false], "{streams:?}");
            // As the lane rule runs the batch (pooled, every list
            // through the tier or stream loop), on one lane (each list
            // through its own loop), split on this thread, and a list
            // per batch.
            let mut dst = vec![0u8; want.len()];
            par_transfer_batch(&mut dst, &src, &lists);
            assert!(dst == want, "{streams:?}: lane rule");
            for n in [1usize, 2, 3, 4, 8] {
                dst.fill(0);
                transfer_with(&mut dst, &src, &lists, n.min(pool_info().threads));
                assert!(dst == want, "{streams:?} n={n}, pooled");
                dst.fill(0);
                run_split(&mut dst, &src, &lists, n);
                assert!(dst == want, "{streams:?} n={n}, split");
            }
            dst.fill(0);
            for l in &lists {
                par_transfer_batch(&mut dst, &src, std::slice::from_ref(l));
            }
            assert!(dst == want, "{streams:?}: a list per batch");
        }
    }

    #[test]
    fn a_fine_list_marked_stream_keeps_the_masked_or_tier_loop() {
        let sum = |ops: &[CopyOp]| ops.iter().map(|o| o.len).sum::<usize>();
        // Mean segment 127 bytes (fine) and 128 bytes (coarse).
        let fine: Vec<CopyOp> = (0..64).map(|i| op(i * 256, i * 127, 127)).collect();
        let coarse: Vec<CopyOp> = (0..64).map(|i| op(i * 256, i * 128, 128)).collect();
        let src = vec![0u8; 64 * 256];
        let dst = vec![0u8; 64 * 128];
        let marked = |ops| SegList {
            stream: true,
            ..SegList::whole(&dst, &src, ops, sum(ops))
        };
        let (fine, coarse) = (marked(&fine), marked(&coarse));
        assert!(!takes_stream_loop(&fine), "a fine list never streams");
        assert_eq!(takes_masked_loop(&fine), masked_copy_available());
        assert_eq!(takes_stream_loop(&coarse), STREAM_LOOP);
        assert!(!takes_masked_loop(&coarse));
        assert!(!takes_stream_loop(&SegList {
            stream: false,
            ..coarse
        }));
    }

    /// Batches of strided windows — consecutive fragments of one
    /// transfer, packed and unpacked, a transpose-like 2-D shape and a
    /// vector with a negative stride — move what their expanded lists
    /// move, in the reference order, at every lane count, wherever a
    /// lane boundary cuts (inside a block, between windows), with and
    /// without streaming stores.
    #[test]
    fn a_batch_of_windows_moves_what_its_lists_move_wherever_the_lanes_cut() {
        let interleaved = Strided2D {
            outer: 6,
            inner: 9,
            block_bytes: 200,
            inner_stride: 1300,
            outer_stride: 208,
            first_disp: 0,
        };
        let vector = Strided2D {
            outer: 1,
            inner: u64::MAX,
            block_bytes: 300,
            inner_stride: -500,
            outer_stride: 0,
            first_disp: 0,
        };
        let mut rng = crate::rng::rng(0x1a4e5);
        for (shape, base_shift, total) in
            [(interleaved, 0, 6 * 9 * 200), (vector, -500 * 39, 40 * 300)]
        {
            let whole = StridedWindow {
                shape,
                base_shift,
                from: 0,
                to: total,
                unpack: false,
            };
            let typed_len = whole.needs().0 as usize;
            let src_bytes: Vec<u8> = (0..typed_len.max(total as usize))
                .map(|i| (i % 241) as u8 + 1)
                .collect();
            let mut cuts = vec![0, total, 100, 7 * 200 + 50];
            cuts.extend((0..5).map(|_| rng.range_u64(0, total)));
            cuts.sort_unstable();
            cuts.dedup();
            for unpack in [false, true] {
                let windows: Vec<StridedWindow> = (cuts.windows(2))
                    .map(|c| StridedWindow {
                        shape,
                        base_shift,
                        from: c[0],
                        to: c[1],
                        unpack,
                    })
                    .collect();
                let expanded: Vec<Vec<CopyOp>> = (windows.iter())
                    .map(|w| {
                        let mut units = Vec::new();
                        strided_units(w, &mut units);
                        units
                    })
                    .collect();
                let dst_len = if unpack { typed_len } else { total as usize };
                // Each window's packed side sits at its own offset.
                let entry = |w: &StridedWindow, segs| {
                    let (src_at, dst_at) = if unpack {
                        (w.from as usize, 0)
                    } else {
                        (0, w.from as usize)
                    };
                    SegList {
                        src_at,
                        src_len: src_bytes.len() - src_at,
                        dst_at,
                        dst_len: dst_len - dst_at,
                        bytes: w.bytes() as usize,
                        segs,
                        stream: false,
                    }
                };
                let mut want = vec![0u8; dst_len];
                for (w, units) in windows.iter().zip(&expanded) {
                    let l = entry(w, Segs::List(units));
                    for o in units {
                        let (s, d) = (l.src_at + o.src_off, l.dst_at + o.dst_off);
                        want[d..d + o.len].copy_from_slice(&src_bytes[s..s + o.len]);
                    }
                }
                for stream in [false, true] {
                    let lists: Vec<SegList<'_>> = (windows.iter())
                        .map(|w| SegList {
                            stream,
                            ..entry(w, Segs::Strided(*w))
                        })
                        .collect();
                    let mut dst = vec![0u8; dst_len];
                    par_transfer_batch(&mut dst, &src_bytes, &lists);
                    assert!(dst == want, "unpack {unpack} stream {stream}: lane rule");
                    for n in 1..=8usize {
                        dst.fill(0);
                        run_split(&mut dst, &src_bytes, &lists, n);
                        assert!(dst == want, "unpack {unpack} stream {stream} n={n}: split");
                        dst.fill(0);
                        transfer_with(&mut dst, &src_bytes, &lists, n.min(pool_info().threads));
                        assert!(dst == want, "unpack {unpack} stream {stream} n={n}: pooled");
                    }
                }
            }
        }
    }

    /// A window one byte past either of its list's windows, or reaching
    /// below its typed base, panics before a byte moves — as its
    /// expanded list does.
    #[test]
    fn a_window_out_of_bounds_panics_like_its_list() {
        let shape = Strided2D {
            outer: 3,
            inner: 4,
            block_bytes: 24,
            inner_stride: -40,
            outer_stride: 200,
            first_disp: 120,
        };
        for unpack in [false, true] {
            let w = StridedWindow {
                shape,
                base_shift: 0,
                from: 5,
                to: 3 * 4 * 24 - 7,
                unpack,
            };
            let mut units = Vec::new();
            strided_units(&w, &mut units);
            let (src_need, dst_need) = w.needs();
            let src = vec![1u8; 1024];
            for (src_len, dst_len, base_shift) in [
                (src_need - 1, dst_need, 0),
                (src_need, dst_need - 1, 0),
                (src_need, dst_need, 1),
                (src_need, dst_need, 0),
            ] {
                let w = StridedWindow { base_shift, ..w };
                let mut listed = Vec::new();
                strided_units(&w, &mut listed);
                let fits = src_len == src_need && dst_len == dst_need && base_shift == 0;
                for segs in [Segs::Strided(w), Segs::List(&listed)] {
                    let l = SegList {
                        src_at: 0,
                        src_len: src_len as usize,
                        dst_at: 0,
                        dst_len: dst_len as usize,
                        bytes: w.bytes() as usize,
                        segs,
                        stream: false,
                    };
                    let mut dst = vec![0u8; 1024];
                    let moved = !panics(|| par_transfer_batch(&mut dst, &src, &[l]));
                    assert_eq!(moved, fits, "{segs:?} in {src_len} / {dst_len}");
                    assert_eq!(dst.iter().any(|&b| b != 0), fits, "{segs:?}");
                }
            }
        }
    }

    #[test]
    fn single_huge_op_splits_across_lanes() {
        // One contiguous 5 MB segment: split at cache-line boundaries
        // across the pool.
        let len = 5 << 20;
        let src: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
        let mut dst = vec![0u8; len];
        let whole = [op(0, 0, len)];
        par_transfer(&mut dst, &src, &whole);
        assert_eq!(dst, src);
    }

    #[test]
    fn split_targets_are_cache_line_aligned_and_cover() {
        let ops = [op(10, 3, 1_000_000), op(2_000_000, 1_000_003, 100)];
        let src: Vec<u8> = (0..2_000_100).map(|i| (i % 233) as u8).collect();
        let mut dst = vec![0u8; 1_000_103];
        let lists = [SegList::whole(&dst, &src, &ops, 1_000_100)];
        // `run_split` checks alignment; four lanes, all inside the
        // first op, the short second op never cut.
        let cuts = run_split(&mut dst, &src, &lists, 4);
        assert_eq!(cuts.len(), 5);
        assert!(cuts[1..4].iter().all(|c| c.op == 0 && c.byte > 0));
        assert_eq!(dst[3..1_000_003], src[10..1_000_010]);
        assert_eq!(dst[1_000_003..], src[2_000_000..]);
    }

    #[test]
    fn partitioning_covers_all_ops() {
        let ops: Vec<CopyOp> = (0..37).map(|i| op(i * 100, i * 50, 13 + (i % 7))).collect();
        let total: usize = ops.iter().map(|o| o.len).sum();
        let src: Vec<u8> = (0..3700).map(|i| (i % 251) as u8).collect();
        let mut want = vec![0u8; 37 * 50];
        par_transfer(&mut want, &src, &ops);
        for n in 1..=8usize {
            let mut dst = vec![0u8; want.len()];
            let lists = [SegList::whole(&dst, &src, &ops, total)];
            let cuts = run_split(&mut dst, &src, &lists, n);
            // Segments shorter than a cache line are never cut.
            assert!(cuts.iter().all(|c| c.byte == 0), "n={n}: {cuts:?}");
            assert_eq!(dst, want, "lanes must cover all ops (n={n})");
        }
    }
}

/// Loom model of the [`run_lanes`] handoff protocol — unchanged by the
/// batch call: a job now names a stretch of a run of lists instead of
/// one op slice, behind the same latch. Run by the
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
/// write visible to the submitting thread. That argument covers plain
/// stores only: a lane that ran the stream loop issues `sfence` before
/// its `fetch_sub` ([`copy_span`] ends with [`fence_streamed`]), because
/// x86 orders non-temporal stores after no release store. Loom has no
/// non-temporal stores, so the model's writes stand for the fenced
/// ones.
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
            // Submitter side: `run_lanes` parks/unparks around the
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
