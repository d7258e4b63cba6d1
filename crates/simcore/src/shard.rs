//! Sharded parallel DES engine with conservative lookahead.
//!
//! The single-threaded driver ([`crate::event::Sim`]) owns one calendar
//! queue and one world. This module partitions a *message-level* model
//! across shards — contiguous rank blocks — each with its own
//! [`CalendarQueue`], executed by a persistent worker pool:
//!
//! * **Conservative lookahead** (Chandy–Misra–Bryant): every shard
//!   publishes a monotone clock `clock_i = min(next local event, safe_i)`
//!   where `safe_i = min over j≠i (clock_j + L(j,i))` and `L(j,i)` is the
//!   minimum latency of any message a rank in shard `j` can send to a
//!   rank in shard `i` (netsim channel latencies are the natural
//!   horizons). A shard may process every event strictly below `safe_i`
//!   without a global barrier; positive `L` guarantees progress.
//! * **Deterministic total order per rank**: cross-shard sends travel
//!   through bounded SPSC mailboxes stamped `(time, src rank, per-rank
//!   send seq)`. The calendar orders entries by `(time, (src << 32) |
//!   seq)` — keyed by *rank*, not shard, so the delivery order each rank
//!   observes is a pure function of the model, identical for every
//!   shard count and worker interleaving. An idle shard publishes
//!   `safe_i` rather than ∞, so neighbors can never advance past a send
//!   it might still be induced (transitively) to make.
//! * **Deadlock freedom**: a producer blocked on a full outbox drains
//!   its own inboxes while it waits, so every mailbox always has a live
//!   consumer and no cycle of full mailboxes can wedge.
//! * **Termination**: a coordinator double-reads the global
//!   (sent, delivered) cross-shard counters around an all-idle check;
//!   the counts only match with all shards idle when no event or
//!   message remains anywhere.
//!
//! Models plug in through [`ShardModel`]: per-rank state machines that
//! react to delivered messages and send more via [`ShardCtx`] — the only
//! scheduling surface (the `shard` lint family bans direct `schedule_*`
//! calls in model code). Sends must be strictly in the future; this
//! keeps same-instant delivery order closed under partitioning.

use crate::calq::CalendarQueue;
use crate::time::SimTime;
use crate::trace::Tracer;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Synchronization shim for the mailbox: real builds use `std` cells
/// and atomics; the nightly loom job (`RUSTFLAGS="--cfg loom"`, with a
/// target-gated loom dependency appended to the manifest at job time —
/// loom never appears in the local manifest, by the no-new-deps policy)
/// swaps in loom's instrumented versions so the model checker explores
/// every interleaving of the SPSC protocol below. Only the mailbox is
/// routed through the shim: the rest of the engine (clocks, idle flags,
/// termination counters) needs real threads and yields, which loom
/// cannot host.
#[cfg(not(loom))]
mod mbsync {
    pub(super) use std::sync::atomic::AtomicUsize;

    /// `loom::cell::UnsafeCell`-shaped wrapper over the std cell, so
    /// the mailbox reads/writes compile identically under both builds.
    #[derive(Debug)]
    pub(super) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        pub(super) fn new(v: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(v))
        }

        pub(super) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        pub(super) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}
#[cfg(loom)]
mod mbsync {
    pub(super) use loom::cell::UnsafeCell;
    pub(super) use loom::sync::atomic::AtomicUsize;
}

/// Hard cap on shards: bounds the mailbox matrix (shards² rings).
pub const MAX_SHARDS: u32 = 32;
/// Slots per SPSC mailbox. Small enough that the full matrix stays a
/// few megabytes; the drain-while-blocked rule makes overflow safe.
const MAILBOX_CAP: usize = 256;

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// A message in flight: delivery time, source rank, per-source send
/// sequence, destination rank, payload.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    pub at: SimTime,
    pub src: u32,
    pub seq: u32,
    pub dst: u32,
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Calendar tiebreak key: (src rank, per-rank seq) — independent of
    /// the rank→shard partition.
    fn key(&self) -> u64 {
        ((self.src as u64) << 32) | self.seq as u64
    }
}

// ---------------------------------------------------------------------
// Bounded SPSC mailbox
// ---------------------------------------------------------------------

/// A bounded single-producer single-consumer ring. Exactly one shard
/// pushes (the sender) and exactly one pops (the owner); the engine
/// upholds that discipline, which is what makes the unsafe cells sound.
struct Mailbox<T> {
    buf: Box<[mbsync::UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Next slot to pop (consumer-owned, producer reads).
    head: mbsync::AtomicUsize,
    /// Next slot to fill (producer-owned, consumer reads).
    tail: mbsync::AtomicUsize,
}

// SAFETY: head/tail form the usual SPSC protocol — the producer only
// writes slots in [tail, head+CAP) and publishes with a release store
// of tail; the consumer only reads slots in [head, tail) after an
// acquire load. Each slot is therefore accessed by one thread at a
// time.
unsafe impl<T: Send> Sync for Mailbox<T> {}
unsafe impl<T: Send> Send for Mailbox<T> {}

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox::with_cap(MAILBOX_CAP)
    }

    /// A ring with an explicit capacity. The engine always uses
    /// [`MAILBOX_CAP`]; the loom model uses tiny rings so the full/empty
    /// wraparound states are reachable within the interleaving budget.
    fn with_cap(cap: usize) -> Self {
        Mailbox {
            buf: (0..cap)
                .map(|_| mbsync::UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            cap,
            head: mbsync::AtomicUsize::new(0),
            tail: mbsync::AtomicUsize::new(0),
        }
    }

    /// Producer side. Returns the value back on a full ring.
    fn push(&self, v: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail - head == self.cap {
            return Err(v);
        }
        // SAFETY: slot `tail % cap` is outside [head, tail), so the
        // consumer is not reading it; we are the only producer.
        self.buf[tail % self.cap].with_mut(|p| unsafe { (*p).write(v) });
        self.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Consumer side.
    fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: slot `head % cap` is inside [head, tail): the
        // producer published it with the release store of `tail` and
        // will not touch it again until we advance `head`.
        let v = self.buf[head % self.cap].with(|p| unsafe { (*p).assume_init_read() });
        self.head.store(head + 1, Ordering::Release);
        Some(v)
    }
}

impl<T> Drop for Mailbox<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

// ---------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------

/// Contiguous block partition of `ranks` into `shards`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    pub ranks: u32,
    pub shards: u32,
}

impl Partition {
    pub fn new(ranks: u32, shards: u32) -> Partition {
        assert!(
            ranks > 0 && shards > 0 && shards <= ranks,
            "need 1 <= shards ({shards}) <= ranks ({ranks})"
        );
        assert!(shards <= MAX_SHARDS, "at most {MAX_SHARDS} shards");
        Partition { ranks, shards }
    }

    /// Ranks per shard, rounded up (the last shard may be short).
    fn block(&self) -> u32 {
        self.ranks.div_ceil(self.shards)
    }

    pub fn shard_of(&self, rank: u32) -> u32 {
        debug_assert!(rank < self.ranks);
        rank / self.block()
    }

    /// The contiguous rank range owned by `shard`.
    pub fn range(&self, shard: u32) -> Range<u32> {
        let b = self.block();
        let lo = shard * b;
        lo..((shard + 1) * b).min(self.ranks)
    }
}

// ---------------------------------------------------------------------
// The model trait and its scheduling surface
// ---------------------------------------------------------------------

/// Per-shard model state: the rank state machines for one contiguous
/// rank block. `Send` because shards execute on pool workers.
///
/// Determinism contract (enforced by the engine where it can):
/// * state must be per-rank — `deliver` for rank r may only read/write
///   r's state (plus shared immutable config);
/// * all randomness must come from per-rank streams
///   ([`crate::rng::SimRng::for_stream`]);
/// * all communication goes through [`ShardCtx::send`], strictly into
///   the future.
pub trait ShardModel: Send {
    type Msg: Send + 'static;

    /// React to a message delivered to `env.dst` (a rank this shard
    /// owns) at `env.at`.
    fn deliver(&mut self, ctx: &mut ShardCtx<'_, Self::Msg>, env: Envelope<Self::Msg>);
}

/// The scheduling surface handed to [`ShardModel::deliver`]: the only
/// way model code sends messages or reaches the trace.
pub struct ShardCtx<'a, M> {
    now: SimTime,
    current: u32,
    base: u32,
    staged: &'a mut Vec<Envelope<M>>,
    seqs: &'a mut [u32],
    /// Per-shard trace recorder; merged deterministically at drain.
    pub trace: &'a mut Tracer,
}

impl<M> ShardCtx<'_, M> {
    /// Virtual time of the message being delivered.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The rank being delivered to (sends originate here).
    pub fn rank(&self) -> u32 {
        self.current
    }

    /// Send `msg` to rank `dst`, arriving at `at`. Must be strictly in
    /// the future — same-instant sends would make delivery order depend
    /// on the partition. Cross-shard arrivals must additionally respect
    /// the lookahead the engine was built with (checked downstream in
    /// debug builds).
    pub fn send(&mut self, dst: u32, at: SimTime, msg: M) {
        assert!(
            at > self.now,
            "shard model sent into the present/past: {at:?} <= {:?}",
            self.now
        );
        let li = (self.current - self.base) as usize;
        let seq = self.seqs[li];
        self.seqs[li] = seq.checked_add(1).expect("per-rank send seq overflow");
        self.staged.push(Envelope {
            at,
            src: self.current,
            seq,
            dst,
            msg,
        });
    }
}

// ---------------------------------------------------------------------
// Per-shard state
// ---------------------------------------------------------------------

struct ShardState<W: ShardModel> {
    id: u32,
    ranks: Range<u32>,
    model: W,
    cal: CalendarQueue<u32>,
    /// Envelope arena indexed by calendar payload.
    slots: Vec<Option<Envelope<W::Msg>>>,
    free: Vec<u32>,
    /// Next send seq per owned rank (index = rank - ranks.start).
    seqs: Vec<u32>,
    trace: Tracer,
    staged: Vec<Envelope<W::Msg>>,
    executed: u64,
    /// Latest delivery time processed.
    last_at: SimTime,
}

impl<W: ShardModel> ShardState<W> {
    fn store(&mut self, env: Envelope<W::Msg>) {
        let (at, key) = (env.at, env.key());
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(env);
                s
            }
            None => {
                self.slots.push(Some(env));
                (self.slots.len() - 1) as u32
            }
        };
        self.cal.insert(at, key, slot);
    }

    fn take(&mut self, slot: u32) -> Envelope<W::Msg> {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("live envelope slot")
    }
}

// ---------------------------------------------------------------------
// Shared cross-shard state
// ---------------------------------------------------------------------

struct Shared<M> {
    clocks: Vec<AtomicU64>,
    idle: Vec<AtomicBool>,
    /// Cross-shard envelopes pushed (counted before the push lands).
    sent: AtomicU64,
    /// Cross-shard envelopes drained into a destination calendar
    /// (counted after insertion and after clearing the idle flag).
    delivered: AtomicU64,
    stop: AtomicBool,
    /// boxes[dst][src]: messages from shard `src` to shard `dst`.
    boxes: Vec<Vec<Mailbox<Envelope<M>>>>,
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// A sharded simulation: `shards` calendar queues over a contiguous
/// rank partition, run in parallel under conservative lookahead.
pub struct ShardedSim<W: ShardModel> {
    part: Partition,
    /// Row-major `shards × shards` lookahead in ns; `lookahead[j*s+i]`
    /// bounds messages from shard j to shard i. Strictly positive off
    /// the diagonal.
    lookahead: Vec<u64>,
    states: Vec<ShardState<W>>,
}

/// Result of a completed sharded run.
pub struct ShardRun<W: ShardModel> {
    pub part: Partition,
    /// Per-shard models, in shard order (rank r's state lives in
    /// `models[part.shard_of(r)]`).
    pub models: Vec<W>,
    /// Deterministically merged trace ([`Tracer::merge_shards`]).
    pub trace: Tracer,
    /// Messages delivered (model `deliver` invocations).
    pub executed: u64,
    /// Latest virtual delivery time across all shards.
    pub end_time: SimTime,
}

impl<W: ShardModel> ShardedSim<W> {
    /// Build an engine over `part` with one model per shard.
    /// `min_latency(a, b)` is the least possible arrival delay of any
    /// message rank `a` sends rank `b`; the per-shard-pair lookahead is
    /// its minimum over the cross pairs, and must be positive.
    pub fn new(
        part: Partition,
        models: Vec<W>,
        min_latency: impl Fn(u32, u32) -> SimTime,
    ) -> ShardedSim<W> {
        assert_eq!(models.len() as u32, part.shards, "one model per shard");
        let s = part.shards as usize;
        let mut lookahead = vec![u64::MAX; s * s];
        for j in 0..part.shards {
            for i in 0..part.shards {
                if i == j {
                    continue;
                }
                let mut min = u64::MAX;
                for a in part.range(j) {
                    for b in part.range(i) {
                        min = min.min(min_latency(a, b).as_nanos());
                    }
                }
                assert!(
                    min > 0,
                    "zero lookahead between shards {j} and {i}: conservative sync cannot progress"
                );
                lookahead[j as usize * s + i as usize] = min;
            }
        }
        let states = models
            .into_iter()
            .enumerate()
            .map(|(id, model)| ShardState {
                id: id as u32,
                ranks: part.range(id as u32),
                model,
                cal: CalendarQueue::new(),
                slots: Vec::new(),
                free: Vec::new(),
                seqs: vec![0; part.range(id as u32).len()],
                trace: Tracer::new(),
                staged: Vec::new(),
                executed: 0,
                last_at: SimTime::ZERO,
            })
            .collect();
        ShardedSim {
            part,
            lookahead,
            states,
        }
    }

    /// Turn span/instant recording on for every shard's tracer.
    pub fn set_recording(&mut self, on: bool) {
        for st in &mut self.states {
            st.trace.set_recording(on);
        }
    }

    /// Seed the run with an initial message before `run` (virtual time
    /// zero onward). Consumes a send seq of `src`, so injection order is
    /// part of the deterministic input.
    pub fn inject(&mut self, src: u32, dst: u32, at: SimTime, msg: W::Msg) {
        let src_shard = self.part.shard_of(src);
        let base = self.states[src_shard as usize].ranks.start;
        let li = (src - base) as usize;
        let seq = self.states[src_shard as usize].seqs[li];
        self.states[src_shard as usize].seqs[li] = seq + 1;
        let env = Envelope {
            at,
            src,
            seq,
            dst,
            msg,
        };
        let dst_shard = self.part.shard_of(dst) as usize;
        self.states[dst_shard].store(env);
    }

    /// Run to global quiescence. With one shard the loop runs inline on
    /// the caller thread; with more, each shard runs on a persistent
    /// pool worker.
    pub fn run(mut self) -> ShardRun<W> {
        let s = self.part.shards as usize;
        let shared = Shared {
            clocks: (0..s).map(|_| AtomicU64::new(0)).collect(),
            idle: (0..s).map(|_| AtomicBool::new(false)).collect(),
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            boxes: (0..s)
                .map(|_| (0..s).map(|_| Mailbox::new()).collect())
                .collect(),
        };
        let part = self.part;
        let lookahead = std::mem::take(&mut self.lookahead);
        let mut states = std::mem::take(&mut self.states);

        if s == 1 {
            run_shard(&mut states[0], &shared, &lookahead, part);
        } else {
            // One persistent worker per shard for the whole run: the
            // conservative loops must all be live simultaneously or the
            // clocks deadlock, hence the global run lock — concurrent
            // ShardedSim runs (e.g. parallel tests) serialize instead
            // of starving each other of workers.
            // The lock guards no data, so a holder that re-raised a worker
            // panic (below) leaves nothing inconsistent behind.
            let _run = run_lock().lock().unwrap_or_else(|p| p.into_inner());
            // A panicking shard loop must fail the run, not wedge it:
            // its peers would spin forever on a clock that never
            // advances. Catch the panic on the worker, raise `stop` so
            // every peer returns, and re-raise it on the caller below.
            let died: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
            let mut jobs: Vec<Job> = states
                .iter_mut()
                .map(|st| {
                    let (shared, lookahead, died) = (&shared, &lookahead, &died);
                    let f: Box<dyn FnMut() + Send + '_> = Box::new(move || {
                        let run = AssertUnwindSafe(|| run_shard(st, shared, lookahead, part));
                        if let Err(payload) = catch_unwind(run) {
                            shared.stop.store(true, Ordering::SeqCst);
                            // Keep the first panic; a poisoned lock only
                            // means another worker is reporting too.
                            if let Ok(mut first) = died.lock() {
                                first.get_or_insert(payload);
                            }
                        }
                    });
                    Job::new(f)
                })
                .collect();
            pool().run(&mut jobs);
            if let Some(payload) = died.into_inner().unwrap_or_else(|p| p.into_inner()) {
                resume_unwind(payload);
            }
        }

        let mut executed = 0;
        let mut end_time = SimTime::ZERO;
        for st in &states {
            executed += st.executed;
            end_time = end_time.max(st.last_at);
            assert!(st.cal.is_empty(), "shard {} drained", st.id);
        }
        let mut models = Vec::with_capacity(s);
        let mut traces = Vec::with_capacity(s);
        for st in states {
            models.push(st.model);
            traces.push(st.trace);
        }
        ShardRun {
            part,
            models,
            trace: Tracer::merge_shards(traces),
            executed,
            end_time,
        }
    }
}

/// One conservative-lookahead shard loop, run to global quiescence.
fn run_shard<W: ShardModel>(
    st: &mut ShardState<W>,
    shared: &Shared<W::Msg>,
    lookahead: &[u64],
    part: Partition,
) {
    let s = part.shards as usize;
    let me = st.id as usize;
    loop {
        // Sample the horizon *before* draining: a neighbour's push
        // happens-before its clock publication, so every envelope below
        // the sampled horizon is already in the mailbox when the drain
        // runs. The other order lets a neighbour push and publish a
        // later clock in between, admitting local events past the
        // arrival time of a message still sitting in the mailbox.
        let safe = safe_horizon(shared, lookahead, s, me);

        drain_inboxes(st, shared, s, me);

        // Process every event strictly below the horizon.
        let mut progressed = false;
        while let Some((at, _)) = st.cal.peek() {
            if at.as_nanos() >= safe {
                break;
            }
            let (_, _, slot) = st.cal.pop_head();
            let env = st.take(slot);
            // Always-on: in release builds a causality violation would
            // otherwise execute events out of timestamp order silently.
            assert!(env.at >= st.last_at, "shard time went backwards");
            st.last_at = env.at;
            st.executed += 1;
            progressed = true;
            assert!(st.ranks.contains(&env.dst), "misrouted envelope");
            let mut ctx = ShardCtx {
                now: env.at,
                current: env.dst,
                base: st.ranks.start,
                staged: &mut st.staged,
                seqs: &mut st.seqs,
                trace: &mut st.trace,
            };
            st.model.deliver(&mut ctx, env);
            route_staged(st, shared, lookahead, part, s, me);
        }

        // Publish the clock: nothing below min(next event, horizon) can
        // leave this shard. Monotone because `safe` is (neighbor clocks
        // only rise) and an envelope that reaches the mailbox after the
        // drain was sent after the clocks `safe` was sampled from, so it
        // arrives at or above `safe`.
        let next = st.cal.peek().map_or(u64::MAX, |(at, _)| at.as_nanos());
        let clock = next.min(safe);
        shared.clocks[me].fetch_max(clock, Ordering::AcqRel);

        let empty = st.cal.is_empty();
        shared.idle[me].store(empty, Ordering::SeqCst);

        // Shard 0 coordinates termination: double-read the cross-shard
        // counters around the all-idle check. The counts only agree —
        // twice, with no movement — when every envelope ever pushed has
        // been folded into a (now empty) calendar.
        if me == 0 {
            let s1 = shared.sent.load(Ordering::SeqCst);
            let d1 = shared.delivered.load(Ordering::SeqCst);
            if s1 == d1 && all_idle(shared) {
                let s2 = shared.sent.load(Ordering::SeqCst);
                let d2 = shared.delivered.load(Ordering::SeqCst);
                if s2 == s1 && d2 == d1 && all_idle(shared) {
                    shared.stop.store(true, Ordering::SeqCst);
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if !progressed && s > 1 {
            // Nothing below the horizon yet: let neighbor clocks climb
            // (and oversubscribed workers run) instead of burning the
            // core.
            std::thread::yield_now();
        }
    }
}

/// `min over j≠me (clock_j + L(j, me))`, saturating.
fn safe_horizon<M>(shared: &Shared<M>, lookahead: &[u64], s: usize, me: usize) -> u64 {
    let mut safe = u64::MAX;
    for j in 0..s {
        if j == me {
            continue;
        }
        let cj = shared.clocks[j].load(Ordering::Acquire);
        safe = safe.min(cj.saturating_add(lookahead[j * s + me]));
    }
    safe
}

fn all_idle<M>(shared: &Shared<M>) -> bool {
    shared.idle.iter().all(|f| f.load(Ordering::SeqCst))
}

/// Move every waiting inbox envelope into the local calendar. The idle
/// flag clears *before* the delivered count rises so the terminator can
/// never observe "all delivered, all idle" with an event still hidden
/// in a calendar.
fn drain_inboxes<W: ShardModel>(
    st: &mut ShardState<W>,
    shared: &Shared<W::Msg>,
    s: usize,
    me: usize,
) {
    for j in 0..s {
        if j == me {
            continue;
        }
        while let Some(env) = shared.boxes[me][j].pop() {
            st.store(env);
            shared.idle[me].store(false, Ordering::SeqCst);
            shared.delivered.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Route the sends staged by the last `deliver`: local ones straight
/// into the calendar, cross-shard ones through the mailboxes. A full
/// outbox is waited out by draining our own inboxes — every shard does
/// this, so some consumer always makes room and no cycle wedges.
fn route_staged<W: ShardModel>(
    st: &mut ShardState<W>,
    shared: &Shared<W::Msg>,
    lookahead: &[u64],
    part: Partition,
    s: usize,
    me: usize,
) {
    while let Some(env) = st.staged.pop() {
        let dst_shard = part.shard_of(env.dst) as usize;
        if dst_shard == me {
            st.store(env);
            continue;
        }
        debug_assert!(
            env.at.as_nanos() >= st.last_at.as_nanos() + lookahead[me * s + dst_shard],
            "cross-shard send below the lookahead horizon: {:?} < {:?}+{}",
            env.at,
            st.last_at,
            lookahead[me * s + dst_shard]
        );
        shared.sent.fetch_add(1, Ordering::SeqCst);
        let mut pending = env;
        loop {
            match shared.boxes[dst_shard][me].push(pending) {
                Ok(()) => break,
                Err(back) => {
                    if shared.stop.load(Ordering::SeqCst) {
                        // A peer died; its inbox will never drain.
                        return;
                    }
                    pending = back;
                    drain_inboxes(st, shared, s, me);
                    std::thread::yield_now();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------

/// A borrowed shard loop handed to a pool worker. The closure lives on
/// the submitting thread's stack; the latch keeps that frame alive
/// until every job has finished.
struct Job {
    f: *mut (dyn FnMut() + Send),
}

// SAFETY: the pointee is `FnMut + Send` borrowed from the submitting
// thread, which blocks on the completion latch until the worker is done
// with it — exclusive access transfers to exactly one worker at a time.
unsafe impl Send for Job {}

impl Job {
    fn new(f: Box<dyn FnMut() + Send + '_>) -> Job {
        let raw: *mut (dyn FnMut() + Send + '_) = Box::into_raw(f);
        // SAFETY: pure lifetime erasure on the raw pointer — the pool's
        // `run` keeps the caller parked on the latch until workers
        // finish, so the pointee outlives every use.
        let raw: *mut (dyn FnMut() + Send + 'static) = unsafe { std::mem::transmute(raw) };
        Job { f: raw }
    }
}

struct Task {
    job: Job,
    done: Arc<Latch>,
}

struct Latch {
    remaining: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.lock.lock().expect("latch lock");
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.lock.lock().expect("latch lock");
        while self.remaining.load(Ordering::Acquire) != 0 {
            g = self.cv.wait(g).expect("latch wait");
        }
    }
}

struct ShardPool {
    queue: Arc<(Mutex<Vec<Task>>, Condvar)>,
    workers: Mutex<usize>,
}

impl ShardPool {
    fn ensure_workers(&self, want: usize) {
        let mut n = self.workers.lock().expect("pool size lock");
        while *n < want {
            let queue = Arc::clone(&self.queue);
            std::thread::Builder::new()
                .name(format!("shard-worker-{}", *n))
                .spawn(move || loop {
                    let task = {
                        let (lock, cv) = &*queue;
                        let mut q = lock.lock().expect("pool queue lock");
                        loop {
                            if let Some(t) = q.pop() {
                                break t;
                            }
                            q = cv.wait(q).expect("pool queue wait");
                        }
                    };
                    // SAFETY: Job::new's contract — the submitting
                    // thread waits on the latch, so the pointee is
                    // alive and exclusively ours; reboxing frees the
                    // box Job::new leaked.
                    let f = unsafe { &mut *task.job.f };
                    f();
                    unsafe { drop(Box::from_raw(task.job.f)) };
                    task.done.count_down();
                })
                .expect("spawn shard worker");
            *n += 1;
        }
    }

    /// Run all jobs concurrently; blocks until every one completes.
    fn run(&self, jobs: &mut Vec<Job>) {
        self.ensure_workers(jobs.len());
        let latch = Arc::new(Latch {
            remaining: AtomicUsize::new(jobs.len()),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        {
            let (lock, cv) = &*self.queue;
            let mut q = lock.lock().expect("pool queue lock");
            for job in jobs.drain(..) {
                q.push(Task {
                    job,
                    done: Arc::clone(&latch),
                });
            }
            cv.notify_all();
        }
        latch.wait();
    }
}

fn pool() -> &'static ShardPool {
    static POOL: OnceLock<ShardPool> = OnceLock::new();
    POOL.get_or_init(|| ShardPool {
        queue: Arc::new((Mutex::new(Vec::new()), Condvar::new())),
        workers: Mutex::new(0),
    })
}

/// Serializes parallel runs: all shard loops of a run must hold workers
/// simultaneously, so two interleaved runs could otherwise starve each
/// other into livelock.
fn run_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn partition_blocks_are_contiguous_and_cover() {
        let p = Partition::new(10, 3);
        let mut seen = Vec::new();
        for s in 0..3 {
            for r in p.range(s) {
                assert_eq!(p.shard_of(r), s);
                seen.push(r);
            }
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn mailbox_spsc_round_trip_and_full() {
        let mb: Mailbox<u32> = Mailbox::new();
        for i in 0..MAILBOX_CAP as u32 {
            assert!(mb.push(i).is_ok());
        }
        assert_eq!(mb.push(99), Err(99));
        for i in 0..MAILBOX_CAP as u32 {
            assert_eq!(mb.pop(), Some(i));
        }
        assert_eq!(mb.pop(), None);
    }

    /// A toy model: ranks bounce tokens along pseudo-random walks with
    /// per-rank RNG streams, logging every delivery. Token hops use a
    /// latency >= the engine's lookahead floor.
    struct Walk {
        base: u32,
        // (time, src, hops left) per delivery, per owned rank.
        logs: Vec<Vec<(u64, u32, u32)>>,
        rngs: Vec<SimRng>,
        ranks: u32,
    }

    const HOP_NS: u64 = 500;

    impl ShardModel for Walk {
        type Msg = u32; // remaining hops

        fn deliver(&mut self, ctx: &mut ShardCtx<'_, u32>, env: Envelope<u32>) {
            let li = (env.dst - self.base) as usize;
            self.logs[li].push((env.at.as_nanos(), env.src, env.msg));
            if env.msg == 0 {
                return;
            }
            let jitter = self.rngs[li].range_u64(0, 300);
            let next = self.rngs[li].range_u64(0, self.ranks as u64) as u32;
            ctx.send(
                next,
                env.at + SimTime::from_nanos(HOP_NS + jitter),
                env.msg - 1,
            );
        }
    }

    /// Per-rank delivery logs of `(time, src, seq)`, total executed,
    /// end time.
    type WalkResult = (Vec<Vec<(u64, u32, u32)>>, u64, SimTime);

    fn run_walk(ranks: u32, shards: u32) -> WalkResult {
        let part = Partition::new(ranks, shards);
        let models = (0..shards)
            .map(|s| {
                let range = part.range(s);
                Walk {
                    base: range.start,
                    logs: range.clone().map(|_| Vec::new()).collect(),
                    rngs: range
                        .clone()
                        .map(|r| SimRng::for_stream(7, r as u64))
                        .collect(),
                    ranks,
                }
            })
            .collect();
        let mut sim = ShardedSim::new(part, models, |_, _| SimTime::from_nanos(HOP_NS));
        for r in 0..ranks {
            sim.inject(r, (r + 1) % ranks, SimTime::from_nanos(1 + r as u64), 40);
        }
        let run = sim.run();
        let mut logs: Vec<Vec<(u64, u32, u32)>> = Vec::new();
        for model in run.models {
            logs.extend(model.logs);
        }
        (logs, run.executed, run.end_time)
    }

    #[test]
    fn parallel_run_is_bit_identical_to_single_shard() {
        let (ref_logs, ref_exec, ref_end) = run_walk(8, 1);
        for shards in [2, 4, 8] {
            let (logs, exec, end) = run_walk(8, shards);
            assert_eq!(logs, ref_logs, "{shards}-shard diverged from 1-shard");
            assert_eq!(exec, ref_exec);
            assert_eq!(end, ref_end);
        }
        assert_eq!(ref_exec, 8 * 41, "each token delivers hops+1 times");
    }

    #[test]
    #[should_panic(expected = "into the present/past")]
    fn same_instant_send_is_rejected() {
        struct Echo;
        impl ShardModel for Echo {
            type Msg = ();
            fn deliver(&mut self, ctx: &mut ShardCtx<'_, ()>, env: Envelope<()>) {
                ctx.send(env.dst, env.at, ());
            }
        }
        let mut sim = ShardedSim::new(Partition::new(2, 1), vec![Echo], |_, _| {
            SimTime::from_nanos(1)
        });
        sim.inject(0, 1, SimTime::from_nanos(5), ());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "zero lookahead")]
    fn zero_lookahead_is_rejected() {
        struct Nop;
        impl ShardModel for Nop {
            type Msg = ();
            fn deliver(&mut self, _: &mut ShardCtx<'_, ()>, _: Envelope<()>) {}
        }
        let _ = ShardedSim::new(Partition::new(4, 2), vec![Nop, Nop], |_, _| SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "model blew up on rank 3")]
    fn a_panicking_worker_fails_the_run_instead_of_wedging_it() {
        // The token walks 0 → 1 → 2 → 3 and rank 3 (shard 1) panics on
        // delivery. Without the stop flag shard 0 would spin forever on
        // shard 1's frozen clock, waiting for a hop that never comes.
        struct Bomb;
        impl ShardModel for Bomb {
            type Msg = u32;
            fn deliver(&mut self, ctx: &mut ShardCtx<'_, u32>, env: Envelope<u32>) {
                assert!(env.dst != 3, "model blew up on rank {}", env.dst);
                if env.msg > 0 {
                    let next = (env.dst + 1) % 4;
                    ctx.send(next, env.at + SimTime::from_nanos(HOP_NS), env.msg - 1);
                }
            }
        }
        let mut sim = ShardedSim::new(Partition::new(4, 2), vec![Bomb, Bomb], |_, _| {
            SimTime::from_nanos(HOP_NS)
        });
        sim.inject(0, 0, SimTime::from_nanos(1), 1000);
        sim.run();
    }

    #[test]
    fn mailbox_pressure_does_not_deadlock() {
        // Every delivery fans out to all other ranks: far more in-flight
        // cross-shard messages than one mailbox holds.
        struct Burst {
            ranks: u32,
            delivered: u64,
        }
        impl ShardModel for Burst {
            type Msg = u32; // generation countdown

            fn deliver(&mut self, ctx: &mut ShardCtx<'_, u32>, env: Envelope<u32>) {
                self.delivered += 1;
                if env.msg == 0 {
                    return;
                }
                for d in 0..self.ranks {
                    if d != env.dst {
                        ctx.send(d, env.at + SimTime::from_nanos(100), env.msg - 1);
                    }
                }
            }
        }
        let part = Partition::new(8, 4);
        let models = (0..4)
            .map(|_| Burst {
                ranks: 8,
                delivered: 0,
            })
            .collect();
        let mut sim = ShardedSim::new(part, models, |_, _| SimTime::from_nanos(100));
        sim.inject(0, 1, SimTime::from_nanos(1), 4);
        let run = sim.run();
        // Generations 4,3,2,1,0 deliver 1, 7, 49, 343, 2401 times.
        assert_eq!(run.executed, 1 + 7 + 49 + 343 + 2401);
    }
}

/// Loom models of the mailbox protocol. Run by the nightly `loom` CI
/// job only: `RUSTFLAGS="--cfg loom" cargo test -p simcore --release
/// loom_` after appending the target-gated loom dependency. The models
/// drive the *real* `Mailbox` code through the `mbsync` shim, so every
/// load/store ordering above is what loom explores.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use loom::thread;

    /// Concurrent producer/consumer over a capacity-2 ring: no message
    /// is lost, duplicated, or reordered, across every interleaving —
    /// including the full-ring retry and the empty-ring miss.
    #[test]
    fn loom_mailbox_spsc_fifo_no_loss() {
        loom::model(|| {
            let mb = loom::sync::Arc::new(Mailbox::<u32>::with_cap(2));
            let producer = loom::sync::Arc::clone(&mb);
            let t = thread::spawn(move || {
                let mut v = 0u32;
                while v < 3 {
                    match producer.push(v) {
                        Ok(()) => v += 1,
                        Err(_) => thread::yield_now(),
                    }
                }
            });
            let mut got = Vec::new();
            while got.len() < 3 {
                match mb.pop() {
                    Some(v) => got.push(v),
                    None => thread::yield_now(),
                }
            }
            t.join().unwrap();
            assert_eq!(got, [0, 1, 2]);
            assert_eq!(mb.pop(), None);
        });
    }

    /// A push the consumer never drains: the Drop impl must release the
    /// still-queued message without touching uninitialized slots.
    #[test]
    fn loom_mailbox_drop_releases_undrained() {
        loom::model(|| {
            let mb = loom::sync::Arc::new(Mailbox::<Box<u32>>::with_cap(2));
            let producer = loom::sync::Arc::clone(&mb);
            let t = thread::spawn(move || {
                producer.push(Box::new(7)).unwrap();
            });
            t.join().unwrap();
            drop(mb); // the ring still holds the boxed 7
        });
    }
}
