//! Message-level scale model: the paper's collectives at 256–4096 ranks.
//!
//! The full runtime ([`crate::api`], [`crate::protocol`]) models every
//! fragment, kernel and DMA of a transfer; its world is `Rc`/`RefCell`
//! state that can only ever run single-threaded. This module trades
//! that fidelity for scale: each rank is a small state machine over
//! *whole messages*, costed by [`netsim::Topology`] latency/bandwidth
//! plus a per-rank NIC serialization point, run on the serial
//! message loop in [`simcore::msgsim`].
//!
//! Determinism is the design center, not an afterthought:
//!
//! * all randomness comes from per-rank streams
//!   ([`SimRng::for_stream`]), so one rank's draws never depend on how
//!   other ranks' deliveries interleave with its own;
//! * fault injection uses a per-rank [`FaultSim`]
//!   ([`FaultSim::for_rank`]) rolled at send time, charged as launch
//!   delay and retransmit penalties;
//! * every rank consumes messages in the engine's
//!   `(time, src, seq)` total order; messages that arrive before the
//!   rank reaches their program step are buffered in a `BTreeMap` and
//!   replayed in key order.
//!
//! The result: a run is a pure function of its [`ScaleConfig`] —
//! timestamps, counters and Chrome trace are pinned per configuration
//! in `tests/scale_pinned.rs`.
//!
//! The collectives walk the schedules in [`crate::schedule`] — the same
//! functions [`crate::coll`] posts on the full stack — at message
//! granularity; the ring RMA put/get epochs (data + ack, request +
//! data) are this module's own.

use crate::schedule::{self, Exchange};
use faultsim::{Backoff, FaultDecision, FaultOp, FaultPlan, FaultSim};
use netsim::Topology;
use simcore::msgsim::{Envelope, MsgCtx, MsgModel, MsgRun, MsgSim};
use simcore::rate::ceil_u64;
use simcore::rng::SimRng;
use simcore::time::SimTime;
use simcore::trace::names;
use simcore::{Tracer, Track};
use std::collections::BTreeMap;

/// Per-send CPU/doorbell overhead, ns. Strictly positive so every send
/// lands in the future (the engine's ordering requirement).
const SEND_OVERHEAD_NS: u64 = 50;
/// Wire size of control messages (acks, get requests).
const CTRL_BYTES: u64 = 16;
/// Give up retrying after this many transient hits on one send; the
/// message still goes out (the runtime's last resort path).
const MAX_RETRIES: u32 = 6;
/// Cost of failing over after a permanent capability loss: the message
/// rides a (much slower) fallback path once, then sends are normal-cost
/// but degraded by the lost capability's absence for the rest of the
/// run via `FaultSim::slowdown`.
const LOST_PENALTY_NS: u64 = 20_000;

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

/// One collective (or RMA epoch) in a scale program. Every rank runs
/// the same program; an op completes per-rank when that rank has sent
/// and received everything its role requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleOp {
    /// Binomial-tree broadcast of `bytes` from `root`.
    Bcast { root: u32, bytes: u64 },
    /// Ring allgather; each rank contributes `bytes`.
    Allgather { bytes: u64 },
    /// Pairwise-rotation alltoall; `bytes` per rank pair.
    Alltoall { bytes: u64 },
    /// Dissemination barrier (⌈log₂ n⌉ rounds of control messages).
    Barrier,
    /// RMA epoch: every rank puts `bytes` to its right neighbor and
    /// waits for the ack plus the incoming put from its left neighbor.
    PutRing { bytes: u64 },
    /// RMA epoch: every rank gets `bytes` from its right neighbor
    /// (request + data) and serves its left neighbor's request.
    GetRing { bytes: u64 },
}

/// How an op's rounds are walked.
enum Walk {
    /// A [`schedule`] exchange: one such message per rank and round.
    Rounds(Exchange, MsgKind, u64),
    /// The [`schedule`] broadcast tree, one round.
    Tree { root: u32, bytes: u64 },
    /// An RMA epoch on the right neighbour: its opening message (`on_msg` answers).
    RmaRing(MsgKind, u64),
}

impl ScaleOp {
    fn walk(self) -> Walk {
        match self {
            ScaleOp::Bcast { root, bytes } => Walk::Tree { root, bytes },
            ScaleOp::Allgather { bytes } => Walk::Rounds(Exchange::Ring, MsgKind::Data, bytes),
            ScaleOp::Alltoall { bytes } => Walk::Rounds(Exchange::Rotation, MsgKind::Data, bytes),
            ScaleOp::Barrier => Walk::Rounds(Exchange::Dissemination, MsgKind::Ack, CTRL_BYTES),
            ScaleOp::PutRing { bytes } => Walk::RmaRing(MsgKind::Data, bytes),
            ScaleOp::GetRing { .. } => Walk::RmaRing(MsgKind::Req, CTRL_BYTES),
        }
    }

    /// Rounds the op needs for a job of `n` ranks.
    fn rounds(self, n: u32) -> u32 {
        match self.walk() {
            Walk::Rounds(kind, ..) => kind.rounds(n as usize) as u32,
            Walk::Tree { .. } => 1,
            Walk::RmaRing(..) => (n > 1) as u32,
        }
    }
}

/// A seeded random mix of all op kinds — the workload generator behind
/// the pinned-fingerprint table (`tests/scale_pinned.rs`). The program is a
/// *global* input (every rank runs the same list), so it draws from its
/// own dedicated stream, not any rank's.
pub fn random_program(seed: u64, ranks: u32, len: usize) -> Vec<ScaleOp> {
    let mut rng = SimRng::for_stream(seed, 0x5CA1E);
    (0..len)
        .map(|_| {
            let bytes = 64u64 << rng.range_u64(0, 9); // 64 B .. 16 KiB
            match rng.range_u64(0, 6) {
                0 => ScaleOp::Bcast {
                    root: rng.range_u64(0, ranks as u64) as u32,
                    bytes,
                },
                1 => ScaleOp::Allgather { bytes },
                2 => ScaleOp::Alltoall { bytes },
                3 => ScaleOp::Barrier,
                4 => ScaleOp::PutRing { bytes },
                _ => ScaleOp::GetRing { bytes },
            }
        })
        .collect()
}

/// Everything needed to run a scale job.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    pub ranks: u32,
    pub topo: Topology,
    pub program: Vec<ScaleOp>,
    /// Fault plan, injected per rank from `(plan.seed, rank)` streams.
    pub fault_plan: FaultPlan,
    /// Seed for per-rank send jitter streams.
    pub seed: u64,
}

impl ScaleConfig {
    pub fn new(ranks: u32, program: Vec<ScaleOp>) -> ScaleConfig {
        ScaleConfig {
            ranks,
            topo: Topology::default_for(ranks),
            program,
            fault_plan: FaultPlan::empty(),
            seed: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Self-delivered starting gun (injected before the run).
    Kick,
    /// Payload-bearing message.
    Data,
    /// Zero-payload completion/arrival notification.
    Ack,
    /// RMA get request.
    Req,
}

/// The one message type on the wire. `step`/`round` identify the
/// program position the sender was in, so a receiver that is behind
/// can buffer and replay deterministically.
#[derive(Clone, Copy, Debug)]
pub struct ScaleMsg {
    pub step: u32,
    pub round: u32,
    pub kind: MsgKind,
    pub bytes: u64,
}

const KICK: ScaleMsg = ScaleMsg {
    step: 0,
    round: 0,
    kind: MsgKind::Kick,
    bytes: 0,
};

// ---------------------------------------------------------------------
// Per-rank state machine
// ---------------------------------------------------------------------

struct RankSt {
    rank: u32,
    /// Current program index; `== program.len()` means done.
    step: u32,
    round: u32,
    /// Messages still required to finish the current round.
    pending: u32,
    /// Early arrivals, keyed `(step, round, src, seq)` — replayed in
    /// key order when the rank reaches that program position.
    buffered: BTreeMap<(u32, u32, u32, u32), (MsgKind, u64)>,
    /// The NIC is busy serializing until this time; sends queue behind.
    nic_free: SimTime,
    rng: SimRng,
    faults: FaultSim,
    /// Virtual completion time of each finished step (digest input).
    completions: Vec<u64>,
    /// Non-kick messages delivered here, and their bytes: folded into
    /// `scale.msgs` / `scale.delivered.bytes` by [`finish`].
    msgs: u64,
    bytes: u64,
}

/// Immutable job shape shared by every rank.
struct Shape {
    ranks: u32,
    topo: Topology,
    program: Vec<ScaleOp>,
}

/// The job's rank state machines, indexed by rank.
pub struct ScaleModel {
    shape: Shape,
    states: Vec<RankSt>,
}

impl ScaleModel {
    fn new(cfg: &ScaleConfig) -> ScaleModel {
        ScaleModel {
            shape: Shape {
                ranks: cfg.ranks,
                topo: cfg.topo,
                program: cfg.program.clone(),
            },
            states: (0..cfg.ranks)
                .map(|r| RankSt {
                    rank: r,
                    step: 0,
                    round: 0,
                    pending: 0,
                    buffered: BTreeMap::new(),
                    nic_free: SimTime::ZERO,
                    rng: SimRng::for_stream(cfg.seed, r as u64),
                    faults: FaultSim::for_rank(&cfg.fault_plan, r),
                    completions: Vec::new(),
                    msgs: 0,
                    bytes: 0,
                })
                .collect(),
        }
    }
}

/// Send one message: jittered CPU overhead, fault rolls at launch time
/// (retransmit penalties for transients, a one-shot failover penalty on
/// permanent loss), degrade-scaled wire serialization on the rank's NIC,
/// then topology latency to arrival.
fn send_msg(
    shape: &Shape,
    st: &mut RankSt,
    ctx: &mut MsgCtx<'_, ScaleMsg>,
    dst: u32,
    kind: MsgKind,
    bytes: u64,
) {
    let jitter = st.rng.range_u64(0, 16);
    let mut launch = ctx.now() + SimTime::from_nanos(SEND_OVERHEAD_NS + jitter);
    if st.nic_free > launch {
        launch = st.nic_free;
    }
    let op = if kind == MsgKind::Data {
        FaultOp::WireCopy
    } else {
        FaultOp::AmDeliver
    };
    let mut slowdown = 1.0;
    if st.faults.active() {
        // Retransmit penalties: 2 µs after the first transient hit,
        // doubling per attempt.
        let mut backoff = Backoff::new(SimTime::from_micros(2), SimTime::from_micros(64));
        loop {
            match st.faults.roll(op, launch) {
                FaultDecision::Ok => break,
                FaultDecision::Transient => {
                    ctx.trace.count(names::RETRY_ATTEMPTS, st.rank, 0, 1);
                    ctx.trace
                        .count(names::FAULT_INJECTED, st.rank, op.index() as u32, 1);
                    launch += backoff.next_delay();
                    if backoff.attempts() >= MAX_RETRIES {
                        break;
                    }
                }
                FaultDecision::Lost => {
                    ctx.trace
                        .count(names::FAULT_INJECTED, st.rank, op.index() as u32, 1);
                    ctx.trace.count(names::FALLBACK_EVENTS, st.rank, 0, 1);
                    launch += SimTime::from_nanos(LOST_PENALTY_NS);
                    break;
                }
            }
        }
        slowdown = st.faults.slowdown(op, launch);
    }
    let mut wire = shape.topo.bandwidth(st.rank, dst).time_for(bytes);
    if slowdown != 1.0 {
        wire = SimTime::from_nanos(ceil_u64(wire.as_nanos() as f64 * slowdown));
    }
    st.nic_free = launch + wire;
    let at = st.nic_free + shape.topo.latency(shape.ranks, st.rank, dst);
    ctx.send(
        dst,
        at,
        ScaleMsg {
            step: st.step,
            round: st.round,
            kind,
            bytes,
        },
    );
}

/// Forward a bcast to this rank's children in the tree from `root`.
fn bcast_children(
    shape: &Shape,
    st: &mut RankSt,
    ctx: &mut MsgCtx<'_, ScaleMsg>,
    root: u32,
    bytes: u64,
) {
    let n = shape.ranks as usize;
    for dst in schedule::bcast_children(st.rank as usize, root as usize, n) {
        send_msg(shape, st, ctx, dst as u32, MsgKind::Data, bytes);
    }
}

/// Entering round `st.round` of the current op: emit its sends and set
/// how many receives finish it.
fn start_round(shape: &Shape, st: &mut RankSt, ctx: &mut MsgCtx<'_, ScaleMsg>) {
    let (r, n) = (st.rank, shape.ranks);
    match shape.program[st.step as usize].walk() {
        Walk::Rounds(kind, msg, bytes) => {
            st.pending = 1;
            let to = kind.step(r as usize, st.round as usize, n as usize).to;
            send_msg(shape, st, ctx, to as u32, msg, bytes);
        }
        Walk::Tree { root, bytes } => {
            // Every rank but the root first awaits its parent's message.
            let parent = schedule::bcast_parent(r as usize, root as usize, n as usize);
            st.pending = parent.is_some() as u32;
            if parent.is_none() {
                bcast_children(shape, st, ctx, root, bytes);
            }
        }
        Walk::RmaRing(msg, bytes) => {
            // Await the reply to our message — a put's ack, a get's
            // data — and our left neighbour's own opening message.
            st.pending = 2;
            send_msg(shape, st, ctx, (r + 1) % n, msg, bytes);
        }
    }
}

/// Consume one message belonging to the current `(step, round)`.
fn on_msg(shape: &Shape, st: &mut RankSt, ctx: &mut MsgCtx<'_, ScaleMsg>, src: u32, kind: MsgKind) {
    debug_assert!(st.pending > 0, "unexpected message in a settled round");
    st.pending -= 1;
    match shape.program[st.step as usize] {
        ScaleOp::Bcast { root, bytes } => bcast_children(shape, st, ctx, root, bytes),
        ScaleOp::PutRing { .. } => {
            if kind == MsgKind::Data {
                // The put landed; ack the origin.
                send_msg(shape, st, ctx, src, MsgKind::Ack, CTRL_BYTES);
            }
        }
        ScaleOp::GetRing { bytes } => {
            if kind == MsgKind::Req {
                // Serve the neighbor's get.
                send_msg(shape, st, ctx, src, MsgKind::Data, bytes);
            }
        }
        ScaleOp::Allgather { .. } | ScaleOp::Alltoall { .. } | ScaleOp::Barrier => {}
    }
}

/// Drive the rank forward: replay buffered arrivals for the current
/// round, close finished rounds, start the next, complete steps — until
/// it blocks on the network or finishes the program.
fn advance(shape: &Shape, st: &mut RankSt, ctx: &mut MsgCtx<'_, ScaleMsg>) {
    loop {
        if st.step as usize == shape.program.len() {
            debug_assert!(st.buffered.is_empty(), "done rank holds buffered messages");
            return;
        }
        while st.pending > 0 {
            let lo = (st.step, st.round, 0, 0);
            let hi = (st.step, st.round, u32::MAX, u32::MAX);
            match st.buffered.range(lo..=hi).next().map(|(k, v)| (*k, *v)) {
                Some((key, (kind, _bytes))) => {
                    st.buffered.remove(&key);
                    on_msg(shape, st, ctx, key.2, kind);
                }
                None => return, // blocked on the network
            }
        }
        // Round settled.
        let op = shape.program[st.step as usize];
        st.round += 1;
        if st.round < op.rounds(shape.ranks) {
            start_round(shape, st, ctx);
        } else {
            st.completions.push(ctx.now().as_nanos());
            ctx.trace.instant(
                ctx.now(),
                names::CAT_SCALE,
                names::SPAN_SCALE_OP,
                Track::Cpu { rank: st.rank },
            );
            st.step += 1;
            st.round = 0;
            if (st.step as usize) < shape.program.len()
                && shape.program[st.step as usize].rounds(shape.ranks) > 0
            {
                start_round(shape, st, ctx);
            }
        }
    }
}

impl MsgModel for ScaleModel {
    type Msg = ScaleMsg;

    fn deliver(&mut self, ctx: &mut MsgCtx<'_, ScaleMsg>, env: Envelope<ScaleMsg>) {
        let shape = &self.shape;
        let st = &mut self.states[env.dst as usize];
        match env.msg.kind {
            MsgKind::Kick => {
                debug_assert!(st.step == 0 && st.round == 0 && st.pending == 0);
                if !shape.program.is_empty() && shape.program[0].rounds(shape.ranks) > 0 {
                    start_round(shape, st, ctx);
                }
            }
            kind => {
                st.msgs += 1;
                st.bytes += env.msg.bytes;
                if (env.msg.step, env.msg.round) == (st.step, st.round) {
                    on_msg(shape, st, ctx, env.src, kind);
                } else {
                    debug_assert!(
                        (env.msg.step, env.msg.round) > (st.step, st.round),
                        "message for a settled round: rank {} at {:?} got {:?} from {}",
                        st.rank,
                        (st.step, st.round),
                        (env.msg.step, env.msg.round),
                        env.src
                    );
                    st.buffered.insert(
                        (env.msg.step, env.msg.round, env.src, env.seq),
                        (kind, env.msg.bytes),
                    );
                    return; // not ours yet; nothing can have unblocked
                }
            }
        }
        advance(shape, st, ctx);
    }
}

// ---------------------------------------------------------------------
// Running a job
// ---------------------------------------------------------------------

/// Everything a completed scale run reports. All fields are pure
/// functions of the config.
pub struct ScaleReport {
    pub ranks: u32,
    /// Total model deliveries (kicks included).
    pub executed: u64,
    /// Latest virtual delivery time.
    pub end_time: SimTime,
    /// Non-kick messages delivered (`scale.msgs`).
    pub msgs: u64,
    /// Payload + control bytes delivered (`scale.delivered.bytes`).
    pub bytes: u64,
    /// FNV-1a over every rank's per-step completion times: the
    /// bit-identity fingerprint.
    pub digest: u64,
    /// Counters always; spans/instants when recording was on.
    pub trace: Tracer,
}

/// Build the engine for `cfg` without running it (the benchmark times
/// `run` alone).
// `_shards` is ignored: only frozen `benchmark/` passes it; goes with its `simcore.shard.*` probes.
pub fn build(cfg: &ScaleConfig, _shards: u32) -> MsgSim<ScaleModel> {
    assert!(cfg.ranks > 0, "a scale job needs at least one rank");
    let mut sim = MsgSim::new(ScaleModel::new(cfg), cfg.ranks);
    for r in 0..cfg.ranks {
        sim.inject(r, r, SimTime::from_nanos(1), KICK);
    }
    sim
}

/// Run `cfg` to completion.
pub fn run(cfg: &ScaleConfig, record: bool) -> ScaleReport {
    let mut sim = build(cfg, 1);
    sim.set_recording(record);
    finish(cfg, 1, sim.run())
}

/// Fold a finished engine run into a [`ScaleReport`].
// `_shards` is ignored: as in `build`, and it goes at the same time.
pub fn finish(cfg: &ScaleConfig, _shards: u32, run: MsgRun<ScaleModel>) -> ScaleReport {
    let mut digest: u64 = 0xcbf29ce484222325;
    let mut fnv = |x: u64| {
        digest ^= x;
        digest = digest.wrapping_mul(0x100000001b3);
    };
    let mut trace = run.trace;
    for st in &run.model.states {
        if st.msgs > 0 {
            trace.count(names::SCALE_MSGS, st.rank, 0, st.msgs);
            trace.count(names::SCALE_DELIVERED_BYTES, st.rank, 0, st.bytes);
        }
        debug_assert_eq!(
            st.completions.len(),
            cfg.program.len(),
            "rank {} finished {} of {} steps",
            st.rank,
            st.completions.len(),
            cfg.program.len()
        );
        fnv(st.rank as u64);
        for &c in &st.completions {
            fnv(c);
        }
    }
    ScaleReport {
        ranks: cfg.ranks,
        executed: run.executed,
        end_time: run.end_time,
        msgs: trace.counter(names::SCALE_MSGS),
        bytes: trace.counter(names::SCALE_DELIVERED_BYTES),
        digest,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::FaultKind;

    #[test]
    fn bcast_sends_one_data_message_per_non_root() {
        let cfg = ScaleConfig::new(
            8,
            vec![ScaleOp::Bcast {
                root: 3,
                bytes: 4096,
            }],
        );
        let r = run(&cfg, false);
        assert_eq!(r.msgs, 7);
        assert_eq!(r.bytes, 7 * 4096);
        assert_eq!(r.executed, 8 + 7, "kicks + data");
    }

    #[test]
    fn alltoall_is_pairwise_rotation() {
        let n = 6u64;
        let cfg = ScaleConfig::new(n as u32, vec![ScaleOp::Alltoall { bytes: 256 }]);
        let r = run(&cfg, false);
        assert_eq!(r.msgs, n * (n - 1));
        assert_eq!(r.bytes, n * (n - 1) * 256);
    }

    #[test]
    fn barrier_and_rma_round_trip() {
        let cfg = ScaleConfig::new(
            5,
            vec![
                ScaleOp::Barrier,
                ScaleOp::PutRing { bytes: 1024 },
                ScaleOp::GetRing { bytes: 1024 },
            ],
        );
        let r = run(&cfg, false);
        // Barrier: 5·⌈log₂5⌉ ctrl msgs; put: 5 data + 5 acks; get: 5
        // reqs + 5 data.
        assert_eq!(r.msgs, 5 * 3 + 10 + 10);
        assert_eq!(
            r.bytes,
            15 * CTRL_BYTES + 5 * 1024 + 5 * CTRL_BYTES + 5 * CTRL_BYTES + 5 * 1024
        );
    }

    #[test]
    fn single_rank_job_degenerates_cleanly() {
        let cfg = ScaleConfig::new(
            1,
            vec![ScaleOp::Bcast { root: 0, bytes: 64 }, ScaleOp::Barrier],
        );
        let r = run(&cfg, false);
        assert_eq!(r.msgs, 0);
        assert_eq!(r.executed, 1, "just the kick");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_job_is_rejected() {
        let mut cfg = ScaleConfig::new(1, vec![ScaleOp::Barrier]);
        cfg.ranks = 0;
        build(&cfg, 1);
    }

    #[test]
    fn transient_faults_delay_but_do_not_change_message_count() {
        let clean = ScaleConfig::new(6, vec![ScaleOp::Allgather { bytes: 2048 }]);
        let mut faulty = clean.clone();
        faulty.fault_plan = FaultPlan::default().with_seed(7).with_rule(
            Some(FaultOp::WireCopy),
            FaultKind::Transient,
            0.5,
        );
        let a = run(&clean, false);
        let b = run(&faulty, false);
        assert_eq!(
            a.msgs, b.msgs,
            "retransmits are charged as delay, not copies"
        );
        assert!(
            b.end_time > a.end_time,
            "retries must cost virtual time: {:?} vs {:?}",
            b.end_time,
            a.end_time
        );
        assert!(b.trace.counter(names::RETRY_ATTEMPTS) > 0);
    }

    #[test]
    fn random_program_is_seed_stable() {
        assert_eq!(random_program(3, 16, 8), random_program(3, 16, 8));
        assert_ne!(random_program(3, 16, 8), random_program(4, 16, 8));
    }
}
