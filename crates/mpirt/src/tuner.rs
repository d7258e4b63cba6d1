//! Protocol-level path-class, fragment-size and ring-depth tuning.
//!
//! This module prices the very [`TransferPlan`] the executor runs: one
//! `price` arm per [`StageOp`], next to the one `run` arm in
//! `protocol::exec`, with the price function of the crate whose charge
//! the `run` arm calls (`gpusim::kernel_time`, `gpusim::copy_time`,
//! `netsim::Link::time`, `netsim::am_time`, `NicCosts::time`,
//! `cpupack::pass_time`, …) and the resource that charge holds — the
//! stream, CPU or link whose trace track its span lands on. The plan's
//! stages and its [`Credit`] make one [`devengine::tune::Pipeline`],
//! whose list schedule is what the executor runs, so on an idle pair
//! the prediction is the run; the one input the tuner estimates is a
//! kernel's traffic ([`KernelTraffic::estimate`]).
//! [`tuned_shape`] picks a (fragment, depth) from it per *(canonical
//! sender layout, canonical receiver layout, message size, path
//! class)*, and `select_path` the class; the incumbent wins ties.
//! Tuned fragments only ever *shrink* and tuned depths never grow, so
//! the rings allocated at connection establishment (at the configured
//! shape) always fit the tuned schedule. Decisions are cached in
//! [`crate::world::MpiState::tuned_shapes`] and surfaced through the
//! `optimizer.frag.*` trace counters.

use crate::connection::Capability;
use crate::cpupack;
use crate::protocol::comparator::RunEngine;
use crate::protocol::offload;
use crate::protocol::plan::{
    plan_for, Credit, End, Facts, Loc, StageOp, TransferPlan, CONTROL_BYTES,
};
use crate::protocol::Side;
use crate::world::MpiWorld;
use devengine::tune::{pick_fragment, Cost};
use devengine::{Direction, LaunchEstimate, OptimizerConfig};
use gpusim::{
    copy_time, graph_kernel_time, kernel_time, replay_time, CopyDirection, GpuWorld as _,
    KernelConfig, KernelTraffic,
};
use memsim::{AllocId, MemSpace, Ptr};
use netsim::{am_time, NetWorld as _, NicCosts};
use simcore::trace::names;
use simcore::{Sim, SimTime, Track};

/// Which transfer pipeline a rendezvous took.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PathClass {
    /// Same-node CUDA IPC fragment ring (`protocol::sm`, §4.1).
    SmIpc,
    /// Copy-in/copy-out with explicit `cudaMemcpy` staging hops
    /// (`protocol::copyio`, §4.2).
    CopyInOut,
    /// Copy-in/copy-out with zero-copy mapped host fragments: the
    /// device↔host hop rides inside the pack/unpack kernels.
    ZeroCopy,
    /// Cross-node NIC DEV-executor path: the NIC packet processor runs
    /// the merged gather/scatter program in-line with the wire stream —
    /// no GPU pack kernel, no packed staging (`protocol::offload`).
    NicOffload,
    /// Cross-node stream-triggered path: the transfer is captured once
    /// into a GPU stream-op graph and replayed per iteration with zero
    /// CPU events on the critical path (`protocol::offload`).
    StreamTriggered,
}

/// One cached tuning decision.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TuneKey {
    /// GPU architecture the model constants came from.
    pub arch: &'static str,
    /// Structural fingerprint of the sender layout (canonical form when
    /// canonicalization is on, so equivalent trees share a decision).
    pub s_layout: u64,
    /// Structural fingerprint of the receiver layout.
    pub r_layout: u64,
    /// Total message size in bytes.
    pub total: u64,
    /// Protocol pipeline the transfer takes.
    pub class: PathClass,
}

fn side_fingerprint(side: &Side, opt: &OptimizerConfig) -> u64 {
    let ty = if opt.canonicalize {
        side.ty.canonical()
    } else {
        side.ty.clone()
    };
    let mut fp = ty.layout_fingerprint();
    // Fold in count, density and placement: the same element layout
    // tunes differently on host vs device, dense vs strided.
    for word in [side.count, side.dense() as u64, side.device() as u64] {
        fp = (fp ^ word).wrapping_mul(0x100_0000_01b3);
    }
    fp
}

/// Key of a tuning decision. The folded fingerprints are not guarded
/// against collisions: a decision picks a pipeline shape, which changes
/// time and never bytes. State that decides bytes is keyed by
/// [`crate::protocol::ShapeKey`].
fn cache_key(sim: &Sim<MpiWorld>, s: &Side, r: &Side, class: PathClass) -> TuneKey {
    let opt = sim.world.mpi.config.engine.optimizer;
    TuneKey {
        arch: sim.world.gpus_ref().arch.name,
        s_layout: side_fingerprint(s, &opt),
        r_layout: side_fingerprint(r, &opt),
        total: s.total(),
        class,
    }
}

type Stage<'a> = devengine::tune::Stage<'a, Track>;
type Pipeline<'a> = devengine::tune::Pipeline<'a, Track>;

/// Where a fragment location lives.
fn space_of(sim: &Sim<MpiWorld>, (s, r): (&Side, &Side), loc: Loc) -> MemSpace {
    let side = |end| if end == End::Send { s } else { r };
    match loc {
        Loc::User(end) => side(end).buf.space,
        Loc::Dev(end) => MemSpace::Device(sim.world.rank(side(end).rank).gpu),
        Loc::Host(_) => MemSpace::Host,
    }
}

/// The conversion kernel `side`'s engine launches between its typed
/// buffer and a fragment in `frag`, as far as its price is concerned:
/// its time over a launch's traffic — [`gpusim::kernel_time`], or
/// [`gpusim::graph_kernel_time`] for a kernel baked into a captured
/// graph — which the executor's charge calls on the exact traffic, and
/// the tuner's price of a window of `n` bytes, on
/// [`KernelTraffic::estimate`].
fn kernel_stage<'a>(
    sim: &'a Sim<MpiWorld>,
    side: &Side,
    end: End,
    frag: MemSpace,
    graph: bool,
) -> (
    impl Fn(&KernelTraffic) -> SimTime + Copy + 'a,
    impl Fn(u64) -> SimTime + 'a,
) {
    let (sys, cfg) = (sim.world.gpus_ref(), &sim.world.mpi.config.engine);
    let est = LaunchEstimate::of(&side.ty, side.count, cfg);
    let gpu = sim.world.rank(side.rank).gpu;
    let (g, here) = (sys.gpu(gpu), MemSpace::Device(gpu));
    let spaces = match end {
        End::Send => (side.buf.space, frag),
        End::Recv => (frag, side.buf.space),
    };
    let kcfg = KernelConfig {
        blocks: cfg.blocks,
        descriptor_stream: est.descriptor_stream,
    };
    let time = move |traffic: &KernelTraffic| match graph {
        true => graph_kernel_time(g, &sys.topo, spaces, traffic),
        false => kernel_time(g, &sys.topo, spaces, kcfg, traffic),
    };
    // Which of the two spaces is the executing GPU's own DRAM.
    let local = (spaces.0 == here, spaces.1 == here);
    let price = move |n| time(&KernelTraffic::estimate(n, est.units_in(n), local, &g.spec));
    (time, price)
}

/// The model's price of one executable stage — the `price` arm matching
/// the executor's `run` arm for the same [`StageOp`] — built from the
/// function the stage's charge calls, and the track of the resource the
/// charge holds. `Direct` moves nothing and has no stage; a graph
/// replay is four serial legs in one stage, holding the sender's stream
/// for the re-arm and the pack.
fn price<'a>(
    sim: &'a Sim<MpiWorld>,
    op: StageOp,
    (s, r): (&'a Side, &'a Side),
) -> Option<Stage<'a>> {
    let side = |end| match end {
        End::Send => s,
        End::Recv => r,
    };
    let at = |loc| space_of(sim, (s, r), loc);
    let rank = |end| sim.world.rank(side(end).rank);
    let (from, to) = (s.rank as u32, r.rank as u32);
    // The data link, for the stages that use one: an eager half's two
    // ends share a rank.
    let data = move || &sim.world.net_ref().channel(s.rank, r.rank).data;
    let wire = move |n| data().time(n);
    let zero = SimTime::ZERO;
    Some(match op {
        StageOp::Kernel { end, frag } => {
            let kernel = kernel_stage(sim, side(end), end, at(frag), false).1;
            Stage::new(rank(end).kernel_stream.track(), zero, kernel)
        }
        StageOp::CpuConvert { end, .. } => {
            let cpu = Track::Cpu {
                rank: side(end).rank as u32,
            };
            Stage::new(cpu, zero, cpupack::pass_time)
        }
        StageOp::Copy {
            stream_of,
            from,
            to,
        } => {
            let gpu = rank(stream_of).gpu;
            let dir = CopyDirection::of(at(from), at(to));
            let copy = move |n| copy_time(sim.world.gpus_ref(), gpu, dir, n);
            Stage::new(rank(stream_of).copy_stream.track(), zero, copy)
        }
        StageOp::Wire { .. } => Stage::new(Track::LinkData { from, to }, data().latency, wire),
        StageOp::Notify { to } => {
            let (from, to) = (side(to.other()).rank, side(to).rank);
            let ctrl = &sim.world.net_ref().channel(from, to).ctrl;
            let (from, to) = (from as u32, to as u32);
            let am = move |_| am_time(ctrl, CONTROL_BYTES);
            Stage::new(Track::LinkCtrl { from, to }, ctrl.latency, am)
        }
        StageOp::Direct => return None,
        StageOp::NicProgram => {
            // One stage: the handler front-end issues every descriptor
            // of the merged program while the payload streams at the
            // slower of the wire and the NIC gather/scatter DMA. No pack
            // kernels, no staging copies, no per-fragment active
            // messages.
            let costs = NicCosts::of(&sim.world.gpus_ref().topo);
            let cfg = &sim.world.mpi.config.engine;
            let (s_est, r_est) = (
                LaunchEstimate::of(&s.ty, s.count, cfg),
                LaunchEstimate::of(&r.ty, r.count, cfg),
            );
            let program = move |n| {
                let descriptors = s_est.units_in(n) + r_est.units_in(n);
                costs.time(descriptors, n, data())
            };
            Stage::new(Track::LinkData { from, to }, data().latency, program)
        }
        StageOp::GraphReplay => {
            // Replay re-arm on the stream front-end, then the graph's
            // own legs: zero-copy pack into mapped host staging, the wire,
            // zero-copy unpack. Completion is the graph's flag write — no
            // per-fragment active messages, no CPU.
            let topo = &sim.world.gpus_ref().topo;
            let id = rank(End::Send).kernel_stream;
            let re_arm = replay_time(topo, offload::transfer_graph(id, 0).op_count());
            let pack = kernel_stage(sim, s, End::Send, MemSpace::Host, true).1;
            let unpack = kernel_stage(sim, r, End::Recv, MemSpace::Host, true).1;
            let replay = move |n| Cost {
                hold: re_arm + pack(n),
                until: wire(n) + unpack(n),
            };
            Stage {
                resource: id.track(),
                cost: Box::new(replay),
            }
        }
        StageOp::Memcpy2d { end, frag } => {
            // The whole type's copies: a comparator plan is one
            // fragment. Staging starts its allocation, and a copy's price
            // reads only a pointer's space and offset.
            let dir = match end {
                End::Send => Direction::Pack,
                End::Recv => Direction::Unpack,
            };
            let staging = Ptr {
                space: at(frag),
                alloc: AllocId(0),
                offset: 0,
            };
            let t = RunEngine::new(sim, side(end), dir).time(sim, staging);
            Stage::new(rank(end).copy_stream.track(), zero, move |_| t)
        }
    })
}

/// The schedule `plan` runs, each stage priced by `price`: its stages,
/// then its credit — under [`Credit::Ack`] the receiver acks every slot
/// back, under [`Credit::Local`] one message closes the transfer.
fn schedule<'a>(
    plan: &TransferPlan,
    mut price: impl FnMut(StageOp) -> Option<Stage<'a>>,
) -> Pipeline<'a> {
    let mut stages: Vec<Stage<'a>> = plan.stages.iter().filter_map(|&op| price(op)).collect();
    let closing = match plan.credit {
        Credit::Ack => {
            stages.extend(price(StageOp::Notify { to: End::Send }));
            None
        }
        Credit::Local { far } => price(StageOp::Notify { to: far }),
        Credit::Fused => None,
    };
    Pipeline { stages, closing }
}

/// Choose the path class for one cross-node rendezvous. The incumbent
/// GPU-pack pipeline (zero-copy when healthy and both sides live on
/// device, staged copy-in/out otherwise) always competes and wins ties;
/// an offload class is returned only while the runtime offers it (its
/// knob is on and no handshake lost it), both sides are
/// device-resident, and its schedule is strictly shorter. Every class
/// is priced at the shape it would run ([`predict`]). With both knobs
/// off this returns the incumbent immediately — no model evaluation, no
/// counters, so default runs stay byte-identical.
pub(crate) fn select_path(
    sim: &mut Sim<MpiWorld>,
    s: &Side,
    r: &Side,
    same_node: bool,
) -> PathClass {
    let incumbent = if s.device() && r.device() {
        Facts::of(sim, s.rank, r.rank).copy_class()
    } else {
        PathClass::CopyInOut
    };
    let offload = [
        (Capability::NicOffload, PathClass::NicOffload),
        (Capability::StreamTrigger, PathClass::StreamTriggered),
    ];
    let offered: Vec<_> = (offload.into_iter())
        .filter(|&(cap, _)| sim.world.mpi.offers(cap))
        .collect();
    if offered.is_empty() || same_node || !s.device() || !r.device() {
        return incumbent;
    }
    // Ties go to the earlier class: the incumbent, then the NIC.
    let incumbent = (predict(sim, s, r, incumbent), incumbent);
    (offered.into_iter())
        .fold(incumbent, |best, (_, class)| {
            best.min((predict(sim, s, r, class), class))
        })
        .1
}

/// The tuner's prediction for one transfer `s → r` down `class`: the
/// schedule of the plan it would run, at the shape it would run — a
/// ring at the shape [`tuned_shape`] picks, a one-fragment plan whole.
pub fn predict(sim: &mut Sim<MpiWorld>, s: &Side, r: &Side, class: PathClass) -> SimTime {
    let plan = plan_for(&Facts::of(sim, s.rank, r.rank), s, r, class);
    let (frag, depth) = if plan.ring {
        tuned_shape(sim, s, r, class)
    } else {
        (plan.frag, plan.depth)
    };
    schedule(&plan, |op| price(sim, op, (s, r))).makespan(s.total(), frag, depth)
}

/// Pick the pipeline shape for one transfer: the configured fragment
/// size and ring depth unless the auto-tuner is enabled *and* a smaller
/// fragment / shallower ring has a strictly shorter schedule.
/// Decisions are cached per (layouts, size, path) and counted in the
/// trace (`optimizer.frag.tuned` / `.default` / `.cache.hit`).
pub fn tuned_shape(sim: &mut Sim<MpiWorld>, s: &Side, r: &Side, class: PathClass) -> (u64, usize) {
    let cfg = &sim.world.mpi.config;
    let configured = (cfg.frag_size, cfg.pipeline_depth);
    if !cfg.engine.optimizer.autotune {
        return configured;
    }
    let (a, b) = (s.rank as u32, r.rank as u32);
    let key = cache_key(sim, s, r, class);
    if let Some(&shape) = sim.world.mpi.tuned_shapes.get(&key) {
        sim.trace.count(names::OPTIMIZER_FRAG_CACHE_HIT, a, b, 1);
        return shape;
    }
    let plan = plan_for(&Facts::of(sim, s.rank, r.rank), s, r, class);
    let shape = {
        let pipe = schedule(&plan, |op| price(sim, op, (s, r)));
        pick_fragment(&pipe, s.total(), configured.0, configured.1)
    };
    sim.world.mpi.tuned_shapes.insert(key, shape);
    let counter = if shape == configured {
        names::OPTIMIZER_FRAG_DEFAULT
    } else {
        names::OPTIMIZER_FRAG_TUNED
    };
    sim.trace.count(counter, a, b, 1);
    shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use datatype::DataType;
    use devengine::{EngineConfig, Lru};
    use memsim::MemSpace;

    fn world(opt: OptimizerConfig) -> Sim<MpiWorld> {
        let config = MpiConfig {
            engine: EngineConfig {
                optimizer: opt,
                ..EngineConfig::default()
            },
            ..MpiConfig::default()
        };
        Sim::new(MpiWorld::two_ranks_two_gpus(config))
    }

    fn strided_side(sim: &mut Sim<MpiWorld>, rank: usize) -> Side {
        let ty = DataType::vector(4096, 2, 4, &DataType::double())
            .unwrap()
            .commit();
        let gpu = sim.world.mpi.ranks[rank].gpu;
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(gpu), ty.extent() as u64)
            .unwrap();
        Side {
            rank,
            ty,
            count: 1,
            buf,
        }
    }

    #[test]
    fn disabled_tuner_returns_the_configured_shape() {
        let mut sim = world(OptimizerConfig::disabled());
        let s = strided_side(&mut sim, 0);
        let r = strided_side(&mut sim, 1);
        let shape = tuned_shape(&mut sim, &s, &r, PathClass::SmIpc);
        assert_eq!(shape, (512 << 10, 4));
        assert!(sim.world.mpi.tuned_shapes.is_empty());
    }

    #[test]
    fn tuned_fragment_never_grows_and_decisions_are_cached() {
        let mut sim = world(OptimizerConfig::enabled());
        let s = strided_side(&mut sim, 0);
        let r = strided_side(&mut sim, 1);
        let (f, d) = tuned_shape(&mut sim, &s, &r, PathClass::SmIpc);
        assert!(f <= 512 << 10, "fragments must fit the allocated ring");
        assert!(d <= 4, "depth must fit the allocated ring");
        assert!(f >= devengine::tune::MIN_FRAG);
        assert_eq!(sim.world.mpi.tuned_shapes.len(), 1);
        let again = tuned_shape(&mut sim, &s, &r, PathClass::SmIpc);
        assert_eq!(again, (f, d));
        assert_eq!(sim.trace.counter(names::OPTIMIZER_FRAG_CACHE_HIT), 1);
        assert_eq!(sim.world.mpi.tuned_shapes.len(), 1);
    }

    fn ib_world(arch: &str, nic: bool, stream: bool) -> Sim<MpiWorld> {
        use crate::world::RankSpec;
        use gpusim::GpuArch;
        use memsim::GpuId;
        let config = MpiConfig {
            nic_offload: nic,
            stream_trigger: stream,
            ..MpiConfig::default()
        };
        let specs = [
            RankSpec {
                gpu: GpuId(0),
                node: 0,
            },
            RankSpec {
                gpu: GpuId(1),
                node: 1,
            },
        ];
        Sim::new(MpiWorld::on_arch(GpuArch::named(arch), &specs, 2, config))
    }

    fn side_on(sim: &mut Sim<MpiWorld>, rank: usize, ty: &DataType, count: u64) -> Side {
        let gpu = sim.world.mpi.ranks[rank].gpu;
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(gpu), ty.extent() as u64 * count)
            .unwrap();
        Side {
            rank,
            ty: ty.clone(),
            count,
            buf,
        }
    }

    /// Coarse-grained strided layout: 32 KiB contiguous blocks, so the
    /// per-descriptor NIC issue cost is negligible against the stream.
    fn coarse_ty() -> DataType {
        DataType::vector(64, 4096, 8192, &DataType::double())
            .unwrap()
            .commit()
    }

    /// Fine-grained strided layout: 16-byte blocks, where descriptor
    /// issue dominates the NIC model and the graph kernels slow down.
    fn fine_ty() -> DataType {
        DataType::vector(65536, 2, 4, &DataType::double())
            .unwrap()
            .commit()
    }

    /// Latency-bound medium layout (128 KiB): two kernel launches plus
    /// the per-fragment active message outweigh one stream re-arm.
    fn medium_ty() -> DataType {
        DataType::vector(512, 32, 64, &DataType::double())
            .unwrap()
            .commit()
    }

    #[test]
    fn offload_knobs_off_select_the_incumbent() {
        let mut sim = ib_world("a100", false, false);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
        assert!(sim.world.mpi.tuned_shapes.is_empty());
    }

    #[test]
    fn offload_requires_cross_node_device_endpoints() {
        // Same node: the offload classes never compete.
        let mut sim = ib_world("a100", true, true);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, true), PathClass::ZeroCopy);
        // A host-resident endpoint disqualifies them too (and the
        // incumbent degrades to staged copy-in/out).
        let mut sim = ib_world("a100", true, true);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let ty = coarse_ty();
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Host, ty.extent() as u64)
            .unwrap();
        let r = Side {
            rank: 1,
            ty,
            count: 1,
            buf,
        };
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::CopyInOut);
    }

    #[test]
    fn nic_offload_wins_only_where_dma_outruns_the_wire() {
        // NVLink-era NICs gather faster than the wire drains: the
        // kernel-free path wins for coarse-grained layouts.
        for arch in ["p100", "v100", "a100"] {
            let mut sim = ib_world(arch, true, false);
            let s = side_on(&mut sim, 0, &coarse_ty(), 1);
            let r = side_on(&mut sim, 1, &coarse_ty(), 1);
            assert_eq!(
                select_path(&mut sim, &s, &r, false),
                PathClass::NicOffload,
                "{arch} coarse"
            );
        }
        // The K40 testbed's NIC DMA (5 GB/s) is slower than the wire:
        // inflating the stream loses to the pipelined pack path.
        let mut sim = ib_world("k40", true, false);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
        // Fine-grained layouts pay per-descriptor issue on the handler
        // cores; the model keeps them on the incumbent everywhere.
        let mut sim = ib_world("a100", true, false);
        let s = side_on(&mut sim, 0, &fine_ty(), 1);
        let r = side_on(&mut sim, 1, &fine_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
    }

    #[test]
    fn stream_trigger_wins_latency_bound_medium_messages() {
        // One re-arm beats two launches, two fragments' handshakes and
        // the pipeline's fill — on the K40, past its 3 µs doorbell, too.
        for arch in ["k40", "p100"] {
            let mut sim = ib_world(arch, false, true);
            let s = side_on(&mut sim, 0, &medium_ty(), 1);
            let r = side_on(&mut sim, 1, &medium_ty(), 1);
            assert_eq!(
                select_path(&mut sim, &s, &r, false),
                PathClass::StreamTriggered,
                "{arch}"
            );
        }
        // Large coarse transfers pipeline on the incumbent but replay
        // serially on the stream graph: the model keeps them off.
        let mut sim = ib_world("p100", false, true);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_ne!(
            select_path(&mut sim, &s, &r, false),
            PathClass::StreamTriggered
        );
        // Twice the message already pipelines on the incumbent.
        let twice = DataType::vector(1024, 32, 64, &DataType::double())
            .unwrap()
            .commit();
        let mut sim = ib_world("k40", false, true);
        let s = side_on(&mut sim, 0, &twice, 1);
        let r = side_on(&mut sim, 1, &twice, 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
    }

    #[test]
    fn demoted_runtime_flags_disqualify_offload_classes() {
        let mut sim = ib_world("a100", true, true);
        let lost = [Capability::NicOffload, Capability::StreamTrigger];
        sim.world.mpi.lost.extend(lost);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
    }

    /// Priced ≡ charged: the first fragment's charge of every stage of
    /// `plan` — its span, with nothing queued ahead of it — lasts
    /// exactly the tuner's price at the fragment's size. A kernel is
    /// priced on the launch's exact traffic, the one input the tuner
    /// otherwise estimates; `events` are the transfer's.
    fn first_fragment_costs_its_price(
        sim: &Sim<MpiWorld>,
        plan: &TransferPlan,
        (s, r): (&Side, &Side),
        events: &[simcore::trace::TraceEvent],
        row: &str,
    ) {
        use simcore::trace::{Name, TraceEvent, Track};
        let n = plan.frag.min(s.total());
        let span = |name: Name, track: Track| {
            let first = events.iter().find_map(|e| match *e {
                TraceEvent::Span {
                    name: nm,
                    track: tr,
                    start,
                    end,
                    ..
                } if nm == name && tr == track => Some(end - start),
                _ => None,
            });
            first.unwrap_or_else(|| panic!("{row}: no {name:?} span on {track}"))
        };
        // A 2-D copy stage issues one copy per vector run, back to back
        // on one stream: the stage lasts their sum.
        let copies = |track: Track| -> SimTime {
            (events.iter())
                .filter_map(|e| match *e {
                    TraceEvent::Span {
                        name,
                        track: tr,
                        start,
                        end,
                        ..
                    } if tr == track
                        && [names::SPAN_MEMCPY, names::SPAN_MEMCPY2D].contains(&name) =>
                    {
                        Some(end - start)
                    }
                    _ => None,
                })
                .fold(SimTime::ZERO, |a, b| a + b)
        };
        // Every stage is charged on the track of the resource it holds;
        // the ack is the receiver's notification of the sender.
        let credit = (plan.credit == Credit::Ack).then_some(StageOp::Notify { to: End::Send });
        for op in plan.stages.iter().copied().chain(credit) {
            let name = match op {
                StageOp::Kernel { .. } => names::SPAN_KERNEL,
                StageOp::CpuConvert { end: End::Send, .. } => names::SPAN_CPU_PACK,
                StageOp::CpuConvert { .. } => names::SPAN_CPU_UNPACK,
                StageOp::Copy { .. } => names::SPAN_MEMCPY,
                StageOp::Wire { .. } => names::SPAN_WIRE,
                StageOp::Notify { .. } => names::SPAN_AM,
                StageOp::Memcpy2d { .. } => names::SPAN_MEMCPY2D,
                StageOp::Direct | StageOp::NicProgram | StageOp::GraphReplay => continue,
            };
            let stage = price(sim, op, (s, r)).unwrap();
            let track = stage.resource;
            let priced = match op {
                StageOp::Kernel { end, frag } => exact_kernel(sim, (s, r), end, frag, n),
                _ => stage_time(stage, n),
            };
            let charged = if let StageOp::Memcpy2d { .. } = op {
                copies(track)
            } else {
                span(name, track)
            };
            assert_eq!(charged, priced, "{row}: {op:?} charged vs priced");
        }
    }

    /// What a stage's charge lasts on an idle resource.
    fn stage_time(stage: Stage<'_>, n: u64) -> SimTime {
        let cost = (stage.cost)(n);
        cost.hold + cost.until
    }

    /// The kernel `end` launches on a fragment of `n` bytes at `frag`,
    /// priced on the launch's exact traffic — the one input the tuner
    /// otherwise estimates. Every fragment slot and the first window of
    /// a user buffer start their allocation.
    fn exact_kernel(
        sim: &Sim<MpiWorld>,
        (s, r): (&Side, &Side),
        end: End,
        frag: Loc,
        n: u64,
    ) -> SimTime {
        let typed = if end == End::Send { s } else { r };
        let frag = space_of(sim, (s, r), frag);
        let at = |space| memsim::Ptr {
            space,
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        let mut units = devengine::whole_units(&typed.ty, 1, 1 << 30, true)
            .unwrap()
            .0;
        units.retain(|u| (u.dst_off as u64) < n);
        let (src, dst) = if end == End::Send {
            (at(typed.buf.space), at(frag))
        } else {
            devengine::flip_units_in_place(&mut units);
            (at(frag), at(typed.buf.space))
        };
        let gpu = sim.world.rank(typed.rank).gpu;
        let spec = &sim.world.gpus_ref().gpu(gpu).spec;
        let exact = KernelTraffic::of(&units, src, dst, gpu, spec);
        kernel_stage(sim, typed, end, frag, false).0(&exact)
    }

    /// The priced plan is the executed plan. One multi-fragment
    /// transfer per row of {SmIpc one GPU, SmIpc two GPUs staged and
    /// unstaged, CopyInOut, ZeroCopy} × {dense, strided}² × legal
    /// placements, plus one message of each comparator and one transfer
    /// of each offload class between two strided device ends over
    /// InfiniBand, run
    /// with the tracer on: the primitives the run actually issued — kernel
    /// launches, `cudaMemcpy`s, CPU convertor passes, wire sends, NIC
    /// programs, graph replays, active
    /// messages — must equal, per fragment, the `StageOp`s of
    /// `plan_for(..)`, the tuner must have priced exactly that many
    /// stages, the received bytes must equal the CPU reference
    /// `pack_all` → `unpack_all`, `Memory` must have written each
    /// delivered byte once, and each stage of the first fragment must
    /// have been charged exactly its price. Every row runs three times on its one
    /// world — handshake, cold caches, warm caches — and the warm run
    /// must equal the cold one in virtual duration, recorded events and
    /// every counter delta (DESIGN.md §17, "What a repeated transfer
    /// reuses"), and last to the nanosecond the plan's schedule
    /// ([`devengine::tune::Pipeline::makespan`]) at its exact prices.
    #[test]
    fn executed_primitives_match_the_planned_and_priced_stages() {
        use crate::protocol::comparator::comparator_transfer;
        use crate::protocol::plan::{comparator_plan, vectorize, Comparator};
        use crate::protocol::transfer_down;
        use datatype::convertor::{pack_all, unpack_all};
        use faultsim::FaultPlan;
        use simcore::trace::{Name, TraceEvent};

        const FRAG: u64 = 64 << 10;
        const DOUBLES: u64 = 36_864; // 4.5 fragments
        let dense = DataType::contiguous(DOUBLES, &DataType::double())
            .unwrap()
            .commit();
        let strided = DataType::vector(DOUBLES / 2, 2, 4, &DataType::double())
            .unwrap()
            .commit();
        let total = dense.size();
        assert_eq!(strided.size(), total);

        #[derive(Clone, Copy, Debug)]
        enum Topo {
            Sm1Gpu,
            Sm2Gpu,
            /// Two GPUs, unpacking straight out of the peer's ring.
            Sm2GpuUnstaged,
            IbStaged,
            IbZeroCopy,
            /// A comparator message over InfiniBand.
            Ib(Comparator),
            /// An offload transfer over InfiniBand.
            Offload(PathClass),
        }
        let mut rows = 0;
        for topo in [
            Topo::Sm1Gpu,
            Topo::Sm2Gpu,
            Topo::Sm2GpuUnstaged,
            Topo::IbStaged,
            Topo::IbZeroCopy,
            Topo::Ib(Comparator::Wang),
            Topo::Ib(Comparator::Jenkins),
            Topo::Offload(PathClass::NicOffload),
            Topo::Offload(PathClass::StreamTriggered),
        ] {
            let sm = matches!(topo, Topo::Sm1Gpu | Topo::Sm2Gpu | Topo::Sm2GpuUnstaged);
            let comparator = match topo {
                Topo::Ib(which) => Some(which),
                _ => None,
            };
            let offload = match topo {
                Topo::Offload(class) => Some(class),
                _ => None,
            };
            let typed_only = comparator.is_some() || offload.is_some();
            // sm, the comparators and the offload classes run
            // device-to-device only; copy-in/out takes any mix.
            let placements: &[(bool, bool)] = if sm || typed_only {
                &[(true, true)]
            } else {
                &[(true, true), (true, false), (false, true), (false, false)]
            };
            let densities: &[(bool, bool)] = if typed_only {
                &[(false, false)]
            } else {
                &[(true, true), (true, false), (false, true), (false, false)]
            };
            for &(s_dense, r_dense) in densities {
                for &(s_dev, r_dev) in placements {
                    let row = format!(
                        "{topo:?} s(dense={s_dense},dev={s_dev}) r(dense={r_dense},dev={r_dev})"
                    );
                    let config = MpiConfig {
                        frag_size: FRAG,
                        zero_copy: matches!(topo, Topo::IbZeroCopy),
                        recv_local_staging: !matches!(topo, Topo::Sm2GpuUnstaged),
                        nic_offload: offload == Some(PathClass::NicOffload),
                        stream_trigger: offload == Some(PathClass::StreamTriggered),
                        fault_plan: FaultPlan::empty(),
                        engine: EngineConfig {
                            optimizer: OptimizerConfig {
                                autotune: false,
                                ..OptimizerConfig::enabled()
                            },
                            ..EngineConfig::default()
                        },
                        ..MpiConfig::default()
                    };
                    let mut sim = Sim::new(match topo {
                        Topo::Sm1Gpu => MpiWorld::two_ranks_one_gpu(config),
                        Topo::Sm2Gpu | Topo::Sm2GpuUnstaged => MpiWorld::two_ranks_two_gpus(config),
                        Topo::IbStaged | Topo::IbZeroCopy | Topo::Ib(_) | Topo::Offload(_) => {
                            MpiWorld::two_ranks_ib(config)
                        }
                    });
                    let side = |sim: &mut Sim<MpiWorld>, rank: usize, is_dense, dev| {
                        let ty: &DataType = if is_dense { &dense } else { &strided };
                        let space = if dev {
                            MemSpace::Device(sim.world.mpi.ranks[rank].gpu)
                        } else {
                            MemSpace::Host
                        };
                        let buf = sim.world.mem().alloc(space, ty.extent() as u64).unwrap();
                        Side {
                            rank,
                            ty: ty.clone(),
                            count: 1,
                            buf,
                        }
                    };
                    let s = side(&mut sim, 0, s_dense, s_dev);
                    let r = side(&mut sim, 1, r_dense, r_dev);
                    let sent: Vec<u8> = (0..s.ty.extent() as usize)
                        .map(|i| (i * 31 + 7) as u8)
                        .collect();
                    sim.world.mem().write(s.buf, &sent).unwrap();
                    let r_len = r.ty.extent() as u64;
                    let blank = sim.world.mem().read_vec(r.buf, r_len).unwrap();
                    let mut expect = blank.clone();
                    unpack_all(&r.ty, 1, &mut expect, 0, &pack_all(&s.ty, 1, &sent, 0));

                    let facts = Facts::of(&sim, 0, 1);
                    let class = if sm {
                        PathClass::SmIpc
                    } else {
                        offload.unwrap_or(facts.copy_class())
                    };
                    // The primitives a stage issues per fragment: one, but
                    // a 2-D copy stage's one copy per vector run.
                    let issued = |op: &StageOp| match *op {
                        StageOp::Memcpy2d { end, .. } => {
                            let typed = if end == End::Send { &s } else { &r };
                            vectorize(&typed.ty, typed.count).len() as u64
                        }
                        _ => 1,
                    };
                    let plan = match comparator {
                        Some(which) => comparator_plan(which, &s, &r),
                        None => plan_for(&Facts::of(&sim, 0, 1), &s, &r, class),
                    };
                    let priced = {
                        let pipe = schedule(&plan, |op| price(&sim, op, (&s, &r)));
                        let more: u64 = plan.stages.iter().map(|op| issued(op) - 1).sum();
                        pipe.stages.len() as u64 + more
                    };
                    // The schedule of the plan's stages at their exact
                    // prices: a kernel on its exact traffic.
                    let scheduled = {
                        let exact = schedule(&plan, |op| {
                            let stage = price(&sim, op, (&s, &r))?;
                            let StageOp::Kernel { end, frag } = op else {
                                return Some(stage);
                            };
                            let (sim, sides) = (&sim, (&s, &r));
                            let kernel = move |n| exact_kernel(sim, sides, end, frag, n);
                            Some(Stage::new(stage.resource, SimTime::ZERO, kernel))
                        });
                        exact.makespan(total, plan.frag, plan.depth)
                    };
                    let nfrags = if plan.ring { total.div_ceil(FRAG) } else { 1 };
                    assert!(!plan.ring || nfrags >= 3, "{row}: not multi-fragment");
                    let planned = |pick: fn(&StageOp) -> bool| -> u64 {
                        plan.stages.iter().filter(|op| pick(op)).map(issued).sum()
                    };

                    // The same transfer three times on the one world.
                    // Iteration 0 pays the one-time handshake; emptying
                    // the move lists after it makes iteration 1 the cold
                    // one — every lookup misses — and iteration 2 the
                    // warm one. Nothing a run can observe may tell the
                    // two apart: the caches are transparent.
                    sim.trace.set_recording(true);
                    // Only two typed ends meet through a merged list; an
                    // offload class's is its connection's.
                    let merged = if s_dense || r_dense || offload.is_some() {
                        0
                    } else {
                        nfrags as usize
                    };
                    let mut observed = Vec::new();
                    for iter in 0..3 {
                        if iter == 1 {
                            sim.world.mpi.move_lists = Lru::with_limits(8 << 20, 1024);
                        }
                        let row = format!("{row} iteration {iter}");
                        sim.world.mem().write(r.buf, &blank).unwrap();
                        let (then, counted, recorded, moved) = (
                            sim.now(),
                            sim.trace.counters(),
                            sim.trace.events().len(),
                            sim.world.mem().bytes_moved(),
                        );
                        let (sreq, rreq) = match comparator {
                            Some(which) => {
                                let req =
                                    comparator_transfer(&mut sim, which, s.clone(), r.clone());
                                (req.clone(), req)
                            }
                            // Past the tuner's choice: the row is the
                            // class's plan.
                            None => transfer_down(&mut sim, class, s.clone(), r.clone()),
                        };
                        sim.run();
                        assert_eq!(sreq.expect_bytes(), total, "{row}");
                        assert_eq!(rreq.expect_bytes(), total, "{row}");
                        let got = sim.world.mem().read_vec(r.buf, r_len).unwrap();
                        assert!(got == expect, "{row}: bytes differ from the CPU reference");
                        assert_eq!(
                            sim.world.mpi.move_lists.len(),
                            merged,
                            "{row}: one move list per merged fragment"
                        );

                        let deltas: Vec<_> = (sim.trace.counters().into_iter())
                            .map(|(key, v)| {
                                let before = counted.iter().find(|(k, _)| *k == key);
                                (key, v - before.map_or(0, |(_, v)| *v))
                            })
                            .collect();
                        let counter = |c: simcore::Counter| -> u64 {
                            (deltas.iter().filter(|(k, _)| k.counter == c))
                                .map(|(_, v)| v)
                                .sum()
                        };
                        let events = &sim.trace.events()[recorded..];
                        let spans = |span: Name| {
                            events
                                .iter()
                                .filter(
                                    |e| matches!(e, TraceEvent::Span { name, .. } if *name == span),
                                )
                                .count() as u64
                        };
                        // Every stage was charged (asserted below); the
                        // payload itself moved exactly once.
                        assert_eq!(
                            sim.world.mem().bytes_moved() - moved,
                            counter(names::MPI_DELIVERED_BYTES),
                            "{row}: bytes moved per byte delivered"
                        );
                        let kernels = counter(names::GPUSIM_KERNEL_LAUNCHES);
                        let memcpys = spans(names::SPAN_MEMCPY) + spans(names::SPAN_MEMCPY2D);
                        let cpu_passes =
                            spans(names::SPAN_CPU_PACK) + spans(names::SPAN_CPU_UNPACK);
                        let wires = spans(names::SPAN_WIRE);
                        let offloads = counter(names::OFFLOAD_NIC_PROGRAMS)
                            + counter(names::OFFLOAD_STREAM_REPLAYS);
                        let ams = counter(names::NETSIM_AM_COUNT);
                        assert_eq!(
                            kernels,
                            nfrags * planned(|op| matches!(op, StageOp::Kernel { .. })),
                            "{row}: kernel launches"
                        );
                        assert_eq!(
                            memcpys,
                            nfrags
                                * planned(|op| {
                                    matches!(op, StageOp::Copy { .. } | StageOp::Memcpy2d { .. })
                                }),
                            "{row}: memcpys"
                        );
                        assert_eq!(
                            cpu_passes,
                            nfrags * planned(|op| matches!(op, StageOp::CpuConvert { .. })),
                            "{row}: CPU convertor passes"
                        );
                        assert_eq!(
                            wires,
                            nfrags * planned(|op| matches!(op, StageOp::Wire { .. })),
                            "{row}: wire sends"
                        );
                        assert_eq!(
                            offloads,
                            nfrags
                                * planned(|op| {
                                    matches!(op, StageOp::NicProgram | StageOp::GraphReplay)
                                }),
                            "{row}: NIC programs and graph replays"
                        );
                        // Per fragment: one AM per Notify, one more under
                        // Ack credit; a Local credit adds one per transfer.
                        let (per_frag_credit, per_transfer) = match plan.credit {
                            Credit::Ack => (1, 0),
                            Credit::Local { .. } => (0, 1),
                            Credit::Fused => (0, 0),
                        };
                        let notifies = planned(|op| matches!(op, StageOp::Notify { .. }));
                        assert_eq!(
                            ams,
                            nfrags * (notifies + per_frag_credit) + per_transfer,
                            "{row}: active messages"
                        );
                        assert_eq!(
                            spans(names::SPAN_FRAG),
                            if plan.ring { nfrags } else { 0 },
                            "{row}: one frag span per slot residency"
                        );
                        // What the tuner priced per fragment is what ran per
                        // fragment (the one per-transfer AM is unpriced).
                        assert_eq!(
                            priced * nfrags,
                            kernels + memcpys + cpu_passes + wires + offloads + ams - per_transfer,
                            "{row}: priced stages vs executed primitives"
                        );
                        if iter > 0 {
                            first_fragment_costs_its_price(&sim, &plan, (&s, &r), events, &row);
                        }
                        observed.push((sim.now() - then, events.len(), deltas));
                    }
                    assert!(
                        observed[1] == observed[2],
                        "{row}: a warm transfer differs from the cold one in virtual \
                         duration, recorded events or a counter delta"
                    );
                    assert_eq!(
                        observed[2].0, scheduled,
                        "{row}: the warm transfer's duration vs its priced schedule"
                    );
                    rows += 1;
                }
            }
        }
        assert_eq!(rows, 3 * 4 + 2 * 16 + 2 + 2);
    }

    /// The eager rows of the stage table. One eager message per row of
    /// {host, device} × {dense, strided}, run through the API with the
    /// tracer on, on a warm world: per message the kernels and CPU
    /// convertor passes must equal the stages of the two
    /// [`eager_half`] plans, with exactly one active message and no
    /// wire or staging copy; each stage must be charged exactly its
    /// price; the received bytes must equal the CPU reference; and the
    /// payload must be counted delivered exactly once, sender →
    /// receiver.
    #[test]
    fn eager_halves_execute_their_planned_and_priced_stages() {
        use crate::api::{irecv, isend, RecvArgs, SendArgs};
        use crate::protocol::plan::eager_half;
        use datatype::convertor::{pack_all, unpack_all};
        use simcore::trace::{Name, TraceEvent};

        const DOUBLES: u64 = 2048; // 16 KiB: eager
        let dense = DataType::contiguous(DOUBLES, &DataType::double())
            .unwrap()
            .commit();
        let strided = DataType::vector(DOUBLES / 2, 2, 4, &DataType::double())
            .unwrap()
            .commit();
        let mut rows = 0;
        for device in [false, true] {
            for ty in [&dense, &strided] {
                let row = format!("eager device={device} dense={}", ty.is_contiguous(1));
                let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
                let n = ty.size();
                assert!(n <= sim.world.mpi.config.eager_limit, "{row}: not eager");
                let side = |sim: &mut Sim<MpiWorld>, rank: usize| {
                    let space = if device {
                        MemSpace::Device(sim.world.mpi.ranks[rank].gpu)
                    } else {
                        MemSpace::Host
                    };
                    let buf = sim.world.mem().alloc(space, ty.extent() as u64).unwrap();
                    Side {
                        rank,
                        ty: ty.clone(),
                        count: 1,
                        buf,
                    }
                };
                let (s, r) = (side(&mut sim, 0), side(&mut sim, 1));
                let sent: Vec<u8> = (0..ty.extent() as usize)
                    .map(|i| (i * 31 + 7) as u8)
                    .collect();
                sim.world.mem().write(s.buf, &sent).unwrap();
                let r_len = ty.extent() as u64;
                let mut expect = sim.world.mem().read_vec(r.buf, r_len).unwrap();
                unpack_all(ty, 1, &mut expect, 0, &pack_all(ty, 1, &sent, 0));
                // The bounce buffer each half converts against.
                let bounce = |rank| Side {
                    rank,
                    ty: DataType::byte().commit(),
                    count: n,
                    buf: memsim::Ptr {
                        space: MemSpace::Host,
                        alloc: memsim::AllocId(0),
                        offset: 0,
                    },
                };
                let halves = [
                    (eager_half(End::Send, &s, n), (s.clone(), bounce(0))),
                    (eager_half(End::Recv, &r, n), (bounce(0), r.clone())),
                ];
                let planned = |pick: fn(&StageOp) -> bool| -> u64 {
                    (halves.iter())
                        .map(|(plan, _)| plan.stages.iter().filter(|op| pick(op)).count() as u64)
                        .sum()
                };

                // The first message warms the DEV caches; the second is
                // the row.
                sim.trace.set_recording(true);
                for iter in 0..2 {
                    let (counted, recorded) = (sim.trace.counters(), sim.trace.events().len());
                    let rreq = irecv(&mut sim, RecvArgs::new(1, 0, r.buf, ty, 1));
                    let sreq = isend(&mut sim, SendArgs::new(0, 1, s.buf, ty, 1));
                    sim.run();
                    assert_eq!(sreq.expect_bytes(), n, "{row}");
                    assert_eq!(rreq.expect_bytes(), n, "{row}");
                    let got = sim.world.mem().read_vec(r.buf, r_len).unwrap();
                    assert!(got == expect, "{row}: bytes differ from the CPU reference");
                    if iter == 0 {
                        continue;
                    }
                    let delta = |c: simcore::Counter, a: u32, b: u32| -> u64 {
                        let now = (sim.trace.counters().into_iter())
                            .filter(|(k, _)| k.counter == c && k.a == a && k.b == b)
                            .map(|(_, v)| v)
                            .sum::<u64>();
                        let then = (counted.iter())
                            .filter(|(k, _)| k.counter == c && k.a == a && k.b == b)
                            .map(|(_, v)| *v)
                            .sum::<u64>();
                        now - then
                    };
                    let total = |c: simcore::Counter| -> u64 {
                        let sum = |list: &[(simcore::trace::CounterKey, u64)]| -> u64 {
                            (list.iter().filter(|(k, _)| k.counter == c))
                                .map(|(_, v)| v)
                                .sum()
                        };
                        sum(&sim.trace.counters()) - sum(&counted)
                    };
                    let events = &sim.trace.events()[recorded..];
                    let spans = |span: Name| {
                        (events.iter())
                            .filter(|e| matches!(e, TraceEvent::Span { name, .. } if *name == span))
                            .count() as u64
                    };
                    assert_eq!(
                        total(names::GPUSIM_KERNEL_LAUNCHES),
                        planned(|op| matches!(op, StageOp::Kernel { .. })),
                        "{row}: kernel launches"
                    );
                    assert_eq!(
                        spans(names::SPAN_CPU_PACK) + spans(names::SPAN_CPU_UNPACK),
                        planned(|op| matches!(op, StageOp::CpuConvert { .. })),
                        "{row}: CPU convertor passes"
                    );
                    assert_eq!(planned(|_| true), 2, "{row}: one pass per half");
                    assert_eq!(total(names::NETSIM_AM_COUNT), 1, "{row}: active messages");
                    assert_eq!(spans(names::SPAN_MEMCPY), 0, "{row}: staging copies");
                    assert_eq!(spans(names::SPAN_WIRE), 0, "{row}: wire sends");
                    assert_eq!(total(names::MPI_DELIVERED_BYTES), n, "{row}: delivered");
                    assert_eq!(
                        delta(names::MPI_DELIVERED_BYTES, 0, 1),
                        n,
                        "{row}: delivered sender → receiver"
                    );
                    for (plan, (ps, pr)) in &halves {
                        first_fragment_costs_its_price(&sim, plan, (ps, pr), events, &row);
                    }
                }
                rows += 1;
            }
        }
        assert_eq!(rows, 4);
    }

    #[test]
    fn path_classes_tune_independently() {
        let mut sim = world(OptimizerConfig::enabled());
        let s = strided_side(&mut sim, 0);
        let r = strided_side(&mut sim, 1);
        tuned_shape(&mut sim, &s, &r, PathClass::SmIpc);
        tuned_shape(&mut sim, &s, &r, PathClass::ZeroCopy);
        tuned_shape(&mut sim, &s, &r, PathClass::CopyInOut);
        assert_eq!(sim.world.mpi.tuned_shapes.len(), 3);
    }
}
