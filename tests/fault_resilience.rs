//! Fault-injection resilience properties.
//!
//! Three guarantees, exercised end to end through the MPI runtime, and
//! the retry arithmetic under them:
//!
//! 1. A schedule of *retriable* faults (transient AM drops, copy/kernel
//!    hiccups, IPC-open and registration failures) never corrupts or
//!    loses data — delivery is byte-identical to a fault-free run on
//!    every path class (shared-memory IPC, zero-copy RDMA, staged
//!    copy-in/copy-out) and on eager, from device and host memory.
//! 2. *Permanent* capability loss renegotiates the path: IPC loss
//!    demotes SmIpc to copy-in/copy-out, pinned-registration loss
//!    demotes zero-copy to the staged pipeline — in both cases the
//!    transfer still completes with the exact bytes the fallback path
//!    would have delivered, and the demotion is visible in metrics.
//! 3. An armed-but-silent fault plan (`fault.injected == 0`) leaves the
//!    simulation bit-identical to one with no plan at all: same
//!    makespan, same counters.
//! 4. Every handshake step retries under one budget, and a spent budget
//!    demotes like a permanent loss; a transfer never runs past a
//!    handshake still in flight.
//!
//! Underneath, every fallible substrate charge retries through one
//! driver (`gpusim::fault::charge`); its arithmetic is pinned per site.

use datatype::testutil::{buffer_span, pattern, reference_pack};
use datatype::DataType;
use devengine::cpupack::CpuEngine;
use devengine::Direction;
use faultsim::{counters, FaultKind, FaultOp, FaultPlan, FaultSim};
use gpusim::{GpuWorld as _, KernelConfig, KernelTraffic};
use memsim::{GpuId, MemSpace, Ptr};
use mpirt::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
use mpirt::connection::Capability;
use mpirt::{MpiConfig, Session};
use netsim::{ChannelKind, ClusterWorld};
use simcore::par::CopyOp;
use simcore::trace::names;
use simcore::{Metrics, Sim, SimTime};

/// A strided vector large enough to take the rendezvous pipeline
/// (well above the 64 KiB eager limit): 512 blocks of 64 doubles.
fn big_vec() -> DataType {
    DataType::vector(512, 64, 128, &DataType::double())
        .unwrap()
        .commit()
}

/// Allocate + optionally fill a typed buffer for `rank`.
fn alloc_typed(
    sess: &mut Session,
    rank: usize,
    ty: &DataType,
    device: bool,
    fill: bool,
) -> (Ptr, Vec<u8>, i64, u64) {
    let (base, len) = buffer_span(ty, 1);
    let space = if device {
        MemSpace::Device(sess.world.mpi.ranks[rank].gpu)
    } else {
        MemSpace::Host
    };
    let buf = sess.world.mem().alloc(space, len.max(1) as u64).unwrap();
    let bytes = if fill { pattern(len) } else { vec![0u8; len] };
    sess.world.mem().write(buf, &bytes).unwrap();
    (buf.add(base as u64), bytes, base, len as u64)
}

/// Run one typed transfer rank 0 → rank 1, assert it matches the
/// reference pack of the sent pattern, and return the delivered packed
/// stream for cross-run comparison.
fn deliver(sess: &mut Session, ty: &DataType, device: bool) -> Vec<u8> {
    let (sbuf, sbytes, sbase, _) = alloc_typed(sess, 0, ty, device, true);
    let (rbuf, _, rbase, rlen) = alloc_typed(sess, 1, ty, device, false);
    let s = isend(
        sess,
        SendArgs {
            from: 0,
            to: 1,
            tag: 7,
            ty: ty.clone(),
            count: 1,
            buf: sbuf,
        },
    );
    let r = irecv(
        sess,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(7),
            ty: ty.clone(),
            count: 1,
            buf: rbuf,
        },
    );
    wait_all(sess, &[s, r]).expect("transfer failed");
    let expect = reference_pack(ty, 1, &sbytes, sbase);
    let got_buf = sess
        .world
        .mem()
        .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
        .unwrap();
    let got = reference_pack(ty, 1, &got_buf, rbase);
    assert_eq!(got, expect, "payload mismatch");
    got
}

/// Every fault a rule like this can inject is retriable.
fn retriable_plan(seed: u64) -> FaultPlan {
    FaultPlan::empty()
        .with_seed(seed)
        .with_rule(None, FaultKind::Transient, 0.3)
}

#[derive(Clone, Copy)]
enum Path {
    SmIpc,
    ZeroCopy,
    CopyInOut,
}

fn session_for(path: Path, plan: FaultPlan) -> Session {
    let config = MpiConfig {
        fault_plan: plan,
        zero_copy: !matches!(path, Path::CopyInOut),
        ..Default::default()
    };
    let b = Session::builder().config(config);
    match path {
        Path::SmIpc => b.two_ranks_two_gpus(),
        Path::ZeroCopy | Path::CopyInOut => b.two_ranks_ib(),
    }
    .build()
}

/// An eager-sized strided vector (4 KiB): 64 blocks of 8 doubles.
fn small_vec() -> DataType {
    DataType::vector(64, 8, 16, &DataType::double())
        .unwrap()
        .commit()
}

/// Property: a retriable-only fault schedule delivers byte-identical
/// data for `ty` on a given path class and placement, and faults
/// actually fired.
fn check_retriable(path: Path, ty: &DataType, device: bool, seed: u64) {
    let clean = deliver(&mut session_for(path, FaultPlan::empty()), ty, device);
    let mut faulted = session_for(path, retriable_plan(seed));
    let got = deliver(&mut faulted, ty, device);
    assert_eq!(got, clean, "retriable faults must not alter delivery");
    let m = faulted.metrics();
    assert!(
        m.counter(counters::FAULT_INJECTED) > 0,
        "schedule injected nothing — test is vacuous"
    );
}

#[test]
fn retriable_schedule_is_lossless_on_sm_ipc() {
    check_retriable(Path::SmIpc, &big_vec(), true, 42);
}

#[test]
fn retriable_schedule_is_lossless_on_zero_copy() {
    check_retriable(Path::ZeroCopy, &big_vec(), true, 43);
}

#[test]
fn retriable_schedule_is_lossless_on_copy_in_out() {
    check_retriable(Path::CopyInOut, &big_vec(), true, 44);
}

/// Both halves of an eager message — the pack into the bounce buffer,
/// the active message, the unpack at match — under the same schedule,
/// from device and from host memory.
#[test]
fn retriable_schedule_is_lossless_on_eager() {
    let ty = small_vec();
    assert!(ty.size() <= MpiConfig::default().eager_limit);
    check_retriable(Path::CopyInOut, &ty, true, 45);
    check_retriable(Path::CopyInOut, &ty, false, 46);
}

#[test]
fn permanent_ipc_loss_renegotiates_to_copy_in_out() {
    let ty = big_vec();
    // Reference: the same transfer on a world configured for staged
    // copy-in/copy-out from the start.
    let config = MpiConfig {
        use_ipc: false,
        ..Default::default()
    };
    let mut staged = Session::builder()
        .config(config)
        .two_ranks_two_gpus()
        .build();
    let want = deliver(&mut staged, &ty, true);

    // Faulted: IPC handle opens permanently fail; the SmIpc handshake
    // must give up and replay the transfer over copy-in/copy-out.
    let plan = FaultPlan::empty().with_seed(3).with_rule(
        Some(FaultOp::IpcOpen),
        FaultKind::PermanentLoss,
        1.0,
    );
    let config = MpiConfig {
        fault_plan: plan,
        ..Default::default()
    };
    let mut faulted = Session::builder()
        .config(config)
        .two_ranks_two_gpus()
        .build();
    let got = deliver(&mut faulted, &ty, true);
    assert_eq!(got, want, "renegotiated path must deliver the same bytes");
    assert!(
        !faulted.world.mpi.offers(Capability::Ipc),
        "permanent IPC loss must stick"
    );
    let fallbacks = faulted.metrics().counter(counters::FALLBACK_EVENTS);
    assert!(fallbacks >= 1, "demotion must be metered");

    // The demotion is sticky: a second transfer routes straight to
    // copy-in/copy-out without another failed handshake.
    deliver(&mut faulted, &ty, true);
    assert_eq!(
        faulted.metrics().counter(counters::FALLBACK_EVENTS),
        fallbacks,
        "second transfer must not renegotiate again"
    );
}

#[test]
fn permanent_pin_loss_demotes_zero_copy_to_staged() {
    let ty = big_vec();
    let config = MpiConfig {
        zero_copy: false,
        ..Default::default()
    };
    let mut staged = Session::builder().config(config).two_ranks_ib().build();
    let want = deliver(&mut staged, &ty, true);

    let plan = FaultPlan::empty().with_seed(5).with_rule(
        Some(FaultOp::PinnedRegister),
        FaultKind::PermanentLoss,
        1.0,
    );
    let config = MpiConfig {
        fault_plan: plan,
        ..Default::default()
    };
    let mut faulted = Session::builder().config(config).two_ranks_ib().build();
    let got = deliver(&mut faulted, &ty, true);
    assert_eq!(got, want, "staged fallback must deliver the same bytes");
    assert!(!faulted.world.mpi.offers(Capability::ZeroCopy));
    assert!(faulted.metrics().counter(counters::FALLBACK_EVENTS) >= 1);
}

/// Run one recorded transfer under `plan` and return the session's
/// final metrics.
fn metrics_under(plan: FaultPlan) -> Metrics {
    let config = MpiConfig {
        fault_plan: plan,
        ..Default::default()
    };
    let mut sess = Session::builder()
        .config(config)
        .two_ranks_two_gpus()
        .record()
        .build();
    deliver(&mut sess, &big_vec(), true);
    sess.finish()
}

#[test]
fn silent_plan_is_invisible_in_trace_and_metrics() {
    // An armed engine whose rules can never fire: the rolls happen but
    // `fault.injected` stays zero — and that must imply the run is
    // indistinguishable from one with no plan at all.
    let silent = FaultPlan::empty()
        .with_seed(9)
        .with_rule(None, FaultKind::Transient, 0.0);
    let armed = metrics_under(silent);
    let off = metrics_under(FaultPlan::empty());
    assert_eq!(armed.counter(counters::FAULT_INJECTED), 0);
    assert_eq!(armed.makespan, off.makespan, "idle faultsim cost time");
    assert_eq!(armed.counters, off.counters, "idle faultsim left a trace");
}

/// A fallible charge issued on an idle two-rank world: the run ends
/// when it lands.
type Site = fn(&mut Sim<ClusterWorld>);

const GPU: MemSpace = MemSpace::Device(GpuId(0));

fn alloc(sim: &mut Sim<ClusterWorld>, space: MemSpace, len: u64) -> Ptr {
    sim.world.memory.alloc(space, len).unwrap()
}

fn kernel_site(sim: &mut Sim<ClusterWorld>) {
    let (src, dst) = (alloc(sim, GPU, 64 << 10), alloc(sim, GPU, 32 << 10));
    let units: Vec<CopyOp> = (0..64)
        .map(|i| CopyOp {
            src_off: i * 1024,
            dst_off: i * 512,
            len: 512,
        })
        .collect();
    let spec = &sim.world.gpu_system.gpu(GpuId(0)).spec;
    let traffic = KernelTraffic::of(&units, src, dst, GpuId(0), spec);
    let stream = sim.world.gpu_system.default_stream(GpuId(0));
    let cfg = KernelConfig::default();
    gpusim::charge_transfer_kernel(sim, stream, src, dst, traffic, cfg, |_, _| {});
}

fn memcpy_site(sim: &mut Sim<ClusterWorld>) {
    let (host, dev) = (
        alloc(sim, MemSpace::Host, 1 << 20),
        alloc(sim, GPU, 1 << 20),
    );
    let stream = sim.world.gpu_system.default_stream(GpuId(0));
    gpusim::charge_memcpy(sim, stream, host, dev, 1 << 20, |_, _| {});
}

fn memcpy_2d_site(sim: &mut Sim<ClusterWorld>) {
    let (dev, host) = (
        alloc(sim, GPU, 256 * 1024),
        alloc(sim, MemSpace::Host, 256 * 1000),
    );
    let stream = sim.world.gpu_system.default_stream(GpuId(0));
    gpusim::memcpy_2d(sim, stream, dev, 1024, host, 1000, 1000, 256, |_, _| {});
}

fn am_site(sim: &mut Sim<ClusterWorld>) {
    netsim::send_am(sim, 0, 1, 4096, |_| {}).unwrap();
}

fn wire_site(sim: &mut Sim<ClusterWorld>) {
    netsim::wire_send(sim, 0, 1, 64 << 10, |_| {}).unwrap();
}

fn register_site(sim: &mut Sim<ClusterWorld>) {
    let buf = alloc(sim, MemSpace::Host, 4096);
    netsim::ensure_registered(sim, 0, buf, |_| {});
}

fn cpupack_site(sim: &mut Sim<ClusterWorld>) {
    let ty = big_vec();
    let typed = alloc(sim, MemSpace::Host, ty.extent() as u64);
    let mut eng = CpuEngine::new(&ty, 1, typed, Direction::Pack, 0).unwrap();
    eng.charge_fragment(sim, u64::MAX, None, |_, _, _| {});
}

/// The retry arithmetic of every fallible charge, pinned: a plan that
/// fails the first two attempts transiently costs each site exactly two
/// retries and two injections, and the third attempt lands at the
/// nanosecond given — three charges of the attempt's price on the idle
/// resource plus the 2 µs and 4 µs backoffs.
#[test]
fn every_fallible_charge_retries_twice_and_lands_at_its_pinned_instant() {
    let sites: [(&str, FaultOp, Site, u64); 7] = [
        ("kernel", FaultOp::KernelLaunch, kernel_site, 24_600),
        ("memcpy", FaultOp::Memcpy, memcpy_site, 338_574),
        ("memcpy_2d", FaultOp::Memcpy, memcpy_2d_site, 559_041),
        ("am", FaultOp::AmDeliver, am_site, 11_982),
        ("wire", FaultOp::WireCopy, wire_site, 42_669),
        ("register", FaultOp::RdmaRegister, register_site, 156_000),
        ("cpupack", FaultOp::CpuPack, cpupack_site, 164_787),
    ];
    for (name, op, issue, landed_ns) in sites {
        let mut world = ClusterWorld::new(1);
        world.net_system.connect(0, 1, ChannelKind::InfiniBand);
        let mut plan = FaultPlan::empty().with_rule(Some(op), FaultKind::Transient, 1.0);
        plan.rules[0].max_injections = Some(2);
        world.faults = FaultSim::from_plan(plan);
        let mut sim = Sim::new(world);
        issue(&mut sim);
        let landed = sim.run();
        let counts = (
            sim.trace.counter(counters::RETRY_ATTEMPTS),
            sim.trace.counter(counters::FAULT_INJECTED),
        );
        let want = (SimTime::from_nanos(landed_ns), (2, 2));
        assert_eq!((landed, counts), want, "{name}");
    }
}

/// The stream-triggered path rolls at three sites per transfer: the RTS
/// active message, the doorbell before the replay, and the wire leg.
/// The graph's kernel nodes are degrade-only by design (a lost kernel
/// is the doorbell's to absorb, demoting the whole replay), so an
/// any-op plan draws three rolls here and a low-rate one can inject
/// nothing. Each rolled transient retries and the same graph replays,
/// byte-equal.
#[test]
fn stream_triggered_path_rolls_at_am_doorbell_and_wire() {
    let session = |plan: &str| {
        let config = MpiConfig {
            fault_plan: FaultPlan::parse(plan).unwrap(),
            zero_copy: false,
            stream_trigger: true,
            ..Default::default()
        };
        Session::builder().config(config).two_ranks_ib().build()
    };
    // 128 KiB: the size where one re-arm beats the staged pipeline
    // (58.4 vs 76.2 µs warm on the K40). At `big_vec`'s 256 KiB the
    // pipeline wins, 98.1 vs 106.4 µs, and the tuner keeps it.
    let ty = DataType::vector(256, 64, 128, &DataType::double())
        .unwrap()
        .commit();
    let mut clean = session("");
    let want = deliver(&mut clean, &ty, true);
    for op in ["am", "doorbell", "wire", "kernel", "memcpy", "cpupack"] {
        let rolled = u64::from(matches!(op, "am" | "doorbell" | "wire"));
        let mut faulted = session(&format!("{op}:transient#1"));
        let got = deliver(&mut faulted, &ty, true);
        assert_eq!(got, want, "{op}: a retried fault must not alter delivery");
        let m = faulted.metrics();
        assert_eq!(m.counter(counters::FAULT_INJECTED), rolled, "{op}");
        assert_eq!(m.counter(counters::RETRY_ATTEMPTS), rolled, "{op}");
        assert_eq!(m.counter(names::OFFLOAD_STREAM_REPLAYS), 1, "{op}");
        assert_eq!(m.counter(names::OFFLOAD_STREAM_DEMOTIONS), 0, "{op}");
        assert_eq!(
            faulted.now() > clean.now(),
            rolled == 1,
            "{op}: a retry costs time"
        );
    }
}

/// A handshake step whose transient faults never clear spends the
/// handshake budget — five retries — and then demotes exactly as a
/// permanent loss of the same capability does: the delivered bytes are
/// the reference pack's, the capability stays lost, and
/// `fallback.events` counts the same. One row per step: the SM ring's
/// IPC open, a dense side's peer-buffer IPC open, the zero-copy pin,
/// the NIC handler and the stream doorbell.
#[test]
fn an_exhausted_handshake_budget_demotes_like_a_permanent_loss() {
    use Capability::*;
    let vector = |n, len, stride| {
        DataType::vector(n, len, stride, &DataType::double())
            .unwrap()
            .commit()
    };
    let dense = DataType::contiguous(32 << 10, &DataType::double())
        .unwrap()
        .commit();
    let nic = MpiConfig {
        nic_offload: true,
        ..Default::default()
    };
    let stream = MpiConfig {
        stream_trigger: true,
        ..Default::default()
    };
    let (coarse, medium) = (vector(64, 4096, 8192), vector(512, 32, 64));
    let plain = MpiConfig::default;
    let rows = [
        ("sm ring", Ipc, false, "k40", big_vec(), plain()),
        ("peer buffer", Ipc, false, "k40", dense, plain()),
        ("pin", ZeroCopy, true, "k40", big_vec(), plain()),
        ("nic", NicOffload, true, "a100", coarse, nic),
        ("doorbell", StreamTrigger, true, "p100", medium, stream),
    ];
    for (step, cap, ib, arch, ty, config) in rows {
        let run = |kind| {
            let config = MpiConfig {
                fault_plan: FaultPlan::empty()
                    .with_seed(17)
                    .with_rule(Some(cap.op()), kind, 1.0),
                ..config.clone()
            };
            let b = Session::builder().config(config).arch(arch);
            let mut sess = if ib {
                b.two_ranks_ib()
            } else {
                b.two_ranks_two_gpus()
            }
            .build();
            let got = deliver(&mut sess, &ty, true);
            (got, sess)
        };
        let (timed_out, mut t) = run(FaultKind::Transient);
        let (lost_bytes, mut p) = run(FaultKind::PermanentLoss);
        assert_eq!(timed_out, lost_bytes, "{step}: the same bytes");
        let lost = |sess: &Session| !sess.world.mpi.offers(cap);
        assert!(lost(&t) && lost(&p), "{step}: the capability stays lost");
        let (tm, pm) = (t.metrics(), p.metrics());
        assert_eq!(
            tm.counter(counters::RETRY_ATTEMPTS),
            5,
            "{step}: the budget's retries"
        );
        assert_eq!(
            tm.counter(counters::FAULT_INJECTED),
            6,
            "{step}: six attempts"
        );
        let fallbacks = pm.counter(counters::FALLBACK_EVENTS);
        assert!(fallbacks >= 1, "{step}: the demotion is metered");
        assert_eq!(tm.counter(counters::FALLBACK_EVENTS), fallbacks, "{step}");
    }
}

/// Two back-to-back sends of `ty` from rank 0 to rank 1 on a fresh
/// pair; both must deliver the reference pack of what was sent.
fn two_sends(sess: &mut Session, ty: &DataType) {
    let mut reqs = Vec::new();
    let mut checks = Vec::new();
    for tag in [1, 2] {
        let (sbuf, sbytes, sbase, _) = alloc_typed(sess, 0, ty, true, true);
        let (rbuf, _, rbase, rlen) = alloc_typed(sess, 1, ty, true, false);
        reqs.push(isend(sess, SendArgs::new(0, 1, sbuf, ty, 1).tag(tag)));
        reqs.push(irecv(sess, RecvArgs::new(1, 0, rbuf, ty, 1).tag(tag)));
        checks.push((reference_pack(ty, 1, &sbytes, sbase), rbuf, rbase, rlen));
    }
    wait_all(sess, &reqs).expect("transfers failed");
    for (want, rbuf, rbase, rlen) in checks {
        let got = sess.world.mem().read_vec(Ptr { offset: 0, ..rbuf }, rlen);
        assert_eq!(reference_pack(ty, 1, &got.unwrap(), rbase), want);
    }
}

/// The `[start, end]` of every recorded span named `name`, by start.
fn spans(sess: &Session, name: simcore::trace::Name) -> Vec<(SimTime, SimTime)> {
    let mut v: Vec<_> = (sess.trace.events().iter())
        .filter_map(|e| match *e {
            simcore::trace::TraceEvent::Span {
                name: n,
                start,
                end,
                ..
            } if n == name => Some((start, end)),
            _ => None,
        })
        .collect();
    v.sort();
    v
}

/// A transfer that finds its pair's handshake still in flight waits for
/// the outcome instead of running past it. Two back-to-back rendezvous
/// sends on a fresh pair: over shared memory the second pipeline starts
/// once the ring's IPC open has ended, and when that open loses the
/// capability neither send runs over IPC; over InfiniBand no fragment
/// moves before both rings are registered; with NIC offload on, the
/// pair runs one handler handshake, not one per transfer.
#[test]
fn a_transfer_waits_for_a_handshake_in_flight() {
    let ty = big_vec();
    let session = |config: MpiConfig, ib: bool| {
        let b = Session::builder().config(config).record();
        if ib {
            b.two_ranks_ib()
        } else {
            b.two_ranks_two_gpus()
        }
        .build()
    };

    let mut sm = session(MpiConfig::default(), false);
    two_sends(&mut sm, &ty);
    let pipelines = spans(&sm, names::SPAN_SM_PIPELINE);
    let opens = spans(&sm, names::SPAN_IPC_OPEN);
    assert_eq!((pipelines.len(), opens.len()), (2, 1));
    assert!(pipelines[1].0 >= opens[0].1, "{pipelines:?} vs {opens:?}");

    let lost = MpiConfig {
        fault_plan: FaultPlan::parse("ipc_open:lost").unwrap(),
        ..Default::default()
    };
    let mut sm = session(lost, false);
    two_sends(&mut sm, &ty);
    assert_eq!(spans(&sm, names::SPAN_COPYIO).len(), 2, "both renegotiate");

    let mut ib = session(MpiConfig::default(), true);
    two_sends(&mut ib, &ty);
    let registered = spans(&ib, names::SPAN_RDMA_REGISTER);
    assert_eq!(registered.len(), 2);
    let first_frag = spans(&ib, names::SPAN_FRAG)[0].0;
    assert!(registered.iter().all(|&(_, end)| first_frag >= end));

    // A handler roll that always fails transiently: one handshake per
    // pair spends one budget — six rolls — and demotes once.
    let nic = MpiConfig {
        nic_offload: true,
        fault_plan: FaultPlan::empty().with_seed(5).with_rule(
            Some(FaultOp::NicHandler),
            FaultKind::Transient,
            1.0,
        ),
        ..Default::default()
    };
    let mut sess = Session::builder()
        .config(nic)
        .arch("a100")
        .two_ranks_ib()
        .build();
    let coarse = DataType::vector(64, 4096, 8192, &DataType::double())
        .unwrap()
        .commit();
    two_sends(&mut sess, &coarse);
    let m = sess.metrics();
    assert_eq!(
        m.counter(counters::FAULT_INJECTED),
        6,
        "one handler handshake"
    );
    assert_eq!(m.counter(names::OFFLOAD_NIC_DEMOTIONS), 1);
}
