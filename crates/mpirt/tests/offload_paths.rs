//! End-to-end guarantees for the offload path classes.
//!
//! Four properties:
//!
//! * **byte identity** — NicOffload and StreamTriggered deliver exactly
//!   the bytes the GPU-pack baseline delivers, across seeded random
//!   datatypes;
//! * **one landing** — each offload transfer lands through the
//!   executor's one move, like every other plan: every delivered byte is
//!   written once, two replays of one capture never share bytes, and a
//!   receive buffer that cannot take the message — freed under the
//!   transfer, or short — fails it with a typed error;
//! * **fault demotion** — a lost NIC handler / doorbell demotes to the
//!   GPU-pack pipeline byte-equal and *sticky* (no re-attempt on later
//!   transfers), mirroring the SmIpc → CopyInOut demotion;
//! * **defaults untouched** — with both knobs off, none of the offload
//!   machinery runs: zero counters, no handlers, no programs, no
//!   captures, so default runs stay byte-identical to the seed.

use datatype::convertor::{pack_all, unpack_all};
use datatype::testutil::buffer_span;
use datatype::DataType;
use faultsim::{FaultKind, FaultOp, FaultPlan};
use gpusim::GpuWorld as _;
use memsim::{GpuId, MemSpace};
use mpirt::connection::{Capability, Handshake};
use mpirt::shape::ShapeTable;
use mpirt::{irecv, isend, wait_all, MpiConfig, MpiError, MpiWorld, RecvArgs, SendArgs, Session};
use simcore::rng::SimRng;
use simcore::Counter;

/// The handshake table's key for the NIC handler of rank pair 0 → 1.
const NIC_HANDLER: Handshake = Handshake::NicHandler(0, 1);

/// Random coarse-grained indexed layout (1–4 KiB blocks, ~100 KiB
/// total): large enough for rendezvous, block-granular enough that the
/// NIC descriptor-issue cost stays negligible against the stream.
fn random_coarse_ty(rng: &mut SimRng) -> DataType {
    let n = rng.range(24, 40);
    let mut lens = Vec::new();
    let mut displs = Vec::new();
    let mut off: i64 = 0;
    for _ in 0..n {
        let len = rng.range_u64(128, 512); // doubles: 1–4 KiB blocks
        lens.push(len);
        displs.push(off);
        off += len as i64 + rng.range_u64(0, 64) as i64;
    }
    DataType::indexed(&lens, &displs, &DataType::double())
        .unwrap()
        .commit()
}

/// Random latency-bound medium layout (~128 KiB in 192–320 B blocks):
/// the shape where one stream re-arm beats two kernel launches plus the
/// per-fragment active message.
fn random_medium_ty(rng: &mut SimRng) -> DataType {
    let n = rng.range(400, 560);
    let mut lens = Vec::new();
    let mut displs = Vec::new();
    let mut off: i64 = 0;
    for _ in 0..n {
        let len = rng.range_u64(24, 40); // doubles: 192–320 B blocks
        lens.push(len);
        displs.push(off);
        off += len as i64 + rng.range_u64(0, 8) as i64;
    }
    DataType::indexed(&lens, &displs, &DataType::double())
        .unwrap()
        .commit()
}

/// Run `iters` identical device→device IB transfers of `ty` and return
/// the receiver's final buffer bytes plus the session metrics.
fn run_transfers(
    arch: &str,
    cfg: MpiConfig,
    ty: &DataType,
    seed: u64,
    iters: usize,
) -> (Vec<u8>, simcore::Metrics, Session) {
    let mut sess = Session::builder()
        .two_ranks_ib()
        .arch(arch)
        .config(cfg)
        .build();
    let (base, len) = buffer_span(ty, 1);
    assert_eq!(base, 0, "generators keep displacements non-negative");
    let sbuf = sess
        .world
        .mem()
        .alloc(MemSpace::Device(GpuId(0)), len as u64)
        .unwrap();
    let rbuf = sess
        .world
        .mem()
        .alloc(MemSpace::Device(GpuId(1)), len as u64)
        .unwrap();
    let mut bytes = vec![0u8; len];
    simcore::rng::fill_bytes(seed, &mut bytes);
    sess.world.mem().write(sbuf, &bytes).unwrap();
    for _ in 0..iters {
        let s = isend(&mut sess, SendArgs::new(0, 1, sbuf, ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, rbuf, ty, 1));
        wait_all(&mut sess, &[s, r]).unwrap();
    }
    let got = sess.world.mem().read_vec(rbuf, len as u64).unwrap();
    let m = sess.metrics();
    (got, m, sess)
}

#[test]
fn nic_offload_is_byte_identical_to_gpu_pack() {
    for seed in [11u64, 23, 47] {
        let mut rng = SimRng::new(seed);
        let ty = random_coarse_ty(&mut rng);
        assert!(ty.size() > 64 << 10, "rendezvous-sized: {}", ty.size());
        let (base_bytes, base_m, _) = run_transfers("a100", MpiConfig::default(), &ty, seed, 1);
        assert_eq!(base_m.counter(Counter::OffloadNicPrograms), 0);
        let cfg = MpiConfig {
            nic_offload: true,
            ..MpiConfig::default()
        };
        let (nic_bytes, nic_m, _) = run_transfers("a100", cfg, &ty, seed, 1);
        assert!(
            nic_m.counter(Counter::OffloadNicPrograms) >= 1,
            "seed {seed}: the tuner must route this shape to the NIC"
        );
        assert_eq!(nic_m.counter(Counter::OffloadNicBytes), ty.size());
        assert_eq!(nic_bytes, base_bytes, "seed {seed}: delivery differs");
        // One gather/scatter, like the charged GPU-pack pipeline: every
        // delivered byte is written once.
        for m in [&base_m, &nic_m] {
            assert_eq!(m.counter(Counter::MemsimBytesMoved), ty.size());
        }
    }
}

#[test]
fn stream_trigger_is_byte_identical_and_captures_once() {
    for seed in [5u64, 17] {
        let mut rng = SimRng::new(seed);
        let ty = random_medium_ty(&mut rng);
        assert!(ty.size() > 64 << 10, "rendezvous-sized: {}", ty.size());
        let (base_bytes, base_m, _) = run_transfers("p100", MpiConfig::default(), &ty, seed, 2);
        assert_eq!(base_m.counter(Counter::OffloadStreamReplays), 0);
        let cfg = MpiConfig {
            stream_trigger: true,
            ..MpiConfig::default()
        };
        let (st_bytes, st_m, _) = run_transfers("p100", cfg, &ty, seed, 2);
        assert_eq!(
            st_m.counter(Counter::OffloadStreamReplays),
            2,
            "seed {seed}: both iterations replay the graph"
        );
        assert_eq!(
            st_m.counter(Counter::OffloadStreamCaptures),
            1,
            "seed {seed}: the second iteration reuses the capture"
        );
        assert_eq!(st_bytes, base_bytes, "seed {seed}: delivery differs");
        // The graph kernels only charge: the executor lands the
        // capture's one move, and each delivered byte is written once.
        assert_eq!(
            st_m.counter(Counter::MemsimBytesMoved),
            st_m.counter(Counter::MpiDeliveredBytes)
        );
    }
}

#[test]
fn nic_handler_loss_demotes_byte_equal_and_sticky() {
    let mut rng = SimRng::new(99);
    let ty = random_coarse_ty(&mut rng);
    let (base_bytes, _, _) = run_transfers("a100", MpiConfig::default(), &ty, 99, 2);
    let cfg = MpiConfig {
        nic_offload: true,
        fault_plan: FaultPlan::empty().with_seed(7).with_rule(
            Some(FaultOp::NicHandler),
            FaultKind::PermanentLoss,
            1.0,
        ),
        ..MpiConfig::default()
    };
    let (got, m, sess) = run_transfers("a100", cfg, &ty, 99, 2);
    assert_eq!(got, base_bytes, "demoted delivery must stay byte-equal");
    assert!(!sess.world.mpi.offers(Capability::NicOffload));
    assert_eq!(
        m.counter(Counter::OffloadNicDemotions),
        1,
        "sticky: the second transfer never re-attempts the handler"
    );
    assert_eq!(m.counter(Counter::OffloadNicPrograms), 0);
    assert!(!sess.world.mpi.handshakes.contains_key(&NIC_HANDLER));
}

#[test]
fn doorbell_loss_demotes_byte_equal_and_sticky() {
    let mut rng = SimRng::new(31);
    let ty = random_medium_ty(&mut rng);
    let (base_bytes, _, _) = run_transfers("p100", MpiConfig::default(), &ty, 31, 2);
    let cfg = MpiConfig {
        stream_trigger: true,
        fault_plan: FaultPlan::empty().with_seed(13).with_rule(
            Some(FaultOp::StreamDoorbell),
            FaultKind::PermanentLoss,
            1.0,
        ),
        ..MpiConfig::default()
    };
    let (got, m, sess) = run_transfers("p100", cfg, &ty, 31, 2);
    assert_eq!(got, base_bytes, "demoted delivery must stay byte-equal");
    assert!(!sess.world.mpi.offers(Capability::StreamTrigger));
    assert_eq!(
        m.counter(Counter::OffloadStreamDemotions),
        1,
        "sticky: the second transfer never re-rings the doorbell"
    );
    assert_eq!(m.counter(Counter::OffloadStreamReplays), 0);
    let shapes = sess.world.mpi.shapes.entries();
    assert!(shapes.iter().all(|(_, e)| e.captures.is_empty()));
}

#[test]
fn transient_faults_retry_without_demoting() {
    let mut rng = SimRng::new(61);
    let ty = random_coarse_ty(&mut rng);
    let (base_bytes, _, _) = run_transfers("a100", MpiConfig::default(), &ty, 61, 1);
    let mut plan = FaultPlan::empty().with_seed(21).with_rule(
        Some(FaultOp::NicHandler),
        FaultKind::Transient,
        1.0,
    );
    plan.rules[0].max_injections = Some(2);
    let cfg = MpiConfig {
        nic_offload: true,
        fault_plan: plan,
        ..MpiConfig::default()
    };
    let (got, m, sess) = run_transfers("a100", cfg, &ty, 61, 1);
    assert_eq!(got, base_bytes);
    assert!(sess.world.mpi.offers(Capability::NicOffload));
    assert_eq!(m.counter(Counter::OffloadNicDemotions), 0);
    assert!(
        m.counter(Counter::OffloadNicPrograms) >= 1,
        "retries then offloads"
    );
}

#[test]
fn defaults_leave_offload_machinery_untouched() {
    let mut rng = SimRng::new(77);
    let ty = random_coarse_ty(&mut rng);
    let (_, m, sess) = run_transfers("a100", MpiConfig::default(), &ty, 77, 2);
    for c in [
        Counter::OffloadNicPrograms,
        Counter::OffloadNicBytes,
        Counter::OffloadNicDemotions,
        Counter::OffloadStreamReplays,
        Counter::OffloadStreamCaptures,
        Counter::OffloadStreamDemotions,
    ] {
        assert_eq!(m.counter(c), 0, "{c} must stay silent by default");
    }
    assert!(!sess.world.mpi.handshakes.contains_key(&NIC_HANDLER));
    let shapes = sess.world.mpi.shapes.entries();
    assert!(shapes
        .iter()
        .all(|(_, e)| e.program.is_none() && e.captures.is_empty()));
}

/// A device buffer spanning one `ty` on `rank`'s GPU of a two-rank IB
/// session, filled from `seed`, and the bytes written.
fn filled(sess: &mut Session, rank: u32, ty: &DataType, seed: u64) -> (memsim::Ptr, Vec<u8>) {
    let len = buffer_span(ty, 1).1;
    let buf = (sess.world.mem())
        .alloc(MemSpace::Device(GpuId(rank)), len as u64)
        .unwrap();
    let mut bytes = vec![0u8; len];
    simcore::rng::fill_bytes(seed, &mut bytes);
    sess.world.mem().write(buf, &bytes).unwrap();
    (buf, bytes)
}

/// Two in-flight replays of one warm capture, from two send buffers into
/// two receive buffers, each deliver their own sender's bytes: the
/// capture bakes the control path and no byte path of its own.
#[test]
fn concurrent_replays_of_one_capture_deliver_their_own_bytes() {
    let ty = random_medium_ty(&mut SimRng::new(5));
    let cfg = MpiConfig {
        stream_trigger: true,
        ..MpiConfig::default()
    };
    let b = Session::builder().two_ranks_ib().arch("p100").config(cfg);
    let mut sess = b.build();
    let (a, a_bytes) = filled(&mut sess, 0, &ty, 1);
    let (b, b_bytes) = filled(&mut sess, 0, &ty, 2);
    let (x, x_bytes) = filled(&mut sess, 1, &ty, 3);
    let (y, y_bytes) = filled(&mut sess, 1, &ty, 4);
    // The first transfer captures the shape.
    let warm = [
        isend(&mut sess, SendArgs::new(0, 1, a, &ty, 1)),
        irecv(&mut sess, RecvArgs::new(1, 0, x, &ty, 1)),
    ];
    wait_all(&mut sess, &warm).unwrap();
    sess.world.mem().write(x, &x_bytes).unwrap();
    let reqs = [
        isend(&mut sess, SendArgs::new(0, 1, a, &ty, 1)),
        isend(&mut sess, SendArgs::new(0, 1, b, &ty, 1)),
        irecv(&mut sess, RecvArgs::new(1, 0, x, &ty, 1)),
        irecv(&mut sess, RecvArgs::new(1, 0, y, &ty, 1)),
    ];
    wait_all(&mut sess, &reqs).unwrap();
    let m = sess.metrics();
    assert_eq!(m.counter(Counter::OffloadStreamCaptures), 1);
    assert_eq!(m.counter(Counter::OffloadStreamReplays), 3);
    for (name, recv, blank, sent) in [("x", x, x_bytes, a_bytes), ("y", y, y_bytes, b_bytes)] {
        let mut want = blank.clone();
        unpack_all(&ty, 1, &mut want, 0, &pack_all(&ty, 1, &sent, 0));
        let got = sess.world.mem().read_vec(recv, blank.len() as u64).unwrap();
        assert!(got == want, "{name} holds another sender's bytes");
    }
}

/// With room for one shape-table entry, two shapes take turns: each
/// evicts the other's capture, and the shape that comes back captures
/// again — one capture more, which costs exactly one capture's virtual
/// time over a replay of a kept one — and still lands the CPU
/// reference's bytes.
#[test]
fn an_evicted_capture_is_made_again_at_the_price_of_one_capture() {
    let [a, b] = [5, 17].map(|seed| random_medium_ty(&mut SimRng::new(seed)));
    let cfg = MpiConfig {
        stream_trigger: true,
        ..MpiConfig::default()
    };
    let run = |one_entry: bool| {
        let builder = Session::builder().two_ranks_ib().arch("p100");
        let mut sess = builder.config(cfg.clone()).build();
        if one_entry {
            sess.world.mpi.shapes = ShapeTable::with_limits(u64::MAX, 1);
        }
        let mut took = Vec::new();
        for (i, ty) in [&a, &b, &a].into_iter().enumerate() {
            let (sbuf, sent) = filled(&mut sess, 0, ty, i as u64);
            let (rbuf, blank) = filled(&mut sess, 1, ty, 10 + i as u64);
            let then = sess.now();
            let reqs = [
                isend(&mut sess, SendArgs::new(0, 1, sbuf, ty, 1)),
                irecv(&mut sess, RecvArgs::new(1, 0, rbuf, ty, 1)),
            ];
            wait_all(&mut sess, &reqs).unwrap();
            took.push(sess.now() - then);
            let mut want = blank.clone();
            unpack_all(ty, 1, &mut want, 0, &pack_all(ty, 1, &sent, 0));
            let got = sess.world.mem().read_vec(rbuf, blank.len() as u64).unwrap();
            assert!(
                got == want,
                "transfer {i}: bytes differ from the CPU reference"
            );
        }
        let m = sess.metrics();
        let counted = [Counter::OffloadStreamCaptures, Counter::MpirtShapeEvicted];
        (took, counted.map(|c| m.counter(c)))
    };
    let (kept, counted) = run(false);
    assert_eq!(counted, [2, 0], "captures, evictions");
    let (one, counted) = run(true);
    assert_eq!(counted, [3, 2], "captures, evictions");
    assert_eq!(one[..2], kept[..2], "the first capture of each shape");
    let sess = Session::builder().two_ranks_ib().arch("p100").build();
    let issue = sess.world.gpus_ref().topo.stream_op_issue.as_nanos();
    let capture = 5 * issue; // trigger, pack, doorbell, unpack, completion
    assert_eq!((one[2] - kept[2]).as_nanos(), capture, "the re-capture");
}

/// A receive buffer that cannot take the message fails an offload
/// transfer at its landing, for either class: one freed after the
/// transfer's stage was issued, or one a double short of the type's
/// span. Both requests resolve with a typed memory error, nothing moves
/// or counts as delivered, and a short buffer is left as it was.
#[test]
fn a_receive_buffer_that_cannot_take_an_offload_transfer_is_a_typed_error() {
    let nic = MpiConfig {
        nic_offload: true,
        ..MpiConfig::default()
    };
    let stream = MpiConfig {
        stream_trigger: true,
        ..MpiConfig::default()
    };
    let rows = [
        ("nic", "a100", nic, random_coarse_ty(&mut SimRng::new(11))),
        (
            "stream",
            "p100",
            stream,
            random_medium_ty(&mut SimRng::new(5)),
        ),
    ];
    for (class, arch, cfg, ty) in rows {
        for freed in [true, false] {
            let row = format!("{class} freed={freed}");
            let b = Session::builder().two_ranks_ib().arch(arch);
            let mut sess = b.config(cfg.clone()).build();
            let (sbuf, _) = filled(&mut sess, 0, &ty, 1);
            let len = buffer_span(&ty, 1).1 as u64 - if freed { 0 } else { 8 };
            let rbuf = (sess.world.mem())
                .alloc(MemSpace::Device(GpuId(1)), len)
                .unwrap();
            let blank = vec![9u8; len as usize];
            sess.world.mem().write(rbuf, &blank).unwrap();
            let reqs = [
                isend(&mut sess, SendArgs::new(0, 1, sbuf, &ty, 1)),
                irecv(&mut sess, RecvArgs::new(1, 0, rbuf, &ty, 1)),
            ];
            // The program is compiled in the event that issues the
            // transfer's one stage.
            let compiled = |w: &MpiWorld| {
                w.mpi
                    .shapes
                    .entries()
                    .iter()
                    .any(|(_, e)| e.program.is_some())
            };
            let issued = sess.run_until(compiled);
            assert!(issued, "{row}: the shape must take the offload class");
            if freed {
                sess.world.mem().free(rbuf).unwrap();
            }
            assert!(matches!(wait_all(&mut sess, &reqs), Err(MpiError::Mem(_))));
            for req in &reqs {
                let res = req.result();
                assert!(matches!(res, Some(Err(MpiError::Mem(_)))), "{row}: {res:?}");
            }
            if !freed {
                assert_eq!(sess.world.mem().read_vec(rbuf, len).unwrap(), blank);
            }
            let m = sess.metrics();
            assert_eq!(m.counter(Counter::MpiDeliveredBytes), 0, "{row}");
            assert_eq!(m.counter(Counter::MemsimBytesMoved), 0, "{row}");
        }
    }
}
