//! End-to-end correctness: arbitrary datatypes through the full MPI
//! stack, across every protocol/topology/buffer-space combination,
//! validated against the CPU reference engine.

use datatype::testutil::{arb_datatype, buffer_span, pattern, reference_pack};
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
use mpirt::connection::Handshake;
use mpirt::{MpiConfig, MpiWorld};
use simcore::rng::SimRng;
use simcore::{Counter, Sim};

fn alloc_typed(
    sim: &mut Sim<MpiWorld>,
    rank: usize,
    ty: &DataType,
    count: u64,
    device: bool,
    fill: bool,
) -> (Ptr, Vec<u8>, i64, u64) {
    let (base, len) = buffer_span(ty, count);
    let space = if device {
        MemSpace::Device(sim.world.mpi.ranks[rank].gpu)
    } else {
        MemSpace::Host
    };
    let buf = sim.world.mem().alloc(space, len.max(1) as u64).unwrap();
    let bytes = if fill { pattern(len) } else { vec![0u8; len] };
    sim.world.mem().write(buf, &bytes).unwrap();
    (buf.add(base as u64), bytes, base, len as u64)
}

/// Send `count` instances of `ty` from rank 0 to rank 1 and assert the
/// packed stream arrives intact.
fn roundtrip(mut sim: Sim<MpiWorld>, ty: &DataType, count: u64, s_dev: bool, r_dev: bool) {
    let (sbuf, sbytes, sbase, _) = alloc_typed(&mut sim, 0, ty, count, s_dev, true);
    let (rbuf, _, rbase, rlen) = alloc_typed(&mut sim, 1, ty, count, r_dev, false);
    let s = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 3,
            ty: ty.clone(),
            count,
            buf: sbuf,
        },
    );
    let r = irecv(
        &mut sim,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(3),
            ty: ty.clone(),
            count,
            buf: rbuf,
        },
    );
    wait_all(&mut sim, &[s, r]).expect("transfer failed");
    let got_buf = sim
        .world
        .mem()
        .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
        .unwrap();
    let got = reference_pack(ty, count, &got_buf, rbase);
    let want = reference_pack(ty, count, &sbytes, sbase);
    assert_eq!(got, want, "payload mismatch for {ty} x{count}");
    // The trace's delivered-bytes counter is maintained by the same
    // completion events that wrote the data, so it must equal the
    // datatype's payload exactly — a second, independent correctness
    // check on every protocol path.
    assert_eq!(
        sim.trace.counter(Counter::MpiDeliveredBytes),
        ty.size() * count,
        "trace delivered bytes for {ty} x{count}"
    );
}

fn triangular(n: u64) -> DataType {
    let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
    DataType::indexed(&lens, &disps, &DataType::double())
        .unwrap()
        .commit()
}

/// Every topology × buffer-space combination for a fixed interesting
/// type (big enough for rendezvous).
#[test]
fn protocol_matrix() {
    let t = triangular(160); // ~103 KB
    let topologies: [fn(MpiConfig) -> MpiWorld; 3] = [
        MpiWorld::two_ranks_one_gpu,
        MpiWorld::two_ranks_two_gpus,
        MpiWorld::two_ranks_ib,
    ];
    for mk in topologies {
        for (s_dev, r_dev) in [(true, true), (true, false), (false, true), (false, false)] {
            let sim = Sim::new(mk(MpiConfig::default()));
            roundtrip(sim, &t, 1, s_dev, r_dev);
        }
    }
}

/// Config ablations: IPC off, zero-copy off, staging off, tiny
/// fragments, shallow pipeline.
#[test]
fn config_ablations_preserve_correctness() {
    let t = triangular(160);
    let configs = [
        MpiConfig {
            use_ipc: false,
            ..Default::default()
        },
        MpiConfig {
            zero_copy: false,
            ..Default::default()
        },
        MpiConfig {
            recv_local_staging: false,
            ..Default::default()
        },
        MpiConfig {
            frag_size: 96 << 10,
            pipeline_depth: 2,
            ..Default::default()
        },
        MpiConfig {
            eager_limit: 0,
            ..Default::default()
        },
        MpiConfig {
            eager_limit: 1 << 30,
            ..Default::default()
        }, // force eager
    ];
    for cfg in configs {
        roundtrip(
            Sim::new(MpiWorld::two_ranks_two_gpus(cfg.clone())),
            &t,
            1,
            true,
            true,
        );
        roundtrip(Sim::new(MpiWorld::two_ranks_ib(cfg)), &t, 1, true, true);
    }
}

/// Asymmetric layouts with matching signatures.
#[test]
fn reshape_transfers() {
    let v = DataType::vector(100, 10, 20, &DataType::double())
        .unwrap()
        .commit();
    let c = DataType::contiguous(1000, &DataType::double())
        .unwrap()
        .commit();
    // vector -> contiguous and contiguous -> vector, SM and IB.
    for mk in [
        MpiWorld::two_ranks_two_gpus as fn(MpiConfig) -> MpiWorld,
        MpiWorld::two_ranks_ib,
    ] {
        for (a, b) in [(&v, &c), (&c, &v)] {
            let mut sim = Sim::new(mk(MpiConfig::default()));
            let (sbuf, sbytes, sbase, _) = alloc_typed(&mut sim, 0, a, 1, true, true);
            let (rbuf, _, rbase, rlen) = alloc_typed(&mut sim, 1, b, 1, true, false);
            let s = isend(
                &mut sim,
                SendArgs {
                    from: 0,
                    to: 1,
                    tag: 9,
                    ty: a.clone(),
                    count: 1,
                    buf: sbuf,
                },
            );
            let r = irecv(
                &mut sim,
                RecvArgs {
                    rank: 1,
                    src: Some(0),
                    tag: Some(9),
                    ty: b.clone(),
                    count: 1,
                    buf: rbuf,
                },
            );
            wait_all(&mut sim, &[s, r]).expect("transfer failed");
            let got_buf = sim
                .world
                .mem()
                .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
                .unwrap();
            assert_eq!(
                reference_pack(b, 1, &got_buf, rbase),
                reference_pack(a, 1, &sbytes, sbase)
            );
            assert_eq!(sim.trace.counter(Counter::MpiDeliveredBytes), a.size());
        }
    }
}

/// Several messages in flight between the same pair, distinct tags,
/// interleaved posting order.
#[test]
fn multiple_concurrent_messages() {
    let t = triangular(96);
    let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
    let mut reqs = Vec::new();
    let mut bufs = Vec::new();
    for tag in 0..4u64 {
        let (sbuf, sbytes, sbase, _) = alloc_typed(&mut sim, 0, &t, 1, true, true);
        let (rbuf, _, rbase, rlen) = alloc_typed(&mut sim, 1, &t, 1, true, false);
        bufs.push((sbytes, sbase, rbuf, rbase, rlen));
        // Post receives for even tags *before* the sends, odd after.
        if tag % 2 == 0 {
            reqs.push(irecv(
                &mut sim,
                RecvArgs {
                    rank: 1,
                    src: Some(0),
                    tag: Some(tag),
                    ty: t.clone(),
                    count: 1,
                    buf: rbuf,
                },
            ));
        }
        reqs.push(isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag,
                ty: t.clone(),
                count: 1,
                buf: sbuf,
            },
        ));
        if tag % 2 == 1 {
            reqs.push(irecv(
                &mut sim,
                RecvArgs {
                    rank: 1,
                    src: Some(0),
                    tag: Some(tag),
                    ty: t.clone(),
                    count: 1,
                    buf: rbuf,
                },
            ));
        }
    }
    wait_all(&mut sim, &reqs).expect("transfers failed");
    assert_eq!(sim.trace.counter(Counter::MpiDeliveredBytes), 4 * t.size());
    for (sbytes, sbase, rbuf, rbase, rlen) in bufs {
        let got_buf = sim
            .world
            .mem()
            .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
            .unwrap();
        assert_eq!(
            reference_pack(&t, 1, &got_buf, rbase),
            reference_pack(&t, 1, &sbytes, sbase)
        );
    }
}

/// Repeated transfers reuse connections and caches without corruption.
#[test]
fn repeated_transfers_stay_correct() {
    let t = triangular(128);
    let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
    let (sbuf, sbytes, sbase, _) = alloc_typed(&mut sim, 0, &t, 1, true, true);
    let (rbuf, _, rbase, rlen) = alloc_typed(&mut sim, 1, &t, 1, true, false);
    for tag in 0..5u64 {
        let s = isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag,
                ty: t.clone(),
                count: 1,
                buf: sbuf,
            },
        );
        let r = irecv(
            &mut sim,
            RecvArgs {
                rank: 1,
                src: Some(0),
                tag: Some(tag),
                ty: t.clone(),
                count: 1,
                buf: rbuf,
            },
        );
        wait_all(&mut sim, &[s, r]).expect("transfer failed");
    }
    let got_buf = sim
        .world
        .mem()
        .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
        .unwrap();
    assert_eq!(
        reference_pack(&t, 1, &got_buf, rbase),
        reference_pack(&t, 1, &sbytes, sbase)
    );
    // Exactly one SM connection was established.
    let sm = (sim.world.mpi.handshakes.keys()).filter(|k| matches!(k, Handshake::Sm(..)));
    assert_eq!(sm.count(), 1);
    assert_eq!(sim.trace.counter(Counter::MpiDeliveredBytes), 5 * t.size());
}

/// Random datatype trees through the full GPU-to-GPU SM stack.
#[test]
fn random_types_through_sm_stack() {
    let mut r = SimRng::new(0xe2e_0001);
    for _ in 0..48 {
        let ty = arb_datatype(&mut r).commit();
        let count = r.range_u64(1, 3);
        let sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        roundtrip(sim, &ty, count, true, true);
    }
}

/// Random datatype trees through the IB copy-in/out stack with a
/// small fragment size so even modest types pipeline.
#[test]
fn random_types_through_ib_stack() {
    let mut r = SimRng::new(0xe2e_0002);
    for _ in 0..48 {
        let ty = arb_datatype(&mut r).commit();
        let count = r.range_u64(1, 3);
        let cfg = MpiConfig {
            eager_limit: 64,
            frag_size: 4096,
            ..Default::default()
        };
        let sim = Sim::new(MpiWorld::two_ranks_ib(cfg));
        roundtrip(sim, &ty, count, true, true);
    }
}

/// Host-resident random types exercise the CPU convertor path.
#[test]
fn random_types_host_to_host() {
    let mut r = SimRng::new(0xe2e_0003);
    for _ in 0..48 {
        let ty = arb_datatype(&mut r).commit();
        let count = r.range_u64(1, 3);
        let cfg = MpiConfig {
            eager_limit: 64,
            frag_size: 4096,
            ..Default::default()
        };
        let sim = Sim::new(MpiWorld::two_ranks_ib(cfg));
        roundtrip(sim, &ty, count, false, false);
    }
}
