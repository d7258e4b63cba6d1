//! Failure injection across the stack: wrong usage must fail loudly and
//! precisely, not corrupt data.

use datatype::DataType;
use devengine::{EngineConfig, OptimizerConfig};
use gpusim::GpuWorld as _;
use memsim::{GpuId, MemError, MemSpace};
use mpirt::api::{irecv, isend, RecvArgs, SendArgs};
use mpirt::{MpiConfig, MpiError, MpiWorld};
use simcore::Sim;

fn world() -> Sim<MpiWorld> {
    Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()))
}

#[test]
fn signature_mismatch_is_reported_not_corrupted() {
    let mut sim = world();
    let send_ty = DataType::contiguous(20_000, &DataType::double())
        .unwrap()
        .commit();
    let recv_ty = DataType::contiguous(40_000, &DataType::float())
        .unwrap()
        .commit();
    let sbuf = sim
        .world
        .mem()
        .alloc(MemSpace::Host, send_ty.size())
        .unwrap();
    let rbuf = sim
        .world
        .mem()
        .alloc(MemSpace::Host, recv_ty.size())
        .unwrap();
    sim.world.mem().write(sbuf, &vec![7u8; 160_000]).unwrap();
    let s = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 0,
            ty: send_ty,
            count: 1,
            buf: sbuf,
        },
    );
    let r = irecv(
        &mut sim,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(0),
            ty: recv_ty.clone(),
            count: 1,
            buf: rbuf,
        },
    );
    sim.run();
    assert!(matches!(s.result(), Some(Err(MpiError::Type(_)))));
    assert!(matches!(r.result(), Some(Err(MpiError::Type(_)))));
    // Receive buffer untouched.
    let got = sim.world.mem().read_vec(rbuf, recv_ty.size()).unwrap();
    assert!(
        got.iter().all(|&b| b == 0),
        "failed receive must not write data"
    );
}

#[test]
fn eager_signature_mismatch_fails_receiver_only() {
    let mut sim = world();
    let send_ty = DataType::contiguous(8, &DataType::double())
        .unwrap()
        .commit();
    let recv_ty = DataType::contiguous(16, &DataType::int()).unwrap().commit();
    let sbuf = sim.world.mem().alloc(MemSpace::Host, 64).unwrap();
    let rbuf = sim.world.mem().alloc(MemSpace::Host, 64).unwrap();
    let s = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 0,
            ty: send_ty,
            count: 1,
            buf: sbuf,
        },
    );
    let r = irecv(
        &mut sim,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(0),
            ty: recv_ty,
            count: 1,
            buf: rbuf,
        },
    );
    sim.run();
    // Eager sends complete once buffered (MPI semantics) …
    assert!(matches!(s.result(), Some(Ok(64))));
    // … but the mismatched receive fails.
    assert!(matches!(r.result(), Some(Err(MpiError::Type(_)))));
}

/// An eager message that does not fit the buffer it lands in fails
/// the receive with a typed error at the landing instant — host or
/// device — and gives its bounce buffer back to the sender's lease; the
/// send, complete since the bytes were buffered, stands.
#[test]
fn eager_landing_outside_the_buffer_is_a_typed_error() {
    let ty = DataType::contiguous(64, &DataType::double())
        .unwrap()
        .commit();
    for space in [MemSpace::Host, MemSpace::Device(GpuId(1))] {
        let mut sim = world();
        let sbuf = sim.world.mem().alloc(MemSpace::Host, ty.size()).unwrap();
        let rbuf = sim.world.mem().alloc(space, ty.size() / 2).unwrap();
        // The failed landing's bounce goes back to the sender's lease,
        // and the next message leases it again: over ten failures the
        // host pool holds one bounce, no more.
        let mut after_first = None;
        for attempt in 0..10 {
            let s = isend(&mut sim, SendArgs::new(0, 1, sbuf, &ty, 1));
            let r = irecv(&mut sim, RecvArgs::new(1, 0, rbuf, &ty, 1));
            sim.run();
            assert_eq!(s.expect_bytes(), ty.size());
            assert!(
                matches!(r.result(), Some(Err(MpiError::Mem(_)))),
                "{space:?}: {:?}",
                r.result()
            );
            let used = sim.world.mem().pool(MemSpace::Host).used();
            assert_eq!(
                *after_first.get_or_insert(used),
                used,
                "{space:?}: failure {attempt}"
            );
        }
        assert_eq!(sim.world.mpi.ranks[0].leases.idle(), 1, "{space:?}");
    }
}

/// A zero fragment size or ring depth is a typed error on both
/// requests, raised before any handshake — with the tuner on, which
/// cannot price a degenerate shape, or off, where nothing else stops
/// zero-byte fragments — within a few events, and the receive buffer
/// stays untouched.
#[test]
fn zero_fragment_size_or_ring_depth_is_a_typed_error() {
    let ty = DataType::vector(65_536, 2, 4, &DataType::double())
        .unwrap()
        .commit();
    assert_eq!(ty.size(), 1 << 20);
    let cases = [
        ("frag_size", 0, 4, true),
        ("frag_size", 0, 4, false),
        ("pipeline_depth", 512 << 10, 0, true),
    ];
    for (field, frag_size, pipeline_depth, autotune) in cases {
        let config = MpiConfig {
            frag_size,
            pipeline_depth,
            engine: EngineConfig {
                optimizer: OptimizerConfig {
                    autotune,
                    ..OptimizerConfig::enabled()
                },
                ..EngineConfig::default()
            },
            ..MpiConfig::default()
        };
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(config));
        let len = ty.extent() as u64;
        let sbuf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let rbuf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(GpuId(1)), len)
            .unwrap();
        sim.world
            .mem()
            .write(sbuf, &vec![7u8; len as usize])
            .unwrap();
        let s = isend(&mut sim, SendArgs::new(0, 1, sbuf, &ty, 1));
        let r = irecv(&mut sim, RecvArgs::new(1, 0, rbuf, &ty, 1));
        sim.run();
        let case = format!("{field} = 0, autotune {autotune}");
        assert!(
            sim.executed_events() < 16,
            "{case}: {} events",
            sim.executed_events()
        );
        for req in [&s, &r] {
            match req.result() {
                Some(Err(MpiError::Faulted(msg))) => assert!(msg.contains(field), "{case}: {msg}"),
                other => panic!("{case}: {other:?}"),
            }
        }
        let got = sim.world.mem().read_vec(rbuf, len).unwrap();
        assert!(
            got.iter().all(|&b| b == 0),
            "{case}: receive buffer written"
        );
    }
}

#[test]
fn device_oom_is_an_error_not_a_crash() {
    let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
    let gpu = MemSpace::Device(GpuId(0));
    let cap = sim.world.mem_ref().pool(gpu).capacity();
    let err = sim.world.mem().alloc(gpu, cap + 1).unwrap_err();
    assert!(matches!(err, MemError::OutOfMemory { .. }));
}

#[test]
fn freed_buffer_cannot_be_read() {
    let mut sim = world();
    let buf = sim.world.mem().alloc(MemSpace::Host, 128).unwrap();
    sim.world.mem().free(buf).unwrap();
    assert!(matches!(
        sim.world.mem().read_vec(buf, 1),
        Err(MemError::InvalidPointer(_))
    ));
}

#[test]
fn unmatched_rendezvous_is_detected_as_stall() {
    let mut sim = world();
    let t = DataType::contiguous(100_000, &DataType::double())
        .unwrap()
        .commit();
    let sbuf = sim.world.mem().alloc(MemSpace::Host, t.size()).unwrap();
    let s = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 0,
            ty: t,
            count: 1,
            buf: sbuf,
        },
    );
    // No matching receive: wait_all must detect the stall rather than
    // spin forever — and report it as a typed error, not a panic.
    let err = mpirt::api::wait_all(&mut sim, &[s]).unwrap_err();
    assert_eq!(err, MpiError::Stalled);
}

#[test]
fn wrong_tag_leaves_message_unexpected() {
    let mut sim = world();
    let t = DataType::contiguous(8, &DataType::double())
        .unwrap()
        .commit();
    let sbuf = sim.world.mem().alloc(MemSpace::Host, 64).unwrap();
    let rbuf = sim.world.mem().alloc(MemSpace::Host, 64).unwrap();
    let _s = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 5,
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
            tag: Some(6),
            ty: t,
            count: 1,
            buf: rbuf,
        },
    );
    sim.run();
    assert!(!r.is_complete(), "mismatched tag must not match");
    assert_eq!(sim.world.mpi.matcher.pending(), 2);
}

#[test]
fn uncommitted_datatype_rejected_at_api_boundary() {
    let mut sim = world();
    let raw = DataType::vector(4, 1, 2, &DataType::double()).unwrap(); // no commit
    let buf = sim.world.mem().alloc(MemSpace::Host, 1024).unwrap();
    let s = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 0,
            ty: raw.clone(),
            count: 1,
            buf,
        },
    );
    let r = irecv(
        &mut sim,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(0),
            ty: raw,
            count: 1,
            buf,
        },
    );
    assert!(matches!(s.result(), Some(Err(MpiError::Type(_)))));
    assert!(matches!(r.result(), Some(Err(MpiError::Type(_)))));
}

/// A send to its own rank completes at once with a typed error naming
/// the argument; nothing is charged.
#[test]
fn self_send_rejected() {
    let mut sim = world();
    let t = DataType::double().commit();
    let buf = sim.world.mem().alloc(MemSpace::Host, 8).unwrap();
    let s = isend(&mut sim, SendArgs::new(0, 0, buf, &t, 1));
    match s.result() {
        Some(Err(MpiError::Faulted(msg))) => {
            assert!(
                msg.contains("SendArgs::to") && msg.contains("self-sends"),
                "{msg}"
            )
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(sim.run(), simcore::SimTime::ZERO, "nothing was charged");
}

/// A rank argument outside the job completes its request at once with a
/// typed error naming the argument, on host and device buffers alike, before anything is
/// charged or any per-rank state grows.
#[test]
fn out_of_range_rank_is_a_typed_error() {
    let t = DataType::vector(1024, 8, 16, &DataType::double())
        .unwrap()
        .commit();
    for space in [MemSpace::Host, MemSpace::Device(GpuId(0))] {
        let mut sim = world();
        let buf = sim.world.mem().alloc(space, 1 << 20).unwrap();
        let reqs = [
            (
                "SendArgs::from",
                isend(&mut sim, SendArgs::new(2, 1, buf, &t, 1)),
            ),
            (
                "SendArgs::to",
                isend(&mut sim, SendArgs::new(0, 7, buf, &t, 1)),
            ),
            (
                "RecvArgs::rank",
                irecv(&mut sim, RecvArgs::new(2, 0, buf, &t, 1)),
            ),
            (
                "RecvArgs::src",
                irecv(&mut sim, RecvArgs::new(1, 5, buf, &t, 1)),
            ),
        ];
        for (arg, req) in reqs {
            match req.result() {
                Some(Err(MpiError::Faulted(msg))) => assert!(msg.contains(arg), "{msg}"),
                other => panic!("{space:?} {arg}: {other:?}"),
            }
        }
        assert_eq!(
            sim.run(),
            simcore::SimTime::ZERO,
            "{space:?}: nothing was charged"
        );
        assert_eq!(
            sim.world.mpi.matcher.pending(),
            0,
            "{space:?}: nothing queued"
        );
        assert!(
            sim.world.cluster.cpus.len() <= 2,
            "{space:?}: no CPU was added"
        );
    }
}

/// A user buffer shorter than its type is `MpiError::Mem` on every path
/// that reads it outside a rendezvous — an eager send from host or
/// device memory, and the self-copy of allgather and of alltoall —
/// where the rendezvous already fails that way.
#[test]
fn a_short_user_buffer_is_a_typed_error_on_every_path() {
    let ty = DataType::contiguous(64, &DataType::double())
        .unwrap()
        .commit();
    for space in [MemSpace::Host, MemSpace::Device(GpuId(0))] {
        let mut sim = world();
        let sbuf = sim.world.mem().alloc(space, ty.size() / 2).unwrap();
        let s = isend(&mut sim, SendArgs::new(0, 1, sbuf, &ty, 1));
        sim.run();
        assert!(
            matches!(s.result(), Some(Err(MpiError::Mem(_)))),
            "eager from {space:?}: {:?}",
            s.result()
        );
    }
    // The last rank's own block is short; every block it sends is not.
    let p = 4;
    let block = ty.size();
    for alltoall in [false, true] {
        let mut sess = mpirt::Session::builder().ranks(p).build();
        let mut alloc = |len| sess.world.mem().alloc(MemSpace::Host, len).unwrap();
        let own = if alltoall { (p as u64 - 1) * block } else { 0 };
        let send: Vec<_> = (0..p)
            .map(|r| match r + 1 == p {
                true => alloc(own + block / 2),
                false => alloc(p as u64 * block),
            })
            .collect();
        let recv: Vec<_> = (0..p).map(|_| alloc(p as u64 * block)).collect();
        let req = match alltoall {
            true => mpirt::alltoall(&mut sess, &ty, 1, &send, &recv, 0),
            false => mpirt::allgather(&mut sess, &ty, 1, &send, &recv, 0),
        };
        let got = mpirt::wait_all(&mut sess, &[req]);
        assert!(
            matches!(got, Err(MpiError::Mem(_))),
            "alltoall {alltoall}: {got:?}"
        );
    }
}
