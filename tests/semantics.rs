//! MPI semantics: ordering, wildcards, partial receives, multi-count
//! transfers and collectives across mixed transports.

use datatype::convertor::unpack_all;
use datatype::testutil::{buffer_span, pattern, reference_pack};
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{GpuId, MemSpace, Ptr};
use mpirt::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
use mpirt::{MpiConfig, MpiWorld, RankSpec};
use simcore::Sim;

fn alloc(sim: &mut Sim<MpiWorld>, rank: usize, bytes: u64, device: bool) -> Ptr {
    let space = if device {
        MemSpace::Device(sim.world.mpi.ranks[rank].gpu)
    } else {
        MemSpace::Host
    };
    sim.world.mem().alloc(space, bytes).unwrap()
}

/// MPI non-overtaking rule: two messages on the same (src, dst, tag)
/// must match receives in the order they were sent — even when the
/// first is a big rendezvous and the second a small eager message that
/// could physically arrive first.
#[test]
fn non_overtaking_order() {
    let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
    let big = DataType::contiguous(100_000, &DataType::double())
        .unwrap()
        .commit();
    let small = DataType::contiguous(4, &DataType::double())
        .unwrap()
        .commit();

    let sb_big = alloc(&mut sim, 0, big.size(), false);
    let sb_small = alloc(&mut sim, 0, small.size(), false);
    sim.world
        .mem()
        .write(sb_big, &vec![1u8; big.size() as usize])
        .unwrap();
    sim.world
        .mem()
        .write(sb_small, &vec![2u8; small.size() as usize])
        .unwrap();

    let s1 = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 7,
            ty: big.clone(),
            count: 1,
            buf: sb_big,
        },
    );
    let s2 = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 7,
            ty: small.clone(),
            count: 1,
            buf: sb_small,
        },
    );

    // Receives posted with wildcard-compatible types: first posting must
    // get the *first* send (the big one).
    let rb1 = alloc(&mut sim, 1, big.size(), false);
    let rb2 = alloc(&mut sim, 1, big.size(), false);
    let r1 = irecv(
        &mut sim,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(7),
            ty: big.clone(),
            count: 1,
            buf: rb1,
        },
    );
    let r2 = irecv(
        &mut sim,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(7),
            ty: big.clone(),
            count: 1,
            buf: rb2,
        },
    );
    wait_all(&mut sim, &[s1, s2, r1.clone(), r2.clone()]).expect("transfers failed");
    assert_eq!(
        r1.expect_bytes(),
        big.size(),
        "first recv gets the first send"
    );
    assert_eq!(
        r2.expect_bytes(),
        small.size(),
        "second recv gets the second send"
    );
    let got1 = sim.world.mem().read_vec(rb1, 8).unwrap();
    let got2 = sim.world.mem().read_vec(rb2, 8).unwrap();
    assert!(got1.iter().all(|&b| b == 1));
    assert!(got2.iter().all(|&b| b == 2));
}

/// A message shorter than the posted receive type fills only the prefix
/// of the receive type (and reports the actual byte count), on both
/// protocols and both placements: every byte past the delivered prefix —
/// the type's gaps and its unfilled tail — keeps the guard the buffer
/// held before the receive.
#[test]
fn partial_receive_into_larger_type() {
    const GUARD: u8 = 0xA5;
    let eager_limit = MpiConfig::default().eager_limit;
    // (protocol, doubles sent): the receive type holds twice as many.
    for (proto, doubles) in [("eager", 1_000u64), ("rendezvous", 30_000)] {
        for device in [false, true] {
            let row = format!("{proto}, device = {device}");
            let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
            let send_ty = DataType::contiguous(doubles, &DataType::double())
                .unwrap()
                .commit();
            // The eager rows land 256-byte blocks 512 bytes apart, so the
            // delivery half streams whole cache lines between guards.
            let (block, stride) = if proto == "eager" { (32, 64) } else { (3, 5) };
            let recv_ty = DataType::vector(doubles * 2 / block, block, stride, &DataType::double())
                .unwrap()
                .commit();
            assert!(recv_ty.size() > send_ty.size(), "{row}");
            assert_eq!(send_ty.size() <= eager_limit, proto == "eager", "{row}");

            let (rbase, rlen) = buffer_span(&recv_ty, 1);
            let sbuf = alloc(&mut sim, 0, send_ty.size(), device);
            let data = pattern(send_ty.size() as usize);
            sim.world.mem().write(sbuf, &data).unwrap();
            let rbuf = alloc(&mut sim, 1, rlen as u64, device);
            let guarded = vec![GUARD; rlen];
            sim.world.mem().write(rbuf, &guarded).unwrap();

            let s = isend(
                &mut sim,
                SendArgs {
                    from: 0,
                    to: 1,
                    tag: 0,
                    ty: send_ty.clone(),
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
                    buf: rbuf.add(rbase as u64),
                },
            );
            wait_all(&mut sim, &[s, r.clone()]).expect("transfer failed");
            assert_eq!(r.expect_bytes(), send_ty.size(), "{row}");

            // The sent stream unpacked into the guarded buffer through
            // the receive type's prefix, by the CPU reference: nothing
            // else may change.
            let mut expected = guarded;
            unpack_all(&recv_ty, 1, &mut expected, rbase, &data);
            let got = sim.world.mem().read_vec(rbuf, rlen as u64).unwrap();
            assert!(
                got == expected,
                "{row}: bytes differ from the prefix unpack"
            );
            let untouched = got.iter().filter(|&&b| b == GUARD).count();
            assert!(
                untouched >= rlen - send_ty.size() as usize,
                "{row}: bytes past the prefix lost their guard"
            );
        }
    }
}

/// count > 1 instances of a non-contiguous type across the GPU stack.
#[test]
fn multi_count_gpu_rendezvous() {
    let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
    let ty = DataType::vector(32, 4, 9, &DataType::double())
        .unwrap()
        .commit();
    let count = 40u64;
    let (base, len) = buffer_span(&ty, count);
    let sbuf = alloc(&mut sim, 0, len as u64, true);
    let data = pattern(len);
    sim.world.mem().write(sbuf, &data).unwrap();
    let rbuf = alloc(&mut sim, 1, len as u64, true);

    let s = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 1,
            tag: 0,
            ty: ty.clone(),
            count,
            buf: sbuf.add(base as u64),
        },
    );
    let r = irecv(
        &mut sim,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(0),
            ty: ty.clone(),
            count,
            buf: rbuf.add(base as u64),
        },
    );
    wait_all(&mut sim, &[s, r]).expect("transfer failed");
    let got = sim.world.mem().read_vec(rbuf, len as u64).unwrap();
    assert_eq!(
        reference_pack(&ty, count, &got, base),
        reference_pack(&ty, count, &data, base)
    );
}

/// ANY_SOURCE receives match rendezvous sends from whichever rank
/// arrives first.
#[test]
fn any_source_rendezvous() {
    let specs = [
        RankSpec {
            gpu: GpuId(0),
            node: 0,
        },
        RankSpec {
            gpu: GpuId(1),
            node: 0,
        },
        RankSpec {
            gpu: GpuId(2),
            node: 1,
        },
    ];
    let mut sim = Sim::new(MpiWorld::new(&specs, 3, MpiConfig::default()));
    let ty = DataType::contiguous(50_000, &DataType::double())
        .unwrap()
        .commit();
    let b0 = alloc(&mut sim, 0, ty.size(), true);
    let b1 = alloc(&mut sim, 1, ty.size(), true);
    let rb = alloc(&mut sim, 2, ty.size() * 2, true);
    sim.world
        .mem()
        .write(b0, &vec![5u8; ty.size() as usize])
        .unwrap();
    sim.world
        .mem()
        .write(b1, &vec![9u8; ty.size() as usize])
        .unwrap();

    let s0 = isend(
        &mut sim,
        SendArgs {
            from: 0,
            to: 2,
            tag: 1,
            ty: ty.clone(),
            count: 1,
            buf: b0,
        },
    );
    let s1 = isend(
        &mut sim,
        SendArgs {
            from: 1,
            to: 2,
            tag: 1,
            ty: ty.clone(),
            count: 1,
            buf: b1,
        },
    );
    let r0 = irecv(
        &mut sim,
        RecvArgs {
            rank: 2,
            src: None,
            tag: Some(1),
            ty: ty.clone(),
            count: 1,
            buf: rb,
        },
    );
    let r1 = irecv(
        &mut sim,
        RecvArgs {
            rank: 2,
            src: None,
            tag: Some(1),
            ty: ty.clone(),
            count: 1,
            buf: rb.add(ty.size()),
        },
    );
    wait_all(&mut sim, &[s0, s1, r0, r1]).expect("transfers failed");
    let a = sim.world.mem().read_vec(rb, 1).unwrap()[0];
    let b = sim.world.mem().read_vec(rb.add(ty.size()), 1).unwrap()[0];
    let mut got = [a, b];
    got.sort_unstable();
    assert_eq!(got, [5, 9], "both senders delivered somewhere");
}

/// Collectives compose with non-contiguous GPU datatypes over mixed
/// SM/IB transports.
#[test]
fn bcast_triangular_across_mixed_transports() {
    let specs = [
        RankSpec {
            gpu: GpuId(0),
            node: 0,
        },
        RankSpec {
            gpu: GpuId(1),
            node: 0,
        },
        RankSpec {
            gpu: GpuId(2),
            node: 1,
        },
        RankSpec {
            gpu: GpuId(3),
            node: 1,
        },
    ];
    let mut sim = Sim::new(MpiWorld::new(&specs, 4, MpiConfig::default()));
    let n = 96u64;
    let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
    let t = DataType::indexed(&lens, &disps, &DataType::double())
        .unwrap()
        .commit();
    let len = t.extent() as u64;
    let bufs: Vec<Ptr> = (0..4).map(|r| alloc(&mut sim, r, len, true)).collect();
    let data = pattern(len as usize);
    sim.world.mem().write(bufs[0], &data).unwrap();

    let req = mpirt::bcast(&mut sim, 0, &t, 1, &bufs, 7);
    sim.run();
    assert!(req.is_complete());
    for (r, b) in bufs.iter().enumerate().skip(1) {
        let got = sim.world.mem().read_vec(*b, len).unwrap();
        for s in t.segments(1) {
            let range = s.disp as usize..(s.disp + s.len as i64) as usize;
            assert_eq!(&got[range.clone()], &data[range], "rank {r}");
        }
    }
}

/// Sends to distinct peers from one rank share nothing and both finish.
#[test]
fn fan_out_to_two_peers() {
    let specs = [
        RankSpec {
            gpu: GpuId(0),
            node: 0,
        },
        RankSpec {
            gpu: GpuId(1),
            node: 0,
        },
        RankSpec {
            gpu: GpuId(2),
            node: 1,
        },
    ];
    let mut sim = Sim::new(MpiWorld::new(&specs, 3, MpiConfig::default()));
    let ty = DataType::contiguous(40_000, &DataType::double())
        .unwrap()
        .commit();
    let sb = alloc(&mut sim, 0, ty.size(), true);
    let r1b = alloc(&mut sim, 1, ty.size(), true);
    let r2b = alloc(&mut sim, 2, ty.size(), true);
    let reqs = vec![
        isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag: 0,
                ty: ty.clone(),
                count: 1,
                buf: sb,
            },
        ),
        isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 2,
                tag: 0,
                ty: ty.clone(),
                count: 1,
                buf: sb,
            },
        ),
        irecv(
            &mut sim,
            RecvArgs {
                rank: 1,
                src: Some(0),
                tag: Some(0),
                ty: ty.clone(),
                count: 1,
                buf: r1b,
            },
        ),
        irecv(
            &mut sim,
            RecvArgs {
                rank: 2,
                src: Some(0),
                tag: Some(0),
                ty: ty.clone(),
                count: 1,
                buf: r2b,
            },
        ),
    ];
    wait_all(&mut sim, &reqs).expect("transfers failed");
}
