//! A second comparator: the Jenkins et al. (MPICH) style of GPU
//! datatype support — §2.2 of the paper.
//!
//! Like our engine it packs/unpacks with GPU kernels (one kernel per
//! whole datatype, driven from a flattened representation), but it
//! provides **no overlap**: pack, device→host staging, wire transfer,
//! host→device staging and unpack run strictly one after another, and
//! the packed data always transits host memory. The gap between this
//! and our pipelined engine isolates the contribution of the paper's
//! pipelining/zero-copy design from the kernel-vs-memcpy2D question
//! (which the Wang-style comparator in [`crate::proto`] covers).

use crate::proto::BaselineSide;
use devengine::{pack_async, unpack_async, EngineConfig};
use gpusim::{memcpy, GpuWorld as _};
use memsim::MemSpace;
use mpirt::{MpiWorld, Request};
use simcore::{Sim, SimTime};

/// One Jenkins-style message `s → r`.
pub fn jenkins_transfer(sim: &mut Sim<MpiWorld>, s: BaselineSide, r: BaselineSide) -> Request {
    assert!(s.buf.space.is_device() && r.buf.space.is_device());
    let req = Request::new();
    let total = s.ty.size() * s.count;
    if total == 0 {
        req.complete(sim, Ok(0));
        return req;
    }

    let s_gpu = sim.world.mpi.ranks[s.rank].gpu;
    let r_gpu = sim.world.mpi.ranks[r.rank].gpu;
    let s_dev = sim
        .world
        .mem()
        .alloc(MemSpace::Device(s_gpu), total)
        .unwrap();
    let r_dev = sim
        .world
        .mem()
        .alloc(MemSpace::Device(r_gpu), total)
        .unwrap();
    let s_host = sim.world.mem().alloc(MemSpace::Host, total).unwrap();
    let r_host = sim.world.mem().alloc(MemSpace::Host, total).unwrap();

    // Whole-datatype kernel, no CPU/GPU pipelining, no caching (MPICH
    // regenerated the flattened representation per operation); the
    // session's engine settings otherwise.
    let cfg = EngineConfig {
        pipeline: false,
        ..sim.world.mpi.config.engine.clone()
    };
    let s_stream = sim.world.mpi.ranks[s.rank].kernel_stream;
    let s_copy = sim.world.mpi.ranks[s.rank].copy_stream;
    let r_stream = sim.world.mpi.ranks[r.rank].kernel_stream;
    let r_copy = sim.world.mpi.ranks[r.rank].copy_stream;
    let (s_rank, r_rank) = (s.rank, r.rank);
    let req2 = req.clone();
    let r_ty = r.ty.clone();
    let r_count = r.count;
    let r_buf = r.buf;
    let cfg2 = cfg.clone();

    let cleanup = move |sim: &mut Sim<MpiWorld>| {
        for p in [s_dev, r_dev, s_host, r_host] {
            sim.world.mem().free(p).expect("free staging");
        }
    };

    pack_async(
        sim,
        s.rank,
        s_stream,
        &s.ty,
        s.count,
        s.buf,
        s_dev,
        cfg,
        None,
        move |sim, _| {
            memcpy(sim, s_copy, s_dev, s_host, total, move |sim, _| {
                netsim::wire_send(sim, s_rank, r_rank, total, move |sim| {
                    sim.world.mem().copy(s_host, r_host, total).expect("wire");
                    memcpy(sim, r_copy, r_host, r_dev, total, move |sim, _| {
                        unpack_async(
                            sim,
                            r_rank,
                            r_stream,
                            &r_ty,
                            r_count,
                            r_buf,
                            r_dev,
                            cfg2,
                            None,
                            move |sim, _| {
                                req2.complete(sim, Ok(total));
                                cleanup(sim);
                            },
                        );
                    });
                })
                .expect("jenkins ranks are connected");
            });
        },
    );
    req
}

/// Jenkins-style ping-pong (warm-up + mean over `iters`).
pub fn jenkins_ping_pong(
    sim: &mut Sim<MpiWorld>,
    a: BaselineSide,
    b: BaselineSide,
    iters: u32,
) -> SimTime {
    let round = |sim: &mut Sim<MpiWorld>| {
        let r1 = jenkins_transfer(sim, a.clone(), b.clone());
        while !r1.is_complete() {
            assert!(sim.step(), "jenkins transfer stalled");
        }
        let r2 = jenkins_transfer(sim, b.clone(), a.clone());
        while !r2.is_complete() {
            assert!(sim.step(), "jenkins transfer stalled");
        }
    };
    round(sim);
    let start = sim.now();
    for _ in 0..iters {
        round(sim);
    }
    SimTime::from_nanos((sim.now() - start).as_nanos() / iters as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use datatype::DataType;
    use memsim::Ptr;
    use mpirt::MpiConfig;

    fn tri(n: u64) -> DataType {
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit()
    }

    fn setup(
        sim: &mut Sim<MpiWorld>,
        rank: usize,
        ty: &DataType,
        fill: bool,
    ) -> (Ptr, Vec<u8>, i64, u64) {
        let (base, len) = buffer_span(ty, 1);
        let gpu = sim.world.mpi.ranks[rank].gpu;
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(gpu), len as u64)
            .unwrap();
        let bytes = if fill { pattern(len) } else { vec![0u8; len] };
        sim.world.mem().write(buf, &bytes).unwrap();
        (buf.add(base as u64), bytes, base, len as u64)
    }

    #[test]
    fn jenkins_moves_correct_bytes() {
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let t = tri(64);
        let (sbuf, sbytes, sbase, _) = setup(&mut sim, 0, &t, true);
        let (rbuf, _, rbase, rlen) = setup(&mut sim, 1, &t, false);
        let req = jenkins_transfer(
            &mut sim,
            BaselineSide {
                rank: 0,
                ty: t.clone(),
                count: 1,
                buf: sbuf,
            },
            BaselineSide {
                rank: 1,
                ty: t.clone(),
                count: 1,
                buf: rbuf,
            },
        );
        sim.run();
        assert_eq!(req.expect_bytes(), t.size());
        let got = sim
            .world
            .mem()
            .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
            .unwrap();
        assert_eq!(
            reference_pack(&t, 1, &got, rbase),
            reference_pack(&t, 1, &sbytes, sbase)
        );
    }

    #[test]
    fn ordering_ours_beats_jenkins_beats_wang() {
        // The paper's implicit ordering: pipelined GPU kernels >
        // unpipelined GPU kernels > per-vector cudaMemcpy2D.
        let t = tri(512);
        let mk = || {
            let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
            let (b0, _, _, _) = setup(&mut sim, 0, &t, true);
            let (b1, _, _, _) = setup(&mut sim, 1, &t, false);
            (sim, b0, b1)
        };
        let ours = {
            let (mut sim, b0, b1) = mk();
            mpirt::ping_pong(
                &mut sim,
                mpirt::api::PingPongSpec {
                    ty0: t.clone(),
                    count0: 1,
                    buf0: b0,
                    ty1: t.clone(),
                    count1: 1,
                    buf1: b1,
                    iters: 2,
                },
            )
        };
        let jenkins = {
            let (mut sim, b0, b1) = mk();
            jenkins_ping_pong(
                &mut sim,
                BaselineSide {
                    rank: 0,
                    ty: t.clone(),
                    count: 1,
                    buf: b0,
                },
                BaselineSide {
                    rank: 1,
                    ty: t.clone(),
                    count: 1,
                    buf: b1,
                },
                2,
            )
        };
        let wang = {
            let (mut sim, b0, b1) = mk();
            crate::proto::baseline_ping_pong(
                &mut sim,
                BaselineSide {
                    rank: 0,
                    ty: t.clone(),
                    count: 1,
                    buf: b0,
                },
                BaselineSide {
                    rank: 1,
                    ty: t.clone(),
                    count: 1,
                    buf: b1,
                },
                2,
            )
        };
        assert!(ours < jenkins, "ours {ours} should beat jenkins {jenkins}");
        assert!(jenkins < wang, "jenkins {jenkins} should beat wang {wang}");
    }
}
