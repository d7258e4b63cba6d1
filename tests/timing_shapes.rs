//! Performance-shape assertions: the qualitative results of the
//! paper's evaluation must hold in the simulation (who wins, roughly by
//! how much, where the crossovers are). These guard the cost models
//! against regressions.

use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{GpuId, MemSpace, Ptr};
use mpirt::api::PingPongSpec;
use mpirt::{ping_pong, MpiConfig, MpiWorld, RankSpec};
use simcore::trace::{names, TraceEvent};
use simcore::{Counter, Sim, SimTime};

fn triangular(n: u64) -> DataType {
    let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
    DataType::indexed(&lens, &disps, &DataType::double())
        .unwrap()
        .commit()
}

fn submatrix(n: u64) -> DataType {
    DataType::vector(n, n, 2 * n as i64, &DataType::double())
        .unwrap()
        .commit()
}

fn alloc_dev(sim: &mut Sim<MpiWorld>, rank: usize, bytes: u64) -> Ptr {
    let gpu = sim.world.mpi.ranks[rank].gpu;
    sim.world.mem().alloc(MemSpace::Device(gpu), bytes).unwrap()
}

fn rtt(mut sim: Sim<MpiWorld>, ty: &DataType, iters: u32) -> SimTime {
    let len = (ty.true_ub() - ty.true_lb().min(0)) as u64;
    let b0 = alloc_dev(&mut sim, 0, len);
    let b1 = alloc_dev(&mut sim, 1, len);
    ping_pong(
        &mut sim,
        PingPongSpec {
            ty0: ty.clone(),
            count0: 1,
            buf0: b0,
            ty1: ty.clone(),
            count1: 1,
            buf1: b1,
            iters,
        },
    )
}

/// §5.2.1: intra-GPU is at least 2x faster than inter-GPU (no PCIe
/// crossing once packed).
#[test]
fn intra_gpu_at_least_2x_faster_than_inter_gpu() {
    let t = triangular(1024);
    let one = rtt(
        Sim::new(MpiWorld::two_ranks_one_gpu(MpiConfig::default())),
        &t,
        3,
    );
    let two = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default())),
        &t,
        3,
    );
    assert!(
        one.as_nanos() * 2 <= two.as_nanos(),
        "1GPU {one} should be >=2x faster than 2GPU {two}"
    );
}

/// InfiniBand (6 GB/s) is slower than same-node PCIe P2P (11 GB/s).
#[test]
fn ib_slower_than_sm() {
    let v = submatrix(1024);
    let sm = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default())),
        &v,
        3,
    );
    let ib = rtt(
        Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default())),
        &v,
        3,
    );
    assert!(sm < ib, "SM {sm} should beat IB {ib}");
}

/// §5.2: the pipelined transfer achieves ~90% of the contiguous rate
/// for the vector type — pack/unpack almost fully hides behind PCIe.
#[test]
fn vector_pingpong_within_15pct_of_contiguous() {
    let n = 2048u64;
    let v = submatrix(n);
    let c = DataType::contiguous(n * n, &DataType::double())
        .unwrap()
        .commit();
    let tv = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default())),
        &v,
        3,
    );
    let tc = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default())),
        &c,
        3,
    );
    let ratio = tv.as_secs_f64() / tc.as_secs_f64();
    assert!(
        (1.0..1.18).contains(&ratio),
        "vector should be within 15% of contiguous, ratio {ratio}"
    );
}

/// §4.2: zero-copy beats explicit staging copies on the IB path.
#[test]
fn zero_copy_not_slower_than_staged() {
    let t = triangular(1024);
    let zc = rtt(
        Sim::new(MpiWorld::two_ranks_ib(MpiConfig {
            zero_copy: true,
            ..Default::default()
        })),
        &t,
        3,
    );
    let staged = rtt(
        Sim::new(MpiWorld::two_ranks_ib(MpiConfig {
            zero_copy: false,
            ..Default::default()
        })),
        &t,
        3,
    );
    assert!(
        zc <= staged,
        "zero-copy {zc} should not lose to staging {staged}"
    );
}

/// §4.1: disabling IPC (copy-in/out fallback) costs performance in the
/// shared-memory GPU case.
#[test]
fn ipc_rdma_beats_copy_in_out_fallback() {
    let t = triangular(1024);
    let rdma = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default())),
        &t,
        3,
    );
    let fallback = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig {
            use_ipc: false,
            ..Default::default()
        })),
        &t,
        3,
    );
    assert!(
        rdma < fallback,
        "RDMA {rdma} should beat copy-in/out {fallback}"
    );
}

/// §5.2.1: receiver-side local staging beats unpacking directly out of
/// remote GPU memory (by the paper's 10-15%).
#[test]
fn local_staging_beats_direct_remote_unpack() {
    let t = triangular(1024);
    let staged = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig {
            recv_local_staging: true,
            ..Default::default()
        })),
        &t,
        3,
    );
    let direct = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig {
            recv_local_staging: false,
            ..Default::default()
        })),
        &t,
        3,
    );
    assert!(
        staged < direct,
        "staging {staged} should beat direct remote access {direct}"
    );
    let ratio = direct.as_secs_f64() / staged.as_secs_f64();
    assert!(
        ratio < 1.4,
        "the gap should be moderate (paper: 10-15%), got {ratio}"
    );
}

/// Eager messages complete the send before any receive is posted.
#[test]
fn eager_send_completes_without_receiver() {
    let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
    let t = DataType::contiguous(64, &DataType::double())
        .unwrap()
        .commit();
    let buf = alloc_dev(&mut sim, 0, t.size());
    let s = mpirt::api::isend(
        &mut sim,
        mpirt::api::SendArgs {
            from: 0,
            to: 1,
            tag: 0,
            ty: t,
            count: 1,
            buf,
        },
    );
    sim.run();
    assert!(s.is_complete(), "eager send must complete unilaterally");
}

/// The sender's GPU footprint for the pipeline is bounded by the ring,
/// not the message (the paper's reduced-memory argument): a 32 MB
/// message needs only pipeline_depth x frag_size of staging.
#[test]
fn pipeline_memory_is_bounded_by_ring() {
    let t = triangular(2048); // ~16.8 MB message
    let cfg = MpiConfig::default();
    let ring_budget = cfg.frag_size * cfg.pipeline_depth as u64;
    let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(cfg));
    let len = (t.true_ub()) as u64;
    let b0 = alloc_dev(&mut sim, 0, len);
    let b1 = alloc_dev(&mut sim, 1, len);
    let user_bytes = sim.world.mem_ref().pool(MemSpace::Device(GpuId(0))).used();
    let _ = ping_pong(
        &mut sim,
        PingPongSpec {
            ty0: t.clone(),
            count0: 1,
            buf0: b0,
            ty1: t.clone(),
            count1: 1,
            buf1: b1,
            iters: 1,
        },
    );
    let peak = sim.world.mem_ref().pool(MemSpace::Device(GpuId(0))).peak();
    let staging_peak = peak - user_bytes;
    // GPU 0 hosts two rings: the 0->1 send ring and the 1->0 receive
    // staging ring.
    assert!(
        staging_peak <= 2 * ring_budget + (1 << 20),
        "sender staging {staging_peak} should be bounded by the rings ({ring_budget} each), \
         not the {len}-byte message"
    );

    // Rings belong to ranks, not rank pairs: a 16-rank rendezvous
    // alltoall of 128 KiB device blocks holds two host rings and two
    // device rings per rank, however many peers each rank has, and
    // registers each host ring once.
    let n = 16;
    let topo = netsim::Topology::FatTree {
        ranks_per_node: 4,
        radix: 4,
    };
    let specs = RankSpec::laid_out(n, &topo);
    let mut sim = Sim::new(MpiWorld::new(&specs, n as u32, MpiConfig::default()));
    sim.trace.set_recording(true);
    let ty = DataType::hvector(512, 256, 512, &DataType::byte())
        .unwrap()
        .commit();
    let block = ty.extent() as u64;
    let len = block * n as u64;
    let sends: Vec<Ptr> = (0..n).map(|r| alloc_dev(&mut sim, r, len)).collect();
    let recvs: Vec<Ptr> = (0..n).map(|r| alloc_dev(&mut sim, r, len)).collect();
    let sent: Vec<Vec<u8>> = (0..n)
        .map(|r| (0..len).map(|i| (i % 251) as u8 ^ r as u8).collect())
        .collect();
    for (&buf, bytes) in sends.iter().zip(&sent) {
        sim.world.mem().write(buf, bytes).unwrap();
    }
    let user: Vec<u64> = (0..n)
        .map(|g| {
            sim.world
                .mem_ref()
                .pool(MemSpace::Device(GpuId(g as u32)))
                .used()
        })
        .collect();
    let host_user = sim.world.mem_ref().pool(MemSpace::Host).used();
    let req = mpirt::alltoall(&mut sim, &ty, 1, &sends, &recvs, 0);
    sim.run();
    assert!(matches!(req.result(), Some(Ok(_))), "{:?}", req.result());
    for (r, &buf) in recvs.iter().enumerate() {
        let got = sim.world.mem_ref().read_vec(buf, len).unwrap();
        let mut want = vec![0u8; len as usize];
        // Peers deliver the typed bytes; a rank's own block is copied
        // whole, gaps included.
        for (i, from) in sent.iter().enumerate() {
            let (at, src) = ((i as u64 * block) as usize, (r as u64 * block) as usize);
            let (stride, seg) = if i == r { (block, block) } else { (512, 256) };
            for j in (0..block).step_by(stride as usize) {
                let (at, src, seg) = (at + j as usize, src + j as usize, seg as usize);
                want[at..at + seg].copy_from_slice(&from[src..src + seg]);
            }
        }
        assert!(
            got == want,
            "rank {r}: received bytes differ from the oracle"
        );
    }
    let host_peak = sim.world.mem_ref().pool(MemSpace::Host).peak() - host_user;
    assert!(
        host_peak <= n as u64 * 2 * ring_budget,
        "host rings {host_peak} B: two per rank"
    );
    for (g, user) in user.iter().enumerate() {
        let peak = sim
            .world
            .mem_ref()
            .pool(MemSpace::Device(GpuId(g as u32)))
            .peak()
            - user;
        assert!(
            peak <= 2 * ring_budget,
            "GPU {g}: rings {peak} B, two per rank"
        );
    }
    let registrations = (sim.trace.events().iter())
        .filter(
            |e| matches!(e, TraceEvent::Span { name, .. } if *name == names::SPAN_RDMA_REGISTER),
        )
        .count();
    assert!(
        registrations <= 2 * n,
        "{registrations} NIC registrations: at most two host rings per rank"
    );
}

/// The trace-derived overlap metric captures the paper's core claim:
/// with the engine pipeline on, CPU DEV preparation overlaps the pack
/// kernels; with it off the stages strictly serialize.
#[test]
fn engine_pipeline_overlap_visible_in_metrics() {
    use devengine::{pack_async, EngineConfig};
    use mpirt::Session;

    fn overlap(pipeline: bool) -> f64 {
        use devengine::OptimizerConfig;
        let t = triangular(1024);
        let mut sess = Session::builder()
            .rank_specs(
                &[RankSpec {
                    gpu: GpuId(0),
                    node: 0,
                }],
                1,
            )
            .record()
            .build();
        let len = t.true_ub() as u64;
        let typed = sess
            .world
            .mem()
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let packed = sess
            .world
            .mem()
            .alloc(MemSpace::Device(GpuId(0)), t.size())
            .unwrap();
        let stream = sess.world.mpi.ranks[0].kernel_stream;
        // Pinned pre-optimizer: coalescing shrinks prep until the tuner
        // (correctly) collapses to one kernel — this test is about the
        // pipeline mechanics themselves.
        let cfg = EngineConfig {
            pipeline,
            optimizer: OptimizerConfig::disabled(),
            ..Default::default()
        };
        pack_async(
            &mut sess,
            0,
            stream,
            &t,
            1,
            typed,
            packed,
            cfg,
            None,
            |_, _| {},
        );
        sess.run();
        sess.finish().overlap_pct
    }

    let piped = overlap(true);
    let serial = overlap(false);
    assert!(
        piped > 10.0,
        "pipelined prep should overlap the kernels, got {piped}%"
    );
    assert!(
        serial < 1.0,
        "un-pipelined stages should serialize, got {serial}%"
    );
}

/// The full protocol pipeline shows both stage overlap and multiple
/// ring fragments in flight in its recorded trace.
#[test]
fn pipelined_protocol_shows_overlap_and_ring_residency() {
    let t = triangular(1024);
    let mut sess = mpirt::Session::builder()
        .two_ranks_two_gpus()
        .record()
        .build();
    let len = (t.true_ub() - t.true_lb().min(0)) as u64;
    let gpu0 = sess.world.mpi.ranks[0].gpu;
    let gpu1 = sess.world.mpi.ranks[1].gpu;
    let b0 = sess.world.mem().alloc(MemSpace::Device(gpu0), len).unwrap();
    let b1 = sess.world.mem().alloc(MemSpace::Device(gpu1), len).unwrap();
    ping_pong(
        &mut sess,
        PingPongSpec {
            ty0: t.clone(),
            count0: 1,
            buf0: b0,
            ty1: t.clone(),
            count1: 1,
            buf1: b1,
            iters: 2,
        },
    );
    let m = sess.finish();
    assert!(
        m.overlap_pct > 5.0,
        "protocol stages should overlap, got {}%",
        m.overlap_pct
    );
    assert!(
        m.ring_residency > 1.0,
        "the fragment ring should keep >1 fragment in flight, got {}",
        m.ring_residency
    );
    // Warm-up round + 2 measured rounds, two transfers each.
    assert_eq!(m.counter(Counter::MpiDeliveredBytes), 6 * t.size());
}

/// exp13 shape: two thread blocks already get within 10% of the full
/// GPU for the vector workload (PCIe is the bottleneck).
#[test]
fn few_blocks_saturate_communication() {
    let v = submatrix(1024);
    let full = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default())),
        &v,
        3,
    );
    let two_blocks_cfg = MpiConfig {
        engine: devengine::EngineConfig {
            blocks: Some(2),
            ..Default::default()
        },
        ..Default::default()
    };
    let two = rtt(
        Sim::new(MpiWorld::two_ranks_two_gpus(two_blocks_cfg)),
        &v,
        3,
    );
    let ratio = two.as_secs_f64() / full.as_secs_f64();
    assert!(
        ratio < 1.10,
        "2 blocks should be within 10% of 15, got {ratio}"
    );
}
