//! Pinned fingerprints of the message-level scale model: twelve
//! configurations × everything observable about a run — deliveries,
//! end time, message and byte counters, the completion-time digest and
//! the FNV-1a of the recorded Chrome trace.
//!
//! These rows replace the N-shard ≡ 1-shard property test that guarded
//! the retired parallel engine. Every value was re-derived at the
//! parent commit (ca6b3b9, 1 shard, recording on) before that engine
//! was deleted, so the table also proves the serial loop reproduces it
//! bit for bit — trace *order* included, which is what the FNV column
//! is for.

use faultsim::{FaultKind, FaultOp, FaultPlan};
use mpirt::scale::{self, random_program, ScaleConfig, ScaleOp};
use netsim::Topology;
use simcore::trace::names;

/// `(executed, end_ns, msgs, bytes, digest, fnv1a64(chrome_json("equiv")))`
type Fingerprint = (u64, u64, u64, u64, u64, u64);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

fn fingerprint(r: &scale::ScaleReport) -> Fingerprint {
    (
        r.executed,
        r.end_time.as_nanos(),
        r.msgs,
        r.bytes,
        r.digest,
        fnv1a64(r.trace.chrome_json("equiv").as_bytes()),
    )
}

fn plan() -> FaultPlan {
    FaultPlan::default()
        .with_seed(41)
        .with_rule(Some(FaultOp::WireCopy), FaultKind::Transient, 0.02)
        .with_rule(Some(FaultOp::AmDeliver), FaultKind::Transient, 0.01)
        .with_rule(
            Some(FaultOp::WireCopy),
            FaultKind::Degrade { factor: 1.5 },
            1.0,
        )
}

#[test]
fn random_programs_reproduce_their_pinned_fingerprints() {
    #[rustfmt::skip]
    let rows: [(u32, usize, u64, Fingerprint); 6] = [
        (8, 6, 1, (174, 41606, 166, 603648, 0xbf2432a02be49b03, 0xfa5692397af8c304)),
        (8, 6, 2, (183, 30958, 175, 210560, 0x15af2c644eb99a1a, 0x048938d9d98b36c3)),
        (64, 4, 1, (8254, 249777, 8190, 37352448, 0x202dc1895522958e, 0x065db39d3dfa62b4)),
        (64, 4, 2, (8319, 143446, 8255, 5299200, 0xeb05991ca66150ca, 0xc4f43e4a9f22fca7)),
        (256, 2, 1, (65791, 696564, 65535, 535296000, 0x1b2a287351bf5b67, 0xd26643b1c3c6f89c)),
        (256, 2, 2, (65791, 260055, 65535, 8878080, 0xc924e590baad4b08, 0x5c94994a986dd650)),
    ];
    for (ranks, steps, seed, want) in rows {
        let mut cfg = ScaleConfig::new(ranks, random_program(seed, ranks, steps));
        cfg.topo = Topology::FatTree {
            ranks_per_node: 4,
            radix: 4,
        };
        cfg.fault_plan = plan();
        cfg.seed = seed ^ 0xDEC0DE;
        let got = fingerprint(&scale::run(&cfg, true));
        assert_eq!(got, want, "ranks={ranks} steps={steps} seed={seed}");
    }
}

#[test]
fn each_op_on_its_topology_reproduces_its_pinned_fingerprint() {
    // One targeted program per op kind, on the topology that stresses
    // it, rather than trusting the random mix to cover everything.
    #[rustfmt::skip]
    let rows: [(u32, Topology, Vec<ScaleOp>, Fingerprint); 5] = [
        (
            16,
            Topology::Ring { ranks_per_node: 1 },
            vec![ScaleOp::Bcast { root: 9, bytes: 8192 }],
            (31, 15085, 15, 122880, 0x6032e0de03472d31, 0x40b389bdb4f2f9e7),
        ),
        (
            16,
            Topology::Ring { ranks_per_node: 2 },
            vec![ScaleOp::Allgather { bytes: 2048 }],
            (256, 25170, 240, 491520, 0xf71a421675344e1c, 0x3ebb0950209f2274),
        ),
        (
            12,
            Topology::Dragonfly { ranks_per_node: 2, group_size: 3 },
            vec![ScaleOp::Alltoall { bytes: 512 }],
            (144, 18296, 132, 67584, 0xb6f228fb3167c94d, 0x694b1d25d67aa264),
        ),
        (
            16,
            Topology::FatTree { ranks_per_node: 2, radix: 4 },
            vec![ScaleOp::Barrier, ScaleOp::PutRing { bytes: 4096 }],
            (112, 10673, 96, 66816, 0x403c63c911a6e9b8, 0x77ef9726fc2347cd),
        ),
        (
            16,
            Topology::FatTree { ranks_per_node: 4, radix: 2 },
            vec![ScaleOp::GetRing { bytes: 4096 }, ScaleOp::Barrier],
            (112, 10217, 96, 66816, 0x744bef00abec4333, 0xb769e66728bf84d8),
        ),
    ];
    for (ranks, topo, program, want) in rows {
        let mut cfg = ScaleConfig::new(ranks, program.clone());
        cfg.topo = topo;
        cfg.fault_plan = plan();
        let got = fingerprint(&scale::run(&cfg, true));
        assert_eq!(got, want, "{topo:?} {program:?}");
    }
}

#[test]
fn retry_heavy_alltoall_reproduces_its_pinned_fingerprint() {
    // The per-rank fault streams at work: a 20 % transient rate on a
    // 32-rank alltoall. The count of injected retries is pinned too.
    let mut cfg = ScaleConfig::new(32, vec![ScaleOp::Alltoall { bytes: 1024 }]);
    cfg.fault_plan = FaultPlan::default().with_seed(5).with_rule(
        Some(FaultOp::WireCopy),
        FaultKind::Transient,
        0.2,
    );
    let run = scale::run(&cfg, true);
    let retries = run.trace.counter(names::RETRY_ATTEMPTS);
    assert!(retries > 0, "plan must actually inject");
    assert_eq!(retries, 245);
    assert_eq!(
        fingerprint(&run),
        (
            1024,
            190730,
            992,
            1015808,
            0x73e218e906d8557a,
            0x13db99ae09bb4aca
        )
    );
}
