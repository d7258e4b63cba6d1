//! The `--arch` axis end to end: selecting the default K40 entry from
//! the registry is byte-identical to not selecting anything (the
//! registry is a view over the paper's constants, not a re-derivation),
//! newer architectures actually re-parameterize the whole stack, and
//! the protocol auto-tuner reaches different decisions per arch.

use datatype::testutil::{arb_datatype, buffer_span};
use datatype::DataType;
use gpusim::{GpuArch, GpuWorld as _};
use memsim::MemSpace;
use mpirt::tuner::{tuned_shape, PathClass};
use mpirt::{ping_pong, PingPongSpec, Session};
use simcore::rng::SimRng;
use simcore::SimTime;

fn triangular(n: u64) -> DataType {
    let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
    DataType::indexed(&lens, &disps, &DataType::double())
        .unwrap()
        .commit()
}

/// Round-trip time of a 2-iteration ping-pong of `ty` between two GPUs
/// on one node of the given session.
fn rtt(mut sess: Session, ty: &DataType) -> SimTime {
    let (_, len) = buffer_span(ty, 1);
    let len = (len as u64).max(1);
    let gpu0 = sess.world.mpi.ranks[0].gpu;
    let gpu1 = sess.world.mpi.ranks[1].gpu;
    let b0 = sess.world.mem().alloc(MemSpace::Device(gpu0), len).unwrap();
    let b1 = sess.world.mem().alloc(MemSpace::Device(gpu1), len).unwrap();
    ping_pong(
        &mut sess,
        PingPongSpec {
            ty0: ty.clone(),
            count0: 1,
            buf0: b0,
            ty1: ty.clone(),
            count1: 1,
            buf1: b1,
            iters: 2,
        },
    )
}

fn two_gpu_session(arch: &'static GpuArch) -> Session {
    Session::builder().arch(arch).two_ranks_two_gpus().build()
}

/// Property: for seeded random datatype trees, a session built with the
/// K40 registry entry (by reference or by alias) completes transfers at
/// exactly the virtual times of a session built with no arch at all.
/// This is the byte-identity guarantee behind the committed `results/`
/// CSVs, checked on workloads nobody hand-picked.
#[test]
fn k40_registry_entry_is_identical_to_the_default() {
    let mut r = SimRng::new(0xa5c4_0001);
    let mut checked = 0;
    while checked < 12 {
        let ty = arb_datatype(&mut r).commit();
        if ty.size() == 0 {
            continue;
        }
        checked += 1;
        let implicit = rtt(Session::builder().two_ranks_two_gpus().build(), &ty);
        let by_ref = rtt(two_gpu_session(GpuArch::default_arch()), &ty);
        let by_alias = rtt(
            Session::builder()
                .arch("Tesla-K40")
                .two_ranks_two_gpus()
                .build(),
            &ty,
        );
        assert_eq!(implicit, by_ref, "arch(k40) must not perturb {ty}");
        assert_eq!(implicit, by_alias, "alias lookup must not perturb {ty}");
    }
}

/// Cross-arch sanity: the registry constants point the right way
/// (launch overhead shrank, NVLink beats PCIe P2P) and the end-to-end
/// simulation agrees — the same workload finishes faster on newer
/// parts.
#[test]
fn newer_archs_are_faster_end_to_end() {
    let k40 = GpuArch::default_arch();
    let a100 = GpuArch::named("a100");
    assert!(a100.spec().launch_overhead < k40.spec().launch_overhead);
    assert!(
        a100.topology().pcie_p2p.as_gbps() > k40.topology().pcie_p2p.as_gbps(),
        "NVLink p2p must beat PCIe p2p"
    );

    let t = triangular(1024);
    let on_k40 = rtt(two_gpu_session(k40), &t);
    let on_a100 = rtt(two_gpu_session(a100), &t);
    assert!(
        on_a100 < on_k40,
        "a100 {on_a100} should beat k40 {on_k40} on the triangular workload"
    );
}

/// The resolved architecture is visible on the session and stamped into
/// its metrics (and from there into `--trace` JSON).
#[test]
fn session_reports_resolved_arch() {
    let mut sess = Session::builder()
        .arch("volta")
        .two_ranks_two_gpus()
        .build();
    assert_eq!(sess.arch().name, "v100");
    assert_eq!(sess.metrics().arch, Some("v100"));
    assert_eq!(sess.world.gpus_ref().arch.name, "v100");

    let plain = Session::builder().two_ranks_two_gpus().build();
    assert_eq!(plain.arch().name, "k40");
    assert_eq!(plain.finish().arch, Some("k40"));
}

/// The auto-tuner keys its cache on the architecture and its decisions
/// actually move: the same (layout, size, path) resolves to different
/// pipeline shapes on at least two registered architectures, because
/// the pipeline schedule folds in per-arch launch/bandwidth
/// constants.
#[test]
fn tuner_decisions_diverge_across_archs() {
    let workloads: Vec<DataType> = vec![
        DataType::vector(4096, 2, 4, &DataType::double())
            .unwrap()
            .commit(),
        triangular(512),
        triangular(1024),
        triangular(2048),
    ];
    let classes = [PathClass::SmIpc, PathClass::CopyInOut, PathClass::ZeroCopy];
    let mut vectors: Vec<(&str, Vec<(u64, usize)>)> = Vec::new();
    for arch in GpuArch::registry() {
        let mut sess = two_gpu_session(arch);
        let mut decisions = Vec::new();
        for ty in &workloads {
            let mk_side = |sess: &mut Session, rank: usize| {
                let gpu = sess.world.mpi.ranks[rank].gpu;
                let buf = sess
                    .world
                    .mem()
                    .alloc(MemSpace::Device(gpu), ty.extent() as u64)
                    .unwrap();
                mpirt::protocol::Side {
                    rank,
                    ty: ty.clone(),
                    count: 1,
                    buf,
                }
            };
            let s = mk_side(&mut sess, 0);
            let r = mk_side(&mut sess, 1);
            for class in classes {
                decisions.push(tuned_shape(&mut sess, &s, &r, class));
            }
        }
        // Every cached key carries this arch's name.
        assert!(!sess.world.mpi.tuned_shapes.is_empty());
        for key in sess.world.mpi.tuned_shapes.keys() {
            assert_eq!(key.arch, arch.name);
        }
        vectors.push((arch.name, decisions));
    }
    let distinct: std::collections::BTreeSet<_> = vectors.iter().map(|(_, v)| v.clone()).collect();
    assert!(
        distinct.len() >= 2,
        "the tuner should pick different pipeline shapes across archs, got {vectors:?}"
    );
}
