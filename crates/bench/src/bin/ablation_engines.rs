//! Ablation: which part of the paper's design buys the speedup?
//!
//! Compares, on the triangular workload:
//!   ours          — pipelined GPU kernels + IPC RDMA / zero-copy (the paper)
//!   ours-depth1   — same kernels but a single-slot fragment ring, so
//!                   pack, transfer and unpack never overlap
//!   jenkins-style — GPU kernels but strictly phase-by-phase through host
//!                   (the MPICH approach of §2.2)
//!   wang-style    — per-vector cudaMemcpy2D through host, no overlap
//!                   (the MVAPICH approach of §2.2)
//!
//! The two comparators are one-fragment plans of the same executor
//! (`mpirt::protocol::comparator`), measured by `comparator_rtt`.

use bench::env;
use bench::harness::ms;
use bench::runner::{comparator_rtt, ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::triangular;
use mpirt::Comparator;

fn main() {
    let opts = BenchOpts::parse();
    let mut depth1 = env::config();
    depth1.pipeline_depth = 1;
    depth1.engine.pipeline = false;
    for (topo, label, suffix) in [
        (Topo::Sm2Gpu, "shared memory, inter-GPU (ms RTT)", "sm2"),
        (Topo::Ib, "InfiniBand (ms RTT)", "ib"),
    ] {
        let depth1 = depth1.clone();
        Sweep::new(
            "ablation-engines",
            label,
            "matrix_size",
            &[512, 1024, 2048, 4096],
        )
        .series("ours", move |n, arch, r| {
            let t = triangular(n);
            let (rtt, tr) = ours_rtt(topo, arch, env::config(), &t, &t, 3, r);
            (ms(rtt), tr)
        })
        .series("ours-depth1", move |n, arch, r| {
            let t = triangular(n);
            let (rtt, tr) = ours_rtt(topo, arch, depth1.clone(), &t, &t, 3, r);
            (ms(rtt), tr)
        })
        .series("jenkins-style", move |n, arch, r| {
            let t = triangular(n);
            let config = env::config();
            let (rtt, tr) = comparator_rtt(Comparator::Jenkins, topo, arch, config, &t, &t, 2, r);
            (ms(rtt), tr)
        })
        .series("wang-style", move |n, arch, r| {
            let t = triangular(n);
            let config = env::config();
            let (rtt, tr) = comparator_rtt(Comparator::Wang, topo, arch, config, &t, &t, 2, r);
            (ms(rtt), tr)
        })
        .run(&opts.for_panel(suffix));
        println!();
    }
}
