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

use baseline::{baseline_ping_pong, jenkins_ping_pong, BaselineSide};
use bench::env;
use bench::harness::ms;
use bench::runner::{ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::{alloc_typed, triangular};
use gpusim::GpuArch;
use simcore::{SimTime, Tracer};

fn jenkins_rtt(topo: Topo, arch: &'static GpuArch, n: u64, record: bool) -> (SimTime, Tracer) {
    let t = triangular(n);
    let mut sess = topo.session(arch, env::config()).record_if(record).build();
    let b0 = alloc_typed(&mut sess, 0, &t, 1, true, true);
    let b1 = alloc_typed(&mut sess, 1, &t, 1, true, false);
    let rtt = jenkins_ping_pong(
        &mut sess,
        BaselineSide {
            rank: 0,
            ty: t.clone(),
            count: 1,
            buf: b0,
        },
        BaselineSide {
            rank: 1,
            ty: t,
            count: 1,
            buf: b1,
        },
        2,
    );
    (rtt, sess.into_trace())
}

fn wang_rtt(topo: Topo, arch: &'static GpuArch, n: u64, record: bool) -> (SimTime, Tracer) {
    let t = triangular(n);
    let mut sess = topo.session(arch, env::config()).record_if(record).build();
    let b0 = alloc_typed(&mut sess, 0, &t, 1, true, true);
    let b1 = alloc_typed(&mut sess, 1, &t, 1, true, false);
    let rtt = baseline_ping_pong(
        &mut sess,
        BaselineSide {
            rank: 0,
            ty: t.clone(),
            count: 1,
            buf: b0,
        },
        BaselineSide {
            rank: 1,
            ty: t,
            count: 1,
            buf: b1,
        },
        2,
    );
    (rtt, sess.into_trace())
}

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
            let (rtt, tr) = jenkins_rtt(topo, arch, n, r);
            (ms(rtt), tr)
        })
        .series("wang-style", move |n, arch, r| {
            let (rtt, tr) = wang_rtt(topo, arch, n, r);
            (ms(rtt), tr)
        })
        .run(&opts.for_panel(suffix));
        println!();
    }
}
