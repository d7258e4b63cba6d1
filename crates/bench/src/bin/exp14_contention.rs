//! Experiment 14 (the evaluation's fourth benchmark) — impact of a
//! co-running GPU-intensive application on non-contiguous transfers.
//!
//! The co-runner takes a share of each GPU's DRAM bandwidth away from
//! the pack/unpack kernels; we sweep the share left to communication
//! and report the ping-pong RTT. Because the pipeline is PCIe-bound,
//! moderate contention costs little — communication only collapses
//! when the kernels become slower than the link.

use bench::env;
use bench::harness::ms;
use bench::runner::{BenchOpts, Sweep, Topo};
use bench::workloads::{alloc_typed, submatrix, triangular};
use datatype::DataType;
use gpusim::GpuArch;
use memsim::GpuId;
use mpirt::api::PingPongSpec;
use mpirt::ping_pong;
use simcore::Tracer;

fn rtt_with_share(
    ty: &DataType,
    share: f64,
    arch: &'static GpuArch,
    record: bool,
) -> (f64, Tracer) {
    let mut sess = Topo::Sm2Gpu
        .session(arch, env::config())
        .record_if(record)
        .build();
    for g in [GpuId(0), GpuId(1)] {
        sess.world.cluster.gpu_system.gpu_mut(g).bandwidth_share = share;
    }
    let b0 = alloc_typed(&mut sess, 0, ty, 1, true, true);
    let b1 = alloc_typed(&mut sess, 1, ty, 1, true, false);
    let rtt = ping_pong(
        &mut sess,
        PingPongSpec {
            ty0: ty.clone(),
            count0: 1,
            buf0: b0,
            ty1: ty.clone(),
            count1: 1,
            buf1: b1,
            iters: 3,
        },
    );
    (ms(rtt), sess.into_trace())
}

fn main() {
    let opts = BenchOpts::parse();
    Sweep::new(
        "exp14",
        "ping-pong RTT vs bandwidth share left by a co-running app (N=2048, sm2) (ms)",
        "share_pct",
        &[100, 75, 50, 25, 10, 5],
    )
    .series("T", |pct, a, r| {
        rtt_with_share(&triangular(2048), pct as f64 / 100.0, a, r)
    })
    .series("V", |pct, a, r| {
        rtt_with_share(&submatrix(2048), pct as f64 / 100.0, a, r)
    })
    .run(&opts);
}
