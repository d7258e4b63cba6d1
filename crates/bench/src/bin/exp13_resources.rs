//! Experiment 13 (the evaluation's third benchmark) — minimal GPU
//! resources for optimal communication performance.
//!
//! The pack/unpack kernels are throttled to a given number of thread
//! blocks (SM-equivalents); the ping-pong RTT shows how few SMs the
//! datatype engine needs before PCIe — not the kernels — limits the
//! transfer. The paper's point: a small fraction of the GPU suffices,
//! leaving the rest for the application.

use bench::env;
use bench::harness::ms;
use bench::runner::{ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::{submatrix, triangular};
use datatype::DataType;
use gpusim::GpuArch;
use simcore::Tracer;

fn throttled_rtt(
    ty: &DataType,
    blocks: u64,
    arch: &'static GpuArch,
    record: bool,
) -> (f64, Tracer) {
    let mut cfg = env::config();
    cfg.engine.blocks = Some(blocks as u32);
    let (rtt, tr) = ours_rtt(Topo::Sm2Gpu, arch, cfg, ty, ty, 3, record);
    (ms(rtt), tr)
}

fn main() {
    let opts = BenchOpts::parse();
    Sweep::new(
        "exp13",
        "ping-pong RTT vs thread-block budget (N=2048, sm2) (ms)",
        "blocks",
        &[1, 2, 3, 4, 6, 8, 10, 12, 15],
    )
    .series("T", |blocks, a, r| {
        throttled_rtt(&triangular(2048), blocks, a, r)
    })
    .series("V", |blocks, a, r| {
        throttled_rtt(&submatrix(2048), blocks, a, r)
    })
    .run(&opts);
}
