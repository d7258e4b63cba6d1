//! Figure 9 — PCIe bandwidth achieved by the full ping-pong for
//! vector (V) and indexed (T) datatypes, vs contiguous (C).
//!
//! Two ranks with separate GPUs on one node: every packed byte crosses
//! PCIe once per direction, so the achieved one-way bandwidth shows how
//! well the pipeline keeps the link busy. The paper reaches ≈90% of
//! the contiguous rate for V and ≈78% for T.

use bench::env;
use bench::harness::gbps;
use bench::runner::{ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::{contiguous_matrix, submatrix, triangular};
use datatype::DataType;
use gpusim::GpuArch;

fn bw(ty: &DataType, arch: &'static GpuArch, record: bool) -> (f64, simcore::Tracer) {
    let (rtt, trace) = ours_rtt(Topo::Sm2Gpu, arch, env::config(), ty, ty, 3, record);
    // One direction moves ty.size() bytes in half the RTT.
    let one_way = simcore::SimTime::from_nanos(rtt.as_nanos() / 2);
    (gbps(ty.size(), one_way), trace)
}

fn main() {
    let opts = BenchOpts::parse();
    Sweep::new(
        "fig9",
        "PCIe bandwidth of ping-pong (GB/s, one-way)",
        "matrix_size",
        &[512, 1024, 2048, 3072, 4096],
    )
    .series("V", |n, a, r| bw(&submatrix(n), a, r))
    .series("T", |n, a, r| bw(&triangular(n), a, r))
    .series("C", |n, a, r| bw(&contiguous_matrix(n), a, r))
    .run(&opts);
}
