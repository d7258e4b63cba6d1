//! Figure 11 — ping-pong with *different* datatypes on each side:
//! vector on one, contiguous on the other (the FFT / reshape-on-the-fly
//! pattern). The signatures match, so MPI transfers are legal; the
//! contiguous side's conversion stage short-circuits entirely.
//!
//! Ours exploits GPU RDMA + zero-copy; the baseline (the Wang-style
//! comparator plan in `mpirt::protocol::comparator`) still packs with
//! cudaMemcpy2D and stages through host.

use bench::env;
use bench::harness::ms;
use bench::runner::{comparator_rtt, ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::{contiguous_matrix, submatrix};
use mpirt::Comparator;

fn main() {
    let opts = BenchOpts::parse();
    for (topo, label, suffix) in [
        (Topo::Sm2Gpu, "shared memory, inter-GPU (ms RTT)", "sm2"),
        (Topo::Ib, "InfiniBand (ms RTT)", "ib"),
    ] {
        // Sender: sub-matrix vector; receiver: contiguous.
        Sweep::new(
            "fig11",
            label,
            "matrix_size",
            &[512, 1024, 2048, 3072, 4096],
        )
        .series("ours", move |n, arch, r| {
            let (t, tr) = ours_rtt(
                topo,
                arch,
                env::config(),
                &submatrix(n),
                &contiguous_matrix(n),
                3,
                r,
            );
            (ms(t), tr)
        })
        .series("baseline", move |n, arch, r| {
            let (t, tr) = comparator_rtt(
                Comparator::Wang,
                topo,
                arch,
                env::config(),
                &submatrix(n),
                &contiguous_matrix(n),
                2,
                r,
            );
            (ms(t), tr)
        })
        .run(&opts.for_panel(suffix));
        println!();
    }
}
