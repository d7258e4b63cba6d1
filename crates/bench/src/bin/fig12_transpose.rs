//! Figure 12 — matrix transpose ping-pong: the datatype-engine stress
//! test. The sender ships the matrix contiguously; the receiver's
//! datatype scatters it transposed — N² blocks of a single element
//! (8 bytes) each.
//!
//! Ours handles this with the general DEV kernel (the CUDA-DEV cache
//! matters enormously here); the baseline's vectorization degenerates
//! to one `cudaMemcpy2D` per *row* with an 8-byte width — far off the
//! 64-byte alignment sweet spot. The baseline is the Wang-style
//! comparator plan in `mpirt::protocol::comparator`.

use bench::env;
use bench::harness::ms;
use bench::runner::{comparator_rtt, ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::{contiguous_matrix, transpose_type};
use mpirt::Comparator;

fn main() {
    let opts = BenchOpts::parse();
    for (topo, label, suffix) in [
        (Topo::Sm2Gpu, "shared memory, inter-GPU (ms RTT)", "sm2"),
        (Topo::Ib, "InfiniBand (ms RTT)", "ib"),
    ] {
        Sweep::new("fig12", label, "matrix_size", &[256, 384, 512, 768, 1024])
            .series("ours", move |n, arch, r| {
                let (t, tr) = ours_rtt(
                    topo,
                    arch,
                    env::config(),
                    &contiguous_matrix(n),
                    &transpose_type(n),
                    2,
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
                    &contiguous_matrix(n),
                    &transpose_type(n),
                    1,
                    r,
                );
                (ms(t), tr)
            })
            .run(&opts.for_panel(suffix));
        println!();
    }
}
