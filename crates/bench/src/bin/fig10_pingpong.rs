//! Figure 10 — ping-pong round-trip time for sub-matrix (V) and
//! triangular (T) datatypes, ours vs the MVAPICH2-style baseline (the
//! Wang-style comparator plan in `mpirt::protocol::comparator`).
//!
//! Three panels selected by argv: `sm1` (shared memory, one GPU),
//! `sm2` (shared memory, two GPUs), `ib` (InfiniBand). No argument
//! runs all three.
//!
//! Expected shape (paper): ours is uniformly faster; the baseline's
//! indexed (T) curve explodes once the matrix grows (per-column
//! `cudaMemcpy2D` launches); intra-GPU (sm1) is ≥2× faster than
//! inter-GPU (sm2) because nothing crosses PCIe.

use bench::env;
use bench::harness::ms;
use bench::runner::{comparator_rtt, ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::{submatrix, triangular};
use mpirt::Comparator;

fn panel(topo: Topo, label: &'static str, opts: &BenchOpts) {
    Sweep::new(
        "fig10",
        label,
        "matrix_size",
        &[512, 1024, 2048, 3072, 4096],
    )
    .series("T-ours", move |n, arch, r| {
        let (t, tr) = ours_rtt(
            topo,
            arch,
            env::config(),
            &triangular(n),
            &triangular(n),
            3,
            r,
        );
        (ms(t), tr)
    })
    .series("V-ours", move |n, arch, r| {
        let (t, tr) = ours_rtt(
            topo,
            arch,
            env::config(),
            &submatrix(n),
            &submatrix(n),
            3,
            r,
        );
        (ms(t), tr)
    })
    .series("T-baseline", move |n, arch, r| {
        let (t, tr) = comparator_rtt(
            Comparator::Wang,
            topo,
            arch,
            env::config(),
            &triangular(n),
            &triangular(n),
            2,
            r,
        );
        (ms(t), tr)
    })
    .series("V-baseline", move |n, arch, r| {
        let (t, tr) = comparator_rtt(
            Comparator::Wang,
            topo,
            arch,
            env::config(),
            &submatrix(n),
            &submatrix(n),
            2,
            r,
        );
        (ms(t), tr)
    })
    .run(opts);
    println!();
}

fn main() {
    let opts = BenchOpts::parse();
    let panels: Vec<(Topo, &'static str, &'static str)> = match opts.rest.first() {
        Some(s) => {
            let topo = Topo::parse(s).unwrap_or_else(|| {
                eprintln!("usage: fig10_pingpong [sm1|sm2|ib]");
                std::process::exit(2);
            });
            vec![(topo, "selected panel (ms RTT)", "sel")]
        }
        None => vec![
            (Topo::Sm1Gpu, "(a) shared memory, intra-GPU (ms RTT)", "sm1"),
            (Topo::Sm2Gpu, "(b) shared memory, inter-GPU (ms RTT)", "sm2"),
            (Topo::Ib, "(c) InfiniBand (ms RTT)", "ib"),
        ],
    };
    for (topo, label, suffix) in panels {
        panel(topo, label, &opts.for_panel(suffix));
    }
}
