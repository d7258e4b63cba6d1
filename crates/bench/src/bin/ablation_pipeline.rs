//! Ablation: pipeline tuning — fragment size × ring depth.
//!
//! §4.1: "which might represent a reduction by nearly a factor of 2 if
//! the pipeline size is correctly tuned." Sweeps the fragment size at
//! several pipeline depths for the triangular ping-pong; depth 1 is
//! the no-overlap degenerate case, tiny fragments drown in per-launch
//! and per-message overheads, huge fragments stop overlapping.

use bench::env;
use bench::harness::ms;
use bench::runner::{ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::triangular;
use devengine::OptimizerConfig;

fn main() {
    let opts = BenchOpts::parse();
    let mut sweep = Sweep::new(
        "ablation-pipeline",
        "triangular N=2048 ping-pong RTT vs fragment size, per ring depth (ms, sm2)",
        "frag_kb",
        &[64, 128, 256, 512, 1024, 2048],
    );
    for depth in [1usize, 2, 4, 8] {
        sweep = sweep.series(&format!("depth{depth}"), move |frag_kb, arch, r| {
            let t = triangular(2048);
            // The sweep studies the static fragment/depth knobs; the
            // auto-tuner would override the swept shape, so the
            // optimizer is pinned off.
            let mut cfg = env::config();
            cfg.frag_size = frag_kb << 10;
            cfg.pipeline_depth = depth;
            cfg.engine.optimizer = OptimizerConfig::disabled();
            let (rtt, tr) = ours_rtt(Topo::Sm2Gpu, arch, cfg, &t, &t, 3, r);
            (ms(rtt), tr)
        });
    }
    sweep.run(&opts);
}
