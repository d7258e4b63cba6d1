//! offload_frontier — GPU-pack vs NicOffload vs StreamTriggered round
//! trips across message sizes and architectures (DESIGN.md §15).
//!
//! Each series enables one offload knob and lets the tuner choose: the
//! `gpu-pack` column is the three-class incumbent, `nic-offload` admits
//! the NIC DEV executor, `stream-triggered` admits the stream-op graph.
//! Where a column tracks `gpu-pack` exactly the model declined the
//! offload (the never-worse gate in `ablation_optimizer` holds it to
//! that); where it drops below, the offload crossed the frontier.
//!
//! Two panels split the regimes the analytic model separates: a
//! coarse-strided sweep (32 KiB blocks, DMA-bound — the NIC wins where
//! its DMA engine outruns the wire) and a medium latency-bound sweep
//! (256 B blocks — one doorbell re-arm beats two kernel launches plus
//! the per-fragment active message). Run with `--arch
//! k40,p100,v100,a100` to see the per-arch frontier; `--smoke`
//! restricts each panel to its first size for CI. `--trace` records
//! each panel's first size, the one where the offload classes run.

use bench::env;
use bench::harness::ms;
use bench::runner::{ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::{offload_coarse as coarse, offload_medium as medium};
use mpirt::MpiConfig;

fn variants() -> Vec<(&'static str, MpiConfig)> {
    vec![
        ("gpu-pack", env::config()),
        (
            "nic-offload",
            MpiConfig {
                nic_offload: true,
                ..env::config()
            },
        ),
        (
            "stream-triggered",
            MpiConfig {
                stream_trigger: true,
                ..env::config()
            },
        ),
    ]
}

fn main() {
    let opts = BenchOpts::parse();

    // Panel 1: coarse blocks, message size 512 KiB – 4 MiB. The NIC
    // descriptor-issue cost is negligible at this granularity, so the
    // frontier is purely DMA-rate vs wire-rate per architecture.
    let mut co = Sweep::new(
        "offload-frontier",
        "coarse-strided ping-pong RTT per path class (ms, ib, 32 KiB blocks)",
        "blocks_32k",
        &[16, 32, 64, 128],
    )
    .trace_first_x();
    for (name, cfg) in variants() {
        co = co.series(name, move |n, arch, r| {
            let t = coarse(n);
            let (rtt, tr) = ours_rtt(Topo::Ib, arch, cfg.clone(), &t, &t, 2, r);
            (ms(rtt), tr)
        });
    }
    co.run(&opts.for_panel("coarse"));
    println!();

    // Panel 2: medium blocks, message size 128 KiB – 1 MiB. Launch
    // overhead and per-fragment handshakes dominate here; the stream
    // graph amortizes the capture over the replayed iterations.
    let mut me = Sweep::new(
        "offload-frontier",
        "latency-bound ping-pong RTT per path class (ms, ib, 256 B blocks)",
        "blocks_256b",
        &[512, 1024, 2048, 4096],
    )
    .trace_first_x();
    for (name, cfg) in variants() {
        me = me.series(name, move |n, arch, r| {
            let t = medium(n);
            let (rtt, tr) = ours_rtt(Topo::Ib, arch, cfg.clone(), &t, &t, 2, r);
            (ms(rtt), tr)
        });
    }
    me.run(&opts.for_panel("medium"));
}
