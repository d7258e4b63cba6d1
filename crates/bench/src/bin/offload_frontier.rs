//! offload_frontier — GPU-pack vs NicOffload vs StreamTriggered round
//! trips across message sizes and architectures (DESIGN.md §15).
//!
//! Each series enables one offload knob and lets the tuner choose: the
//! `gpu-pack` column is the three-class incumbent, `nic-offload` admits
//! the NIC DEV executor, `stream-triggered` admits the stream-op graph.
//! The `nic-ran` and `stream-ran` columns name the class the offload
//! series' transfers took — `nic` or `stream` when the run counted a
//! NIC program or a graph replay (`offload.nic.programs`,
//! `offload.stream.replays`), else `gpu-pack`, where the tuner kept the
//! incumbent and the series equals the `gpu-pack` column (the
//! never-worse gate in `ablation_optimizer` holds the choice to that).
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
use simcore::trace::names;
use simcore::Tracer;

/// The class a series' transfers took.
fn ran(trace: &Tracer) -> &'static str {
    if trace.counter(names::OFFLOAD_NIC_PROGRAMS) > 0 {
        "nic"
    } else if trace.counter(names::OFFLOAD_STREAM_REPLAYS) > 0 {
        "stream"
    } else {
        "gpu-pack"
    }
}

/// The two `ran` columns.
fn with_ran(sweep: Sweep) -> Sweep {
    (sweep.label("nic-ran", "nic-offload", ran)).label("stream-ran", "stream-triggered", ran)
}

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
    with_ran(co).run(&opts.for_panel("coarse"));
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
    with_ran(me).run(&opts.for_panel("medium"));
}
