//! Ablation: the commit-time optimizer layer — datatype
//! canonicalization, DEV coalescing, strided-kernel dispatch and the
//! analytic fragment/unit auto-tuner, each toggled independently.
//!
//! `all-off` reproduces the pre-optimizer numbers exactly (it is the
//! same code path the other figure binaries take under
//! `GPU_DDT_OPT=off`); each single-pass series isolates one
//! optimization's contribution; `all-on` is the shipping default.
//!
//! Before printing the CSV the binary asserts the tuner's safety
//! property on the figure workloads — held by the schedule the tuner
//! prices being the executor's, not by a safety margin: with
//! auto-tuning enabled the simulated round-trip is never worse than the
//! static default — both
//! starting from everything-off and from everything-else-on — across
//! the triangular (fig7/fig10) and transpose (fig12) datatypes on all
//! three topologies. The same property is then asserted for the
//! five-way path-class choice: admitting NicOffload and
//! StreamTriggered as candidates (DESIGN.md §15) must never lose to
//! the three-class incumbent, on any architecture or fragmentation
//! regime.

use bench::env;
use bench::harness::ms;
use bench::runner::{ours_rtt, BenchOpts, Sweep, Topo};
use bench::workloads::{contiguous_matrix, transpose_type, triangular};
use datatype::DataType;
use devengine::OptimizerConfig;
use gpusim::GpuArch;
use mpirt::MpiConfig;

fn cfg(opt: OptimizerConfig) -> MpiConfig {
    let mut config = env::config();
    config.engine.optimizer = opt;
    config
}

fn variants() -> Vec<(&'static str, OptimizerConfig)> {
    let off = OptimizerConfig::disabled();
    vec![
        ("all-off", off),
        (
            "canon",
            OptimizerConfig {
                canonicalize: true,
                ..off
            },
        ),
        (
            "coalesce",
            OptimizerConfig {
                coalesce: true,
                ..off
            },
        ),
        (
            "vector",
            OptimizerConfig {
                vector_dispatch: true,
                ..off
            },
        ),
        (
            "tune",
            OptimizerConfig {
                autotune: true,
                ..off
            },
        ),
        ("all-on", OptimizerConfig::enabled()),
    ]
}

/// The tuner must never lose to the static fragment/depth/unit
/// defaults, whatever the other toggles: assert it on the figure
/// workloads across every topology.
fn assert_tuner_never_worse() {
    type Mk = fn(u64) -> DataType;
    let workloads: [(&str, Mk, Mk, &[u64]); 2] = [
        ("triangular", triangular, triangular, &[512, 2048]),
        ("transpose", contiguous_matrix, transpose_type, &[256, 512]),
    ];
    let baselines = [
        ("from-all-off", OptimizerConfig::disabled()),
        (
            "from-rest-on",
            OptimizerConfig {
                autotune: false,
                ..OptimizerConfig::enabled()
            },
        ),
    ];
    for topo in [Topo::Sm1Gpu, Topo::Sm2Gpu, Topo::Ib] {
        for (wname, mk0, mk1, sizes) in &workloads {
            for &n in *sizes {
                let (ty0, ty1) = (mk0(n), mk1(n));
                for (bname, base) in baselines {
                    let tuned = OptimizerConfig {
                        autotune: true,
                        ..base
                    };
                    let k40 = GpuArch::default_arch();
                    let (t_off, _) = ours_rtt(topo, k40, cfg(base), &ty0, &ty1, 2, false);
                    let (t_on, _) = ours_rtt(topo, k40, cfg(tuned), &ty0, &ty1, 2, false);
                    assert!(
                        t_on <= t_off,
                        "tuner regressed {wname} N={n} on {topo:?} ({bname}): \
                         tuned {t_on} vs static {t_off}"
                    );
                }
            }
        }
    }
    eprintln!("# tuner-never-worse assertion passed on all figure workloads");
}

/// The five-way path-class gate: with the offload knobs on, the tuner
/// may route a cross-node transfer to the NIC DEV executor or the
/// stream-op graph — but only where the schedule the executor runs,
/// each class priced at the shape it would run, is strictly shorter; no
/// margin covers a gap between model and run, so the measured
/// round-trip must never be worse than the three-class incumbent.
/// Swept across every registered
/// architecture (NIC DMA rates and doorbell latencies diverge per
/// arch) and the three fragmentation regimes the model separates.
fn assert_offload_never_worse() {
    let coarse = DataType::vector(64, 4096, 8192, &DataType::double())
        .expect("coarse")
        .commit();
    let medium = DataType::vector(512, 32, 64, &DataType::double())
        .expect("medium")
        .commit();
    let fine = DataType::vector(8192, 2, 4, &DataType::double())
        .expect("fine")
        .commit();
    let workloads = [
        ("coarse-2m", &coarse),
        ("medium-128k", &medium),
        ("fine-128k", &fine),
    ];
    let knobs = [
        ("nic", true, false),
        ("stream", false, true),
        ("both", true, true),
    ];
    // The incumbent is the three-class choice whatever the environment
    // asks for: both offload knobs off.
    let incumbent = MpiConfig {
        nic_offload: false,
        stream_trigger: false,
        ..env::config()
    };
    for arch_name in ["k40", "p100", "v100", "a100"] {
        let arch = GpuArch::named(arch_name);
        for (wname, ty) in &workloads {
            let (t_base, _) = ours_rtt(Topo::Ib, arch, incumbent.clone(), ty, ty, 2, false);
            for (kname, nic, stream) in knobs {
                let on = MpiConfig {
                    nic_offload: nic,
                    stream_trigger: stream,
                    ..incumbent.clone()
                };
                let (t_on, _) = ours_rtt(Topo::Ib, arch, on, ty, ty, 2, false);
                assert!(
                    t_on <= t_base,
                    "offload path-class choice regressed {wname} on {arch_name} \
                     (knobs: {kname}): {t_on} vs incumbent {t_base}"
                );
            }
        }
    }
    eprintln!("# offload-never-worse assertion passed (5-way path choice, 4 archs)");
}

fn main() {
    let opts = BenchOpts::parse();
    assert_tuner_never_worse();
    assert_offload_never_worse();

    // Panel 1: triangular ping-pong (the fig7/fig10 datatype) over the
    // full IPC pipeline — canonicalization, coalescing and the
    // fragment tuner all engage here.
    let mut tri = Sweep::new(
        "ablation-optimizer",
        "triangular ping-pong RTT per optimizer pass (ms, sm2)",
        "matrix_size",
        &[512, 1024, 2048, 4096],
    );
    for (name, opt) in variants() {
        tri = tri.series(name, move |n, arch, r| {
            let t = triangular(n);
            let (rtt, tr) = ours_rtt(Topo::Sm2Gpu, arch, cfg(opt), &t, &t, 2, r);
            (ms(rtt), tr)
        });
    }
    tri.run(&opts.for_panel("tri"));
    println!();

    // Panel 2: the same triangular exchange across InfiniBand
    // (copy-in/copy-out) — the multi-hop conversion pipeline is where
    // the fragment tuner finds real wins (fill dominates, smaller
    // fragments overlap the hops).
    let mut ib = Sweep::new(
        "ablation-optimizer",
        "triangular ping-pong RTT per optimizer pass (ms, ib)",
        "matrix_size",
        &[512, 1024, 2048, 4096],
    );
    for (name, opt) in variants() {
        ib = ib.series(name, move |n, arch, r| {
            let t = triangular(n);
            let (rtt, tr) = ours_rtt(Topo::Ib, arch, cfg(opt), &t, &t, 2, r);
            (ms(rtt), tr)
        });
    }
    ib.run(&opts.for_panel("ib"));
    println!();

    // Panel 3: matrix transpose (fig12) — the strided-dispatch pass
    // turns the receiver's 8-byte-shattered DEV into one arithmetic
    // strided-2D kernel.
    let mut tp = Sweep::new(
        "ablation-optimizer",
        "transpose ping-pong RTT per optimizer pass (ms, sm2)",
        "matrix_size",
        &[256, 512, 768, 1024],
    );
    for (name, opt) in variants() {
        tp = tp.series(name, move |n, arch, r| {
            let (rtt, tr) = ours_rtt(
                Topo::Sm2Gpu,
                arch,
                cfg(opt),
                &contiguous_matrix(n),
                &transpose_type(n),
                2,
                r,
            );
            (ms(rtt), tr)
        });
    }
    tp.run(&opts.for_panel("transpose"));
}
