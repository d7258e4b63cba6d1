//! Shared measurement drivers and the sweep runner for the figure
//! binaries.
//!
//! Every binary declares a [`Sweep`] — an x-axis plus named series,
//! each a closure measuring one configuration — and calls
//! [`Sweep::run`]. The runner prints the CSV the paper's figures are
//! compared against; with `--trace <path>` it re-runs every series at
//! the largest x with recording on, writes one merged Chrome
//! `trace_event` JSON (one process per series) and prints each series'
//! [`Metrics`] summary to stderr.

use crate::harness::{print_header, print_row, Figure};
use crate::workloads::alloc_typed;
use datatype::DataType;
use gpusim::GpuArch;
use memsim::GpuId;
use mpirt::api::PingPongSpec;
use mpirt::{
    comparator_transfer, mean_round_trip, ping_pong, wait_all, Comparator, MpiConfig, RankSpec,
    Session, SessionBuilder, Side,
};
use simcore::{Metrics, SimTime, Tracer};
use std::path::PathBuf;

/// Command-line options shared by every figure binary.
pub struct BenchOpts {
    /// Write a merged Chrome trace of one x's runs here: the sweep's
    /// last, unless it traces its first ([`Sweep::trace_first_x`]).
    pub trace: Option<PathBuf>,
    /// GPU architectures to sweep (`--arch`), resolution order
    /// preserved, duplicates removed. Empty means "registry default".
    pub archs: Vec<&'static GpuArch>,
    /// Restrict the sweep to its smallest x (`--smoke`), for CI runs
    /// that validate output shape rather than figure fidelity.
    pub smoke: bool,
    /// Positional arguments left over (panel selectors etc.).
    pub rest: Vec<String>,
}

impl BenchOpts {
    /// Parse `std::env::args`: `--trace <path>`, `--arch <names>`
    /// (repeatable and/or comma-separated), `--smoke`, plus free
    /// positionals. A malformed `GPU_DDT_*` variable ([`crate::env`])
    /// exits here, before any output.
    pub fn parse() -> BenchOpts {
        crate::env::config();
        let mut args = std::env::args().skip(1);
        let mut trace = None;
        let mut archs: Vec<&'static GpuArch> = Vec::new();
        let mut smoke = false;
        let mut rest = Vec::new();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => {
                    let path = args.next().expect("--trace needs a path");
                    trace = Some(PathBuf::from(path));
                }
                "--arch" => {
                    let names = args.next().expect("--arch needs a name (e.g. k40,v100)");
                    for name in names.split(',').filter(|s| !s.trim().is_empty()) {
                        let arch = GpuArch::named(name);
                        if !archs.contains(&arch) {
                            archs.push(arch);
                        }
                    }
                }
                "--smoke" => smoke = true,
                other => rest.push(other.to_string()),
            }
        }
        BenchOpts {
            trace,
            archs,
            smoke,
            rest,
        }
    }

    /// The architectures to run: the `--arch` selection, or the
    /// registry default when none was named.
    pub fn archs(&self) -> Vec<&'static GpuArch> {
        if self.archs.is_empty() {
            vec![GpuArch::default_arch()]
        } else {
            self.archs.clone()
        }
    }

    /// Options for one panel of a multi-panel binary: same flags, with
    /// the trace path (if any) suffixed `name.<panel>.json` so panels
    /// don't overwrite each other.
    pub fn for_panel(&self, panel: &str) -> BenchOpts {
        let trace = self.trace.as_ref().map(|p| {
            let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
            let ext = p.extension().and_then(|s| s.to_str()).unwrap_or("json");
            p.with_file_name(format!("{stem}.{panel}.{ext}"))
        });
        BenchOpts {
            trace,
            archs: self.archs.clone(),
            smoke: self.smoke,
            rest: self.rest.clone(),
        }
    }
}

/// One measured configuration: maps an (x, arch) point to a cell value,
/// and — when the runner asks for a trace (`record` true) — returns the
/// run's tracer alongside. Build sims through [`Session`] (threading the
/// arch into the builder) and return `session.into_trace()` so the
/// tracer always comes back, recorded or not.
pub(crate) type Eval = Box<dyn Fn(u64, &'static GpuArch, bool) -> (f64, Tracer)>;

/// A figure: an x-axis sweep over named series.
pub struct Sweep {
    id: &'static str,
    title: &'static str,
    x_label: &'static str,
    xs: Vec<u64>,
    series: Vec<(String, Eval)>,
    /// `--trace` re-runs the first x instead of the last.
    trace_first: bool,
}

impl Sweep {
    pub fn new(id: &'static str, title: &'static str, x_label: &'static str, xs: &[u64]) -> Sweep {
        Sweep {
            id,
            title,
            x_label,
            xs: xs.to_vec(),
            series: Vec::new(),
            trace_first: false,
        }
    }

    /// Trace the sweep's first x rather than its last: for a figure
    /// whose last x is not where the behaviour its trace shows happens.
    pub fn trace_first_x(mut self) -> Sweep {
        self.trace_first = true;
        self
    }

    /// Add a named series.
    pub fn series(
        mut self,
        name: &str,
        eval: impl Fn(u64, &'static GpuArch, bool) -> (f64, Tracer) + 'static,
    ) -> Sweep {
        self.series.push((name.to_string(), Box::new(eval)));
        self
    }

    /// Print the CSV, then honor `--trace`.
    ///
    /// Output format is arch-aware: when the resolved selection is
    /// exactly the registry default (no `--arch`, or `--arch k40`), the
    /// CSV is the legacy column set, byte-identical to the committed
    /// `results/` files. Any other selection inserts an `arch` column
    /// after the x column and emits one row per (x, arch).
    pub fn run(self, opts: &BenchOpts) {
        let archs = opts.archs();
        let legacy = archs == [GpuArch::default_arch()];
        let xs: Vec<u64> = if opts.smoke {
            self.xs.iter().copied().take(1).collect()
        } else {
            self.xs.clone()
        };
        let fig = Figure {
            id: self.id,
            title: self.title,
            x_label: self.x_label,
            arch_column: !legacy,
            series: self.series.iter().map(|(n, _)| n.clone()).collect(),
        };
        print_header(&fig);
        for &x in &xs {
            for &arch in &archs {
                let row: Vec<f64> = self
                    .series
                    .iter()
                    .map(|(_, f)| f(x, arch, false).0)
                    .collect();
                print_row(x, (!legacy).then_some(arch.name), &row);
            }
        }
        if let Some(path) = &opts.trace {
            let x = *if self.trace_first {
                xs.first()
            } else {
                xs.last()
            }
            .expect("sweep has at least one x");
            let mut events = Vec::new();
            let mut pid = 0u32;
            eprintln!("# {}: tracing {} = {x}", self.id, self.x_label);
            for &arch in &archs {
                for (name, f) in &self.series {
                    let label = if legacy {
                        name.clone()
                    } else {
                        format!("{name}@{}", arch.name)
                    };
                    let (_, trace) = f(x, arch, true);
                    pid += 1;
                    trace.chrome_events(pid, &label, &mut events);
                    eprintln!("## {label}");
                    let mut m = Metrics::from_trace(&trace);
                    m.arch = Some(arch.name);
                    eprint!("{}", m.summary());
                }
            }
            let json = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
            std::fs::write(path, json)
                .unwrap_or_else(|e| panic!("write trace {}: {e}", path.display()));
            eprintln!("# wrote {}", path.display());
        }
    }
}

/// Which two-rank topology a ping-pong runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topo {
    /// Shared memory, both ranks on one GPU.
    Sm1Gpu,
    /// Shared memory, one GPU per rank.
    Sm2Gpu,
    /// InfiniBand across nodes.
    Ib,
}

impl Topo {
    /// A session builder preset for this topology on one architecture.
    pub fn session(self, arch: &'static GpuArch, config: MpiConfig) -> SessionBuilder {
        let b = Session::builder().arch(arch).config(config);
        match self {
            Topo::Sm1Gpu => b.two_ranks_one_gpu(),
            Topo::Sm2Gpu => b.two_ranks_two_gpus(),
            Topo::Ib => b.two_ranks_ib(),
        }
    }

    pub fn parse(s: &str) -> Option<Topo> {
        match s {
            "sm1" => Some(Topo::Sm1Gpu),
            "sm2" => Some(Topo::Sm2Gpu),
            "ib" => Some(Topo::Ib),
            _ => None,
        }
    }
}

/// A single-rank session for the intra-process engine benchmarks
/// (Figures 6–8): one GPU, no channels.
pub fn solo_session(arch: &'static GpuArch, config: MpiConfig, record: bool) -> Session {
    Session::builder()
        .arch(arch)
        .rank_specs(
            &[RankSpec {
                gpu: GpuId(0),
                node: 0,
            }],
            1,
        )
        .config(config)
        .record_if(record)
        .build()
}

/// Mean round-trip time of our implementation for GPU-resident data:
/// rank 0 holds `ty0`, rank 1 holds `ty1` (signatures must match).
pub fn ours_rtt(
    topo: Topo,
    arch: &'static GpuArch,
    config: MpiConfig,
    ty0: &DataType,
    ty1: &DataType,
    iters: u32,
    record: bool,
) -> (SimTime, Tracer) {
    let mut sess = topo.session(arch, config).record_if(record).build();
    let b0 = alloc_typed(&mut sess, 0, ty0, 1, true, true);
    let b1 = alloc_typed(&mut sess, 1, ty1, 1, true, false);
    let t = ping_pong(
        &mut sess,
        PingPongSpec {
            ty0: ty0.clone(),
            count0: 1,
            buf0: b0,
            ty1: ty1.clone(),
            count1: 1,
            buf1: b1,
            iters,
        },
    );
    (t, sess.into_trace())
}

/// Mean round-trip time of one of the paper's comparators (§2.2) on the
/// same workload and topology: a message 0 → 1, then 1 → 0, each run to
/// completion.
#[expect(
    clippy::too_many_arguments,
    reason = "`ours_rtt`'s arguments and the comparator"
)]
pub fn comparator_rtt(
    which: Comparator,
    topo: Topo,
    arch: &'static GpuArch,
    config: MpiConfig,
    ty0: &DataType,
    ty1: &DataType,
    iters: u32,
    record: bool,
) -> (SimTime, Tracer) {
    let mut sess = topo.session(arch, config).record_if(record).build();
    let side = |sess: &mut Session, rank, ty: &DataType| Side {
        rank,
        ty: ty.clone(),
        count: 1,
        buf: alloc_typed(sess, rank, ty, 1, true, rank == 0),
    };
    let (a, b) = (side(&mut sess, 0, ty0), side(&mut sess, 1, ty1));
    let t = mean_round_trip(&mut sess, iters, |sim| {
        for (s, r) in [(&a, &b), (&b, &a)] {
            let req = comparator_transfer(sim, which, s.clone(), r.clone());
            wait_all(sim, &[req]).expect("comparator round failed");
        }
    });
    (t, sess.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{submatrix, triangular};

    /// `offload_frontier --trace` records its latency panel's first
    /// cell, 512 × 256 B, because the stream-triggered class runs
    /// there: on the arches the CI smoke traces, the series' traced run
    /// replays its captured graph.
    #[test]
    fn the_traced_latency_cell_takes_the_stream_class() {
        let t = crate::workloads::offload_medium(512);
        for arch in ["k40", "a100"] {
            let cfg = MpiConfig {
                stream_trigger: true,
                ..MpiConfig::default()
            };
            let (_, trace) = ours_rtt(Topo::Ib, GpuArch::named(arch), cfg, &t, &t, 2, true);
            let replays =
                Metrics::from_trace(&trace).counter(simcore::Counter::OffloadStreamReplays);
            assert!(replays > 0, "{arch}: the stream class never ran");
        }
    }

    #[test]
    fn topo_parse() {
        assert_eq!(Topo::parse("sm1"), Some(Topo::Sm1Gpu));
        assert_eq!(Topo::parse("sm2"), Some(Topo::Sm2Gpu));
        assert_eq!(Topo::parse("ib"), Some(Topo::Ib));
        assert_eq!(Topo::parse("x"), None);
    }

    #[test]
    fn rtt_drivers_run() {
        let t = triangular(96);
        let v = submatrix(96);
        let k40 = GpuArch::default_arch();
        for topo in [Topo::Sm1Gpu, Topo::Sm2Gpu, Topo::Ib] {
            let (ours, _) = ours_rtt(topo, k40, MpiConfig::default(), &t, &t, 2, false);
            assert!(ours > SimTime::ZERO, "{topo:?}");
            for which in [Comparator::Wang, Comparator::Jenkins] {
                let (base, _) =
                    comparator_rtt(which, topo, k40, MpiConfig::default(), &v, &v, 2, false);
                assert!(base > SimTime::ZERO, "{topo:?} {which:?}");
            }
        }
    }

    #[test]
    fn ours_beats_baseline_on_triangular_everywhere() {
        let t = triangular(192);
        for arch in GpuArch::registry() {
            for topo in [Topo::Sm1Gpu, Topo::Sm2Gpu, Topo::Ib] {
                let (ours, _) = ours_rtt(topo, arch, MpiConfig::default(), &t, &t, 2, false);
                let (base, _) = comparator_rtt(
                    Comparator::Wang,
                    topo,
                    arch,
                    MpiConfig::default(),
                    &t,
                    &t,
                    2,
                    false,
                );
                assert!(
                    ours < base,
                    "{topo:?} on {}: ours {ours} vs baseline {base}",
                    arch.name
                );
            }
        }
    }

    #[test]
    fn recorded_rtt_trace_has_protocol_spans() {
        let t = triangular(128);
        let (_, trace) = ours_rtt(
            Topo::Sm2Gpu,
            GpuArch::default_arch(),
            MpiConfig::default(),
            &t,
            &t,
            1,
            true,
        );
        let cats: std::collections::BTreeSet<&str> = trace
            .events()
            .iter()
            .map(|e| match e {
                simcore::trace::TraceEvent::Span { cat, .. }
                | simcore::trace::TraceEvent::Instant { cat, .. } => cat.as_str(),
            })
            .collect();
        for want in ["gpusim", "devengine", "mpirt", "netsim"] {
            assert!(cats.contains(want), "missing {want} spans, have {cats:?}");
        }
        let m = Metrics::from_trace(&trace);
        assert!(m.counter(simcore::Counter::MpiDeliveredBytes) > 0);
    }
}
