//! The repo's benchmark: five closed-loop workloads over the simulator,
//! measured from outside the program through `pub` items only.
//!
//! `BENCHMARK.json` at the repo root names the command, the workloads
//! and the metrics; `README.md` beside this package explains them. One
//! process measures one workload: [`measure`] runs its segments, checks
//! every op against the CPU reference convertor, and yields the result
//! line the driver reads. A traced run ([`Opts::trace`]) adds harness
//! spans and the per-layer probes, and prints the per-layer metrics
//! in place of the end-to-end ones.

pub mod aa;
pub mod json;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workloads;

use json::Json;
use run::{Metric, RunData};
use std::path::PathBuf;
use workloads::{Size, Workload, DEFAULT_SEED};

/// The end-to-end metrics of `BENCHMARK.json`, in print order. What a
/// user of the simulator sees: how long until it is ready, how fast it
/// answers, what the answer costs in CPU and memory. `sim_us_per_op`
/// and `fail_share` are exact and printed with every run; the driver's
/// contract has no place for a metric that never moves or is zero, so
/// the first is listed per layer and the second travels as
/// `failed`/`attempted`.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_ms_p50",
    "cpu_ms_per_op",
    "peak_rss_mb",
];

/// The per-layer metrics of `BENCHMARK.json`: every traced run prints
/// exactly these.
pub const PER_LAYER: [&str; 46] = [
    "sim_us_per_op",
    "datatype.commit_us",
    "datatype.walk_ns_per_seg",
    "datatype.cpu_pack_gbps",
    "devengine.plan_build_ms",
    "devengine.cache_hit_us",
    "devengine.pack_ms",
    "devengine.unpack_ms",
    "devengine.units_per_op",
    "devengine.cache.hit_share",
    "simcore.par.gbps_coarse",
    "simcore.par.gbps_fine",
    "simcore.par.memcpy_gbps",
    "simcore.par.pool_threads",
    "simcore.event.ns_per_event",
    "simcore.event.count_per_op",
    "simcore.scratch.fresh_per_op",
    "simcore.trace.record_overhead_share",
    "simcore.shard.events_per_s_s1",
    "simcore.shard.events_per_s_s2",
    "simcore.shard.speedup_s2",
    "simcore.shard.digest_match_s2",
    "memsim.alloc_fill_gbps",
    "gpusim.memcpy_d2d_gbps",
    "gpusim.kernel.launches_per_op",
    "netsim.am.count_per_op",
    "netsim.wire_bytes_per_op",
    "mpirt.session_build_ms",
    "mpirt.post_us_per_op",
    "mpirt.drive_ms_per_op",
    "mpirt.first_op_ms",
    "mpirt.protocol_residual_ms",
    "mpirt.coll.post_ms",
    "mpirt.coll.drive_ms",
    "mpirt.scale.build_ms",
    "mpirt.scale.run_ms",
    "mpirt.scale.finish_ms",
    "faultsim.injected_per_op",
    "faultsim.retries_per_op",
    "harness.op_ms_tail",
    "harness.op_ms_tail_pct",
    "harness.setup_first_s",
    "harness.seg_rate_iqr_share",
    "harness.trace_overhead_share",
    "harness.cores",
    "harness.op_ms_p50",
];

#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    /// One workload in this process; `None` runs all five, each in a
    /// fresh child process.
    pub workload: Option<String>,
    pub seed: u64,
    /// Run length the op counts are scaled to.
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Two interleaved sets of this many runs of every workload.
    pub aa: Option<usize>,
    /// Damage the oracle's expectation: the run must then fail.
    pub corrupt_oracle: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: run::NOMINAL_SECONDS,
            trace: false,
            smoke: false,
            aa: None,
            corrupt_oracle: false,
        }
    }
}

pub const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <1..60>] \
[--trace <0|1>] [--smoke] [--aa <N>=5..]\n\
workloads: pp_dense pp_irregular cells_cold a2a_64 soak_1k (default: all five, one process each)";

impl Opts {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut value = |what: &str| args.next().ok_or(format!("{a} needs {what}"));
            match a.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    if workloads::spec(&name).is_none() {
                        return Err(format!("unknown workload {name:?}"));
                    }
                    o.workload = Some(name);
                }
                "--seed" => o.seed = parse_u64(&value("a number")?)?,
                "--seconds" => {
                    o.seconds = parse_u64(&value("a number")?)?;
                    if !(1..=60).contains(&o.seconds) {
                        return Err("--seconds must be 1..60".to_string());
                    }
                }
                "--trace" => {
                    o.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--smoke" => o.smoke = true,
                "--aa" => {
                    let n = parse_u64(&value("a run count")?)? as usize;
                    if n < 5 {
                        return Err("--aa needs at least 5 runs per set".to_string());
                    }
                    o.aa = Some(n);
                }
                "--corrupt-oracle" => o.corrupt_oracle = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(o)
    }

    pub fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    /// `smoke` numbers come from shrunk workloads and are never
    /// compared with anything.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("not a number: {s:?}"))
}

/// What one process measured: the metrics it prints, the exact figures,
/// and whether every op was right.
pub struct Outcome {
    pub workload: &'static str,
    pub mode: &'static str,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    pub exact: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Where the span file went, for a traced run.
    pub span_file: Option<PathBuf>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
        .emit()
    }

    /// The line before it: the exact figures and the mode, for `--aa`
    /// and for people.
    pub fn exact_line(&self) -> String {
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("mode".into(), Json::Str(self.mode.into())),
            ("metrics".into(), metrics_json(&self.exact)),
        ]);
        format!("{EXACT_PREFIX}{}", doc.emit())
    }
}

pub const EXACT_PREFIX: &str = "exact: ";

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Where span files go: `out/` beside this package's manifest, inside
/// the checkout the program was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn measure_with<W: Workload>(w: &W, spec: &'static workloads::Spec, opts: &Opts) -> Outcome {
    let name = spec.name;
    let size = opts.size();
    let ops = run::ops_per_segment(spec, size, opts.seconds);
    let plan = if opts.trace {
        run::traced_plan(size)
    } else {
        run::untraced_plan(size)
    };
    let data: RunData = run::run_workload(w, spec, &plan, ops, opts.corrupt_oracle);
    let (attempted, failed) = run::attempted_failed(&data.segments);
    let exact = run::exact(&data.segments);
    let wall = run::end_to_end(&data.segments, sys::peak_rss_mb());

    let (metrics, span_file) = if opts.trace {
        let mut m = run::from_segments(&data);
        // The traced run's own op median, from its plain segments: what
        // the overhead shares and the residual are computed against.
        let p50 = wall
            .iter()
            .find(|m| m.name == "op_ms_p50")
            .expect("op_ms_p50 is an end-to-end metric")
            .value;
        m.push(run::metric("harness.op_ms_p50", p50, "ms"));
        m.extend(probes::run_all(&|| w.probe_type(), opts.seed, size, p50));
        let path = out_dir().join(format!("trace-{name}.json"));
        let doc = data.spans.to_json(name, opts.seed, opts.mode());
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, doc.emit() + "\n"))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        (m, Some(path))
    } else {
        (wall, None)
    };
    Outcome {
        workload: name,
        mode: opts.mode(),
        metrics,
        exact,
        attempted,
        failed,
        span_file,
    }
}

/// Measure `opts.workload` in this process.
pub fn measure(opts: &Opts) -> Outcome {
    use workloads::{a2a::AllToAll, cells::Cells, pingpong::PingPong, soak::Soak};
    let name = opts.workload.as_deref().expect("a workload to measure");
    let spec = workloads::spec(name).expect("a known workload");
    let (seed, size) = (opts.seed, opts.size());
    match spec.name {
        "pp_dense" => measure_with(&PingPong::dense(seed, size), spec, opts),
        "pp_irregular" => measure_with(&PingPong::irregular(seed, size), spec, opts),
        "cells_cold" => measure_with(&Cells::new(seed, size), spec, opts),
        "a2a_64" => measure_with(&AllToAll::new(seed, size), spec, opts),
        "soak_1k" => measure_with(&Soak::new(seed, size), spec, opts),
        other => unreachable!("{other} is in SPECS but has no workload"),
    }
}

/// Print an outcome: one metric per line by name with its unit, then
/// the exact line, then the result line — the last line of the output.
pub fn print_outcome(o: &Outcome) {
    let kind = if o.span_file.is_some() {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!("# {} [{}] {kind} metrics", o.workload, o.mode);
    for m in o.metrics.iter().chain(&o.exact) {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<40} {:>18} ops", "attempted", o.attempted);
    println!("{:<40} {:>18} ops", "failed", o.failed);
    if let Some(path) = &o.span_file {
        println!("# spans written to {}", path.display());
    }
    println!("{}", o.exact_line());
    println!("{}", o.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = Opts::parse(args("--workload a2a_64 --seed 7 --seconds 16 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("a2a_64"));
        assert_eq!((o.seed, o.seconds, o.trace, o.smoke), (7, 16, true, false));
        assert_eq!(Opts::parse(args("")).unwrap(), Opts::default());
        assert_eq!(
            Opts::parse(args("--seed 0xD15C0")).unwrap().seed,
            DEFAULT_SEED
        );
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--aa 4",
            "--seed",
            "--frobnicate",
        ] {
            assert!(Opts::parse(args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        assert!(END_TO_END.contains(&"setup_s"));
    }

    /// `BENCHMARK.json` and the code agree on workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            workloads::SPECS.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        for (w, s) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&workloads::SPECS)
        {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(s.why));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(run::NOMINAL_SECONDS as f64)
        );
        let setup = &doc.get("end_to_end").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    }

    /// Unit of every metric as `BENCHMARK.json` declares it.
    fn declared_units() -> std::collections::BTreeMap<String, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|key| doc.get(key).and_then(Json::as_arr).unwrap().to_vec())
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn assert_units_as_declared(metrics: &[Metric]) {
        let declared = declared_units();
        for m in metrics {
            assert_eq!(
                declared.get(m.name).map(String::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
        }
    }

    /// The release profile is the root manifest's, verbatim: otherwise
    /// the crates would be measured under other build settings than the
    /// figure binaries use.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        fn profile(manifest: &str) -> Vec<String> {
            let text = std::fs::read_to_string(manifest).unwrap();
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty())
                .collect()
        }
        let own = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(own.iter().any(|l| l.starts_with("lto")), "{own:?}");
        assert_eq!(own, root);
    }

    /// A smoke run of every workload is correct and prints exactly the
    /// contract's metrics; with a damaged expectation it fails and the
    /// command's exit code says so.
    #[test]
    fn smoke_runs_are_correct_and_a_corrupt_oracle_fails_them() {
        for spec in &workloads::SPECS {
            let mut opts = Opts {
                workload: Some(spec.name.to_string()),
                smoke: true,
                ..Opts::default()
            };
            let good = measure(&opts);
            assert!(good.correct(), "{}", spec.name);
            assert_eq!(good.exit_code(), 0);
            assert_eq!(
                good.metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
                END_TO_END,
                "{}",
                spec.name
            );
            assert!(good
                .metrics
                .iter()
                .all(|m| m.value > 0.0 && m.value.is_finite()));
            assert_units_as_declared(&good.metrics);
            let line = Json::parse(&good.result_line()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(json::metrics_of(&line).len(), END_TO_END.len());

            opts.corrupt_oracle = true;
            let bad = measure(&opts);
            assert!(!bad.correct(), "{} with a corrupt oracle", spec.name);
            assert_ne!(bad.exit_code(), 0);
            assert_eq!(bad.failed, bad.attempted);
        }
    }

    #[test]
    fn a_traced_smoke_run_prints_every_per_layer_metric() {
        let opts = Opts {
            workload: Some("pp_irregular".to_string()),
            smoke: true,
            trace: true,
            ..Opts::default()
        };
        let o = measure(&opts);
        assert!(o.correct());
        let got: BTreeSet<&str> = o.metrics.iter().map(|m| m.name).collect();
        let want: BTreeSet<&str> = PER_LAYER.iter().copied().collect();
        assert_eq!(got, want);
        assert_eq!(o.metrics.len(), PER_LAYER.len(), "no metric twice");
        assert!(o.metrics.iter().all(|m| m.value.is_finite()));
        assert_units_as_declared(&o.metrics);
        let spans = std::fs::read_to_string(o.span_file.unwrap()).unwrap();
        let doc = Json::parse(&spans).unwrap();
        let names: BTreeSet<&str> = doc
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap())
            .collect();
        for want in [
            "segment.setup",
            "mpirt.session_build",
            "datatype.commit",
            "memsim.alloc_fill",
            "warmup",
            "op",
            "mpirt.post",
            "mpirt.drive",
            "verify",
        ] {
            assert!(names.contains(want), "no {want} span in {names:?}");
        }
    }
}
