//! The A/A tool and the all-workloads runner: both start this program
//! again, one fresh process per workload run, and read its last lines.
//!
//! `--aa N` measures whether the benchmark agrees with itself. It runs
//! two interleaved sets of N runs of every workload on the same code —
//! run i of either set takes seed + i, as the driver does — and
//! compares the sets' medians against the bounds in `BENCHMARK.json`.

use crate::json::{metrics_of, Json};
use crate::stats::{median, quartiles};
use crate::{workloads, Opts, EXACT_PREFIX};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What a child run printed: its metrics and exact figures by name.
pub struct ChildRun {
    pub correct: bool,
    pub metrics: BTreeMap<String, (f64, String)>,
    pub exact: BTreeMap<String, (f64, String)>,
}

fn child_args(workload: &str, seed: u64, opts: &Opts) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        opts.seconds.to_string(),
        "--trace".to_string(),
        u8::from(opts.trace).to_string(),
    ];
    if opts.smoke {
        args.push("--smoke".to_string());
    }
    args
}

fn child(workload: &str, seed: u64, opts: &Opts) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(child_args(workload, seed, opts))
        .stdin(Stdio::null());
    Ok(cmd)
}

/// Run one workload in a fresh process, wait for it and read its last
/// two lines.
fn run_child(workload: &str, seed: u64, opts: &Opts) -> Result<ChildRun, String> {
    let out = child(workload, seed, opts)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or(format!("{workload} printed nothing"))?;
    let result = Json::parse(result).map_err(|e| format!("{workload} result line: {e}"))?;
    let exact = lines
        .next()
        .and_then(|l| l.strip_prefix(EXACT_PREFIX))
        .ok_or(format!("{workload} printed no exact line"))?;
    let exact = Json::parse(exact).map_err(|e| format!("{workload} exact line: {e}"))?;
    Ok(ChildRun {
        correct: out.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        metrics: metrics_of(&result),
        exact: metrics_of(&exact),
    })
}

/// Every workload once, each in a fresh process that prints its own
/// metrics. Returns the exit code.
pub fn run_all(opts: &Opts) -> i32 {
    let mut code = 0;
    for spec in &workloads::SPECS {
        let status = child(spec.name, opts.seed, opts)
            .and_then(|mut c| c.status().map_err(|e| format!("start {}: {e}", spec.name)));
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: {s}", spec.name);
                code = 1;
            }
            Err(e) => {
                eprintln!("{e}");
                code = 1;
            }
        }
        println!();
    }
    code
}

/// Bound of each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One row of the A/A table: a metric of a workload in both sets.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub bound: f64,
}

impl Row {
    /// Difference of the set medians as a share of the first.
    pub fn diff_share(&self) -> f64 {
        (median(&self.b) - median(&self.a)).abs() / median(&self.a)
    }

    /// Interquartile range of the pooled runs as a share of their
    /// median: the spread the driver checks.
    pub fn spread_share(&self) -> f64 {
        let all: Vec<f64> = self.a.iter().chain(&self.b).copied().collect();
        crate::stats::iqr_share(&all)
    }

    pub fn within_bound(&self) -> bool {
        self.diff_share() <= self.bound
    }

    pub fn print(&self) {
        let (a1, a3) = quartiles(&self.a);
        let (b1, b3) = quartiles(&self.b);
        println!(
            "| {} | {} ({}) | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:.2} % | {:.2} % | {:.0} % | {} |",
            self.workload,
            self.metric,
            self.unit,
            median(&self.a),
            a1,
            a3,
            median(&self.b),
            b1,
            b3,
            self.diff_share() * 100.0,
            self.spread_share() * 100.0,
            self.bound * 100.0,
            if self.within_bound() { "ok" } else { "EXCEEDED" },
        );
    }
}

/// Two interleaved sets of `n` runs of every workload. Returns the exit
/// code: non-zero when a run was incorrect, an exact figure differed
/// between two runs at one seed, or a median difference exceeded its
/// bound.
pub fn run_aa(n: usize, opts: &Opts) -> i32 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bounds = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| bounds(&t))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 2;
        }
    };

    let mut failed = false;
    // (workload, metric) → values of set A and set B, in run order.
    let mut rows: BTreeMap<(usize, usize), Row> = BTreeMap::new();
    for i in 0..n {
        let seed = opts.seed + i as u64;
        for (wi, spec) in workloads::SPECS.iter().enumerate() {
            // A then B, B then A in turn, so that neither set always
            // runs on the warmer box.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut pair: [Option<ChildRun>; 2] = [None, None];
            for set in order {
                eprintln!("# run {}/{n} {} set {}", i + 1, spec.name, ["A", "B"][set]);
                match run_child(spec.name, seed, opts) {
                    Ok(run) => {
                        if !run.correct {
                            eprintln!("{} seed {seed}: incorrect", spec.name);
                            failed = true;
                        }
                        pair[set] = Some(run);
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return 1;
                    }
                }
            }
            let [Some(a), Some(b)] = pair else {
                unreachable!("both sets ran");
            };
            if a.exact != b.exact {
                eprintln!(
                    "{} seed {seed}: exact figures differ between two runs:\n  {:?}\n  {:?}",
                    spec.name, a.exact, b.exact
                );
                failed = true;
            }
            for (mi, (metric, bound)) in bounds.iter().enumerate() {
                let (Some(va), Some(vb)) = (a.metrics.get(metric), b.metrics.get(metric)) else {
                    eprintln!("{}: no metric {metric}", spec.name);
                    return 1;
                };
                let row = rows.entry((wi, mi)).or_insert_with(|| Row {
                    workload: spec.name.to_string(),
                    metric: metric.clone(),
                    unit: va.1.clone(),
                    a: Vec::new(),
                    b: Vec::new(),
                    bound: *bound,
                });
                row.a.push(va.0);
                row.b.push(vb.0);
            }
        }
    }

    println!(
        "A/A: two interleaved sets of {n} runs per workload, seeds {}..{}, {} s runs, mode {}",
        opts.seed,
        opts.seed + n as u64 - 1,
        opts.seconds,
        opts.mode()
    );
    println!("| workload | metric (unit) | set A median [q1, q3] | set B median [q1, q3] | median diff | pooled IQR | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    for row in rows.values() {
        row.print();
        failed |= !row.within_bound();
    }
    println!(
        "exact figures (sim_us_per_op, counts per op, fail_share): {}",
        if failed {
            "see messages above"
        } else {
            "identical between the two runs at every seed"
        }
    );
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_compare_set_medians_against_the_bound() {
        let row = |b: &[f64], bound: f64| Row {
            workload: "w".into(),
            metric: "m".into(),
            unit: "ms".into(),
            a: vec![10.0, 10.2, 9.8, 10.1, 9.9],
            b: b.to_vec(),
            bound,
        };
        let close = row(&[10.3, 10.1, 10.4, 10.2, 10.3], 0.1);
        assert!((close.diff_share() - 0.03).abs() < 1e-9);
        assert!(close.within_bound());
        let far = row(&[11.3, 11.1, 11.4, 11.2, 11.3], 0.1);
        assert!(!far.within_bound());
        assert!(close.spread_share() > 0.0);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        assert_eq!(
            bounds(doc).unwrap(),
            vec![("setup_s".to_string(), 0.2), ("ops_per_s".to_string(), 0.1)]
        );
        assert!(bounds("{}").is_err());
    }

    #[test]
    fn children_get_the_drivers_arguments() {
        let opts = Opts {
            seconds: 16,
            ..Opts::default()
        };
        assert_eq!(
            child_args("pp_dense", 42, &opts).join(" "),
            "--workload pp_dense --seed 42 --seconds 16 --trace 0"
        );
    }
}
