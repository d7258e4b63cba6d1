//! Scale soak: the message-level engine pushed to the regime the full
//! protocol stack can't reach — a 1024-rank alltoall is over a million
//! point-to-point messages — with the fault plan live.
//!
//! Emits `BENCH_scale.json` at the repo root: the exact, reproducible
//! facts of the run (`scale-soak/v2`), no wall-clock field. The file is
//! the digest the repo benchmark's `soak_1k` workload is checked
//! against; CI compares a fresh run to it field by field. Wall-clock
//! cost of the soak is `soak_1k`'s to measure (BENCHMARK.json).
//!
//! Usage:
//!   scale_soak [--smoke] [--ranks <n>] [--out <path>]
//!
//! `--smoke` shrinks the soak to 64 ranks for CI; the JSON keeps the
//! same shape with `"mode": "smoke"`. `--ranks` overrides the rank
//! count.

use faultsim::{FaultKind, FaultOp, FaultPlan};
use mpirt::scale::{self, ScaleConfig, ScaleOp};
use netsim::Topology;
use std::path::PathBuf;

struct Opts {
    smoke: bool,
    ranks: Option<u32>,
    out: PathBuf,
}

fn parse_opts() -> Opts {
    let default_out = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_scale.json"
    ));
    let mut smoke = false;
    let mut ranks = None;
    let mut out = default_out;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--ranks" => {
                ranks = Some(
                    args.next()
                        .expect("--ranks needs a count")
                        .parse()
                        .expect("--ranks must be an integer"),
                )
            }
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            other => {
                panic!("unknown argument {other:?} (expected --smoke / --ranks <n> / --out <path>)")
            }
        }
    }
    Opts { smoke, ranks, out }
}

fn main() {
    let opts = parse_opts();

    // One alltoall at n ranks is n·(n−1) data messages; 1024 ranks
    // clears the million-message bar in a single program step.
    let ranks = opts.ranks.unwrap_or(if opts.smoke { 64 } else { 1024 });
    let bytes: u64 = 1024;
    let mut cfg = ScaleConfig::new(ranks, vec![ScaleOp::Alltoall { bytes }]);
    cfg.topo = Topology::FatTree {
        ranks_per_node: 8,
        radix: 4,
    };
    cfg.fault_plan = FaultPlan::default()
        .with_seed(0x50AC)
        .with_rule(Some(FaultOp::WireCopy), FaultKind::Transient, 0.01)
        .with_rule(
            Some(FaultOp::WireCopy),
            FaultKind::Degrade { factor: 1.25 },
            1.0,
        );
    cfg.seed = 0xD15C0;

    eprintln!("# {ranks}-rank alltoall...");
    let report = scale::run(&cfg, false);
    let pairs = ranks as u64 * (ranks as u64 - 1);
    assert_eq!(report.msgs, pairs, "one data message per ordered pair");

    let mode = if opts.smoke { "smoke" } else { "full" };
    let fields = [
        ("schema", "\"scale-soak/v2\"".to_string()),
        ("mode", format!("\"{mode}\"")),
        ("ranks", ranks.to_string()),
        ("messages", report.msgs.to_string()),
        ("events", report.executed.to_string()),
        ("end_time_ns", report.end_time.as_nanos().to_string()),
        ("digest", format!("\"{:#018x}\"", report.digest)),
    ]
    .map(|(k, v)| format!("  \"{k}\": {v}"));
    let out = format!("{{\n{}\n}}\n", fields.join(",\n"));
    std::fs::write(&opts.out, &out).unwrap_or_else(|e| panic!("write {}: {e}", opts.out.display()));
    print!("{out}");
    println!("wrote {}", opts.out.display());
}
