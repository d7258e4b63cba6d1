//! `benchmark`: measure one workload (`--workload`), all five (no
//! argument), or the benchmark against itself (`--aa N`). See
//! `README.md` beside this package.

use benchmark::{aa, measure, print_outcome, sys, Opts, USAGE};
use std::process::exit;

fn main() {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            exit(2);
        }
    };
    // Run hygiene: a debug build is 10-50x slower and measures nothing,
    // and every GPU_DDT_* variable changes what the program does.
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: build and run with --release");
        exit(2);
    }
    let env = sys::gpu_ddt_env();
    if !env.is_empty() {
        eprintln!("refusing to run with {} set: unset them", env.join(", "));
        exit(2);
    }

    let what = match (&opts.aa, &opts.workload) {
        (Some(n), _) => format!("aa={n}"),
        (None, Some(w)) => format!("workload={w}"),
        (None, None) => "workload=all".to_string(),
    };
    println!(
        "# benchmark {what} commit={} rustc=\"{}\" cores={} seed={} seconds={} trace={} mode={}",
        sys::git_commit(),
        sys::rustc_version(),
        sys::cores(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.mode(),
    );

    let code = if let Some(n) = opts.aa {
        aa::run_aa(n, &opts)
    } else if opts.workload.is_none() {
        aa::run_all(&opts)
    } else {
        // Starts the copy pool before the first set-up, as its lazy
        // start would inside the first large copy.
        println!("# copy_pool_threads={}", simcore::par::pool_info().threads);
        let outcome = measure(&opts);
        print_outcome(&outcome);
        outcome.exit_code()
    };
    exit(code);
}
