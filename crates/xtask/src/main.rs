//! `cargo xtask <audit|ratchet>` — the workspace's call-graph audit.
//!
//! * `audit [--root <dir>]` — the two cross-file analyses over the
//!   call graph.
//! * `ratchet --old <dir> --new <dir>` — assert every `*.allow` file in
//!   `<new>` only shrinks relative to `<old>` (CI materializes the base
//!   revision's `lint/` into `<old>` via `git show`).
//!
//! Exit code 0 when clean; 1 on any violation, stale allowlist entry,
//! or ratchet loosening; 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask audit [--root <dir>]\n\
        \x20      cargo xtask ratchet --old <dir> --new <dir>"
    );
    ExitCode::from(2)
}

fn cmd_audit(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match (a.as_str(), args.next()) {
            ("--root", Some(dir)) => root = Some(PathBuf::from(dir)),
            _ => return usage(),
        }
    }
    let root = root.unwrap_or_else(xtask::workspace_root);
    let outcome = match xtask::run_audit(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask audit: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.render_text());
    println!(
        "audited {} file(s), {} fn(s) in the call graph, under {}",
        outcome.files_scanned,
        outcome.fns_indexed,
        root.display()
    );
    if outcome.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_ratchet(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut old: Option<PathBuf> = None;
    let mut new: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--old" => old = args.next().map(PathBuf::from),
            "--new" => new = args.next().map(PathBuf::from),
            _ => return usage(),
        }
    }
    let (Some(old), Some(new)) = (old, new) else {
        return usage();
    };
    // Families this binary defines may introduce a fresh allow file
    // when the base had none (the family itself is new); any file
    // already present in `old` must only shrink. An unknown family
    // appearing out of nowhere always fails.
    match xtask::allow::ratchet_check(&old, &new, &xtask::audit::AUDIT_FAMILIES) {
        Ok(errors) if errors.is_empty() => {
            println!("ratchet OK: every allowlist only shrank");
            ExitCode::SUCCESS
        }
        Ok(errors) => {
            for e in &errors {
                eprintln!("ratchet: {e}");
            }
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("xtask ratchet: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("audit") => cmd_audit(args),
        Some("ratchet") => cmd_ratchet(args),
        _ => usage(),
    }
}
