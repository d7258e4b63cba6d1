//! End-to-end lint tests: each seeded fixture tree must trip exactly
//! its rule family, and the real workspace must pass — which keeps the
//! `lint/*.allow` ratchets honest under `cargo test`.

use std::path::PathBuf;

fn fixture(tree: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
}

fn kinds(report: &xtask::allow::RuleReport) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.kind).collect()
}

#[test]
fn determinism_fixture_fires() {
    let out = xtask::run_lint(&fixture("violations")).unwrap();
    let ks = kinds(out.family("determinism"));
    for kind in ["hashmap", "wallclock", "sleep", "rand"] {
        assert!(ks.contains(&kind), "missing {kind} in {ks:?}");
    }
    assert!(
        !ks.contains(&"hashset"),
        "the HashSet lives in #[cfg(test)] and must be exempt: {ks:?}"
    );
    assert!(!out.ok());
}

#[test]
fn panic_fixture_fires() {
    let out = xtask::run_lint(&fixture("violations")).unwrap();
    let ks = kinds(out.family("panic"));
    for kind in ["unwrap", "expect", "panic", "unreachable", "index"] {
        assert!(ks.contains(&kind), "missing {kind} in {ks:?}");
    }
    assert!(!out.ok());
}

#[test]
fn fault_fixture_fires() {
    let out = xtask::run_lint(&fixture("violations")).unwrap();
    let r = out.family("fault");
    assert_eq!(kinds(r), vec!["reserve"]);
    assert_eq!(r.violations[0].file, "crates/netsim/src/bad_charge.rs");
}

#[test]
fn metrics_fixture_fires() {
    let out = xtask::run_lint(&fixture("violations")).unwrap();
    let ks = kinds(out.family("metrics"));
    // One literal: the rogue span name. The `names::CAT_GPUSIM`
    // argument is a constant, and the literal passed to `count` is a
    // type error the compiler reports — neither fires.
    assert_eq!(ks, vec!["literal-name"]);
}

#[test]
fn offload_fixture_fires() {
    let out = xtask::run_lint(&fixture("violations")).unwrap();
    let ks = kinds(out.family("offload"));
    for kind in ["dev-exec", "graph-construct"] {
        assert!(ks.contains(&kind), "missing {kind} in {ks:?}");
    }
    assert!(!out.ok());
}

#[test]
fn stale_allowlist_entries_fail() {
    let out = xtask::run_lint(&fixture("stale")).unwrap();
    let r = out.family("panic");
    assert!(r.violations.is_empty(), "allowance covers the unwrap");
    assert_eq!(r.stale.len(), 2, "{:?}", r.stale);
    assert_eq!(r.suppressed, 1);
    assert!(!out.ok(), "stale entries alone must fail the lint");
}

#[test]
fn workspace_is_clean() {
    let root = xtask::workspace_root();
    let out = xtask::run_lint(&root).unwrap();
    assert!(
        out.files_scanned > 40,
        "expected to scan the simulator crates, got {}",
        out.files_scanned
    );
    assert!(out.ok(), "workspace lint failed:\n{}", out.render_text());
}
