//! End-to-end audit tests: each seeded fixture tree must trip exactly
//! its analysis, the clean tree must pass, a stale allowance must fail,
//! and the real workspace must pass — which keeps the `lint/*.allow`
//! ratchets honest under `cargo test`. Also covers the
//! ratchet-direction check CI runs.

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
fn fault_reach_fixture_fires() {
    let out = xtask::run_audit(&fixture("audit-violations")).unwrap();
    let r = out.family("fault-reach");
    // `bad_charge` is reachable with no consult on the path;
    // `inner_ok` sits below the consulting hop and must stay clean.
    assert_eq!(kinds(r), vec!["unguarded-charge"], "{:?}", r.violations);
    assert_eq!(r.violations[0].file, "crates/netsim/src/bad.rs");
    assert!(r.violations[0].msg.contains("bad_charge"));
    assert!(!r.violations.iter().any(|v| v.msg.contains("inner_ok")));
}

#[test]
fn counter_live_fixture_fires() {
    let out = xtask::run_audit(&fixture("audit-violations")).unwrap();
    let r = out.family("counter-live");
    // One dead name in each registry form: the `counters!` table and
    // the `Name` constants. The emitted ones stay quiet.
    let dead: Vec<&str> = r.violations.iter().map(|v| v.file.as_str()).collect();
    assert_eq!(
        dead,
        [
            "crates/simcore/src/trace.rs::DEAD_NAME",
            "crates/simcore/src/trace.rs::SPAN_DEAD"
        ]
    );
    assert_eq!(kinds(r), ["dead-name", "dead-name"]);
}

#[test]
fn stale_allowlist_entries_fail() {
    let out = xtask::run_audit(&fixture("stale")).unwrap();
    let r = out.family("fault-reach");
    assert!(r.violations.is_empty(), "allowance covers the charge");
    assert_eq!(r.stale.len(), 1, "{:?}", r.stale);
    assert_eq!(r.suppressed, 1);
    assert!(!out.ok(), "a stale entry alone must fail the audit");
}

#[test]
fn clean_fixture_tree_is_clean() {
    let out = xtask::run_audit(&fixture("audit-clean")).unwrap();
    assert!(out.ok(), "clean tree failed:\n{}", out.render_text());
}

#[test]
fn workspace_audit_is_clean() {
    let root = xtask::workspace_root();
    let out = xtask::run_audit(&root).unwrap();
    assert!(
        out.files_scanned > 40 && out.fns_indexed > 500,
        "expected the simulator crates in the graph, got {} files / {} fns",
        out.files_scanned,
        out.fns_indexed
    );
    assert!(out.ok(), "workspace audit failed:\n{}", out.render_text());
}

#[test]
fn ratchet_accepts_tightening_and_known_new_families() {
    let known = ["panic", "unsafe"];
    let errs = xtask::allow::ratchet_check(
        &fixture("ratchet/base"),
        &fixture("ratchet/tightened"),
        &known,
    )
    .unwrap();
    assert!(errs.is_empty(), "{errs:?}");
    // A family this binary defines may introduce its first allow file.
    let errs =
        xtask::allow::ratchet_check(&fixture("ratchet/base"), &fixture("ratchet/newfam"), &known)
            .unwrap();
    assert!(errs.is_empty(), "{errs:?}");
}

#[test]
fn ratchet_rejects_loosening_and_unknown_families() {
    let known = ["panic", "unsafe"];
    let errs = xtask::allow::ratchet_check(
        &fixture("ratchet/base"),
        &fixture("ratchet/loosened"),
        &known,
    )
    .unwrap();
    // One grown count (a.rs 2→3) and one new entry (c.rs).
    assert_eq!(errs.len(), 2, "{errs:?}");
    let errs =
        xtask::allow::ratchet_check(&fixture("ratchet/base"), &fixture("ratchet/rogue"), &known)
            .unwrap();
    assert_eq!(errs.len(), 1, "{errs:?}");
}
