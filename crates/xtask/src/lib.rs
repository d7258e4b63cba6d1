//! `cargo xtask lint` — the workspace invariant checker.
//!
//! Seven static rule families guard properties the test suite can only
//! sample but the source can prove by absence:
//!
//! 1. **determinism** — no `RandomState` hash containers and no
//!    process-global mutable statics (outside the copy pool,
//!    `simcore/src/par.rs`) in simulator crates, no wall-clock/entropy
//!    reads outside the measurement harnesses;
//! 2. **panic** — protocol state machines and runtime paths surface
//!    typed errors instead of panicking;
//! 3. **fault** — every simulated-time charge goes through the wrapper
//!    layer the fault injector interposes on;
//! 4. **metrics** — trace span/instant names come from the
//!    `simcore::trace::names` registry, never inline literals (counter
//!    names are the `Counter` enum — the compiler's job);
//! 5. **arch** — per-architecture constants come from the `GpuArch`
//!    registry, never hardcoded constructors;
//! 6. **sched** — the calendar queue in `simcore/src/event.rs` is the
//!    only event queue: no shadow `BinaryHeap`s;
//! 7. **offload** — DEV descriptor programs execute only in the
//!    sanctioned interpreters (devengine, the NIC executor, the CPU
//!    convertor, the MPI-IO file-view walker), and stream-op graphs are
//!    built only through gpusim's `GraphCapture` API.
//!
//! Each family reconciles its findings against a ratchet allowlist in
//! `lint/<family>.allow` (see [`allow`]); stale entries fail the lint
//! so the ratchet only tightens. See DESIGN.md §11.

pub mod allow;
pub mod audit;
pub mod graph;
pub mod lexer;
pub mod rules;

use allow::RuleReport;
use std::io;
use std::path::{Path, PathBuf};

/// The reconciled result of linting one tree.
#[derive(Debug)]
pub struct LintOutcome {
    /// One report per family, in [`rules::FAMILIES`] order.
    pub reports: Vec<RuleReport>,
    /// How many files the scanner actually read.
    pub files_scanned: usize,
}

impl LintOutcome {
    pub fn ok(&self) -> bool {
        self.reports.iter().all(|r| r.ok())
    }

    /// The report for one family; panics only on a misspelled family
    /// name, which is a bug in the caller (tests), not input-dependent.
    pub fn family(&self, name: &str) -> &RuleReport {
        self.reports
            .iter()
            .find(|r| r.family == name)
            .unwrap_or_else(|| panic!("unknown rule family {name:?}"))
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.render_text());
        }
        out
    }
}

/// Recursively collect `.rs` files under `root/crates`, returning
/// sorted workspace-relative paths (forward slashes) so the scan order
/// — and therefore every report — is deterministic.
fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        walk(&crates, root, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `target` is build output; `fixtures` holds the seeded
            // violation trees for the lint's own tests.
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Lint the workspace rooted at `root`: scan, then reconcile each
/// family against `root/lint/<family>.allow`.
pub fn run_lint(root: &Path) -> io::Result<LintOutcome> {
    let mut found = Vec::new();
    let mut files_scanned = 0usize;
    for rel in collect_rs_files(root)? {
        if !rules::any_scope(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel))?;
        let toks = lexer::lex(&src);
        rules::scan_file(&rel, &toks, &mut found);
        files_scanned += 1;
    }
    let mut reports = Vec::new();
    for family in rules::FAMILIES {
        let mine: Vec<rules::Violation> = found
            .iter()
            .filter(|v| v.family == family)
            .cloned()
            .collect();
        let allowlist = allow::AllowList::load(&root.join("lint").join(format!("{family}.allow")))?;
        reports.push(allow::apply(family, mine, &allowlist));
    }
    Ok(LintOutcome {
        reports,
        files_scanned,
    })
}

/// The reconciled result of auditing one tree.
#[derive(Debug)]
pub struct AuditOutcome {
    /// One report per analysis, in [`audit::AUDIT_FAMILIES`] order.
    pub reports: Vec<RuleReport>,
    pub files_scanned: usize,
    /// Size of the item table the call graph was built from.
    pub fns_indexed: usize,
}

impl AuditOutcome {
    pub fn ok(&self) -> bool {
        self.reports.iter().all(|r| r.ok())
    }

    /// The report for one analysis; panics only on a misspelled family
    /// name, which is a bug in the caller (tests), not input-dependent.
    pub fn family(&self, name: &str) -> &RuleReport {
        self.reports
            .iter()
            .find(|r| r.family == name)
            .unwrap_or_else(|| panic!("unknown audit family {name:?}"))
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.render_text());
        }
        out
    }
}

/// Audit the workspace rooted at `root`: build the item table and call
/// graph over every crate source file, run the four semantic analyses,
/// then reconcile each against `root/lint/<family>.allow`.
pub fn run_audit(root: &Path) -> io::Result<AuditOutcome> {
    let mut files = Vec::new();
    for rel in collect_rs_files(root)? {
        // The audit reasons about shipped code only: integration tests
        // and benches are whole files of test code the lexer cannot
        // mark, so including them would count test-only emissions and
        // calls as live paths.
        if !rel.contains("/src/") {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel))?;
        let toks = lexer::lex(&src);
        files.push(audit::FileData { rel, src, toks });
    }
    let graph = audit::build_graph(&files);
    let fns_indexed = graph.nodes.len();
    let found = audit::analyze(&files, &graph);
    let mut reports = Vec::new();
    for family in audit::AUDIT_FAMILIES {
        let mine: Vec<rules::Violation> = found
            .iter()
            .filter(|v| v.family == family)
            .cloned()
            .collect();
        let allowlist = allow::AllowList::load(&root.join("lint").join(format!("{family}.allow")))?;
        reports.push(allow::apply(family, mine, &allowlist));
    }
    Ok(AuditOutcome {
        reports,
        files_scanned: files.len(),
        fns_indexed,
    })
}

/// The workspace root when running via `cargo xtask` / `cargo test`:
/// two levels up from this crate's manifest.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}
