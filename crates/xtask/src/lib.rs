//! `cargo xtask audit` — the workspace's call-graph analyses.
//!
//! Most invariants are held by the toolchain (DESIGN.md §11):
//! visibility and types, rustc's `unsafe_code`, and the clippy lints and
//! `clippy.toml` bans that CI runs with `-D warnings`. What is left here
//! are the two cross-file analyses a compiler lint cannot express, over
//! an approximate call graph ([`graph`]) built from a small lexer
//! ([`lexer`]): fault reachability and trace-name liveness (see
//! [`audit`]).
//!
//! Each analysis reconciles its findings against a ratchet allowlist in
//! `lint/<family>.allow` (see [`allow`]); stale entries fail the audit
//! so the ratchet only tightens. See DESIGN.md §16.

pub mod allow;
pub mod audit;
pub mod graph;
pub mod lexer;

use allow::RuleReport;
use std::io;
use std::path::{Path, PathBuf};

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
            // trees for the audit's own tests.
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
/// graph over every crate source file, run the two analyses, then
/// reconcile each against `root/lint/<family>.allow`.
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
        let toks = lexer::lex(&std::fs::read_to_string(root.join(&rel))?);
        files.push(audit::FileData { rel, toks });
    }
    let graph = audit::build_graph(&files);
    let fns_indexed = graph.nodes.len();
    let found = audit::analyze(&files, &graph);
    let mut reports = Vec::new();
    for family in audit::AUDIT_FAMILIES {
        let mine: Vec<audit::Violation> = found
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
