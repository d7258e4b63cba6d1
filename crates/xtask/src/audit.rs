//! `cargo xtask audit` — the semantic analysis layer.
//!
//! The audit builds a workspace-wide item table and approximate call
//! graph ([`crate::graph`]) and runs two cross-file analyses:
//!
//! 1. **fault-reach** — every simulated-time charge (`.reserve(`)
//!    reachable from the `mpirt` protocol entry surface must have a
//!    `faultsim` consult somewhere on the call path.
//! 2. **counter-live** — every counter/span name registered in
//!    `simcore::trace::names` must have an emission site. (An unknown
//!    name does not compile: counters are an enum, span names a newtype
//!    only `trace.rs` can build.)
//!
//! Each analysis reconciles against its own tightening-only
//! `lint/<family>.allow` ratchet. Per-constant and per-name findings
//! key their allowlist entries as `<file>::<name>` so a single entry
//! can be justified individually. Soundness caveats of the
//! name-resolved call graph are documented in DESIGN.md §16:
//! reachability over-approximates, so these analyses check that visible
//! paths satisfy invariants — they cannot prove a path does not exist.

use crate::graph::{CallGraph, FnNode};
use crate::lexer::{self, Token};
use std::collections::BTreeSet;

/// Audit analysis identifiers; one ratchet allowlist exists per family
/// under `lint/<family>.allow`.
pub const AUDIT_FAMILIES: [&str; 2] = ["fault-reach", "counter-live"];

/// One finding, before allowlist reconciliation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub family: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub line: u32,
    /// Stable kind used as the allowlist key (`unguarded-charge`, …).
    pub kind: &'static str,
    pub msg: String,
}

/// One lexed source file.
pub struct FileData {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    pub toks: Vec<Token>,
}

/// The simulator crates: everything that executes under virtual time.
const SIM_CRATES: [&str; 7] = [
    "simcore",
    "memsim",
    "gpusim",
    "netsim",
    "devengine",
    "mpirt",
    "faultsim",
];

fn in_sim_crates(rel: &str) -> bool {
    SIM_CRATES.iter().any(|c| {
        rel.strip_prefix("crates/")
            .and_then(|r| r.strip_prefix(c))
            .is_some_and(|r| r.starts_with("/src/"))
    })
}

/// `rel` is one of `prefixes`, or inside one that ends in `/`.
fn under(rel: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)))
}

/// The fault-reachability entry surface: the protocol state machines
/// plus connection establishment.
const PROTOCOL_ROOTS: [&str; 2] = [
    "crates/mpirt/src/protocol/",
    "crates/mpirt/src/connection.rs",
];

/// A function "consults faultsim" when its body mentions the injector
/// API. Charges at or below such a function are considered guarded.
const FAULT_IDENTS: [&str; 6] = [
    "fault_roll",
    "fault_scaled",
    "faultsim",
    "FaultSim",
    "FaultOp",
    "FaultDecision",
];

/// Trace methods that *emit* (count or record a span) vs merely read.
const EMIT_METHODS: [&str; 5] = ["count", "count_to", "instant", "span_begin", "span_at"];

/// Build the call graph for pre-lexed files.
pub fn build_graph(files: &[FileData]) -> CallGraph {
    CallGraph::build(files.iter().map(|f| (f.rel.as_str(), f.toks.as_slice())))
}

/// Run the two analyses over pre-lexed files and their call graph,
/// returning raw findings for allowlist reconciliation.
pub fn analyze(files: &[FileData], graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    fault_reach(graph, &mut out);
    counter_live(files, graph, &mut out);
    out
}

fn push(
    out: &mut Vec<Violation>,
    family: &'static str,
    file: String,
    line: u32,
    kind: &'static str,
    msg: String,
) {
    out.push(Violation {
        family,
        file,
        line,
        kind,
        msg,
    });
}

// ---------------------------------------------------------------------
// 1. fault reachability
// ---------------------------------------------------------------------

fn consults_fault(n: &FnNode) -> bool {
    FAULT_IDENTS.iter().any(|id| n.mentions.contains(*id))
}

fn fault_reach(graph: &CallGraph, out: &mut Vec<Violation>) {
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.in_test && under(&n.file, &PROTOCOL_ROOTS))
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }
    // Edge filter: (a) never follow a `reserve` edge — `.reserve(` is
    // the charge predicate itself, so the violation anchors at the
    // caller holding the call, and following the name would alias every
    // wrapper's inner `FifoResource::reserve` into reachability; (b)
    // only expand into simulator crates, so same-named helpers in the
    // tooling crates can't splice unrelated chains together.
    let parent = graph.reachable_unprotected(
        roots,
        |n| n.in_test || consults_fault(n),
        |name, callee| name != "reserve" && in_sim_crates(&callee.file),
    );
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for &i in parent.keys() {
        let n = &graph.nodes[i];
        if n.reserve_lines.is_empty() || !in_sim_crates(&n.file) {
            continue;
        }
        if flagged.insert(i) {
            push(
                out,
                "fault-reach",
                n.file.clone(),
                n.reserve_lines[0],
                "unguarded-charge",
                format!(
                    "`{}` charges simulated time with no faultsim consult on path {}",
                    n.name,
                    graph.chain(&parent, i)
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. counter liveness
// ---------------------------------------------------------------------

const TRACE_FILE: &str = "crates/simcore/src/trace.rs";

fn counter_live(files: &[FileData], graph: &CallGraph, out: &mut Vec<Violation>) {
    let Some(trace) = files.iter().find(|f| f.rel == TRACE_FILE) else {
        return;
    };
    let registry = lexer::extract_mod_consts(&trace.toks, "names");
    if registry.is_empty() {
        return;
    }
    let registered: BTreeSet<&str> = registry.iter().map(|(n, _, _)| n.as_str()).collect();
    // Liveness: a registry name — counter or span — is emitted when a
    // non-test function outside the registry's file references it and
    // makes at least one emit call. Whole-function credit rather than
    // argument scanning, because the codebase's idiom selects the
    // constant through a match and passes the binding (`let ctr = match
    // dir { .. names::A .. }; trace.count(ctr, ..)`). A pure selector
    // function (`CopyDirection::counter()`, `OneSided::span_name()`)
    // returns a registry constant and its *caller* emits it, so a
    // function's references are also credited when any emitting
    // function calls it by name.
    let mut emitted: BTreeSet<&str> = BTreeSet::new();
    let emits = |n: &FnNode| EMIT_METHODS.iter().any(|m| n.calls.contains(*m));
    let mut emitter_calls: BTreeSet<&str> = BTreeSet::new();
    for n in &graph.nodes {
        if !n.in_test && n.file != TRACE_FILE && emits(n) {
            emitter_calls.extend(n.calls.iter().map(String::as_str));
        }
    }
    for n in &graph.nodes {
        if n.in_test || n.file == TRACE_FILE {
            continue;
        }
        if emits(n) || emitter_calls.contains(n.name.as_str()) {
            for name in n.names_refs.keys() {
                if let Some(r) = registered.get(name.as_str()) {
                    emitted.insert(r);
                }
            }
        }
    }
    for (name, _, line) in &registry {
        if !emitted.contains(name.as_str()) {
            push(
                out,
                "counter-live",
                format!("{TRACE_FILE}::{name}"),
                *line,
                "dead-name",
                format!("`names::{name}` is registered but never emitted outside tests"),
            );
        }
    }
}
