//! `cargo xtask audit` — the semantic analysis layer.
//!
//! Where the lint families ([`crate::rules`]) judge one file at a time,
//! the audit builds a workspace-wide item table and approximate call
//! graph ([`crate::graph`]) and runs four cross-file analyses:
//!
//! 1. **charge-model** — every cost constant in the `gpusim` spec and
//!    topology tables must be read by both a simulator charge site and
//!    a tuner cost term; a one-sided constant means the analytic model
//!    and the simulator have drifted apart and every never-worse gate
//!    built on their agreement is silently corrupt.
//! 2. **fault-reach** — every simulated-time charge (`.reserve(`)
//!    reachable from the `mpirt` protocol entry surface must have a
//!    `faultsim` consult somewhere on the call path, replacing the old
//!    per-file token heuristic with call-graph reachability.
//! 3. **counter-live** — every counter/span name registered in
//!    `simcore::trace::names` must have an emission site, every
//!    span/instant emission must use a registered name (an unknown
//!    counter does not compile), and `Session::metrics()` must still
//!    reach `Metrics::from_trace` so counters surface.
//! 4. **unsafe** — every `unsafe` token in the simulator crates must
//!    carry a `SAFETY` comment (or `# Safety` doc) nearby and live in a
//!    sanctioned module.
//!
//! Each analysis reconciles against its own tightening-only
//! `lint/<family>.allow` ratchet, exactly like the lint families.
//! Per-constant and per-name findings key their allowlist entries as
//! `<file>::<name>` so a single entry can be justified individually.
//! Soundness caveats of the name-resolved call graph are documented in
//! DESIGN.md §16: reachability over-approximates, so these analyses
//! check that visible paths satisfy invariants — they cannot prove a
//! path does not exist.

use crate::graph::{CallGraph, FnNode};
use crate::lexer::{self, Token};
use crate::rules::{in_sim_crates, Violation, CHARGE_WRAPPERS};
use std::collections::BTreeSet;

/// Audit analysis identifiers; one ratchet allowlist exists per family
/// under `lint/<family>.allow`, same as the lint families.
pub const AUDIT_FAMILIES: [&str; 4] = ["charge-model", "fault-reach", "counter-live", "unsafe"];

/// One lexed file plus its raw source (the unsafe audit needs to see
/// comments, which the lexer strips).
pub struct FileData {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    pub src: String,
    pub toks: Vec<Token>,
}

/// The spec/topology cost tables.
const SPEC_FILE: &str = "crates/gpusim/src/spec.rs";
const SPEC_STRUCTS: [&str; 2] = ["GpuSpec", "NodeTopology"];

/// Spec fields that are descriptive identity or capacity, not cost
/// constants: nothing charges or models them per-byte.
const SPEC_DESCRIPTIVE: [&str; 3] = ["name", "interconnect", "memory_bytes"];

/// Where the analytic model lives: the tuner proper and the devengine
/// planner it feeds.
const TUNER_FILES: [&str; 2] = ["crates/mpirt/src/tuner.rs", "crates/devengine/src/tune.rs"];

/// Files the tuner-side reachability may expand into: the cost tables
/// and the arch registry. A spec field read inside a helper here that
/// the tuner calls (e.g. `effective_traffic_bw`, `warp_chunk`) counts
/// as modeled.
const TUNER_REACH: [&str; 5] = [
    "crates/mpirt/src/tuner.rs",
    "crates/devengine/src/tune.rs",
    "crates/gpusim/src/spec.rs",
    "crates/gpusim/src/arch.rs",
    "crates/gpusim/src/system.rs",
];

/// Charge-side roots beyond [`CHARGE_WRAPPERS`]: the sanctioned DEV
/// executors charge time through the wrappers but read their own cost
/// constants first (the NIC packet processor reads `nic_dma_bw`, …).
const CHARGE_EXTRA_ROOTS: [&str; 3] = [
    "crates/netsim/src/nic.rs",
    "crates/mpirt/src/io.rs",
    "crates/devengine/src/",
];

/// The fault-reachability entry surface: the protocol state machines
/// plus connection establishment and MPI-IO.
const PROTOCOL_ROOTS: [&str; 3] = [
    "crates/mpirt/src/protocol/",
    "crates/mpirt/src/connection.rs",
    "crates/mpirt/src/io.rs",
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

/// The module sanctioned to contain `unsafe` in the simulator crates:
/// the copy pool, whose invariants the loom model and miri cover. The
/// one other file with `unsafe`, `memsim/src/pool.rs`, is counted in
/// `lint/unsafe.allow`.
const SANCTIONED_UNSAFE: &str = "crates/simcore/src/par.rs";

/// Trace methods that *emit* (count or record a span) vs merely read.
const EMIT_METHODS: [&str; 5] = ["count", "count_to", "instant", "span_begin", "span_at"];

/// Build the call graph for pre-lexed files.
pub fn build_graph(files: &[FileData]) -> CallGraph {
    CallGraph::build(files.iter().map(|f| (f.rel.as_str(), f.toks.as_slice())))
}

/// Run all four analyses over pre-lexed files and their call graph,
/// returning raw findings for allowlist reconciliation.
pub fn analyze(files: &[FileData], graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    charge_model(files, graph, &mut out);
    fault_reach(graph, &mut out);
    counter_live(files, graph, &mut out);
    unsafe_audit(files, &mut out);
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
// 1. charge-model coherence
// ---------------------------------------------------------------------

fn is_charge_root(rel: &str) -> bool {
    CHARGE_WRAPPERS.contains(&rel)
        || CHARGE_EXTRA_ROOTS
            .iter()
            .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)))
}

/// Union of field reads over the non-test functions reachable from
/// `roots`, where the walk only expands callees for which `expand`
/// holds. Reads in the root functions themselves always count.
fn reads_from(
    graph: &CallGraph,
    roots: impl Fn(&FnNode) -> bool,
    expand: impl Fn(&FnNode) -> bool,
) -> BTreeSet<String> {
    let root_ids: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.in_test && roots(n))
        .map(|(i, _)| i)
        .collect();
    // `reachable_unprotected` stops descending at "protected" nodes;
    // here the barrier is "not an expandable file", and the roots are
    // always expanded (they pass `roots`, which implies `expand` in
    // both uses below — wrapper and tuner files expand themselves).
    let reached = graph.reachable_unprotected(root_ids, |n| n.in_test || !expand(n));
    let mut reads = BTreeSet::new();
    for &i in reached.keys() {
        reads.extend(graph.nodes[i].field_reads.iter().cloned());
    }
    reads
}

fn charge_model(files: &[FileData], graph: &CallGraph, out: &mut Vec<Violation>) {
    let Some(spec) = files.iter().find(|f| f.rel == SPEC_FILE) else {
        return; // fixture tree without spec tables — nothing to check
    };
    let mut fields: Vec<(String, u32)> = Vec::new();
    for s in SPEC_STRUCTS {
        fields.extend(lexer::extract_struct_fields(&spec.toks, s));
    }
    if fields.is_empty() {
        return;
    }
    let charge_reads = reads_from(
        graph,
        |n| is_charge_root(&n.file),
        |n| in_sim_crates(&n.file) && !TUNER_FILES.contains(&n.file.as_str()),
    );
    let tuner_reads = reads_from(
        graph,
        |n| TUNER_FILES.contains(&n.file.as_str()),
        |n| TUNER_REACH.contains(&n.file.as_str()),
    );
    for (field, line) in fields {
        if SPEC_DESCRIPTIVE.contains(&field.as_str()) {
            continue;
        }
        let charged = charge_reads.contains(&field);
        let modeled = tuner_reads.contains(&field);
        let key = format!("{SPEC_FILE}::{field}");
        match (charged, modeled) {
            (true, true) => {}
            (true, false) => push(
                out,
                "charge-model",
                key,
                line,
                "tuner-blind",
                format!("`{field}` is charged by the simulator but absent from the tuner model"),
            ),
            (false, true) => push(
                out,
                "charge-model",
                key,
                line,
                "sim-blind",
                format!("`{field}` is in the tuner model but no simulator charge site reads it"),
            ),
            (false, false) => push(
                out,
                "charge-model",
                key,
                line,
                "dead-const",
                format!("`{field}` is read by neither a charge site nor the tuner"),
            ),
        }
    }
}

// ---------------------------------------------------------------------
// 2. fault reachability
// ---------------------------------------------------------------------

fn consults_fault(n: &FnNode) -> bool {
    FAULT_IDENTS.iter().any(|id| n.mentions.contains(*id))
}

fn fault_reach(graph: &CallGraph, out: &mut Vec<Violation>) {
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            !n.in_test
                && PROTOCOL_ROOTS
                    .iter()
                    .any(|p| n.file == *p || (p.ends_with('/') && n.file.starts_with(p)))
        })
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
    let parent = graph.reachable_unprotected_filtered(
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
// 3. counter liveness
// ---------------------------------------------------------------------

const TRACE_FILE: &str = "crates/simcore/src/trace.rs";
const SESSION_FILE: &str = "crates/mpirt/src/session.rs";

fn counter_live(files: &[FileData], graph: &CallGraph, out: &mut Vec<Violation>) {
    let Some(trace) = files.iter().find(|f| f.rel == TRACE_FILE) else {
        return;
    };
    let registry = lexer::extract_mod_consts(&trace.toks, "names");
    if registry.is_empty() {
        return;
    }
    let registered: BTreeSet<&str> = registry.iter().map(|(n, _, _)| n.as_str()).collect();
    // Every `names::X` path must resolve to the registry. The compiler
    // says so first for code that builds; here it guards the registry
    // extraction above (a table entry it missed shows up as
    // unregistered at every use) and the seeded trees.
    for n in &graph.nodes {
        if n.in_test || n.file == TRACE_FILE {
            continue;
        }
        for (name, line) in &n.names_refs {
            if !registered.contains(name.as_str()) {
                push(
                    out,
                    "counter-live",
                    n.file.clone(),
                    *line,
                    "unregistered-name",
                    format!("`names::{name}` is missing from simcore::trace::names"),
                );
            }
        }
    }
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
    // Structural check that counters still surface: Session::metrics
    // must reach Metrics::from_trace through the call graph.
    let metrics_roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.in_test && n.file == SESSION_FILE && n.name == "metrics")
        .map(|(i, _)| i)
        .collect();
    if let Some(&root) = metrics_roots.first() {
        let reached = graph.reachable(metrics_roots.iter().copied());
        let surfaces = reached
            .iter()
            .any(|&i| graph.nodes[i].name == "from_trace" && graph.nodes[i].file == TRACE_FILE);
        if !surfaces {
            push(
                out,
                "counter-live",
                SESSION_FILE.to_string(),
                graph.nodes[root].line,
                "metrics-chain",
                "Session::metrics() no longer reaches Metrics::from_trace — counters don't surface"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// 4. unsafe audit
// ---------------------------------------------------------------------

fn unsafe_audit(files: &[FileData], out: &mut Vec<Violation>) {
    for f in files {
        if !in_sim_crates(&f.rel) {
            continue;
        }
        let lines: Vec<&str> = f.src.lines().collect();
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        for (i, t) in f.toks.iter().enumerate() {
            if t.in_test || !t.is_ident("unsafe") {
                continue;
            }
            // `unsafe fn(` is a function-pointer *type*, not a block or
            // item — nothing to document at the use site.
            if f.toks.get(i + 1).is_some_and(|n| n.is_ident("fn"))
                && f.toks.get(i + 2).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            if !seen_lines.insert(t.line) {
                continue;
            }
            if f.rel != SANCTIONED_UNSAFE {
                push(
                    out,
                    "unsafe",
                    f.rel.clone(),
                    t.line,
                    "unsanctioned-unsafe",
                    "`unsafe` outside the sanctioned copy-pool module (simcore par.rs)".to_string(),
                );
            }
            // A `// SAFETY:` comment (or `/// # Safety` doc section)
            // must appear within 8 lines above or 2 lines below the
            // `unsafe` keyword — the two lines below admit the
            // codebase's idiom of putting the comment on the first line
            // inside an `unsafe fn` body.
            let at = t.line as usize; // 1-based, so `lines[at-1]` is the unsafe line
            let start = at.saturating_sub(9);
            let end = (at + 2).min(lines.len());
            let documented = lines[start..end]
                .iter()
                .any(|l| l.contains("SAFETY") || l.contains("# Safety"));
            if !documented {
                push(
                    out,
                    "unsafe",
                    f.rel.clone(),
                    t.line,
                    "missing-safety",
                    "`unsafe` without a `// SAFETY:` comment or `# Safety` doc nearby".to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(rel: &str, src: &str) -> FileData {
        FileData {
            rel: rel.to_string(),
            src: src.to_string(),
            toks: lex(src),
        }
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged_twice_in_unsanctioned_file() {
        let files = [file(
            "crates/simcore/src/rogue.rs",
            "pub fn f(p: *mut u8) { unsafe { *p = 0; } }\n",
        )];
        let found = analyze(&files, &build_graph(&files));
        let kinds: Vec<&str> = found.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&"unsanctioned-unsafe"));
        assert!(kinds.contains(&"missing-safety"));
    }

    #[test]
    fn safety_comment_in_sanctioned_module_is_clean() {
        let files = [file(
            "crates/simcore/src/par.rs",
            "pub fn f(p: *mut u8) {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p = 0; }\n}\n",
        )];
        assert!(analyze(&files, &build_graph(&files)).is_empty());
    }

    #[test]
    fn unsafe_fn_pointer_type_is_not_an_unsafe_site() {
        let files = [file(
            "crates/simcore/src/rogue.rs",
            "pub struct H { f: unsafe fn(*mut u8) }\n",
        )];
        assert!(analyze(&files, &build_graph(&files)).is_empty());
    }
}
