//! `cargo xtask audit` — the semantic analysis layer.
//!
//! The audit builds a workspace-wide item table and approximate call
//! graph ([`crate::graph`]) and runs three cross-file analyses:
//!
//! 1. **charge-model** — every cost constant in the `gpusim` spec and
//!    topology tables must be read by both a simulator charge site and
//!    a tuner cost term; a one-sided constant means the analytic model
//!    and the simulator have drifted apart and every never-worse gate
//!    built on their agreement is silently corrupt.
//! 2. **fault-reach** — every simulated-time charge (`.reserve(`)
//!    reachable from the `mpirt` protocol entry surface must have a
//!    `faultsim` consult somewhere on the call path.
//! 3. **counter-live** — every counter/span name registered in
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
pub const AUDIT_FAMILIES: [&str; 3] = ["charge-model", "fault-reach", "counter-live"];

/// One finding, before allowlist reconciliation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub family: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub line: u32,
    /// Stable kind used as the allowlist key (`tuner-blind`, …).
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

/// Charge-side roots: the modules that reserve simulated time (the
/// wrappers the fault injector interposes on) and the DEV executors,
/// which read their own cost constants (the NIC packet processor reads
/// `nic_dma_bw`, …).
const CHARGE_ROOTS: [&str; 13] = [
    "crates/simcore/src/resource.rs",
    "crates/netsim/src/channel.rs",
    "crates/netsim/src/am.rs",
    "crates/netsim/src/wire.rs",
    "crates/netsim/src/rdma.rs",
    "crates/netsim/src/nic.rs",
    "crates/gpusim/src/kernel.rs",
    "crates/gpusim/src/copy.rs",
    "crates/gpusim/src/system.rs",
    "crates/gpusim/src/stream_trigger.rs",
    "crates/mpirt/src/cpupack.rs",
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

/// Trace methods that *emit* (count or record a span) vs merely read.
const EMIT_METHODS: [&str; 5] = ["count", "count_to", "instant", "span_begin", "span_at"];

/// Build the call graph for pre-lexed files.
pub fn build_graph(files: &[FileData]) -> CallGraph {
    CallGraph::build(files.iter().map(|f| (f.rel.as_str(), f.toks.as_slice())))
}

/// Run the three analyses over pre-lexed files and their call graph,
/// returning raw findings for allowlist reconciliation.
pub fn analyze(files: &[FileData], graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    charge_model(files, graph, &mut out);
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
// 1. charge-model coherence
// ---------------------------------------------------------------------

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
        |n| under(&n.file, &CHARGE_ROOTS),
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
