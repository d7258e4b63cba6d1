//! The seven invariant rule families.
//!
//! Every rule walks the token stream of one file (test regions already
//! marked by the lexer) and emits [`Violation`]s. Scopes are path
//! prefixes relative to the workspace root, so the same rules run
//! unchanged over the seeded fixture trees used by the self-tests.

use crate::lexer::Token;

/// Rule family identifiers; one ratchet allowlist file exists per
/// family under `lint/<family>.allow`.
pub const FAMILIES: [&str; 7] = [
    "determinism",
    "panic",
    "fault",
    "metrics",
    "arch",
    "sched",
    "offload",
];

/// One finding, before allowlist reconciliation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub family: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub line: u32,
    /// Stable kind used as the allowlist key (`hashmap`, `unwrap`, …).
    pub kind: &'static str,
    pub msg: String,
}

/// The simulator crates: everything that executes under virtual time
/// and must replay bit-identically from a seed.
pub const SIM_CRATES: [&str; 7] = [
    "simcore",
    "memsim",
    "gpusim",
    "netsim",
    "devengine",
    "mpirt",
    "faultsim",
];

/// Crates where wall-clock reads are legitimate (they *measure* real
/// time) or that host this linter itself.
const WALLCLOCK_EXEMPT_CRATES: [&str; 2] = ["bench", "xtask"];

/// Modules allowed to call `.reserve(` — the FIFO-resource wrapper
/// layer. Every other call site would charge simulated time without
/// going through a wrapper that the fault injector can interpose on.
pub const CHARGE_WRAPPERS: [&str; 12] = [
    "crates/simcore/src/resource.rs", // defines FifoResource::reserve
    "crates/netsim/src/channel.rs",
    "crates/netsim/src/am.rs",
    "crates/netsim/src/wire.rs",
    "crates/netsim/src/rdma.rs",
    "crates/gpusim/src/kernel.rs",
    "crates/gpusim/src/copy.rs",
    "crates/gpusim/src/system.rs",
    "crates/gpusim/src/stream_trigger.rs", // capture/replay/graph-kernel charges
    "crates/mpirt/src/cpupack.rs",
    "crates/mpirt/src/io.rs",
    "crates/devengine/src/engine.rs",
];

/// The sanctioned DEV-program interpreters: modules allowed to walk
/// datatype descriptor programs with the `DevCursor` machinery. A
/// trailing `/` entry sanctions a whole crate. Everywhere else builds
/// on the wrapped walks (`whole_units`, `flip_units`, the engines) so
/// each executor charges time and faults at exactly one layer.
const DEV_EXECUTORS: [&str; 4] = [
    "crates/devengine/",           // defines the cursor + fragment engine
    "crates/netsim/src/nic.rs",    // NIC packet-processor executor
    "crates/mpirt/src/cpupack.rs", // host CPU convertor
    "crates/mpirt/src/io.rs",      // MPI-IO file-view walker
];

/// The stream-op graph capture API: the one module allowed to name the
/// graph node type. Everyone else records graphs through
/// `GraphCapture`, so capture-time charging cannot be bypassed by
/// hand-assembling op lists.
const GRAPH_CAPTURE: &str = "crates/gpusim/src/stream_trigger.rs";

/// Trace methods whose category/name arguments are strings and must
/// come from `simcore::trace::names`, never inline literals. Counters
/// are not here: `count`/`count_to`/`counter` take the `Counter` enum,
/// so a literal (or an unregistered name) there does not compile.
const SPAN_METHODS: [&str; 3] = ["instant", "span_begin", "span_at"];

pub fn in_crate_src(rel: &str, krate: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.strip_prefix(krate))
        .is_some_and(|r| r.starts_with("/src/"))
}

pub fn in_sim_crates(rel: &str) -> bool {
    SIM_CRATES.iter().any(|c| in_crate_src(rel, c))
}

/// Determinism scope: HashMap/HashSet and global-mutable-state bans
/// apply to the simulator crates; wall-clock bans apply to every crate
/// except the measurement harnesses.
fn determinism_wallclock_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !WALLCLOCK_EXEMPT_CRATES.iter().any(|c| in_crate_src(rel, c))
}

/// Panic-freedom scope: the rendezvous/eager protocol state machines,
/// connection establishment, and the netsim/gpusim runtime paths.
fn panic_scope(rel: &str) -> bool {
    rel.starts_with("crates/mpirt/src/protocol/")
        || rel == "crates/mpirt/src/connection.rs"
        || rel.starts_with("crates/netsim/src/")
        || rel.starts_with("crates/gpusim/src/")
}

/// Arch-registry scope: every crate source file except the calibration
/// tables themselves. `gpusim/src/spec.rs` is the single place the raw
/// per-architecture constructors are defined; everywhere else must go
/// through the `GpuArch` registry so `--arch` actually re-parameterizes
/// the whole stack.
fn arch_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/") && rel != "crates/gpusim/src/spec.rs"
}

/// Scheduler-hygiene scope: the simulator crates, minus the scheduler
/// itself. `simcore/src/event.rs` owns the calendar queue; a `BinaryHeap`
/// event queue anywhere else forks the `(time, seq)` total order.
fn sched_scope(rel: &str) -> bool {
    in_sim_crates(rel) && rel != "crates/simcore/src/event.rs"
}

/// The one simulator module allowed process-global mutable state: the
/// copy pool's lazily started workers.
const GLOBAL_STATE_EXEMPT: &str = "crates/simcore/src/par.rs";

/// True when any rule family wants to see this file.
pub fn any_scope(rel: &str) -> bool {
    in_sim_crates(rel) || determinism_wallclock_scope(rel) || panic_scope(rel) || arch_scope(rel)
}

/// Run every applicable family over one file.
pub fn scan_file(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    if in_sim_crates(rel) || determinism_wallclock_scope(rel) {
        scan_determinism(rel, toks, out);
    }
    if panic_scope(rel) {
        scan_panic(rel, toks, out);
    }
    if in_sim_crates(rel) {
        scan_fault(rel, toks, out);
        scan_metrics(rel, toks, out);
    }
    if arch_scope(rel) {
        scan_arch(rel, toks, out);
    }
    if sched_scope(rel) {
        scan_sched(rel, toks, out);
    }
    if in_sim_crates(rel) {
        scan_offload(rel, toks, out);
    }
}

fn push(
    out: &mut Vec<Violation>,
    family: &'static str,
    rel: &str,
    line: u32,
    kind: &'static str,
    msg: String,
) {
    out.push(Violation {
        family,
        file: rel.to_string(),
        line,
        kind,
        msg,
    });
}

/// Family 1 — determinism: no default-`RandomState` hash containers in
/// simulator crates (iteration order must be stable across processes),
/// no process-global mutable state there either (**static-mut** /
/// **shared-static**: a run must not depend on what ran before it in
/// the same process; [`GLOBAL_STATE_EXEMPT`] is the one exception), and
/// no wall-clock or OS-entropy reads anywhere outside the measurement
/// harnesses.
fn scan_determinism(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    let sim_scope = in_sim_crates(rel);
    let clock_scope = determinism_wallclock_scope(rel);
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        if sim_scope && id == "static" && rel != GLOBAL_STATE_EXEMPT {
            scan_static_item(rel, toks, i, out);
        }
        if sim_scope && (id == "HashMap" || id == "HashSet") {
            let kind = if id == "HashMap" {
                "hashmap"
            } else {
                "hashset"
            };
            push(
                out,
                "determinism",
                rel,
                t.line,
                kind,
                format!("std::collections::{id} iterates in RandomState order; use BTreeMap/BTreeSet or simcore::hash::Det{id}"),
            );
        }
        if !clock_scope {
            continue;
        }
        match id {
            "Instant" if follows_path_call(toks, i, "now") => push(
                out,
                "determinism",
                rel,
                t.line,
                "wallclock",
                "Instant::now() reads the wall clock; simulated time comes from Sim::now()"
                    .to_string(),
            ),
            "SystemTime" => push(
                out,
                "determinism",
                rel,
                t.line,
                "wallclock",
                "SystemTime reads the wall clock; simulated time comes from Sim::now()".to_string(),
            ),
            "sleep" => push(
                out,
                "determinism",
                rel,
                t.line,
                "sleep",
                "thread::sleep blocks on real time; schedule a simulated delay instead".to_string(),
            ),
            "thread_rng" | "from_entropy" | "random" => push(
                out,
                "determinism",
                rel,
                t.line,
                "rand",
                format!("`{id}` draws OS entropy; use the seeded simcore::rng::Rng"),
            ),
            _ => {}
        }
    }
}

/// `toks[i]` is an ident; true when it is followed by `::name(`.
fn follows_path_call(toks: &[Token], i: usize, name: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(name))
        && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
}

/// Family 2 — panic-freedom: runtime protocol paths must surface typed
/// errors, not abort the simulation. Bans `.unwrap()`, `.expect(`,
/// the panicking macros, and the `x[i]` indexing shorthand.
fn scan_panic(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if let Some(id) = t.ident() {
            let method = i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if method && (id == "unwrap" || id == "expect") {
                let kind = if id == "unwrap" { "unwrap" } else { "expect" };
                push(
                    out,
                    "panic",
                    rel,
                    t.line,
                    kind,
                    format!(".{id}() panics on Err/None; propagate a typed MpiError/NetError"),
                );
            }
            let bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
            if bang {
                let kind = match id {
                    "panic" => Some("panic"),
                    "unreachable" => Some("unreachable"),
                    "todo" => Some("todo"),
                    "unimplemented" => Some("unimplemented"),
                    _ => None,
                };
                if let Some(kind) = kind {
                    push(
                        out,
                        "panic",
                        rel,
                        t.line,
                        kind,
                        format!("{id}! aborts the simulation; return a typed error instead"),
                    );
                }
            }
        }
        // Indexing shorthand: `[` directly after an expression tail.
        if t.is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let expr_tail = prev.ident().is_some() || prev.is_punct(')') || prev.is_punct(']');
            // `#[attr]` and macro brackets never match: prev is `#`/`!`.
            if expr_tail {
                push(
                    out,
                    "panic",
                    rel,
                    t.line,
                    "index",
                    "indexing shorthand panics out of bounds; use .get()/.first() or a checked accessor".to_string(),
                );
            }
        }
    }
}

/// Family 3 — fault coverage: every simulated-time charge must go
/// through a wrapper module the fault injector can interpose on; raw
/// `.reserve(` calls elsewhere bypass fault injection entirely.
fn scan_fault(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    if CHARGE_WRAPPERS.contains(&rel) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_ident("reserve")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            push(
                out,
                "fault",
                rel,
                t.line,
                "reserve",
                "raw .reserve( charge outside the wrapper layer bypasses fault injection"
                    .to_string(),
            );
        }
    }
}

/// Family 4 — metrics coherence: span/instant category and name
/// arguments must be the constants in `simcore::trace::names`, never
/// inline string literals, so the analysis tooling and the emitters
/// cannot drift.
fn scan_metrics(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    // The registry itself is the one place literals are defined.
    if rel == "crates/simcore/src/trace.rs" {
        return;
    }
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let is_call = !t.in_test
            && t.ident().is_some_and(|id| SPAN_METHODS.contains(&id))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !is_call {
            i += 1;
            continue;
        }
        let method = t.ident().unwrap_or_default().to_string();
        // Walk the argument list to the matching ')'.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < toks.len() {
            let a = &toks[j];
            if a.is_punct('(') || a.is_punct('[') || a.is_punct('{') {
                depth += 1;
            } else if a.is_punct(')') || a.is_punct(']') || a.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if let Some(s) = a.str_lit() {
                push(
                    out,
                    "metrics",
                    rel,
                    a.line,
                    "literal-name",
                    format!(
                        "inline name {s:?} in .{method}(); use a simcore::trace::names constant"
                    ),
                );
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Family 5 — single-source arch constants: hardcoded calls to the
/// per-architecture spec/topology constructors (`k40()`, `psg_node()`,
/// `p100()`, …) outside `gpusim/src/spec.rs` and test regions bypass
/// the `GpuArch` registry and silently pin a code path to one testbed.
fn scan_arch(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    const CONSTRUCTORS: [(&str, &str); 8] = [
        ("k40", "k40"),
        ("p100", "p100"),
        ("v100", "v100"),
        ("a100", "a100"),
        ("psg_node", "psg_node"),
        ("dgx1_p100_node", "dgx_node"),
        ("dgx1v_node", "dgx_node"),
        ("dgxa100_node", "dgx_node"),
    ];
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        let Some((_, kind)) = CONSTRUCTORS.iter().find(|(name, _)| *name == id) else {
            continue;
        };
        // Only the call form `name(` counts; `GpuSpec::k40` as a fn
        // pointer (how the registry itself references the constructors)
        // and the slug string "k40" stay legal.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            push(
                out,
                "arch",
                rel,
                t.line,
                kind,
                format!(
                    "hardcoded `{id}()` bypasses the GpuArch registry; use \
                     GpuArch::named(..)/default_arch() (raw constants live only in \
                     gpusim/src/spec.rs)"
                ),
            );
        }
    }
}

/// Family 6 — scheduler hygiene: the calendar queue in
/// `simcore/src/event.rs` is the only sanctioned event queue. Bans
/// `BinaryHeap` (a shadow priority queue would fork the `(time, seq)`
/// total order the determinism suite pins).
fn scan_sched(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    for t in toks {
        if !t.in_test && t.ident() == Some("BinaryHeap") {
            push(
                out,
                "sched",
                rel,
                t.line,
                "binary-heap",
                "BinaryHeap event queues fork the scheduler's (time, seq) total order; \
                 schedule through simcore::Sim (the calendar queue in simcore/src/event.rs)"
                    .to_string(),
            );
        }
    }
}

/// `toks[i]` is the `static` keyword of a real item (`'static` lexes as
/// a Lifetime token; the items `thread_local!` wraps do reach here).
/// Flags `static mut`, and interior-mutable `Sync` wrappers in the
/// item's type.
fn scan_static_item(rel: &str, toks: &[Token], i: usize, out: &mut Vec<Violation>) {
    const SHARED_MUTABLE: [&str; 16] = [
        "Mutex",
        "RwLock",
        "UnsafeCell",
        "OnceLock",
        "OnceCell",
        "LazyLock",
        "AtomicBool",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
        "AtomicPtr",
    ];
    if toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
        push(
            out,
            "determinism",
            rel,
            toks[i].line,
            "static-mut",
            "`static mut` is process-global mutable state; a run would depend on what \
             ran before it"
                .to_string(),
        );
        return;
    }
    // Scan the item's type (up to `=` or `;`). `!Sync` cells (RefCell
    // et al.) can only appear under thread_local!, which stays legal.
    for a in toks[i + 1..]
        .iter()
        .take_while(|a| !a.is_punct('=') && !a.is_punct(';'))
    {
        if let Some(ty) = a.ident().filter(|ty| SHARED_MUTABLE.contains(ty)) {
            push(
                out,
                "determinism",
                rel,
                a.line,
                "shared-static",
                format!(
                    "process-global mutable static (`{ty}`) outside the copy pool \
                     (simcore/src/par.rs); a run would depend on what ran before it"
                ),
            );
        }
    }
}

/// Family 7 — offload hygiene: the two offload surfaces added for the
/// NIC/stream-triggered paths stay behind their construction APIs.
///
/// * **dev-exec** — DEV descriptor programs execute only in the
///   sanctioned interpreters ([`DEV_EXECUTORS`]): naming `DevCursor` or
///   its `next_units*` walks anywhere else forks the descriptor
///   semantics across modules and bypasses the executors' charge and
///   fault points. Other code uses the wrapped walks
///   (`devengine::whole_units` / `flip_units`) or an engine.
/// * **graph-construct** — stream-op graphs exist only through the
///   capture API in [`GRAPH_CAPTURE`]: naming `StreamOp` elsewhere
///   means hand-assembling a graph, which would skip the capture-time
///   validation and charging that makes replays zero-CPU by
///   construction.
fn scan_offload(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    const DEV_IDENTS: [&str; 3] = ["DevCursor", "next_units", "next_units_into"];
    let dev_exempt = DEV_EXECUTORS
        .iter()
        .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)));
    let graph_exempt = rel == GRAPH_CAPTURE;
    for t in toks {
        if t.in_test {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        if !dev_exempt && DEV_IDENTS.contains(&id) {
            push(
                out,
                "offload",
                rel,
                t.line,
                "dev-exec",
                format!(
                    "`{id}` walks DEV descriptor programs outside the sanctioned executors; \
                     use devengine::whole_units/flip_units or go through an engine"
                ),
            );
        }
        if !graph_exempt && id == "StreamOp" {
            push(
                out,
                "offload",
                rel,
                t.line,
                "graph-construct",
                "stream-op graphs are built only through gpusim's GraphCapture API; \
                 hand-assembled op lists bypass capture-time charging"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn kinds(rel: &str, src: &str) -> Vec<&'static str> {
        let toks = lex(src);
        let mut out = Vec::new();
        scan_file(rel, &toks, &mut out);
        out.into_iter().map(|v| v.kind).collect()
    }

    #[test]
    fn scopes_route_files_to_families() {
        assert!(any_scope("crates/simcore/src/event.rs"));
        assert!(any_scope("crates/mpirt/src/protocol/sm.rs"));
        assert!(any_scope("crates/datatype/src/lib.rs")); // wallclock only
                                                          // Bench bins and the linter itself are exempt from the
                                                          // determinism/panic families but still in arch scope: a figure
                                                          // harness hardcoding `k40()` would silently ignore `--arch`.
        assert!(any_scope("crates/bench/src/bin/fig6.rs"));
        assert!(any_scope("crates/xtask/src/lib.rs"));
        assert!(arch_scope("crates/bench/src/bin/fig6.rs"));
        assert!(!arch_scope("crates/gpusim/src/spec.rs"));
        assert!(!any_scope("crates/simcore/tests/determinism.rs"));
    }

    #[test]
    fn determinism_catches_hash_and_clock() {
        let ks = kinds(
            "crates/simcore/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }",
        );
        assert!(ks.contains(&"hashmap"));
        assert!(ks.contains(&"wallclock"));
        // The TraceEvent::Instant enum variant must not fire.
        let ks = kinds(
            "crates/simcore/src/x.rs",
            "let e = TraceEvent::Instant { t };",
        );
        assert!(ks.is_empty());
    }

    #[test]
    fn panic_rule_catches_all_kinds_outside_tests() {
        let src =
            "fn f(v: &[u8]) { v.x.unwrap(); y.expect(\"m\"); panic!(\"b\"); let a = v[0]; }\n\
                   #[cfg(test)] mod t { fn g() { z.unwrap(); } }";
        let ks = kinds("crates/mpirt/src/protocol/x.rs", src);
        assert_eq!(
            ks,
            vec!["unwrap", "expect", "panic", "index"],
            "and the test-region unwrap is exempt"
        );
    }

    #[test]
    fn index_rule_ignores_types_attrs_and_macros() {
        let src = "#[derive(Debug)]\nfn f(x: [u8; 4], y: &[u8]) -> [u8; 2] { vec![1, 2]; g() }";
        let ks = kinds("crates/netsim/src/x.rs", src);
        assert!(ks.is_empty(), "{ks:?}");
    }

    #[test]
    fn fault_rule_spares_wrapper_modules() {
        let src = "fn f(r: &mut Fifo) { r.reserve(now, cost); }";
        assert_eq!(kinds("crates/mpirt/src/world.rs", src), vec!["reserve"]);
        assert!(kinds("crates/netsim/src/wire.rs", src).is_empty());
        assert!(kinds("crates/mpirt/src/io.rs", src).is_empty());
    }

    #[test]
    fn arch_rule_catches_hardcoded_constructors() {
        let bad = "fn f() { let s = GpuSpec::k40(); let t = NodeTopology::psg_node(4); }";
        assert_eq!(
            kinds("crates/devengine/src/x.rs", bad),
            vec!["k40", "psg_node"]
        );
        // The fn-pointer form (no call parens) is how the registry
        // itself references the constructors — it must stay legal, as
        // must the slug string and test regions.
        let ptr =
            "const A: GpuArch = GpuArch { spec: GpuSpec::k40, topo: NodeTopology::psg_node };";
        assert!(kinds("crates/gpusim/src/arch.rs", ptr).is_empty());
        let slug = "fn f() { let a = GpuArch::named(\"k40\"); }";
        assert!(kinds("crates/bench/src/runner.rs", slug).is_empty());
        let test_region = "#[cfg(test)] mod t { fn g() { let s = GpuSpec::k40(); } }";
        assert!(kinds("crates/gpusim/src/system.rs", test_region).is_empty());
        // spec.rs defines the constructors; the rule never runs there.
        let def = "impl GpuSpec { pub fn k40() -> GpuSpec { k40_helper() } }";
        assert!(kinds("crates/gpusim/src/spec.rs", def).is_empty());
    }

    #[test]
    fn sched_rule_bans_shadow_queues() {
        let heap = "use std::collections::BinaryHeap;\nfn f() { let q: BinaryHeap<u32> = BinaryHeap::new(); }";
        assert_eq!(
            kinds("crates/netsim/src/x.rs", heap),
            vec!["binary-heap", "binary-heap", "binary-heap"]
        );
        // The scheduler itself is exempt — it owns the calendar queue.
        assert!(kinds("crates/simcore/src/event.rs", heap).is_empty());
        // Test regions are exempt (the differential test models the
        // scheduler with a reference heap).
        let test_region = "#[cfg(test)] mod t { use std::collections::BinaryHeap; }";
        assert!(kinds("crates/memsim/src/x.rs", test_region).is_empty());
    }

    #[test]
    fn determinism_bans_process_global_mutable_state() {
        let ks = kinds(
            "crates/netsim/src/x.rs",
            "static mut COUNT: u64 = 0;\nstatic Q: Mutex<Vec<u8>> = Mutex::new(Vec::new());",
        );
        assert_eq!(ks, vec!["static-mut", "shared-static"]);
        // Immutable statics, `&'static` lifetimes, and thread-local
        // RefCells stay legal.
        let ok = "static TABLE: [u32; 4] = [1, 2, 3, 4];\n\
                  fn f(s: &'static str) {}\n\
                  thread_local! { static SHELF: RefCell<Shelf> = RefCell::new(Shelf::new()); }";
        assert!(kinds("crates/simcore/src/x.rs", ok).is_empty());
        // The copy pool is the one sanctioned home.
        let pool = "static POOL: OnceLock<CopyPool> = OnceLock::new();";
        assert!(kinds("crates/simcore/src/par.rs", pool).is_empty());
        assert_eq!(kinds("crates/gpusim/src/x.rs", pool), vec!["shared-static"]);
        // Outside the simulator crates the ban does not apply.
        assert!(kinds("crates/bench/src/x.rs", pool).is_empty());
    }

    #[test]
    fn offload_rule_bans_rogue_dev_executors() {
        let bad = "fn f(ty: &DataType) { let mut c = DevCursor::new(ty, 1, 256)?; \
                   c.next_units_into(64, &mut v); }";
        assert_eq!(
            kinds("crates/mpirt/src/protocol/x.rs", bad),
            vec!["dev-exec", "dev-exec"]
        );
        // The sanctioned interpreters keep their walks.
        assert!(kinds("crates/devengine/src/dev.rs", bad).is_empty());
        assert!(kinds("crates/mpirt/src/cpupack.rs", bad).is_empty());
        let nic = "fn f() { c.next_units_into(64, &mut v); }";
        assert!(kinds("crates/netsim/src/nic.rs", nic).is_empty());
        // The wrapped walks stay legal everywhere.
        let ok = "fn f(ty: &DataType) { let (u, s) = whole_units(ty, 1, 256, true)?; \
                  let flipped = flip_units(&u); }";
        assert!(kinds("crates/mpirt/src/protocol/x.rs", ok).is_empty());
        // Test regions are exempt (differential tests walk cursors).
        let test_region = "#[cfg(test)] mod t { fn g() { let c = DevCursor::new(t, 1, 9); } }";
        assert!(kinds("crates/netsim/src/x.rs", test_region).is_empty());
    }

    #[test]
    fn offload_rule_bans_hand_assembled_stream_graphs() {
        let bad = "fn f(v: &mut Vec<StreamOp>) { v.push(StreamOp::Trigger); }";
        assert_eq!(
            kinds("crates/mpirt/src/x.rs", bad),
            vec!["graph-construct", "graph-construct"]
        );
        // The capture API itself owns the node type.
        assert!(kinds("crates/gpusim/src/stream_trigger.rs", bad).is_empty());
        // Going through GraphCapture is the sanctioned construction.
        let ok =
            "fn f(sim: &mut Sim<W>) { let g = GraphCapture::begin(st).trigger().finish(sim); }";
        assert!(kinds("crates/mpirt/src/x.rs", ok).is_empty());
    }

    #[test]
    fn metrics_rule_wants_registry_constants() {
        let bad = "fn f(sim: &mut S) { sim.trace.instant(now, names::CAT_GPUSIM, \"rogue\", t); }";
        assert_eq!(kinds("crates/gpusim/src/x.rs", bad), vec!["literal-name"]);
        let good = "fn f(sim: &mut S) { sim.trace.instant(now, names::CAT_GPUSIM, names::SPAN_KERNEL, t); }";
        assert!(kinds("crates/gpusim/src/x.rs", good).is_empty());
        // Counters are the compiler's to police: `count` takes a `Counter`.
        let counter = "fn f(sim: &mut S) { sim.trace.count(\"mpi.rogue\", a, b, n); }";
        assert!(kinds("crates/gpusim/src/x.rs", counter).is_empty());
        // An iterator .count() has no arguments and stays silent.
        let iter = "fn f(v: &[u8]) -> usize { v.iter().count() }";
        assert!(kinds("crates/simcore/src/x.rs", iter).is_empty());
    }
}
