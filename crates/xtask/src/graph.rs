//! The approximate call graph: the audit layer's middle tier.
//!
//! [`crate::lexer::extract_fns`] gives the item table; this module
//! derives per-function facts (calls made, trace-registry uses,
//! `.reserve(` charge sites, idents mentioned) and links calls to
//! definitions *by bare name*. That resolution is deliberately
//! unsound-free in one direction only: a call edge may point at several
//! same-named functions in different files (over-approximation), but a
//! call to a function we have the source of is never missed. Audit
//! analyses built on top therefore over-report reachability and must
//! never be used to prove the *absence* of a path — only that every
//! path they do see satisfies an invariant. See DESIGN.md §16.

use crate::lexer::{extract_fns, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Rust keywords and control-flow idents that look like calls when
/// followed by `(` — e.g. `if (..)`, `match (..)`, `return (..)`.
const NON_CALL_IDENTS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "fn", "move", "unsafe", "else", "as", "in",
    "let", "mut", "ref", "await",
];

/// One `fn` item plus the facts the analyses consume.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub name: String,
    pub line: u32,
    pub in_test: bool,
    /// Bare names of every call made in the body (`foo(`, `x.foo(`,
    /// `a::b::foo(`), deduplicated.
    pub calls: BTreeSet<String>,
    /// Every ident mentioned anywhere in the body.
    pub mentions: BTreeSet<String>,
    /// Lines of `.reserve(` method calls — the simulated-time charges.
    pub reserve_lines: Vec<u32>,
    /// Every `names::CONST` path mentioned anywhere in the body, with
    /// the line of its first mention — the counter-liveness analysis
    /// checks each against the registry and credits emission through
    /// indirection (`let ctr = match dir { names::A, .. }; count(ctr)`).
    pub names_refs: BTreeMap<String, u32>,
}

/// The whole-workspace graph: nodes plus a name → node-indices index
/// used for approximate call resolution.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build from pre-lexed files (`(workspace-relative path, tokens)`).
    pub fn build<'a>(files: impl IntoIterator<Item = (&'a str, &'a [Token])>) -> Self {
        let mut g = CallGraph::default();
        for (rel, toks) in files {
            for span in extract_fns(toks) {
                let body = &toks[span.body.clone()];
                let mut node = FnNode {
                    file: rel.to_string(),
                    name: span.name,
                    line: span.line,
                    in_test: span.in_test,
                    calls: BTreeSet::new(),
                    mentions: BTreeSet::new(),
                    reserve_lines: Vec::new(),
                    names_refs: BTreeMap::new(),
                };
                scan_body(body, &mut node);
                g.by_name
                    .entry(node.name.clone())
                    .or_default()
                    .push(g.nodes.len());
                g.nodes.push(node);
            }
        }
        g
    }

    /// Node indices whose definitions carry this bare name.
    pub fn defs_of(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Reachability that stops descending at protected nodes: a node
    /// for which `protected` returns true is recorded as visited but
    /// its callees are not expanded, and an edge to a definition of
    /// `name` is followed only when `edge_ok(name, callee)` holds (the
    /// audit trims the worst name-collision fan-out with it). The
    /// result maps each *unprotected* reached node to the index of the
    /// caller it was first reached from (roots map to themselves), so
    /// violations can print a path.
    pub fn reachable_unprotected(
        &self,
        roots: impl IntoIterator<Item = usize>,
        protected: impl Fn(&FnNode) -> bool,
        edge_ok: impl Fn(&str, &FnNode) -> bool,
    ) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut work: Vec<usize> = Vec::new();
        for r in roots {
            if !protected(&self.nodes[r]) && !parent.contains_key(&r) {
                parent.insert(r, r);
                work.push(r);
            }
        }
        while let Some(i) = work.pop() {
            for callee in &self.nodes[i].calls {
                for &j in self.defs_of(callee) {
                    if parent.contains_key(&j)
                        || protected(&self.nodes[j])
                        || !edge_ok(callee, &self.nodes[j])
                    {
                        continue;
                    }
                    parent.insert(j, i);
                    work.push(j);
                }
            }
        }
        parent
    }

    /// Render the root→node call chain recorded by
    /// [`Self::reachable_unprotected`], e.g. `start_rendezvous → stage → charge`.
    pub fn chain(&self, parent: &BTreeMap<usize, usize>, mut i: usize) -> String {
        let mut names = vec![self.nodes[i].name.clone()];
        while let Some(&p) = parent.get(&i) {
            if p == i {
                break;
            }
            names.push(self.nodes[p].name.clone());
            i = p;
        }
        names.reverse();
        names.join(" -> ")
    }
}

fn scan_body(body: &[Token], node: &mut FnNode) {
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if let Some(id) = t.ident() {
            node.mentions.insert(id.to_string());
            if id == "names"
                && body.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && body.get(i + 2).is_some_and(|n| n.is_punct(':'))
            {
                if let Some(c) = body.get(i + 3).and_then(|n| n.ident()) {
                    node.names_refs.entry(c.to_string()).or_insert(t.line);
                }
            }
            let next_open = body.get(i + 1).is_some_and(|n| n.is_punct('('));
            let is_macro = body.get(i + 1).is_some_and(|n| n.is_punct('!'));
            let after_dot = i > 0 && body[i - 1].is_punct('.');
            if next_open && !is_macro && !NON_CALL_IDENTS.contains(&id) {
                node.calls.insert(id.to_string());
                if after_dot && id == "reserve" {
                    node.reserve_lines.push(t.line);
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let lexed: Vec<(&str, Vec<Token>)> =
            files.iter().map(|(rel, src)| (*rel, lex(src))).collect();
        CallGraph::build(lexed.iter().map(|(rel, toks)| (*rel, toks.as_slice())))
    }

    #[test]
    fn calls_fields_and_reserves_are_extracted() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            fn outer(x: &Spec) -> u64 {
                let v = x.transaction_bytes + helper(x.warp_size);
                let (s, e) = res.reserve(now, dur);
                if cond(v) { return v; }
                v
            }
            fn helper(w: u64) -> u64 { w }
            "#,
        )]);
        let outer = &g.nodes[g.defs_of("outer")[0]];
        assert!(outer.calls.contains("helper"));
        assert!(outer.calls.contains("cond"));
        assert!(!outer.calls.contains("transaction_bytes"));
        assert!(outer.mentions.contains("warp_size"));
        assert_eq!(outer.reserve_lines.len(), 1);
    }

    #[test]
    fn reachability_stops_at_protected_nodes() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            fn entry() { guarded(); open(); }
            fn guarded() { let _ = fault_roll(); below_guard(); }
            fn below_guard() { charge(); }
            fn open() { charge(); }
            fn charge() { let (s, e) = r.reserve(a, b); }
            "#,
        )]);
        let roots = g.defs_of("entry").to_vec();
        let guarded = |n: &FnNode| n.mentions.contains("fault_roll");
        let parent = g.reachable_unprotected(roots, guarded, |_, _| true);
        let charge = g.defs_of("charge")[0];
        let below = g.defs_of("below_guard")[0];
        assert!(parent.contains_key(&charge), "open path reaches charge");
        assert!(
            !parent.contains_key(&below),
            "guarded subtree is not expanded"
        );
        let chain = g.chain(&parent, charge);
        assert!(chain.starts_with("entry"), "chain was {chain}");
    }

    #[test]
    fn names_paths_are_collected_with_their_first_line() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            fn f(sim: &mut Sim) {
                sim.trace.count(names::A_COUNTER, 1);
                sim.trace.span_at(names::CAT_X, names::SPAN_Y, t, d, Track::Cpu);
                let sel = match dir { Up => names::PICKED, Down => names::CAT_X };
            }
            "#,
        )]);
        let f = &g.nodes[g.defs_of("f")[0]];
        let refs: Vec<(&str, u32)> = f.names_refs.iter().map(|(n, l)| (n.as_str(), *l)).collect();
        assert_eq!(
            refs,
            [("A_COUNTER", 3), ("CAT_X", 4), ("PICKED", 5), ("SPAN_Y", 4)]
        );
    }
}
