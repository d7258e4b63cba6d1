//! Ratchet allowlists.
//!
//! Each audit family reads `lint/<family>.allow`, a line-oriented file of
//! `<path> <kind> <count>` entries. An entry suppresses exactly `count`
//! findings of `kind` in `path`:
//!
//! * more findings than allowed  → the group is reported as violations;
//! * fewer findings than allowed → the entry is **stale** and the audit
//!   fails too, so the ratchet can only ever tighten;
//! * exactly as many             → suppressed, counted in the report.

use crate::audit::Violation;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Parsed allowlist: (path, kind) → allowed count.
#[derive(Debug, Default)]
pub struct AllowList {
    entries: BTreeMap<(String, String), u64>,
}

impl AllowList {
    /// Load `path`, treating a missing file as an empty allowlist.
    pub fn load(path: &Path) -> io::Result<Self> {
        match std::fs::read_to_string(path) {
            Ok(text) => parse(&text).map_err(io::Error::other),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(e),
        }
    }

    /// Every `(path, kind) → count` entry, in sorted order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.entries
            .iter()
            .map(|((p, k), &c)| (p.as_str(), k.as_str(), c))
    }
}

/// Ratchet-direction check: compare every `*.allow` file under
/// `new_dir` against `old_dir` and report each entry that appeared or
/// grew. Removed entries and shrunken counts are the ratchet working as
/// intended; a brand-new `*.allow` file is only acceptable when the
/// family itself is new, which the caller signals via `new_families`.
pub fn ratchet_check(
    old_dir: &Path,
    new_dir: &Path,
    new_families: &[&str],
) -> io::Result<Vec<String>> {
    let mut errors = Vec::new();
    let mut names: Vec<String> = Vec::new();
    if new_dir.is_dir() {
        for entry in std::fs::read_dir(new_dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.ends_with(".allow") {
                names.push(name);
            }
        }
    }
    names.sort();
    for name in names {
        let family = name.trim_end_matches(".allow");
        let new = AllowList::load(&new_dir.join(&name))?;
        let old_path = old_dir.join(&name);
        if !old_path.exists() {
            if !new_families.contains(&family) {
                // A family that existed before must not (re)appear with
                // a fresh allowance out of nowhere.
                for (p, k, c) in new.entries() {
                    errors.push(format!(
                        "lint/{name}: new allowlist file introduces {p} {k} {c}"
                    ));
                }
            }
            continue;
        }
        let old = AllowList::load(&old_path)?;
        let old_map: BTreeMap<(String, String), u64> = old
            .entries()
            .map(|(p, k, c)| ((p.to_string(), k.to_string()), c))
            .collect();
        for (p, k, c) in new.entries() {
            match old_map.get(&(p.to_string(), k.to_string())) {
                None => errors.push(format!(
                    "lint/{name}: new entry `{p} {k} {c}` — the ratchet only tightens"
                )),
                Some(&oc) if c > oc => errors.push(format!(
                    "lint/{name}: `{p} {k}` grew {oc} -> {c} — the ratchet only tightens"
                )),
                Some(_) => {}
            }
        }
    }
    Ok(errors)
}

/// Parse allowlist text. `#` starts a comment; blank lines are ignored.
pub fn parse(text: &str) -> Result<AllowList, String> {
    let mut entries = BTreeMap::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut f = line.split_whitespace();
        let (Some(path), Some(kind), Some(count), None) = (f.next(), f.next(), f.next(), f.next())
        else {
            return Err(format!(
                "allowlist line {}: expected `<path> <kind> <count>`, got {raw:?}",
                n + 1
            ));
        };
        let count: u64 = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count {count:?}", n + 1))?;
        if entries
            .insert((path.to_string(), kind.to_string()), count)
            .is_some()
        {
            return Err(format!(
                "allowlist line {}: duplicate entry for {path} {kind}",
                n + 1
            ));
        }
    }
    Ok(AllowList { entries })
}

/// An allowlist entry that allows more findings than exist.
#[derive(Debug, Clone)]
pub struct StaleEntry {
    pub file: String,
    pub kind: String,
    pub allowed: u64,
    pub found: u64,
}

/// One family's reconciled result.
#[derive(Debug)]
pub struct RuleReport {
    pub family: &'static str,
    /// Findings beyond the allowance, in (file, kind, line) order.
    pub violations: Vec<Violation>,
    pub stale: Vec<StaleEntry>,
    /// Findings covered by exact allowlist entries.
    pub suppressed: u64,
}

impl RuleReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }

    /// Human-readable summary lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.ok() {
            let _ = writeln!(
                out,
                "{:<12} OK ({} finding(s) ratcheted by lint/{}.allow)",
                self.family, self.suppressed, self.family
            );
            return out;
        }
        let _ = writeln!(
            out,
            "{:<12} FAIL: {} violation(s), {} stale allowlist entr(y/ies)",
            self.family,
            self.violations.len(),
            self.stale.len()
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {}:{} [{}] {}", v.file, v.line, v.kind, v.msg);
        }
        for s in &self.stale {
            let _ = writeln!(
                out,
                "  stale: {} {} allows {}, found {} — tighten lint/{}.allow",
                s.file, s.kind, s.allowed, s.found, self.family
            );
        }
        out
    }
}

/// Reconcile one family's raw findings against its allowlist.
pub fn apply(family: &'static str, found: Vec<Violation>, allow: &AllowList) -> RuleReport {
    let mut groups: BTreeMap<(String, String), Vec<Violation>> = BTreeMap::new();
    for v in found {
        groups
            .entry((v.file.clone(), v.kind.to_string()))
            .or_default()
            .push(v);
    }
    let mut report = RuleReport {
        family,
        violations: Vec::new(),
        stale: Vec::new(),
        suppressed: 0,
    };
    for (key, group) in &groups {
        let allowed = allow.entries.get(key).copied().unwrap_or(0);
        let n = group.len() as u64;
        if n > allowed {
            report.violations.extend(group.iter().cloned());
        } else {
            report.suppressed += n;
        }
    }
    for ((file, kind), &allowed) in &allow.entries {
        let found = groups
            .get(&(file.clone(), kind.clone()))
            .map_or(0, |g| g.len() as u64);
        if found < allowed {
            report.stale.push(StaleEntry {
                file: file.clone(),
                kind: kind.clone(),
                allowed,
                found,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, kind: &'static str) -> Violation {
        Violation {
            family: "panic",
            file: file.to_string(),
            line: 1,
            kind,
            msg: String::new(),
        }
    }

    #[test]
    fn exact_allowance_suppresses() {
        let allow = parse("a.rs unwrap 2\n").unwrap();
        let r = apply(
            "panic",
            vec![v("a.rs", "unwrap"), v("a.rs", "unwrap")],
            &allow,
        );
        assert!(r.ok());
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn excess_findings_violate() {
        let allow = parse("a.rs unwrap 1\n").unwrap();
        let r = apply(
            "panic",
            vec![v("a.rs", "unwrap"), v("a.rs", "unwrap")],
            &allow,
        );
        assert_eq!(r.violations.len(), 2);
        assert!(!r.ok());
    }

    #[test]
    fn stale_entries_fail_the_ratchet() {
        let allow = parse("# comment\na.rs unwrap 3\ngone.rs index 1\n").unwrap();
        let r = apply("panic", vec![v("a.rs", "unwrap")], &allow);
        assert_eq!(r.stale.len(), 2);
        assert!(!r.ok());
        assert_eq!(r.suppressed, 1, "under-allowance still suppresses");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("a.rs unwrap\n").is_err());
        assert!(parse("a.rs unwrap twelve\n").is_err());
        assert!(parse("a.rs unwrap 1 extra\n").is_err());
        assert!(parse("a.rs unwrap 1\na.rs unwrap 2\n").is_err());
    }
}
