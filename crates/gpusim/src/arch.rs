//! The multi-architecture GPU backend registry.
//!
//! One [`GpuArch`] entry per supported part ties together the raw
//! calibration constants from [`crate::spec`] (what the hardware is)
//! and a node topology (how GPUs in a node peer). Execution — streams,
//! kernels and copies in [`crate::system`]/[`crate::kernel`] — and the
//! price functions the tuner calls read whichever spec the world was
//! built with, so selecting an architecture at session-build time
//! re-parameterizes every layer above. The raw per-part constructors
//! are private to `spec.rs`, which holds the registry table, so no code
//! path can pin itself to one part.
//!
//! Lookup is by short slug (`"k40"`, `"a100"`) or alias, case
//! insensitive. The registry default is the paper's K40 testbed: with
//! every knob at its default, all figure harnesses reproduce the
//! committed `results/` CSVs byte-identically.

use crate::spec::{GpuSpec, NodeTopology, REGISTRY};

/// One registered GPU architecture: named constructors for its spec and
/// node topology.
pub struct GpuArch {
    /// Short slug used on the command line and in CSV arch columns.
    pub name: &'static str,
    /// Alternate lookup names (matched case-insensitively).
    pub aliases: &'static [&'static str],
    /// One-line description for help text and docs.
    pub summary: &'static str,
    spec: fn() -> GpuSpec,
    topo: fn() -> NodeTopology,
}

impl GpuArch {
    /// A registry entry; [`REGISTRY`] in `spec.rs` is the only caller,
    /// next to the constructors it names.
    pub(crate) const fn new(
        name: &'static str,
        aliases: &'static [&'static str],
        summary: &'static str,
        spec: fn() -> GpuSpec,
        topo: fn() -> NodeTopology,
    ) -> GpuArch {
        GpuArch {
            name,
            aliases,
            summary,
            spec,
            topo,
        }
    }

    /// Every registered architecture, default first.
    pub fn registry() -> &'static [GpuArch] {
        &REGISTRY
    }

    /// The registry default: the paper's K40 testbed. Every harness and
    /// world constructor that does not name an architecture resolves to
    /// this entry, which reproduces the committed results byte-for-byte.
    pub fn default_arch() -> &'static GpuArch {
        &REGISTRY[0]
    }

    /// Case-insensitive lookup by slug or alias.
    pub fn lookup(name: &str) -> Option<&'static GpuArch> {
        let want = name.trim().to_ascii_lowercase();
        REGISTRY
            .iter()
            .find(|a| a.name == want || a.aliases.iter().any(|al| *al == want))
    }

    /// Infallible lookup for CLI/builder boundaries: resolves like
    /// [`GpuArch::lookup`] and aborts with the list of known
    /// architectures on an unknown name (a user-input error — there is
    /// no meaningful way to continue with an unknown cost model).
    #[expect(
        clippy::panic,
        reason = "the documented CLI-boundary lookup: an unknown name has no cost model"
    )]
    pub fn named(name: &str) -> &'static GpuArch {
        match GpuArch::lookup(name) {
            Some(a) => a,
            None => panic!(
                "unknown GPU architecture {name:?}; known: {}",
                GpuArch::names().join(", ")
            ),
        }
    }

    /// The registered slugs, registry order.
    pub fn names() -> Vec<&'static str> {
        REGISTRY.iter().map(|a| a.name).collect()
    }

    /// A fresh copy of this architecture's GPU constants.
    pub fn spec(&self) -> GpuSpec {
        (self.spec)()
    }

    /// A fresh copy of this architecture's node interconnect constants.
    pub fn topology(&self) -> NodeTopology {
        (self.topo)()
    }
}

impl std::fmt::Debug for GpuArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuArch")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish()
    }
}

impl PartialEq for GpuArch {
    fn eq(&self, other: &GpuArch) -> bool {
        // Registry entries are static singletons; identity is the name.
        self.name == other.name
    }
}
impl Eq for GpuArch {}

/// `impl Into<&'static GpuArch>` conversions so builder APIs accept
/// either a registry reference or a name:
/// `Session::builder().arch("v100")`.
impl From<&str> for &'static GpuArch {
    fn from(name: &str) -> &'static GpuArch {
        GpuArch::named(name)
    }
}

impl From<&String> for &'static GpuArch {
    fn from(name: &String) -> &'static GpuArch {
        GpuArch::named(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Interconnect;

    #[test]
    fn lookup_by_slug_alias_and_case() {
        assert_eq!(GpuArch::lookup("k40").unwrap().name, "k40");
        assert_eq!(GpuArch::lookup("Volta").unwrap().name, "v100");
        assert_eq!(GpuArch::lookup(" AMPERE ").unwrap().name, "a100");
        assert!(GpuArch::lookup("h100").is_none());
        assert_eq!(GpuArch::names(), vec!["k40", "p100", "v100", "a100"]);
    }

    #[test]
    fn default_arch_is_the_papers_k40() {
        let d = GpuArch::default_arch();
        assert_eq!(d.name, "k40");
        assert_eq!(d.spec().name, "Tesla K40");
        assert_eq!(d.topology().interconnect, Interconnect::Pcie);
        // The unnamed defaults are the same entry.
        assert_eq!(
            format!("{:?}", d.spec()),
            format!("{:?}", GpuSpec::default())
        );
        assert_eq!(
            format!("{:?}", d.topology()),
            format!("{:?}", NodeTopology::default())
        );
    }

    #[test]
    #[should_panic(expected = "unknown GPU architecture")]
    fn named_aborts_on_unknown() {
        let _ = GpuArch::named("h100");
    }

    #[test]
    fn cost_params_cache_and_derive() {
        let k40 = GpuArch::default_arch();
        let s = k40.spec();
        assert!((s.peak_copy_rate().as_gbps() - 180.0).abs() < 1e-9);
        assert_eq!(s.warp_chunk().get(), 256);
        assert!(k40.topology().memcpy2d_cliff());
        // NVLink parts flatten the cliff.
        assert!(!GpuArch::named("a100").topology().memcpy2d_cliff());
    }

    #[test]
    fn newer_archs_invert_the_pcie_era_tradeoffs() {
        let k40 = GpuArch::named("k40");
        let a100 = GpuArch::named("a100");
        // Launch overheads shrank generation over generation.
        assert!(a100.spec().launch_overhead < k40.spec().launch_overhead);
        // NVLink p2p beats the PCIe-era host link by an order.
        for arch in ["p100", "v100", "a100"] {
            let t = GpuArch::named(arch).topology();
            assert_eq!(t.interconnect, Interconnect::NvLink, "{arch}");
            assert!(
                t.pcie_p2p.as_gbps() > k40.topology().pcie_p2p.as_gbps(),
                "{arch} NVLink p2p must beat PCIe p2p"
            );
        }
    }

    #[test]
    fn from_str_resolves() {
        let a: &'static GpuArch = "v100".into();
        assert_eq!(a.name, "v100");
        assert_eq!(a, GpuArch::named("tesla-v100"));
    }
}
