//! The multi-architecture GPU backend registry.
//!
//! One [`GpuArch`] entry per supported part ties together the raw
//! calibration constants from [`crate::spec`] (the "memory manager"
//! layer: what the hardware is), a node topology (how GPUs in a node
//! peer), and a lazily-cached [`CostParams`] table of derived kernel
//! cost parameters (the "kernel manager" layer: what the analytic
//! tuners and harnesses actually consume). Execution — streams, kernels
//! and copies in [`crate::system`]/[`crate::kernel`] — reads whichever
//! spec the world was built with, so selecting an architecture at
//! session-build time re-parameterizes every layer above. The raw
//! per-part constructors are private to `spec.rs`, which holds the
//! registry table, so no code path can pin itself to one part.
//!
//! Lookup is by short slug (`"k40"`, `"a100"`) or alias, case
//! insensitive. The registry default is the paper's K40 testbed: with
//! every knob at its default, all figure harnesses reproduce the
//! committed `results/` CSVs byte-identically.

use crate::spec::{GpuSpec, NodeTopology, REGISTRY};

/// Derived per-architecture cost parameters, computed once per process
/// from the spec/topology constructors and cached. These are the
/// numbers the analytic models and harness headers want pre-folded —
/// deriving them at every decision point would re-do the same float
/// arithmetic thousands of times per sweep.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Kernel launch overhead, ns.
    pub launch_ns: f64,
    /// Fixed `cudaMemcpy` cost (driver + one PCIe transaction), ns.
    pub memcpy_fixed_ns: f64,
    /// DRAM traffic cost of a full-occupancy pack kernel, ns per
    /// traffic byte (efficiency derate included).
    pub pack_nspb: f64,
    /// Practical peak in-device copy rate, GB/s (the Figure 6 ceiling).
    pub peak_copy_gbps: f64,
    /// Peer-to-peer (GPU↔GPU) bandwidth, GB/s.
    pub p2p_gbps: f64,
    /// Host↔device bandwidth, GB/s.
    pub h2d_gbps: f64,
    /// Bytes one warp moves per iteration.
    pub warp_chunk: u64,
    /// Whether the `cudaMemcpy2D` misaligned-row cliff exists.
    pub memcpy2d_cliff: bool,
}

/// The lazily derived cost table of one registry entry.
#[expect(
    clippy::disallowed_types,
    reason = "a process-global cache that cannot carry state between runs: the value is \
              a pure function of the entry's const spec and topology tables"
)]
type CostCache = std::sync::OnceLock<CostParams>;

/// One registered GPU architecture: named constructors for its spec and
/// node topology plus the cached derived cost table.
pub struct GpuArch {
    /// Short slug used on the command line and in CSV arch columns.
    pub name: &'static str,
    /// Alternate lookup names (matched case-insensitively).
    pub aliases: &'static [&'static str],
    /// One-line description for help text and docs.
    pub summary: &'static str,
    spec: fn() -> GpuSpec,
    topo: fn() -> NodeTopology,
    cost: CostCache,
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
            cost: CostCache::new(),
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

    /// The derived cost table, computed on first use and cached for the
    /// life of the process.
    pub fn cost(&self) -> &CostParams {
        self.cost.get_or_init(|| {
            let s = self.spec();
            let t = self.topology();
            let pack_bw = s
                .dram_traffic_bw
                .derated(s.pack_kernel_efficiency)
                .bytes_per_sec();
            CostParams {
                launch_ns: s.launch_overhead.as_nanos() as f64,
                memcpy_fixed_ns: (s.memcpy_latency.as_nanos() + t.pcie_latency.as_nanos()) as f64,
                pack_nspb: 1e9 / pack_bw,
                peak_copy_gbps: s.peak_copy_rate().as_gbps(),
                p2p_gbps: t.pcie_p2p.as_gbps(),
                h2d_gbps: t.pcie_h2d.as_gbps(),
                warp_chunk: s.warp_chunk().get(),
                memcpy2d_cliff: t.memcpy2d_cliff(),
            }
        })
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
        let c = k40.cost();
        assert!((c.peak_copy_gbps - 180.0).abs() < 1e-9);
        assert_eq!(c.warp_chunk, 256);
        assert!(c.memcpy2d_cliff);
        // Cached: the same reference comes back.
        assert!(std::ptr::eq(c, k40.cost()));
        // NVLink parts flatten the cliff.
        assert!(!GpuArch::named("a100").cost().memcpy2d_cliff);
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
