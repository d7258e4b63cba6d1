//! Hardware calibration constants.
//!
//! Defaults model the paper's testbed: NVIDIA K40 (Kepler GK110B,
//! 15 SMs), PCIe gen3 x16, CUDA 7.0-era driver overheads. All figure
//! harnesses use these defaults; tests may build cheaper specs.
//!
//! This module is the *only* place raw per-architecture constants are
//! written down: the constructors are private, and [`REGISTRY`] is
//! their one reader. The [`GpuArch`] registry layers lookup-by-name
//! and aliases on top; newer parts
//! (P100/V100/A100) exist so the figure harnesses can ask whether the
//! paper's pipeline still wins on NVLink-era hardware. Sources for each
//! number are cited on the constructor.

use crate::arch::GpuArch;
use simcore::Bandwidth;
use simcore::SimTime;

/// A spec constant the kernel traffic model needs to be a power of two
/// (it divides by it with a shift, once per work unit) and is not.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NotPowerOfTwo(pub u64);

impl std::fmt::Display for NotPowerOfTwo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GPU access-geometry constant {} is not a power of two",
            self.0
        )
    }
}

impl std::error::Error for NotPowerOfTwo {}

/// A power of two, held as its exponent: the only form the access
/// geometry of a [`GpuSpec`] can take, so the traffic model's shifts
/// and masks are exact for every spec that exists.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pow2(u32);

impl Pow2 {
    /// The checked way in for a value not known at build time.
    pub const fn new(v: u64) -> Result<Pow2, NotPowerOfTwo> {
        if v.is_power_of_two() {
            Ok(Pow2(v.trailing_zeros()))
        } else {
            Err(NotPowerOfTwo(v))
        }
    }

    pub const fn get(self) -> u64 {
        1 << self.0
    }

    pub const fn log2(self) -> u32 {
        self.0
    }

    /// `x & mask()` is `x % get()`.
    pub const fn mask(self) -> u64 {
        self.get() - 1
    }
}

/// [`Pow2::new`] for the constant tables below. They call it inside
/// `const { }`, so a constant that is not a power of two fails the
/// build instead of a run.
const fn pow2(v: u64) -> Pow2 {
    assert!(v.is_power_of_two(), "spec constant is not a power of two");
    Pow2(v.trailing_zeros())
}

/// Static description of one GPU.
#[derive(Clone, Debug)]
pub struct GpuSpec {
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Threads per warp (32 on every CUDA architecture).
    pub warp_size: Pow2,
    /// Size of a global-memory transaction (cache line), bytes.
    pub transaction_bytes: Pow2,
    /// Bytes each thread moves per iteration (the paper's kernels use
    /// 8-byte accesses to minimize transactions).
    pub bytes_per_thread: Pow2,
    /// Raw DRAM traffic bandwidth (read + write traffic combined). A
    /// perfectly coalesced device-to-device copy moves 2 bytes of traffic
    /// per payload byte, so `360 GB/s` of traffic is the `~180 GB/s`
    /// practical `cudaMemcpy` copy rate observed on K40.
    pub dram_traffic_bw: Bandwidth,
    /// Fixed kernel launch overhead.
    pub launch_overhead: SimTime,
    /// Fixed per-call overhead of a `cudaMemcpy*` (driver + DMA setup).
    pub memcpy_latency: SimTime,
    /// Bytes of descriptor traffic per CUDA-DEV work unit (the kernel
    /// streams its `cuda_dev_dist` array from global memory).
    pub descriptor_bytes: u64,
    /// Efficiency of pack/unpack kernels relative to `cudaMemcpy`'s
    /// hand-tuned copy loop (address generation, bounds logic and
    /// dual-stream access patterns cost a few percent — the paper
    /// measured its vector kernel at 94% of the `cudaMemcpy` peak).
    pub pack_kernel_efficiency: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
}

impl GpuSpec {
    /// NVIDIA Tesla K40 (the paper's GPU).
    fn k40() -> Self {
        GpuSpec {
            name: "Tesla K40",
            sm_count: 15,
            warp_size: const { pow2(32) },
            transaction_bytes: const { pow2(128) },
            bytes_per_thread: const { pow2(8) },
            dram_traffic_bw: Bandwidth::from_gbps(360.0),
            launch_overhead: SimTime::from_micros(6),
            memcpy_latency: SimTime::from_micros(4),
            descriptor_bytes: 32,
            pack_kernel_efficiency: 0.94,
            memory_bytes: 12 << 30,
        }
    }

    /// NVIDIA Tesla P100 (Pascal GP100, SXM2). DGX-1 era: 56 SMs,
    /// HBM2 at 732 GB/s peak (~480 GB/s practical `cudaMemcpy` D2D, so
    /// 960 GB/s of read+write traffic), 32-byte L2 sectors instead of
    /// Kepler's monolithic 128-byte lines, CUDA 8-era launch overheads.
    fn p100() -> Self {
        GpuSpec {
            name: "Tesla P100-SXM2",
            sm_count: 56,
            warp_size: const { pow2(32) },
            transaction_bytes: const { pow2(32) },
            bytes_per_thread: const { pow2(8) },
            dram_traffic_bw: Bandwidth::from_gbps(960.0),
            launch_overhead: SimTime::from_micros(5),
            memcpy_latency: SimTime::from_micros(3),
            descriptor_bytes: 32,
            pack_kernel_efficiency: 0.93,
            memory_bytes: 16 << 30,
        }
    }

    /// NVIDIA Tesla V100 (Volta GV100, SXM2). DGX-1V era: 80 SMs,
    /// HBM2 at 900 GB/s peak (~780 GB/s D2D copy measured by the
    /// bandwidthTest sample, 1560 GB/s traffic), 32-byte sectors,
    /// CUDA 9-era overheads.
    fn v100() -> Self {
        GpuSpec {
            name: "Tesla V100-SXM2",
            sm_count: 80,
            warp_size: const { pow2(32) },
            transaction_bytes: const { pow2(32) },
            bytes_per_thread: const { pow2(8) },
            dram_traffic_bw: Bandwidth::from_gbps(1560.0),
            launch_overhead: SimTime::from_micros(4),
            memcpy_latency: SimTime::from_nanos(2500),
            descriptor_bytes: 32,
            pack_kernel_efficiency: 0.95,
            memory_bytes: 16 << 30,
        }
    }

    /// NVIDIA A100 (Ampere GA100, SXM4, 40 GB). DGX A100 era: 108 SMs,
    /// HBM2e at 1555 GB/s peak (~1360 GB/s D2D copy, 2720 GB/s
    /// traffic), 32-byte sectors, CUDA 11-era overheads.
    fn a100() -> Self {
        GpuSpec {
            name: "A100-SXM4-40GB",
            sm_count: 108,
            warp_size: const { pow2(32) },
            transaction_bytes: const { pow2(32) },
            bytes_per_thread: const { pow2(8) },
            dram_traffic_bw: Bandwidth::from_gbps(2720.0),
            launch_overhead: SimTime::from_micros(3),
            memcpy_latency: SimTime::from_micros(2),
            descriptor_bytes: 32,
            pack_kernel_efficiency: 0.95,
            memory_bytes: 40 << 30,
        }
    }

    /// Bytes one warp moves per iteration (256 with the defaults).
    pub fn warp_chunk(&self) -> Pow2 {
        Pow2(self.warp_size.0 + self.bytes_per_thread.0)
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuArch::default_arch().spec()
    }
}

/// The GPU↔GPU interconnect family of a node. NVLink-era parts invert
/// several PCIe-era trade-offs (peer traffic stops being the bottleneck
/// and fine-grained remote access keeps the link far busier), so the
/// tag is carried explicitly for tests and self-describing traces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Interconnect {
    /// GPUs peer over the PCIe switch (the paper's PSG node).
    Pcie,
    /// GPUs peer over dedicated NVLink bricks (DGX-class nodes).
    NvLink,
}

/// Node-level interconnect constants shared by all GPUs in a node.
#[derive(Clone, Debug)]
pub struct NodeTopology {
    /// Which fabric the peer-to-peer path rides on.
    pub interconnect: Interconnect,
    /// Host→device effective PCIe bandwidth.
    pub pcie_h2d: Bandwidth,
    /// Device→host effective PCIe bandwidth.
    pub pcie_d2h: Bandwidth,
    /// Peer-to-peer (GPU↔GPU over the PCIe switch) bandwidth. The paper
    /// cites GPU–GPU PCIe bandwidth exceeding CPU–GPU bandwidth.
    pub pcie_p2p: Bandwidth,
    /// PCIe transaction latency.
    pub pcie_latency: SimTime,
    /// Host-side `memcpy` bandwidth (for host↔host staging copies).
    pub host_memcpy_bw: Bandwidth,
    /// One-time cost of opening a CUDA IPC handle.
    pub ipc_open_cost: SimTime,
    /// Efficiency of a kernel gathering/scattering *peer* GPU memory
    /// through an IPC mapping, relative to a bulk P2P copy. The paper
    /// measured direct remote unpacking 10–15% slower than staging into
    /// a local buffer first (§5.2.1); small strided PCIe reads cannot
    /// keep the link as full as bulk DMA.
    pub peer_kernel_efficiency: f64,
    /// `cudaMemcpy2D` effective-bandwidth factor when the row width is
    /// *not* a multiple of 64 bytes (the Figure 8 cliff).
    pub memcpy2d_misaligned_factor: f64,
    /// Per-row descriptor overhead of `cudaMemcpy2D` through the DMA
    /// engine (large row counts amortize poorly in the real driver).
    pub memcpy2d_row_overhead: SimTime,
    /// One-time cost of installing a DEV-program handler on the NIC
    /// packet processor (sPIN's handler-registration path: compile the
    /// descriptor program into HPU handler state and pin it). Paid once
    /// per connection, like `ipc_open_cost`.
    pub nic_handler_setup: SimTime,
    /// Per-descriptor issue cost on the NIC handler cores: each DEV
    /// work unit costs one gather/scatter descriptor dispatch. sPIN
    /// budgets a handler at a few ns per packet op on dedicated HPU
    /// cores; commodity HCA firmware engines are slower.
    pub nic_desc_issue: SimTime,
    /// NIC gather/scatter DMA bandwidth when the packet processor
    /// drives strided reads from GPU memory over the host bus (PCIe
    /// peer-to-peer into the HCA; bounded by the host link, and below
    /// bulk-DMA rates because strided descriptors keep the bus less
    /// full).
    pub nic_dma_bw: Bandwidth,
    /// Latency of a GPU-stream doorbell ring reaching the NIC/proxy
    /// (the stream-triggered MMIO write of HPE's stream-aware MP; a
    /// store over the host bus plus trigger dispatch).
    pub stream_doorbell_lat: SimTime,
    /// Per-op issue cost when a captured stream-op graph is replayed
    /// (trigger/doorbell/completion entries re-armed by the stream
    /// front-end, no CPU involvement).
    pub stream_op_issue: SimTime,
}

impl NodeTopology {
    /// PCIe gen3 x16 era constants matching the NVIDIA PSG cluster.
    fn psg_node() -> Self {
        NodeTopology {
            interconnect: Interconnect::Pcie,
            pcie_h2d: Bandwidth::from_gbps(10.0),
            pcie_d2h: Bandwidth::from_gbps(10.0),
            pcie_p2p: Bandwidth::from_gbps(11.0),
            pcie_latency: SimTime::from_micros(2),
            host_memcpy_bw: Bandwidth::from_gbps(8.0),
            ipc_open_cost: SimTime::from_micros(120),
            peer_kernel_efficiency: 0.85,
            memcpy2d_misaligned_factor: 0.15,
            memcpy2d_row_overhead: SimTime::from_nanos(30),
            // FDR-era ConnectX-3 firmware engine: handler install is a
            // verbs QP reconfig (~command-interface round trip), per
            // descriptor dispatch is firmware-driven, gather DMA is
            // bounded by the gen3 host link with strided-read derating.
            nic_handler_setup: SimTime::from_micros(40),
            nic_desc_issue: SimTime::from_nanos(120),
            nic_dma_bw: Bandwidth::from_gbps(5.0),
            // Kepler has no stream memory ops; a CPU proxy thread polls
            // the doorbell flag, so the ring is host-visible only after
            // a PCIe write + poll interval.
            stream_doorbell_lat: SimTime::from_micros(3),
            stream_op_issue: SimTime::from_nanos(400),
        }
    }

    /// DGX-1 (P100) node: NVLink 1.0 peering (two bonded links per
    /// neighbour pair, ~35 GB/s measured by p2pBandwidthLatencyTest),
    /// host link still PCIe gen3. NVLink's native load/store peering
    /// keeps fine-grained kernels close to bulk-DMA rates, and the
    /// post-Kepler DMA engines largely flatten the `cudaMemcpy2D`
    /// misaligned-row cliff of Figure 8.
    fn dgx1_p100_node() -> Self {
        NodeTopology {
            interconnect: Interconnect::NvLink,
            pcie_h2d: Bandwidth::from_gbps(11.0),
            pcie_d2h: Bandwidth::from_gbps(11.0),
            pcie_p2p: Bandwidth::from_gbps(35.0),
            pcie_latency: SimTime::from_nanos(1900),
            host_memcpy_bw: Bandwidth::from_gbps(10.0),
            ipc_open_cost: SimTime::from_micros(100),
            peer_kernel_efficiency: 0.90,
            memcpy2d_misaligned_factor: 0.60,
            memcpy2d_row_overhead: SimTime::from_nanos(15),
            // EDR-era ConnectX-4: faster command interface, offload
            // engines closer to sPIN's measured handler rates; Pascal
            // adds cuStreamWriteValue so the doorbell is a real MMIO
            // store, no proxy poll.
            nic_handler_setup: SimTime::from_micros(25),
            nic_desc_issue: SimTime::from_nanos(80),
            nic_dma_bw: Bandwidth::from_gbps(9.0),
            stream_doorbell_lat: SimTime::from_nanos(1200),
            stream_op_issue: SimTime::from_nanos(250),
        }
    }

    /// DGX-1V (V100) node: NVLink 2.0 (~45 GB/s per neighbour pair),
    /// PCIe gen3 host link with Volta's improved copy engines.
    fn dgx1v_node() -> Self {
        NodeTopology {
            interconnect: Interconnect::NvLink,
            pcie_h2d: Bandwidth::from_gbps(12.0),
            pcie_d2h: Bandwidth::from_gbps(12.0),
            pcie_p2p: Bandwidth::from_gbps(45.0),
            pcie_latency: SimTime::from_nanos(1700),
            host_memcpy_bw: Bandwidth::from_gbps(12.0),
            ipc_open_cost: SimTime::from_micros(90),
            peer_kernel_efficiency: 0.92,
            memcpy2d_misaligned_factor: 0.80,
            memcpy2d_row_overhead: SimTime::from_nanos(8),
            // EDR ConnectX-5 with full DC offload pipeline.
            nic_handler_setup: SimTime::from_micros(18),
            nic_desc_issue: SimTime::from_nanos(60),
            nic_dma_bw: Bandwidth::from_gbps(10.5),
            stream_doorbell_lat: SimTime::from_nanos(900),
            stream_op_issue: SimTime::from_nanos(180),
        }
    }

    /// DGX A100 node: NVLink 3.0 through NVSwitch (~235 GB/s
    /// unidirectional per GPU pair), PCIe gen4 x16 host link.
    fn dgxa100_node() -> Self {
        NodeTopology {
            interconnect: Interconnect::NvLink,
            pcie_h2d: Bandwidth::from_gbps(22.0),
            pcie_d2h: Bandwidth::from_gbps(22.0),
            pcie_p2p: Bandwidth::from_gbps(235.0),
            pcie_latency: SimTime::from_nanos(1500),
            host_memcpy_bw: Bandwidth::from_gbps(18.0),
            ipc_open_cost: SimTime::from_micros(80),
            peer_kernel_efficiency: 0.93,
            memcpy2d_misaligned_factor: 0.85,
            memcpy2d_row_overhead: SimTime::from_nanos(5),
            // HDR ConnectX-6 era: wide command interface, BlueField-
            // class packet processors, gen4 host link; doorbell rates
            // from HPE's stream-triggered measurements on Slingshot-
            // class NICs (sub-µs trigger visibility).
            nic_handler_setup: SimTime::from_micros(12),
            nic_desc_issue: SimTime::from_nanos(40),
            nic_dma_bw: Bandwidth::from_gbps(20.0),
            stream_doorbell_lat: SimTime::from_nanos(600),
            stream_op_issue: SimTime::from_nanos(120),
        }
    }
}

impl Default for NodeTopology {
    fn default() -> Self {
        GpuArch::default_arch().topology()
    }
}

/// The architecture registry, default first. It is the one reader of
/// the per-part constructors above, which are private to this module:
/// everything else reaches a part's constants through [`GpuArch`].
pub(crate) static REGISTRY: [GpuArch; 4] = [
    GpuArch::new(
        "k40",
        &["tesla-k40", "kepler"],
        "Kepler GK110B, PCIe gen3 PSG node (the paper's testbed; default)",
        GpuSpec::k40,
        NodeTopology::psg_node,
    ),
    GpuArch::new(
        "p100",
        &["tesla-p100", "pascal"],
        "Pascal GP100 SXM2, NVLink 1.0 DGX-1 node",
        GpuSpec::p100,
        NodeTopology::dgx1_p100_node,
    ),
    GpuArch::new(
        "v100",
        &["tesla-v100", "volta"],
        "Volta GV100 SXM2, NVLink 2.0 DGX-1V node",
        GpuSpec::v100,
        NodeTopology::dgx1v_node,
    ),
    GpuArch::new(
        "a100",
        &["ampere", "dgx-a100"],
        "Ampere GA100 SXM4-40GB, NVLink 3.0 DGX A100 node",
        GpuSpec::a100,
        NodeTopology::dgxa100_node,
    ),
];

#[cfg(test)]
impl GpuSpec {
    /// Practical peak *copy* rate (payload bytes per second) of a
    /// perfectly coalesced in-device copy — the `cudaMemcpy` rate the
    /// paper treats as the achievable ceiling in Figure 6.
    pub(crate) fn peak_copy_rate(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.dram_traffic_bw.bytes_per_sec() / 2.0)
    }
}

#[cfg(test)]
impl NodeTopology {
    /// Does this node model the Figure 8 `cudaMemcpy2D` misaligned-row
    /// bandwidth cliff? Kepler-era DMA engines fall to ~15% of peak on
    /// rows that are not 64-byte multiples; later engines mostly don't.
    pub(crate) fn memcpy2d_cliff(&self) -> bool {
        self.memcpy2d_misaligned_factor < 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_constants() {
        let s = GpuSpec::k40();
        assert_eq!(s.warp_chunk().get(), 256);
        assert!((s.peak_copy_rate().as_gbps() - 180.0).abs() < 1e-9);
        assert_eq!(s.sm_count, 15);
    }

    #[test]
    fn pow2_accepts_exactly_the_powers_of_two() {
        for log2 in 0..64 {
            let p = Pow2::new(1 << log2).unwrap();
            assert_eq!(
                (p.get(), p.log2(), p.mask()),
                (1 << log2, log2, (1 << log2) - 1)
            );
        }
        for v in [0, 3, 96, 129, u64::MAX] {
            assert_eq!(Pow2::new(v), Err(NotPowerOfTwo(v)));
        }
        assert_eq!(const { pow2(128) }, Pow2::new(128).unwrap());
    }

    #[test]
    fn topology_defaults() {
        let t = NodeTopology::default();
        assert!(t.pcie_p2p.as_gbps() > t.pcie_h2d.as_gbps());
        assert!(t.memcpy2d_misaligned_factor < 1.0);
    }
}
