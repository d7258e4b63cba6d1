//! Runtime tuning parameters (the analogue of Open MPI MCA parameters).

use devengine::EngineConfig;
use faultsim::FaultPlan;

/// Point-to-point protocol configuration.
#[derive(Clone, Debug)]
pub struct MpiConfig {
    /// Messages at or below this size use the eager protocol.
    pub eager_limit: u64,
    /// Pipeline fragment size for the rendezvous protocols.
    pub frag_size: u64,
    /// Number of fragments in each ring (pipeline depth).
    pub pipeline_depth: usize,
    /// Use CUDA IPC + GPUDirect RDMA for same-node GPU transfers. When
    /// false (hardware/security restrictions, §4.2), shared-memory GPU
    /// transfers fall back to copy-in/copy-out through host memory.
    pub use_ipc: bool,
    /// Receiver copies each packed fragment from the sender's GPU into
    /// a local staging buffer before unpacking (measured 10–15% faster
    /// than unpacking straight out of remote memory, §5.2.1).
    pub recv_local_staging: bool,
    /// Map host fragment buffers into the GPU (CUDA zero copy) so pack
    /// and unpack kernels move data across PCIe themselves, overlapping
    /// the device↔host hop with the kernel (§4.2).
    pub zero_copy: bool,
    /// Offer the NIC DEV-executor path (sPIN-style: the NIC packet
    /// processor runs the datatype program, no GPU pack kernel) to the
    /// tuner for cross-node GPU transfers. Off by default; the tuner
    /// only picks it where the cost model predicts a win.
    pub nic_offload: bool,
    /// Offer the stream-triggered path (HPE-style: the transfer is
    /// captured once into a GPU stream-op graph and replayed with zero
    /// CPU events) to the tuner for cross-node GPU transfers. Off by
    /// default.
    pub stream_trigger: bool,
    /// GPU datatype engine settings.
    pub engine: EngineConfig,
    /// Deterministic fault-injection plan consulted at every charge
    /// point. The default is empty, which keeps the fault engine
    /// entirely out of the hot path.
    pub fault_plan: FaultPlan,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            eager_limit: 64 << 10,
            frag_size: 512 << 10,
            pipeline_depth: 4,
            use_ipc: true,
            recv_local_staging: true,
            zero_copy: true,
            nic_offload: false,
            stream_trigger: false,
            engine: EngineConfig::default(),
            fault_plan: FaultPlan::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let c = MpiConfig::default();
        assert!(c.frag_size > c.eager_limit);
        assert!(c.pipeline_depth >= 2, "pipelining needs at least two slots");
        assert!(c.engine.unit_size % 256 == 0);
    }
}
