//! Runtime state of the simulated GPUs: streams, occupancy throttles,
//! and the world-access trait the async operations are generic over.

use crate::arch::GpuArch;
use crate::fault::{FifoResource, Rolled};
use crate::spec::{GpuSpec, NodeTopology};
use faultsim::{FaultDecision, FaultOp, FaultSim};
use memsim::{GpuId, IpcHandle, MemError, Memory, Ptr};
use simcore::trace::{names, Name};
use simcore::{Bandwidth, Sim, SimTime, Track};

/// Identifies one stream on one GPU.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamId {
    pub gpu: GpuId,
    pub index: usize,
}

impl StreamId {
    /// The trace track the stream's spans land on.
    pub fn track(self) -> Track {
        Track::Stream {
            gpu: self.gpu.0,
            index: self.index as u32,
        }
    }
}

/// Mutable per-GPU runtime state.
pub struct GpuState {
    pub spec: GpuSpec,
    streams: Vec<FifoResource>,
    /// Cap on the number of thread blocks kernels may use (None = all
    /// SMs). The paper's third experiment throttles this to find the
    /// minimal GPU share that still saturates communication.
    pub block_limit: Option<u32>,
    /// Fraction of DRAM bandwidth available to our kernels, `(0, 1]`.
    /// Below 1.0 models a co-running GPU-intensive application (the
    /// paper's fourth experiment).
    pub bandwidth_share: f64,
}

impl GpuState {
    fn new(spec: GpuSpec) -> Self {
        GpuState {
            spec,
            // Stream 0 is the default stream, as in CUDA.
            streams: vec![FifoResource::new()],
            block_limit: None,
            bandwidth_share: 1.0,
        }
    }

    /// DRAM traffic bandwidth kernels can actually use, after occupancy
    /// throttling and external contention.
    pub(crate) fn effective_traffic_bw(&self) -> Bandwidth {
        let occupancy = match self.block_limit {
            Some(blocks) => (blocks as f64 / self.spec.sm_count as f64).min(1.0),
            None => 1.0,
        };
        let share = self.bandwidth_share.clamp(f64::MIN_POSITIVE, 1.0);
        self.spec
            .dram_traffic_bw
            .derated((occupancy * share).clamp(f64::MIN_POSITIVE, 1.0))
    }
}

/// All GPUs in a node plus the interconnect constants.
pub struct GpuSystem {
    gpus: Vec<GpuState>,
    pub topo: NodeTopology,
    /// The registry entry this system was built from. Raw
    /// [`GpuSystem::new`] callers with hand-rolled specs keep the
    /// registry default as their label; arch-aware construction goes
    /// through [`GpuSystem::for_arch`].
    pub arch: &'static GpuArch,
}

impl GpuSystem {
    pub fn new(gpu_count: u32, spec: GpuSpec, topo: NodeTopology) -> Self {
        GpuSystem::with_arch_label(GpuArch::default_arch(), gpu_count, spec, topo)
    }

    /// A node of `gpu_count` GPUs of one registered architecture.
    pub fn for_arch(arch: &'static GpuArch, gpu_count: u32) -> Self {
        GpuSystem::with_arch_label(arch, gpu_count, arch.spec(), arch.topology())
    }

    fn with_arch_label(
        arch: &'static GpuArch,
        gpu_count: u32,
        spec: GpuSpec,
        topo: NodeTopology,
    ) -> Self {
        GpuSystem {
            gpus: (0..gpu_count)
                .map(|_| GpuState::new(spec.clone()))
                .collect(),
            topo,
            arch,
        }
    }

    pub fn gpu_count(&self) -> u32 {
        self.gpus.len() as u32
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "per-GPU tables are fixed at construction and ids come from the same node"
    )]
    pub fn gpu(&self, id: GpuId) -> &GpuState {
        &self.gpus[id.index()]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "per-GPU tables are fixed at construction and ids come from the same node"
    )]
    pub fn gpu_mut(&mut self, id: GpuId) -> &mut GpuState {
        &mut self.gpus[id.index()]
    }

    /// Create a new stream on `gpu` (like `cudaStreamCreate`).
    pub fn create_stream(&mut self, gpu: GpuId) -> StreamId {
        let st = self.gpu_mut(gpu);
        st.streams.push(FifoResource::new());
        StreamId {
            gpu,
            index: st.streams.len() - 1,
        }
    }

    /// The default stream of a GPU.
    pub fn default_stream(&self, gpu: GpuId) -> StreamId {
        StreamId { gpu, index: 0 }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "per-GPU tables are fixed at construction and ids come from the same node"
    )]
    pub fn stream(&self, id: StreamId) -> &FifoResource {
        &self.gpus[id.gpu.index()].streams[id.index]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "per-GPU tables are fixed at construction and ids come from the same node"
    )]
    pub(crate) fn stream_mut(&mut self, id: StreamId) -> &mut FifoResource {
        &mut self.gpus[id.gpu.index()].streams[id.index]
    }
}

/// World-access trait: any simulation world that contains a memory system
/// and GPUs can run the async operations in this crate. Higher layers
/// (`netsim`, `mpirt`) extend the world with NICs and protocol state.
pub trait GpuWorld: 'static {
    fn mem(&mut self) -> &mut Memory;
    fn mem_ref(&self) -> &Memory;
    fn gpus(&mut self) -> &mut GpuSystem;
    fn gpus_ref(&self) -> &GpuSystem;
    /// The host CPU timeline of MPI process `rank` (each rank is a
    /// single-threaded process, so its CPU-side work — datatype
    /// traversal, DEV preparation, protocol handling — serializes on
    /// one FIFO resource).
    fn cpu(&mut self, rank: usize) -> &mut FifoResource;
    /// The world's fault-injection engine (disabled by default). Every
    /// charge point in this crate and the layers above consults it.
    fn faults(&mut self) -> &mut FaultSim;
}

/// Minimal world for unit tests and single-process experiments.
pub struct NodeWorld {
    pub memory: Memory,
    pub gpu_system: GpuSystem,
    pub cpus: Vec<FifoResource>,
    pub faults: FaultSim,
}

impl NodeWorld {
    pub fn new(gpu_count: u32) -> Self {
        NodeWorld::for_arch(GpuArch::default_arch(), gpu_count)
    }

    /// A single-node world of one registered architecture.
    pub fn for_arch(arch: &'static GpuArch, gpu_count: u32) -> Self {
        let mem_bytes = arch.spec().memory_bytes;
        NodeWorld {
            memory: Memory::new(gpu_count, mem_bytes),
            gpu_system: GpuSystem::for_arch(arch, gpu_count),
            cpus: Vec::new(),
            faults: FaultSim::disabled(),
        }
    }
}

impl GpuWorld for NodeWorld {
    fn mem(&mut self) -> &mut Memory {
        &mut self.memory
    }
    fn mem_ref(&self) -> &Memory {
        &self.memory
    }
    fn gpus(&mut self) -> &mut GpuSystem {
        &mut self.gpu_system
    }
    fn gpus_ref(&self) -> &GpuSystem {
        &self.gpu_system
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "the table was grown to cover `rank` just above"
    )]
    fn cpu(&mut self, rank: usize) -> &mut FifoResource {
        if self.cpus.len() <= rank {
            self.cpus.resize_with(rank + 1, FifoResource::new);
        }
        &mut self.cpus[rank]
    }
    fn faults(&mut self) -> &mut FaultSim {
        &mut self.faults
    }
}

/// Open a peer's IPC handle. Charges the one-time mapping cost and hands
/// the mapped pointer to `done`. The paper's protocol opens a handle
/// exactly once per connection and caches the mapping.
///
/// This is a fault charge point: a `Transient` injection fails the open
/// with `MemError::Faulted { transient: true }` (the caller may retry);
/// a permanent loss means CUDA IPC is gone for the rest of the run and
/// surfaces as `transient: false` — `mpirt` reacts by renegotiating the
/// transfer path to copy-in/copy-out.
pub fn ipc_open<W: GpuWorld>(
    sim: &mut Sim<W>,
    handle: IpcHandle,
    done: impl FnOnce(&mut Sim<W>, Result<Ptr, MemError>) + 'static,
) {
    let cost = sim.world.gpus_ref().topo.ipc_open_cost;
    let now = sim.now();
    sim.trace.span_at(
        now,
        now + cost,
        names::CAT_GPUSIM,
        names::SPAN_IPC_OPEN,
        Track::Session,
    );
    sim.trace.count(names::GPUSIM_IPC_OPEN_COUNT, 0, 0, 1);
    let verdict = crate::fault::fault_roll(sim, FaultOp::IpcOpen);
    sim.schedule_in(cost, move |sim| {
        let res = match verdict {
            FaultDecision::Ok => sim.world.mem().registry.open_ipc(handle),
            FaultDecision::Transient => Err(MemError::Faulted { transient: true }),
            FaultDecision::Lost => Err(MemError::Faulted { transient: false }),
        };
        done(sim, res);
    });
}

/// The resource half of a charge on `stream` (see
/// [`crate::fault::charge`]): reserve the stream for the rolled charge,
/// record it as a `name` span, and return the completion time.
pub(crate) fn on_stream<W: GpuWorld>(
    stream: StreamId,
    name: Name,
) -> impl Fn(&mut Sim<W>, Rolled) -> SimTime {
    move |sim, charge| {
        let now = sim.now();
        let (start, end) = sim.world.gpus().stream_mut(stream).reserve(now, charge);
        sim.trace
            .span_at(start, end, names::CAT_GPUSIM, name, stream.track());
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_per_gpu() {
        let mut sys = GpuSystem::for_arch(GpuArch::default_arch(), 2);
        let s1 = sys.create_stream(GpuId(0));
        let s2 = sys.create_stream(GpuId(1));
        assert_eq!(s1.index, 1);
        assert_eq!(s2.index, 1);
        assert_ne!(s1, s2);
        assert_eq!(sys.default_stream(GpuId(0)).index, 0);
    }

    #[test]
    fn effective_bw_throttles() {
        let mut sys = GpuSystem::for_arch(GpuArch::default_arch(), 1);
        let full = sys.gpu(GpuId(0)).effective_traffic_bw().as_gbps();
        sys.gpu_mut(GpuId(0)).block_limit = Some(3);
        let limited = sys.gpu(GpuId(0)).effective_traffic_bw().as_gbps();
        assert!((limited - full * 3.0 / 15.0).abs() < 1e-6);
        sys.gpu_mut(GpuId(0)).block_limit = None;
        sys.gpu_mut(GpuId(0)).bandwidth_share = 0.5;
        let contended = sys.gpu(GpuId(0)).effective_traffic_bw().as_gbps();
        assert!((contended - full * 0.5).abs() < 1e-6);
    }

    #[test]
    fn block_limit_above_sm_count_is_full_speed() {
        let mut sys = GpuSystem::for_arch(GpuArch::default_arch(), 1);
        sys.gpu_mut(GpuId(0)).block_limit = Some(100);
        assert!(
            (sys.gpu(GpuId(0)).effective_traffic_bw().as_gbps()
                - GpuSpec::default().dram_traffic_bw.as_gbps())
            .abs()
                < 1e-6
        );
    }

    #[test]
    fn cpu_resources_grow_per_rank() {
        let mut w = NodeWorld::new(1);
        let _ = w.cpu(5);
        assert_eq!(w.cpus.len(), 6);
        // Reservations are independent per rank.
        let d = || crate::Rolled::setup(SimTime::from_micros(10), "the CPU table's own test");
        let (_, e0) = w.cpu(0).reserve(SimTime::ZERO, d());
        let (s1, _) = w.cpu(1).reserve(SimTime::ZERO, d());
        assert_eq!(e0.as_nanos(), 10_000);
        assert_eq!(s1, SimTime::ZERO, "rank 1's CPU is not blocked by rank 0");
    }

    #[test]
    fn ipc_roundtrip_charges_open_cost() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let dev = sim
            .world
            .memory
            .alloc(memsim::MemSpace::Device(GpuId(0)), 1024)
            .unwrap();
        let handle = sim.world.memory.registry.export_ipc(dev, 1024).unwrap();
        ipc_open(&mut sim, handle, move |sim, res| {
            let mapped = res.unwrap();
            assert_eq!(mapped.alloc, dev.alloc);
            assert_eq!(sim.now(), SimTime::from_micros(120));
        });
        sim.run();
        assert_eq!(sim.executed_events(), 1);
    }
}
