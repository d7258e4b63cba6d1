//! The simulation world for MPI jobs: hardware (`ClusterWorld`) plus
//! runtime state (matching queues, the handshake table, per-rank GPU
//! bindings and fragment rings).

use crate::config::MpiConfig;
use crate::connection::{Capability, Handshake, Status};
use crate::lease::Leases;
use crate::matcher::Matcher;
use crate::protocol::plan::Loc;
use crate::shape::ShapeTable;
use datatype::DataType;
use devengine::DevCache;
use faultsim::FaultSim;
use gpusim::{FifoResource, GpuArch, GpuSystem, GpuWorld, StreamId};
use memsim::{GpuId, Memory, Ptr};
use netsim::{ChannelKind, ClusterWorld, NetSystem, NetWorld};
use simcore::hash::DetHashMap;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Placement of one MPI rank.
#[derive(Clone, Copy, Debug)]
pub struct RankSpec {
    /// GPU the rank is bound to (`CUDA_VISIBLE_DEVICES` style binding).
    pub gpu: GpuId,
    /// Node the rank runs on; ranks on the same node talk over shared
    /// memory, others over InfiniBand.
    pub node: usize,
}

impl RankSpec {
    /// Rank placement on `gpu` of `node`.
    pub const fn at(gpu: u32, node: usize) -> RankSpec {
        RankSpec {
            gpu: GpuId(gpu),
            node,
        }
    }

    /// `n` ranks laid out by `topo`: rank `r` on GPU `r` of node
    /// `topo.node_of(r)`.
    pub fn laid_out(n: usize, topo: &netsim::Topology) -> Vec<RankSpec> {
        let on = |r| RankSpec::at(r, topo.node_of(r) as usize);
        (0..n as u32).map(on).collect()
    }
}

/// The paper's two-rank testbeds: both ranks on one GPU ("1GPU"), one
/// GPU each on one node ("2GPU"), and one node each over InfiniBand
/// ("IB").
pub(crate) const ONE_GPU: [RankSpec; 2] = [RankSpec::at(0, 0), RankSpec::at(0, 0)];
pub(crate) const TWO_GPUS: [RankSpec; 2] = [RankSpec::at(0, 0), RankSpec::at(1, 0)];
pub const IB: [RankSpec; 2] = [RankSpec::at(0, 0), RankSpec::at(1, 1)];

/// Mutable per-rank runtime state.
pub struct RankState {
    pub rank: usize,
    pub gpu: GpuId,
    pub node: usize,
    /// Stream for pack/unpack kernels.
    pub kernel_stream: StreamId,
    /// Stream for DMA copies (overlaps with kernels, as the hardware's
    /// separate copy engines do).
    pub copy_stream: StreamId,
    /// This rank's CUDA-DEV cache.
    pub dev_cache: Rc<RefCell<DevCache>>,
    /// This rank's fragment rings, at most one per ring [`Loc`]:
    /// `pipeline_depth` slots of `frag_size` bytes each, allocated the
    /// first time a connection needs the ring and shared by all of the
    /// rank's connections (`connection`).
    pub rings: BTreeMap<Loc, Vec<Ptr>>,
    /// Transient buffers this rank used and keeps for the next use
    /// (eager bounces, barrier scratch, comparator staging).
    pub leases: Leases,
}

/// Runtime-global state.
pub struct MpiState {
    pub config: MpiConfig,
    pub ranks: Vec<RankState>,
    pub matcher: Matcher,
    /// Every handshake begun, by what it establishes (an SM pair, a
    /// copy-in/out pair, a NIC-handler pair or a mapped peer allocation):
    /// pending with its waiting callers, or up (`connection`).
    pub handshakes: DetHashMap<Handshake, Status>,
    /// Capabilities a handshake step lost for the rest of the run — a
    /// permanent fault or a spent retry budget. A lost capability is no
    /// longer offered ([`MpiState::offers`]): IPC loss steers every later
    /// same-node GPU transfer to copy-in/copy-out, zero-copy loss demotes
    /// copy-in/out to its staged variant, and a lost NIC handler or
    /// doorbell demotes its offload class to the GPU-pack pipeline.
    pub lost: BTreeSet<Capability>,
    /// Everything derived from a transfer's shape: tuner decisions,
    /// offload programs, captured graphs and merged move lists.
    pub shapes: ShapeTable,
    /// The committed byte type: an eager bounce buffer of `n` bytes is
    /// `n` of them (`protocol::eager`).
    pub byte: DataType,
}

impl MpiState {
    /// Does the runtime offer `cap` now: is its configuration knob on
    /// and has no handshake step lost it?
    pub fn offers(&self, cap: Capability) -> bool {
        let c = &self.config;
        let knob = match cap {
            Capability::Ipc => c.use_ipc,
            Capability::ZeroCopy => c.zero_copy,
            Capability::NicOffload => c.nic_offload,
            Capability::StreamTrigger => c.stream_trigger,
        };
        knob && !self.lost.contains(&cap)
    }
}

/// The complete world: hardware + runtime.
pub struct MpiWorld {
    pub cluster: ClusterWorld,
    pub mpi: MpiState,
}

impl MpiWorld {
    /// Build a job from rank placements on the default (K40)
    /// architecture. Channels are created for every rank pair: shared
    /// memory within a node, InfiniBand across nodes.
    pub fn new(specs: &[RankSpec], gpu_count: u32, config: MpiConfig) -> MpiWorld {
        MpiWorld::on_arch(GpuArch::default_arch(), specs, gpu_count, config)
    }

    /// Build a job whose GPUs and node interconnect come from one
    /// registered architecture. The arch is job-level: every rank's GPU
    /// is the same part (mixed-arch jobs are a later extension), and
    /// everything above — protocol costs, tuner decisions, metrics —
    /// reads it back from `cluster.gpu_system.arch`.
    pub(crate) fn on_arch(
        arch: &'static GpuArch,
        specs: &[RankSpec],
        gpu_count: u32,
        config: MpiConfig,
    ) -> MpiWorld {
        let mut cluster = ClusterWorld::for_arch(arch, gpu_count);
        cluster.faults = FaultSim::from_plan(config.fault_plan.clone());
        let mut ranks = Vec::with_capacity(specs.len());
        for (i, s) in specs.iter().enumerate() {
            assert!(
                s.gpu.index() < gpu_count as usize,
                "rank {i} bound to missing {0}",
                s.gpu
            );
            let kernel_stream = cluster.gpu_system.create_stream(s.gpu);
            let copy_stream = cluster.gpu_system.create_stream(s.gpu);
            ranks.push(RankState {
                rank: i,
                gpu: s.gpu,
                node: s.node,
                kernel_stream,
                copy_stream,
                dev_cache: Rc::new(RefCell::new(DevCache::default())),
                rings: BTreeMap::new(),
                leases: Leases::default(),
            });
        }
        for a in 0..specs.len() {
            for b in a + 1..specs.len() {
                let kind = if specs[a].node == specs[b].node {
                    ChannelKind::SharedMemory
                } else {
                    ChannelKind::InfiniBand
                };
                cluster.net_system.connect(a, b, kind);
            }
        }
        MpiWorld {
            cluster,
            mpi: MpiState {
                config,
                ranks,
                matcher: Matcher::new(specs.len()),
                handshakes: DetHashMap::default(),
                lost: BTreeSet::new(),
                shapes: ShapeTable::default(),
                byte: DataType::byte().commit(),
            },
        }
    }

    /// Two ranks on one node sharing a single GPU (the paper's "1GPU"
    /// shared-memory configuration).
    pub fn two_ranks_one_gpu(config: MpiConfig) -> MpiWorld {
        MpiWorld::new(&ONE_GPU, 1, config)
    }

    /// Two ranks on one node, each with its own GPU ("2GPU").
    pub fn two_ranks_two_gpus(config: MpiConfig) -> MpiWorld {
        MpiWorld::new(&TWO_GPUS, 2, config)
    }

    /// Two ranks on different nodes connected by InfiniBand ("IB").
    pub fn two_ranks_ib(config: MpiConfig) -> MpiWorld {
        MpiWorld::new(&IB, 2, config)
    }

    pub fn rank(&self, r: usize) -> &RankState {
        &self.mpi.ranks[r]
    }

    /// Are two ranks on the same node?
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.mpi.ranks[a].node == self.mpi.ranks[b].node
    }
}

impl GpuWorld for MpiWorld {
    fn mem(&mut self) -> &mut Memory {
        &mut self.cluster.memory
    }
    fn mem_ref(&self) -> &Memory {
        &self.cluster.memory
    }
    fn gpus(&mut self) -> &mut GpuSystem {
        &mut self.cluster.gpu_system
    }
    fn gpus_ref(&self) -> &GpuSystem {
        &self.cluster.gpu_system
    }
    fn cpu(&mut self, rank: usize) -> &mut FifoResource {
        self.cluster.cpu(rank)
    }
    fn faults(&mut self) -> &mut FaultSim {
        &mut self.cluster.faults
    }
}

impl NetWorld for MpiWorld {
    fn net(&mut self) -> &mut NetSystem {
        &mut self.cluster.net_system
    }
    fn net_ref(&self) -> &NetSystem {
        &self.cluster.net_system
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies() {
        let w = MpiWorld::two_ranks_one_gpu(MpiConfig::default());
        assert!(w.same_node(0, 1));
        assert_eq!(w.rank(0).gpu, w.rank(1).gpu);
        assert_eq!(w.cluster.net_system.kind(0, 1), ChannelKind::SharedMemory);

        let w = MpiWorld::two_ranks_ib(MpiConfig::default());
        assert!(!w.same_node(0, 1));
        assert_eq!(w.cluster.net_system.kind(0, 1), ChannelKind::InfiniBand);
        assert_ne!(w.rank(0).gpu, w.rank(1).gpu);
    }

    #[test]
    fn ranks_get_distinct_streams() {
        let w = MpiWorld::two_ranks_one_gpu(MpiConfig::default());
        let r0 = w.rank(0);
        let r1 = w.rank(1);
        assert_ne!(r0.kernel_stream, r0.copy_stream);
        assert_ne!(r0.kernel_stream, r1.kernel_stream);
    }

    #[test]
    #[should_panic(expected = "bound to missing")]
    fn binding_to_missing_gpu_fails() {
        MpiWorld::new(
            &[RankSpec {
                gpu: GpuId(3),
                node: 0,
            }],
            1,
            MpiConfig::default(),
        );
    }
}
