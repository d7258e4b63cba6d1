//! The world type shared by everything above the hardware: memory +
//! GPUs + network.

use crate::channel::NetSystem;
use faultsim::FaultSim;
use gpusim::FifoResource;
use gpusim::{GpuArch, GpuSystem, GpuWorld};
use memsim::Memory;

/// World-access trait for network operations; extends [`GpuWorld`].
pub trait NetWorld: GpuWorld {
    fn net(&mut self) -> &mut NetSystem;
    fn net_ref(&self) -> &NetSystem;
}

/// The standard world for multi-process experiments: one memory system
/// and GPU set (conceptually spanning the job's nodes — each rank is
/// bound to its own GPU and CPU), plus the interconnect.
pub struct ClusterWorld {
    pub memory: Memory,
    pub gpu_system: GpuSystem,
    pub net_system: NetSystem,
    pub cpus: Vec<FifoResource>,
    pub faults: FaultSim,
}

impl ClusterWorld {
    pub fn new(gpu_count: u32) -> ClusterWorld {
        ClusterWorld::for_arch(GpuArch::default_arch(), gpu_count)
    }

    /// A cluster world whose GPUs (and node topology) come from one
    /// registered architecture.
    pub fn for_arch(arch: &'static GpuArch, gpu_count: u32) -> ClusterWorld {
        let mem_bytes = arch.spec().memory_bytes;
        ClusterWorld {
            memory: Memory::new(gpu_count, mem_bytes),
            gpu_system: GpuSystem::for_arch(arch, gpu_count),
            net_system: NetSystem::new(),
            cpus: Vec::new(),
            faults: FaultSim::disabled(),
        }
    }
}

impl GpuWorld for ClusterWorld {
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

impl NetWorld for ClusterWorld {
    fn net(&mut self) -> &mut NetSystem {
        &mut self.net_system
    }
    fn net_ref(&self) -> &NetSystem {
        &self.net_system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelKind;

    #[test]
    fn world_wires_up() {
        let mut w = ClusterWorld::new(2);
        w.net_system.connect(0, 1, ChannelKind::SharedMemory);
        assert_eq!(w.gpu_system.gpu_count(), 2);
        assert!(w.net_system.try_channel(1, 0).is_ok());
        // CPU resources auto-grow per rank.
        let _ = w.cpu(3);
        assert_eq!(w.cpus.len(), 4);
    }
}
