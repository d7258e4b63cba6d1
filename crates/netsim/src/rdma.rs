//! RDMA registration: one-time pinning with the HCA, and a
//! registration cache.
//!
//! The cost structure here is what shapes the paper's protocol design:
//! registering memory with the HCA (or opening a CUDA IPC handle) costs
//! tens of microseconds, so a pipelined protocol must establish the
//! RDMA connection **once** and recycle fragments — "any benefits
//! obtained from pipelining will be annihilated by the overhead of
//! registering the RDMA fragments" (§4.1).

use crate::world::NetWorld;
use faultsim::FaultOp;
use gpusim::fault;
use memsim::{Ptr, Registration};
use simcore::trace::names;
use simcore::{Sim, Track};

/// Ensure `ptr` is registered for RDMA. On a cache hit `done` runs
/// immediately; on a miss the registration cost is charged on the
/// caller's CPU first (pinning is a blocking syscall).
///
/// Fault charge point (`FaultOp::RdmaRegister`), issued through
/// [`fault::charge`]: transient injections re-charge the pinning syscall
/// after a capped backoff.
pub fn ensure_registered<W: NetWorld>(
    sim: &mut Sim<W>,
    rank: usize,
    ptr: Ptr,
    done: impl FnOnce(&mut Sim<W>) + 'static,
) {
    if sim
        .world
        .mem()
        .registry
        .is_registered(ptr, Registration::Rdma)
    {
        done(sim);
        return;
    }
    let price = |sim: &Sim<W>| sim.world.net_ref().registration_cost;
    let reserve = move |sim: &mut Sim<W>, cost| {
        let now = sim.now();
        let (start, end) = sim.world.cpu(rank).reserve(now, cost);
        let track = Track::Cpu { rank: rank as u32 };
        sim.trace.span_at(
            start,
            end,
            names::CAT_NETSIM,
            names::SPAN_RDMA_REGISTER,
            track,
        );
        end
    };
    fault::charge(sim, FaultOp::RdmaRegister, price, reserve, move |sim| {
        sim.world.mem().registry.register(ptr, Registration::Rdma);
        done(sim);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelKind;
    use crate::world::ClusterWorld;
    use memsim::MemSpace;
    use simcore::SimTime;

    fn world() -> Sim<ClusterWorld> {
        let mut w = ClusterWorld::new(1);
        w.net_system.connect(0, 1, ChannelKind::InfiniBand);
        Sim::new(w)
    }

    #[test]
    fn registration_is_cached() {
        let mut sim = world();
        let buf = sim.world.memory.alloc(MemSpace::Host, 4096).unwrap();
        ensure_registered(&mut sim, 0, buf, |_| {});
        let after_first = sim.run();
        assert_eq!(after_first, SimTime::from_micros(50));
        ensure_registered(&mut sim, 0, buf, |_| {});
        let after_second = sim.run();
        assert_eq!(after_second, after_first, "second registration is free");
    }

    #[test]
    fn registration_dropped_on_free() {
        let mut sim = world();
        let buf = sim.world.memory.alloc(MemSpace::Host, 64).unwrap();
        ensure_registered(&mut sim, 0, buf, |_| {});
        sim.run();
        sim.world.memory.free(buf).unwrap();
        let buf2 = sim.world.memory.alloc(MemSpace::Host, 64).unwrap();
        // Fresh allocation must not inherit registration even if ids
        // differ; and the freed pointer's registration is gone.
        assert!(!sim
            .world
            .memory
            .registry
            .is_registered(buf, memsim::Registration::Rdma));
        assert!(!sim
            .world
            .memory
            .registry
            .is_registered(buf2, memsim::Registration::Rdma));
    }
}
