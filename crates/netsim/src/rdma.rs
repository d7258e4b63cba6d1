//! RDMA engine: one-sided get/put over the data links, with one-time
//! registration and a registration cache.
//!
//! The cost structure here is what shapes the paper's protocol design:
//! registering memory with the HCA (or opening a CUDA IPC handle) costs
//! tens of microseconds, so a pipelined protocol must establish the
//! RDMA connection **once** and recycle fragments — "any benefits
//! obtained from pipelining will be annihilated by the overhead of
//! registering the RDMA fragments" (§4.1).

use crate::channel::NetError;
use crate::world::NetWorld;
use faultsim::{Backoff, FaultDecision, FaultOp};
use gpusim::fault;
use memsim::{MemError, Ptr, Registration};
use simcore::trace::{names, Name};
use simcore::{Sim, Track};

/// Ensure `ptr` is registered for RDMA. On a cache hit `done` runs
/// immediately; on a miss the registration cost is charged on the
/// caller's CPU first (pinning is a blocking syscall).
///
/// Fault charge point (`FaultOp::RdmaRegister`): transient injections
/// re-charge the pinning syscall after a capped backoff.
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
    register_attempt(sim, rank, ptr, fault::default_backoff(), done);
}

fn register_attempt<W: NetWorld>(
    sim: &mut Sim<W>,
    rank: usize,
    ptr: Ptr,
    mut backoff: Backoff,
    done: impl FnOnce(&mut Sim<W>) + 'static,
) {
    let cost = sim.world.net().registration_cost;
    let cost = fault::fault_scaled(sim, FaultOp::RdmaRegister, cost);
    let now = sim.now();
    let (start, end) = sim.world.cpu(rank).reserve(now, cost);
    sim.trace.span_at(
        start,
        end,
        names::CAT_NETSIM,
        names::SPAN_RDMA_REGISTER,
        Track::Cpu { rank: rank as u32 },
    );
    let verdict = fault::fault_roll(sim, FaultOp::RdmaRegister);
    sim.schedule_at(end, move |sim| {
        if verdict.is_fault() {
            if verdict == FaultDecision::Lost || backoff.attempts() >= fault::RETRY_MAX {
                fault::retries_exhausted(FaultOp::RdmaRegister, backoff.attempts());
            }
            fault::count_retry(sim, FaultOp::RdmaRegister);
            let delay = backoff.next_delay();
            sim.schedule_in(delay, move |sim| {
                register_attempt(sim, rank, ptr, backoff, done);
            });
            return;
        }
        sim.world.mem().registry.register(ptr, Registration::Rdma);
        done(sim);
    });
}

fn check_host(ptr: Ptr) -> Result<(), MemError> {
    if ptr.space.is_device() {
        // The paper stages large GPU messages through host memory (per
        // [14], GPUDirect RDMA only wins below ~30 KB); this simulation
        // models the staged path only.
        return Err(MemError::WrongSpace {
            ptr,
            expected: memsim::MemSpace::Host,
        });
    }
    Ok(())
}

/// One-sided GET: `local` pulls `len` bytes from `remote`'s registered
/// buffer into its own registered buffer. Charges the data link from
/// the remote side toward the local side; bytes move at completion.
///
/// Errors (typed, nothing scheduled) when a buffer is not pinned host
/// memory, not registered, or the pair has no channel.
///
/// Fault charge point (`FaultOp::RdmaGet`): transient injections
/// re-issue the work request after a capped backoff; degradation windows
/// stretch the wire occupancy.
#[allow(clippy::too_many_arguments)]
pub fn rdma_get<W: NetWorld>(
    sim: &mut Sim<W>,
    local_rank: usize,
    remote_rank: usize,
    remote_src: Ptr,
    local_dst: Ptr,
    len: u64,
    done: impl FnOnce(&mut Sim<W>) + 'static,
) -> Result<(), NetError> {
    check_host(remote_src)?;
    check_host(local_dst)?;
    sim.world
        .mem()
        .registry
        .require(remote_src, Registration::Rdma)?;
    sim.world
        .mem()
        .registry
        .require(local_dst, Registration::Rdma)?;
    sim.world.net().try_channel(remote_rank, local_rank)?;
    one_sided_attempt(
        sim,
        OneSided::Get,
        remote_rank,
        local_rank,
        remote_src,
        local_dst,
        len,
        fault::default_backoff(),
        done,
    );
    Ok(())
}

/// One-sided PUT: push `len` bytes from the local registered buffer to
/// the remote registered buffer. Fault charge point (`FaultOp::RdmaPut`),
/// same precondition and retry/degradation semantics as [`rdma_get`].
#[allow(clippy::too_many_arguments)]
pub fn rdma_put<W: NetWorld>(
    sim: &mut Sim<W>,
    local_rank: usize,
    remote_rank: usize,
    local_src: Ptr,
    remote_dst: Ptr,
    len: u64,
    done: impl FnOnce(&mut Sim<W>) + 'static,
) -> Result<(), NetError> {
    check_host(local_src)?;
    check_host(remote_dst)?;
    sim.world
        .mem()
        .registry
        .require(local_src, Registration::Rdma)?;
    sim.world
        .mem()
        .registry
        .require(remote_dst, Registration::Rdma)?;
    sim.world.net().try_channel(local_rank, remote_rank)?;
    one_sided_attempt(
        sim,
        OneSided::Put,
        local_rank,
        remote_rank,
        local_src,
        remote_dst,
        len,
        fault::default_backoff(),
        done,
    );
    Ok(())
}

#[derive(Clone, Copy)]
enum OneSided {
    Get,
    Put,
}

impl OneSided {
    fn op(self) -> FaultOp {
        match self {
            OneSided::Get => FaultOp::RdmaGet,
            OneSided::Put => FaultOp::RdmaPut,
        }
    }
    fn span_name(self) -> Name {
        match self {
            OneSided::Get => names::SPAN_RDMA_GET,
            OneSided::Put => names::SPAN_RDMA_PUT,
        }
    }
}

/// Shared engine for get/put: the wire always runs `from -> to` (the
/// direction the payload moves), `src`/`dst` are already validated.
#[expect(
    clippy::expect_used,
    reason = "get/put validated both pointers before the charge; a failure at landing \
              is corrupted bookkeeping, not an input"
)]
#[allow(clippy::too_many_arguments)]
fn one_sided_attempt<W: NetWorld>(
    sim: &mut Sim<W>,
    which: OneSided,
    from: usize,
    to: usize,
    src: Ptr,
    dst: Ptr,
    len: u64,
    mut backoff: Backoff,
    done: impl FnOnce(&mut Sim<W>) + 'static,
) {
    let now = sim.now();
    let wire_bytes = fault::fault_scaled_bytes(sim, which.op(), len);
    let arrive = {
        let ch = sim.world.net().channel_mut(from, to);
        ch.data.reserve(now, wire_bytes)
    };
    let track = Track::LinkData {
        from: from as u32,
        to: to as u32,
    };
    sim.trace
        .span_at(now, arrive, names::CAT_NETSIM, which.span_name(), track);
    let verdict = fault::fault_roll(sim, which.op());
    sim.schedule_at(arrive, move |sim| {
        if verdict.is_fault() {
            if verdict == FaultDecision::Lost || backoff.attempts() >= fault::RETRY_MAX {
                fault::retries_exhausted(which.op(), backoff.attempts());
            }
            fault::count_retry(sim, which.op());
            let delay = backoff.next_delay();
            sim.schedule_in(delay, move |sim| {
                one_sided_attempt(sim, which, from, to, src, dst, len, backoff, done);
            });
            return;
        }
        sim.world
            .mem()
            .copy(src, dst, len)
            .expect("one-sided RDMA copy");
        sim.trace
            .count(names::NETSIM_RDMA_BYTES, from as u32, to as u32, len);
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
    fn get_moves_bytes_at_link_rate() {
        let mut sim = world();
        let len = 6_000_000u64; // 1 ms at 6 GB/s
        let src = sim.world.memory.alloc(MemSpace::Host, len).unwrap();
        let dst = sim.world.memory.alloc(MemSpace::Host, len).unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 250) as u8).collect();
        sim.world.memory.write(src, &data).unwrap();
        ensure_registered(&mut sim, 1, src, |_| {});
        ensure_registered(&mut sim, 0, dst, |_| {});
        sim.run();
        let t0 = sim.now();
        rdma_get(&mut sim, 0, 1, src, dst, len, |_| {}).unwrap();
        let end = sim.run();
        assert_eq!(sim.world.memory.read_vec(dst, len).unwrap(), data);
        let wire = (end - t0).as_secs_f64();
        let rate = len as f64 / wire / 1e9;
        assert!((5.5..=6.0).contains(&rate), "IB rate {rate} GB/s");
    }

    #[test]
    fn put_moves_bytes() {
        let mut sim = world();
        let src = sim.world.memory.alloc(MemSpace::Host, 1024).unwrap();
        let dst = sim.world.memory.alloc(MemSpace::Host, 1024).unwrap();
        sim.world.memory.write(src, &[7u8; 1024]).unwrap();
        ensure_registered(&mut sim, 0, src, |_| {});
        ensure_registered(&mut sim, 1, dst, |_| {});
        sim.run();
        rdma_put(&mut sim, 0, 1, src, dst, 1024, |_| {}).unwrap();
        sim.run();
        assert_eq!(
            sim.world.memory.read_vec(dst, 1024).unwrap(),
            vec![7u8; 1024]
        );
    }

    #[test]
    fn unregistered_get_is_a_typed_error() {
        let mut sim = world();
        let src = sim.world.memory.alloc(MemSpace::Host, 64).unwrap();
        let dst = sim.world.memory.alloc(MemSpace::Host, 64).unwrap();
        let err = rdma_get(&mut sim, 0, 1, src, dst, 64, |_| {}).unwrap_err();
        assert_eq!(err, NetError::Mem(MemError::NotRegistered(src)));
        assert!(!sim.step(), "nothing was scheduled");
    }

    #[test]
    fn device_pointers_are_a_typed_error() {
        let mut sim = world();
        let src = sim
            .world
            .memory
            .alloc(MemSpace::Device(memsim::GpuId(0)), 64)
            .unwrap();
        let dst = sim.world.memory.alloc(MemSpace::Host, 64).unwrap();
        let err = rdma_get(&mut sim, 0, 1, src, dst, 64, |_| {}).unwrap_err();
        assert_eq!(
            err,
            NetError::Mem(MemError::WrongSpace {
                ptr: src,
                expected: MemSpace::Host,
            })
        );
        assert!(!sim.step(), "nothing was scheduled");
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
