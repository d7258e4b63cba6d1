//! Connections: rings are per rank; a connection is its handshake.
//!
//! Each rank owns at most one fragment ring per [`Loc`] that can name
//! it — `Dev(Send)`, `Dev(Recv)`, `Host(Send)`, `Host(Recv)` — in
//! [`RankState::rings`](crate::world::RankState::rings). A ring is
//! allocated the first time a connection needs it, IPC-exported or
//! NIC-registered once, and shared by all of that rank's connections:
//! as in Open MPI's BTLs, whose fragments come from per-module free
//! lists, not per-peer rings. Slot credits are counted per transfer by
//! the executor, and no stage writes a slot byte, so a ring is only an
//! address in a memory space plus its one-time registration.
//!
//! What is per pair is the handshake, performed **once** per directed
//! rank pair and remembered in `MpiState::{sm_conns, ib_conns}` — the
//! paper's "single one-time establishment of the RDMA connection (and
//! then caching the registration)": the receiver's IPC open of the
//! sender's ring, and the zero-copy pin of the pinned host rings.
//!
//! Establishment is also where the runtime absorbs injected faults: a
//! transient IPC-open failure is retried under a capped exponential
//! backoff until [`HANDSHAKE_TIMEOUT`] virtual time has elapsed; a
//! permanent loss (or an exhausted handshake budget) evicts the
//! half-built connection, flips the runtime IPC flag off, and surfaces a
//! typed error so the protocol layer can renegotiate the path.

// Panic freedom (DESIGN.md §11): establishment surfaces a typed `MpiError`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::protocol::plan::{End, Loc};
use crate::request::MpiError;
use crate::world::MpiWorld;
use faultsim::{Backoff, FaultDecision, FaultOp};
use gpusim::GpuWorld as _;
use gpusim::{fault, ipc_open};
use memsim::{MemError, MemSpace, Ptr, Registration};
use netsim::ensure_registered;
use simcore::{Sim, SimTime};

/// Attempt cap for one connection handshake under transient faults.
const HANDSHAKE_RETRY_MAX: u32 = 5;

/// Virtual-time budget for one connection handshake: when injected
/// transient faults keep an establishment step failing past this long,
/// the runtime treats the capability as lost and renegotiates.
const HANDSHAKE_TIMEOUT: SimTime = SimTime(5_000_000);

/// The retry budget of one establishment step — an IPC open, the
/// zero-copy pin, an offload capability: [`HANDSHAKE_TIMEOUT`] of
/// virtual time from the first attempt and [`HANDSHAKE_RETRY_MAX`]
/// retries, under the simulators' capped exponential backoff.
#[derive(Clone, Copy)]
pub(crate) struct Handshake {
    deadline: SimTime,
    backoff: Backoff,
}

impl Handshake {
    /// A budget whose clock starts now.
    pub(crate) fn start(sim: &Sim<MpiWorld>) -> Handshake {
        Handshake {
            deadline: sim.now() + HANDSHAKE_TIMEOUT,
            backoff: fault::default_backoff(),
        }
    }

    /// After a transient fault on `op`: the delay before the next
    /// attempt, metering the retry — or `None` once the budget is spent.
    pub(crate) fn retry(&mut self, sim: &mut Sim<MpiWorld>, op: FaultOp) -> Option<SimTime> {
        if sim.now() >= self.deadline || self.backoff.attempts() >= HANDSHAKE_RETRY_MAX {
            return None;
        }
        fault::count_retry(sim, op);
        Some(self.backoff.next_delay())
    }
}

/// Rank `rank`'s ring at `loc`, allocated on first use: `depth` slots of
/// `frag_size` bytes in the rank's GPU memory (`Dev`) or in host memory
/// (`Host`), one allocation per slot, as cudaMalloc'd fragment buffers
/// are. A failed allocation frees the slots it made, so the rank holds
/// the whole ring or none of it.
fn ring(sim: &mut Sim<MpiWorld>, rank: usize, loc: Loc) -> Result<Vec<Ptr>, MemError> {
    let r = sim.world.rank(rank);
    if let Some(slots) = r.rings.get(&loc) {
        return Ok(slots.clone());
    }
    let space = match loc {
        Loc::Dev(_) => MemSpace::Device(r.gpu),
        _ => MemSpace::Host,
    };
    let cfg = &sim.world.mpi.config;
    let (frag, depth) = (cfg.frag_size, cfg.pipeline_depth);
    let mut slots = Vec::with_capacity(depth);
    for _ in 0..depth {
        match sim.world.mem().alloc(space, frag) {
            Ok(p) => slots.push(p),
            Err(e) => {
                // Every pointer here came from `alloc` just now, so a
                // failed free cannot outrank the error being reported.
                for p in slots {
                    let _ = sim.world.mem().free(p);
                }
                return Err(e);
            }
        }
    }
    if let Some(r) = sim.world.mpi.ranks.get_mut(rank) {
        r.rings.insert(loc, slots.clone());
    }
    Ok(slots)
}

/// Fail a connection request with a memory error, as an event.
fn refuse(
    sim: &mut Sim<MpiWorld>,
    e: MemError,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    let err = MpiError::Mem(e.to_string());
    sim.schedule_now(move |sim| done(sim, Err(err)));
}

/// Get or lazily establish the SM connection `sender -> receiver`,
/// charging the one-time IPC mapping cost on first use. The sender's
/// `Dev(Send)` ring is the one exported; the receiver's `Dev(Recv)` ring
/// stages fragments when `recv_local_staging` is on and the two GPUs
/// differ. `done` receives `Err` when the IPC capability was permanently
/// lost mid-handshake (the caller is expected to renegotiate to
/// copy-in/copy-out).
pub fn sm_connection(
    sim: &mut Sim<MpiWorld>,
    sender: usize,
    receiver: usize,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    if sim.world.mpi.sm_conns.contains(&(sender, receiver)) {
        sim.schedule_now(move |sim| done(sim, Ok(())));
        return;
    }
    let frag = sim.world.mpi.config.frag_size;
    let staged = sim.world.mpi.config.recv_local_staging
        && sim.world.rank(receiver).gpu != sim.world.rank(sender).gpu;
    let slots = match ring(sim, sender, Loc::Dev(End::Send)) {
        Ok(v) => v,
        Err(e) => return refuse(sim, e, done),
    };
    // Exporting marks the slots; the first slot's handle is the one the
    // receiver opens (handles for all slots travel in one exchange).
    let mut handle = None;
    for &slot in &slots {
        match sim.world.mem().registry.export_ipc(slot, frag) {
            Ok(h) => handle = handle.or(Some(h)),
            Err(e) => return refuse(sim, e, done),
        }
    }
    if staged {
        if let Err(e) = ring(sim, receiver, Loc::Dev(End::Recv)) {
            return refuse(sim, e, done);
        }
    }
    sim.world.mpi.sm_conns.insert((sender, receiver));
    let Some(handle) = handle else {
        // Zero-depth ring: degenerate configuration, nothing to map.
        sim.schedule_now(move |sim| done(sim, Ok(())));
        return;
    };
    let hs = Handshake::start(sim);
    sm_open_attempt(sim, (sender, receiver), handle, hs, done);
}

fn sm_open_attempt(
    sim: &mut Sim<MpiWorld>,
    (sender, receiver): (usize, usize),
    handle: memsim::IpcHandle,
    mut hs: Handshake,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    ipc_open(sim, handle, move |sim, res| match res {
        Ok(_) => done(sim, Ok(())),
        Err(MemError::Faulted { transient }) => {
            if let Some(delay) = transient.then(|| hs.retry(sim, FaultOp::IpcOpen)).flatten() {
                sim.schedule_in(delay, move |sim| {
                    sm_open_attempt(sim, (sender, receiver), handle, hs, done);
                });
                return;
            }
            abandon_sm_connection(sim, sender, receiver);
            let why = if transient {
                format!(
                    "IPC handshake {sender} -> {receiver} timed out after {} attempts",
                    hs.backoff.attempts()
                )
            } else {
                format!("IPC capability lost opening handle {sender} -> {receiver}")
            };
            done(sim, Err(MpiError::Faulted(why)));
        }
        Err(e) => {
            // Unexpected bookkeeping failure (not a fault injection):
            // drop the half-built connection and surface it typed.
            abandon_sm_connection(sim, sender, receiver);
            done(sim, Err(MpiError::Mem(format!("ipc open: {e}"))));
        }
    });
}

/// Evict a half-established SM connection and flip the runtime IPC flag
/// off: the capability itself is gone, so later same-node transfers
/// renegotiate straight to copy-in/copy-out. The rings stay with their
/// ranks, for whichever connection needs them next.
fn abandon_sm_connection(sim: &mut Sim<MpiWorld>, sender: usize, receiver: usize) {
    sim.world.mpi.sm_conns.remove(&(sender, receiver));
    sim.world.mpi.ipc_runtime_ok = false;
}

/// Open a peer's *user buffer* over IPC (for the contiguous fast paths
/// where one side reads or writes the other's buffer directly). The
/// mapping cost is charged only the first time a given allocation is
/// exported — repeated transfers of the same buffer reuse the mapping.
/// `Err` means the IPC capability is gone; the export mark is dropped so
/// the mapping cache never claims the buffer is reachable.
pub fn open_peer_buffer(
    sim: &mut Sim<MpiWorld>,
    buf: Ptr,
    len: u64,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    let already = sim
        .world
        .mem()
        .registry
        .is_registered(buf, Registration::IpcExport);
    if already {
        sim.schedule_now(move |sim| done(sim, Ok(())));
        return;
    }
    let handle = match sim.world.mem().registry.export_ipc(buf, len) {
        Ok(h) => h,
        Err(e) => {
            let err = MpiError::Mem(e.to_string());
            sim.schedule_now(move |sim| done(sim, Err(err)));
            return;
        }
    };
    let hs = Handshake::start(sim);
    peer_open_attempt(sim, buf, handle, hs, done);
}

fn peer_open_attempt(
    sim: &mut Sim<MpiWorld>,
    buf: Ptr,
    handle: memsim::IpcHandle,
    mut hs: Handshake,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    ipc_open(sim, handle, move |sim, res| match res {
        Ok(_) => done(sim, Ok(())),
        Err(MemError::Faulted { transient }) => {
            if let Some(delay) = transient.then(|| hs.retry(sim, FaultOp::IpcOpen)).flatten() {
                sim.schedule_in(delay, move |sim| {
                    peer_open_attempt(sim, buf, handle, hs, done);
                });
                return;
            }
            sim.world
                .mem()
                .registry
                .unregister(buf, Registration::IpcExport);
            sim.world.mpi.ipc_runtime_ok = false;
            done(
                sim,
                Err(MpiError::Faulted(format!(
                    "IPC capability lost mapping peer buffer {buf}"
                ))),
            );
        }
        Err(e) => {
            // Unexpected bookkeeping failure (not a fault injection):
            // drop the export mark and surface it typed.
            sim.world
                .mem()
                .registry
                .unregister(buf, Registration::IpcExport);
            done(sim, Err(MpiError::Mem(format!("ipc open: {e}"))));
        }
    });
}

/// Get or lazily establish the copy-in/out connection `sender ->
/// receiver` over the sender's `Host(Send)` / `Dev(Send)` rings and the
/// receiver's `Host(Recv)` / `Dev(Recv)` rings, registering each host
/// ring with the NIC the first time any connection needs it.
///
/// Mapping the pinned rings into the GPUs (zero copy) is its own fault
/// charge point (`FaultOp::PinnedRegister`), rolled once per connection:
/// a permanent loss demotes the runtime to the explicitly staged variant
/// — the connection still comes up, just without the zero-copy
/// capability.
pub fn ib_connection(
    sim: &mut Sim<MpiWorld>,
    sender: usize,
    receiver: usize,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    if sim.world.mpi.ib_conns.contains(&(sender, receiver)) {
        sim.schedule_now(move |sim| done(sim, Ok(())));
        return;
    }
    let rings = [
        (sender, Loc::Host(End::Send)),
        (receiver, Loc::Host(End::Recv)),
        (sender, Loc::Dev(End::Send)),
        (receiver, Loc::Dev(End::Recv)),
    ];
    for (rank, loc) in rings {
        if let Err(e) = ring(sim, rank, loc) {
            return refuse(sim, e, done);
        }
    }
    sim.world.mpi.ib_conns.insert((sender, receiver));

    let hs = Handshake::start(sim);
    zero_copy_pin_attempt(sim, (sender, receiver), hs, move |sim| {
        let first = |rank, end| {
            let slots = sim.world.rank(rank).rings.get(&Loc::Host(end));
            slots.and_then(|s| s.first()).copied()
        };
        let (Some(first_s), Some(first_r)) = (first(sender, End::Send), first(receiver, End::Recv))
        else {
            // Zero-depth ring: degenerate configuration, nothing to
            // register.
            return done(sim, Ok(()));
        };
        ensure_registered(sim, sender, first_s, move |sim| {
            ensure_registered(sim, receiver, first_r, move |sim| done(sim, Ok(())));
        });
    });
}

/// Map the pinned host rings into both GPUs (CUDA zero copy), rolling
/// the `PinnedRegister` fault charge point. On permanent loss the
/// runtime zero-copy flag flips off; the staged path needs no mapping,
/// so establishment continues either way.
fn zero_copy_pin_attempt(
    sim: &mut Sim<MpiWorld>,
    (sender, receiver): (usize, usize),
    mut hs: Handshake,
    then: impl FnOnce(&mut Sim<MpiWorld>) + 'static,
) {
    let op = FaultOp::PinnedRegister;
    let verdict = fault::fault_roll(sim, op);
    if verdict == FaultDecision::Transient {
        if let Some(delay) = hs.retry(sim, op) {
            sim.schedule_in(delay, move |sim| {
                zero_copy_pin_attempt(sim, (sender, receiver), hs, then);
            });
            return;
        }
    }
    if verdict != FaultDecision::Ok {
        sim.world.mpi.zero_copy_runtime_ok = false;
        let (a, b) = (sender as u32, receiver as u32);
        sim.trace
            .count(faultsim::counters::FALLBACK_EVENTS, a, b, 1);
    }
    then(sim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use crate::world::MpiWorld;
    use faultsim::{FaultKind, FaultPlan};
    use simcore::SimTime;

    /// The slots of `rank`'s ring at `loc` (empty when it has none).
    fn slots(sim: &Sim<MpiWorld>, rank: usize, loc: Loc) -> Vec<Ptr> {
        sim.world
            .rank(rank)
            .rings
            .get(&loc)
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn sm_connection_cached_after_first_use() {
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        sm_connection(&mut sim, 0, 1, |sim, conn| {
            conn.expect("no faults");
            let depth = sim.world.mpi.config.pipeline_depth;
            assert_eq!(slots(sim, 0, Loc::Dev(End::Send)).len(), depth);
            assert_eq!(slots(sim, 1, Loc::Dev(End::Recv)).len(), depth);
            // First establishment pays the IPC open cost.
            assert!(sim.now() >= SimTime::from_micros(120));
        });
        sim.run();
        let t1 = sim.now();
        sm_connection(&mut sim, 0, 1, move |sim, _| {
            assert_eq!(sim.now(), t1, "cached connection is free");
        });
        sim.run();
    }

    #[test]
    fn same_gpu_connection_skips_staging() {
        let mut sim = Sim::new(MpiWorld::two_ranks_one_gpu(MpiConfig::default()));
        sm_connection(&mut sim, 0, 1, |sim, conn| {
            conn.expect("no faults");
            assert!(slots(sim, 1, Loc::Dev(End::Recv)).is_empty());
        });
        sim.run();
    }

    #[test]
    fn ib_connection_registers_rings() {
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        ib_connection(&mut sim, 0, 1, |sim, conn| {
            conn.expect("no faults");
            let ring = slots(sim, 0, Loc::Host(End::Send));
            assert_eq!(ring.len(), sim.world.mpi.config.pipeline_depth);
            assert!(sim
                .world
                .mem()
                .registry
                .is_registered(ring[0], Registration::Rdma));
        });
        sim.run();
        // Two registrations charged (one per side).
        assert!(sim.now() >= SimTime::from_micros(100));
    }

    /// A rank's rings are its own: its second connection, to another
    /// peer, allocates and registers only the new peer's rings.
    #[test]
    fn second_connection_reuses_the_ranks_rings() {
        let topo = netsim::Topology::FatTree {
            ranks_per_node: 1,
            radix: 4,
        };
        let mut sim = Sim::new(MpiWorld::n_ranks(3, topo, MpiConfig::default()));
        sim.trace.set_recording(true);
        ib_connection(&mut sim, 0, 1, |_, conn| conn.expect("no faults"));
        sim.run();
        let locs = [Loc::Host(End::Send), Loc::Dev(End::Send)];
        let before: Vec<_> = locs.iter().map(|&loc| slots(&sim, 0, loc)).collect();
        let used = |sim: &mut Sim<MpiWorld>| {
            let gpu0 = MemSpace::Device(memsim::GpuId(0));
            (
                sim.world.mem().pool(MemSpace::Host).used(),
                sim.world.mem().pool(gpu0).used(),
            )
        };
        let (host, dev0) = used(&mut sim);
        ib_connection(&mut sim, 0, 2, |_, conn| conn.expect("no faults"));
        sim.run();
        let after: Vec<_> = locs.iter().map(|&loc| slots(&sim, 0, loc)).collect();
        assert_eq!(before, after, "rank 0 keeps its rings");
        let cfg = &sim.world.mpi.config;
        let ring_bytes = cfg.frag_size * cfg.pipeline_depth as u64;
        // Only rank 2's receive ring is new in host memory, and GPU 0
        // gains nothing.
        assert_eq!(used(&mut sim), (host + ring_bytes, dev0));
        let registrations = (sim.trace.events().iter())
            .filter(|e| {
                matches!(e, simcore::trace::TraceEvent::Span { name, .. }
                    if *name == simcore::trace::names::SPAN_RDMA_REGISTER)
            })
            .count();
        assert_eq!(registrations, 3, "0 -> 1 registers two rings, 0 -> 2 one");
    }

    #[test]
    fn peer_buffer_mapping_cached_per_allocation() {
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(memsim::GpuId(0)), 4096)
            .unwrap();
        open_peer_buffer(&mut sim, buf, 4096, |_, res| res.expect("no faults"));
        sim.run();
        let t1 = sim.now();
        assert!(t1 >= SimTime::from_micros(120));
        open_peer_buffer(&mut sim, buf, 4096, move |sim, _| {
            assert_eq!(sim.now(), t1, "second mapping is cached");
        });
        sim.run();
    }

    #[test]
    fn transient_ipc_fault_retries_and_connects() {
        let mut plan = FaultPlan::empty().with_seed(11).with_rule(
            Some(FaultOp::IpcOpen),
            FaultKind::Transient,
            1.0,
        );
        plan.rules[0].max_injections = Some(2);
        let cfg = MpiConfig {
            fault_plan: plan,
            ..Default::default()
        };
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(cfg));
        sm_connection(&mut sim, 0, 1, |_, conn| {
            conn.expect("retries must eventually connect");
        });
        let end = sim.run();
        // Three ipc_open charges (120 µs each) plus two backoff delays.
        assert!(end >= SimTime::from_micros(360));
        assert!(
            sim.world.mpi.ipc_runtime_ok,
            "transient faults don't disable IPC"
        );
    }

    #[test]
    fn permanent_ipc_loss_tears_down_and_reports() {
        let cfg = MpiConfig {
            fault_plan: FaultPlan::empty().with_seed(3).with_rule(
                Some(FaultOp::IpcOpen),
                FaultKind::PermanentLoss,
                1.0,
            ),
            ..Default::default()
        };
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(cfg));
        let hit = std::rc::Rc::new(std::cell::RefCell::new(false));
        let h = std::rc::Rc::clone(&hit);
        sm_connection(&mut sim, 0, 1, move |sim, conn| {
            assert!(matches!(conn, Err(MpiError::Faulted(_))));
            assert!(!sim.world.mpi.ipc_runtime_ok);
            assert!(
                !sim.world.mpi.sm_conns.contains(&(0, 1)),
                "half-built connection must not stay cached"
            );
            *h.borrow_mut() = true;
        });
        sim.run();
        assert!(*hit.borrow());
    }

    #[test]
    fn permanent_pin_loss_demotes_zero_copy_but_connects() {
        let cfg = MpiConfig {
            fault_plan: FaultPlan::empty().with_seed(5).with_rule(
                Some(FaultOp::PinnedRegister),
                FaultKind::PermanentLoss,
                1.0,
            ),
            ..Default::default()
        };
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(cfg));
        ib_connection(&mut sim, 0, 1, |sim, conn| {
            conn.expect("connects without zero copy");
            assert!(!sim.world.mpi.zero_copy_runtime_ok);
            // The demotion is counted once, for the pair.
            let fallbacks = sim
                .trace
                .counter_at(faultsim::counters::FALLBACK_EVENTS, 0, 1);
            assert_eq!(fallbacks, 1);
        });
        sim.run();
    }
}
