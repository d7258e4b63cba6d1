//! Per-pair connection state: fragment rings, IPC mappings, pinned host
//! buffers and their registrations.
//!
//! Connections are established **once** per rank pair and cached — the
//! core of the paper's "light-weight pipelined RDMA protocol ... which
//! only proposes a single one-time establishment of the RDMA connection
//! (and then caching the registration)".
//!
//! Establishment is also where the runtime absorbs injected faults: a
//! transient IPC-open failure is retried under a capped exponential
//! backoff until [`HANDSHAKE_TIMEOUT`] virtual time has elapsed; a
//! permanent loss (or an exhausted handshake budget) tears the
//! half-built connection back down — freeing the ring so its invariants
//! never leak — flips the runtime IPC flag off, and surfaces a typed
//! error so the protocol layer can renegotiate the path.

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

use crate::request::MpiError;
use crate::world::MpiWorld;
use faultsim::{Backoff, FaultDecision, FaultOp};
use gpusim::GpuWorld as _;
use gpusim::{fault, ipc_open};
use memsim::{MemError, MemSpace, Ptr, Registration};
use netsim::ensure_registered;
use simcore::{Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

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

/// Shared-memory (CUDA IPC) connection: a fragment ring in the sender's
/// GPU memory, mapped into the receiver, plus an optional local staging
/// ring on the receiver.
pub struct SmConn {
    pub frag_size: u64,
    pub depth: usize,
    /// Slots in the sender's device memory (receiver has them mapped).
    pub ring: Vec<Ptr>,
    /// Receiver-local staging slots (None when staging is disabled).
    pub staging: Option<Vec<Ptr>>,
}

/// Copy-in/copy-out connection: pinned host rings on both sides and
/// device-side rings for the non-zero-copy staging path.
pub struct IbConn {
    pub frag_size: u64,
    pub depth: usize,
    pub send_host: Vec<Ptr>,
    pub recv_host: Vec<Ptr>,
    pub send_dev: Vec<Ptr>,
    pub recv_dev: Vec<Ptr>,
}

impl SmConn {
    /// Ring slot for a sequence number, reduced modulo the pipeline
    /// depth. `None` means the connection bookkeeping is corrupted (the
    /// ring is always built with `depth` slots); callers surface that
    /// as a typed protocol failure instead of panicking.
    pub fn ring_slot(&self, seq: usize) -> Option<Ptr> {
        self.ring.get(seq % self.depth.max(1)).copied()
    }

    /// Receiver-local staging slot for a sequence number; `None` when
    /// staging is disabled (callers unpack straight from the ring).
    pub fn staging_slot(&self, seq: usize) -> Option<Ptr> {
        self.staging.as_ref()?.get(seq % self.depth.max(1)).copied()
    }
}

impl IbConn {
    /// Checked slot lookups for the four rings: every ring is built
    /// with `depth` slots and slots are recycled through a 0..depth
    /// free list, so `None` can only mean corrupted bookkeeping —
    /// which the protocols report as a typed failure.
    pub fn send_host_slot(&self, slot: usize) -> Option<Ptr> {
        self.send_host.get(slot).copied()
    }
    pub fn recv_host_slot(&self, slot: usize) -> Option<Ptr> {
        self.recv_host.get(slot).copied()
    }
    pub fn send_dev_slot(&self, slot: usize) -> Option<Ptr> {
        self.send_dev.get(slot).copied()
    }
    pub fn recv_dev_slot(&self, slot: usize) -> Option<Ptr> {
        self.recv_dev.get(slot).copied()
    }
}

fn ring(
    sim: &mut Sim<MpiWorld>,
    space: MemSpace,
    frag: u64,
    depth: usize,
) -> Result<Vec<Ptr>, MemError> {
    // One allocation per slot keeps slots maximally aligned, matching
    // cudaMalloc'd fragment buffers.
    let mut slots = Vec::with_capacity(depth);
    for _ in 0..depth {
        match sim.world.mem().alloc(space, frag) {
            Ok(p) => slots.push(p),
            Err(e) => {
                free_slots(sim, slots);
                return Err(e);
            }
        }
    }
    Ok(slots)
}

/// Release ring slots, ignoring bookkeeping failures: every pointer here
/// came from our own `alloc`, so a failed free cannot be the root cause
/// of whatever error is already being reported.
fn free_slots(sim: &mut Sim<MpiWorld>, slots: Vec<Ptr>) {
    for p in slots {
        let _ = sim.world.mem().free(p);
    }
}

/// Get or lazily establish the SM connection `sender -> receiver`,
/// charging the one-time IPC mapping cost on first use. `done` receives
/// `Err` when the IPC capability was permanently lost mid-handshake (the
/// caller is expected to renegotiate to copy-in/copy-out).
pub fn sm_connection(
    sim: &mut Sim<MpiWorld>,
    sender: usize,
    receiver: usize,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<Rc<RefCell<SmConn>>, MpiError>) + 'static,
) {
    if let Some(conn) = sim.world.mpi.sm_conns.get(&(sender, receiver)) {
        let conn = Rc::clone(conn);
        sim.schedule_now(move |sim| done(sim, Ok(conn)));
        return;
    }
    let frag = sim.world.mpi.config.frag_size;
    let depth = sim.world.mpi.config.pipeline_depth;
    let s_gpu = sim.world.rank(sender).gpu;
    let r_gpu = sim.world.rank(receiver).gpu;
    let want_staging = sim.world.mpi.config.recv_local_staging;

    let ring_slots = match ring(sim, MemSpace::Device(s_gpu), frag, depth) {
        Ok(v) => v,
        Err(e) => {
            let err = MpiError::Mem(e.to_string());
            sim.schedule_now(move |sim| done(sim, Err(err)));
            return;
        }
    };
    for &slot in &ring_slots {
        if let Err(e) = sim.world.mem().registry.export_ipc(slot, frag) {
            free_slots(sim, ring_slots);
            let err = MpiError::Mem(e.to_string());
            sim.schedule_now(move |sim| done(sim, Err(err)));
            return;
        }
    }
    let staging = if want_staging && r_gpu != s_gpu {
        match ring(sim, MemSpace::Device(r_gpu), frag, depth) {
            Ok(v) => Some(v),
            Err(e) => {
                free_slots(sim, ring_slots);
                let err = MpiError::Mem(e.to_string());
                sim.schedule_now(move |sim| done(sim, Err(err)));
                return;
            }
        }
    } else {
        // Same-GPU "peers" read the ring directly; staging would be a
        // pointless extra copy.
        None
    };
    let conn = Rc::new(RefCell::new(SmConn {
        frag_size: frag,
        depth,
        ring: ring_slots,
        staging,
    }));
    sim.world
        .mpi
        .sm_conns
        .insert((sender, receiver), Rc::clone(&conn));

    // Receiver maps the exported ring: one ipc_open charge for the
    // connection (handles for all slots are opened in one exchange).
    let first = conn.borrow().ring.first().copied();
    let Some(first) = first else {
        // Zero-depth ring: degenerate configuration, nothing to map.
        sim.schedule_now(move |sim| done(sim, Ok(conn)));
        return;
    };
    let handle = match sim.world.mem().registry.export_ipc(first, frag) {
        Ok(h) => h,
        Err(e) => {
            teardown_sm_connection(sim, sender, receiver, &conn);
            let err = MpiError::Mem(e.to_string());
            sim.schedule_now(move |sim| done(sim, Err(err)));
            return;
        }
    };
    let hs = Handshake::start(sim);
    sm_open_attempt(sim, (sender, receiver), conn, handle, hs, done);
}

fn sm_open_attempt(
    sim: &mut Sim<MpiWorld>,
    (sender, receiver): (usize, usize),
    conn: Rc<RefCell<SmConn>>,
    handle: memsim::IpcHandle,
    mut hs: Handshake,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<Rc<RefCell<SmConn>>, MpiError>) + 'static,
) {
    ipc_open(sim, handle, move |sim, res| match res {
        Ok(_) => done(sim, Ok(conn)),
        Err(MemError::Faulted { transient }) => {
            if let Some(delay) = transient.then(|| hs.retry(sim, FaultOp::IpcOpen)).flatten() {
                sim.schedule_in(delay, move |sim| {
                    sm_open_attempt(sim, (sender, receiver), conn, handle, hs, done);
                });
                return;
            }
            abandon_sm_connection(sim, sender, receiver, &conn);
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
            // tear the half-built connection down and surface it typed.
            abandon_sm_connection(sim, sender, receiver, &conn);
            done(sim, Err(MpiError::Mem(format!("ipc open: {e}"))));
        }
    });
}

/// Evict a half-established SM connection from the cache and free every
/// ring slot (which also drops the slots' IPC exports), so a later path
/// holds no dangling fragment-ring state.
fn teardown_sm_connection(
    sim: &mut Sim<MpiWorld>,
    sender: usize,
    receiver: usize,
    conn: &Rc<RefCell<SmConn>>,
) {
    sim.world.mpi.sm_conns.remove(&(sender, receiver));
    let (slots, staging) = {
        let mut c = conn.borrow_mut();
        (std::mem::take(&mut c.ring), c.staging.take())
    };
    free_slots(sim, slots);
    if let Some(st) = staging {
        free_slots(sim, st);
    }
}

/// Tear down a half-established SM connection *and* flip the runtime IPC
/// flag off: the capability itself is gone, so later same-node transfers
/// renegotiate straight to copy-in/copy-out.
fn abandon_sm_connection(
    sim: &mut Sim<MpiWorld>,
    sender: usize,
    receiver: usize,
    conn: &Rc<RefCell<SmConn>>,
) {
    teardown_sm_connection(sim, sender, receiver, conn);
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
/// receiver`: allocates pinned host rings (registered with the NIC) and
/// device staging rings, charging registration once per side.
///
/// Mapping the pinned rings into the GPUs (zero copy) is its own fault
/// charge point (`FaultOp::PinnedRegister`): a permanent loss demotes
/// the runtime to the explicitly staged variant — the connection still
/// comes up, just without the zero-copy capability.
pub fn ib_connection(
    sim: &mut Sim<MpiWorld>,
    sender: usize,
    receiver: usize,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<Rc<RefCell<IbConn>>, MpiError>) + 'static,
) {
    if let Some(conn) = sim.world.mpi.ib_conns.get(&(sender, receiver)) {
        let conn = Rc::clone(conn);
        sim.schedule_now(move |sim| done(sim, Ok(conn)));
        return;
    }
    let frag = sim.world.mpi.config.frag_size;
    let depth = sim.world.mpi.config.pipeline_depth;
    let s_gpu = sim.world.rank(sender).gpu;
    let r_gpu = sim.world.rank(receiver).gpu;

    // Allocate all four rings, unwinding the earlier ones if a later
    // one fails so establishment never leaks ring slots.
    let mut rings: Vec<Vec<Ptr>> = Vec::with_capacity(4);
    let spaces = [
        MemSpace::Host,
        MemSpace::Host,
        MemSpace::Device(s_gpu),
        MemSpace::Device(r_gpu),
    ];
    for space in spaces {
        match ring(sim, space, frag, depth) {
            Ok(v) => rings.push(v),
            Err(e) => {
                for r in rings {
                    free_slots(sim, r);
                }
                let err = MpiError::Mem(e.to_string());
                sim.schedule_now(move |sim| done(sim, Err(err)));
                return;
            }
        }
    }
    let mut rings = rings.into_iter();
    let (send_host, recv_host, send_dev, recv_dev) =
        match (rings.next(), rings.next(), rings.next(), rings.next()) {
            (Some(a), Some(b), Some(c), Some(d)) => (a, b, c, d),
            _ => {
                let err = MpiError::Faulted("ib ring allocation bookkeeping broke".into());
                sim.schedule_now(move |sim| done(sim, Err(err)));
                return;
            }
        };

    // Pin the host rings for the NIC. Registration cost is charged once
    // per side (below, through `ensure_registered`).
    for &p in send_host.iter().chain(recv_host.iter()) {
        sim.world
            .mem()
            .registry
            .register(p, Registration::PinnedHost);
    }
    let conn = Rc::new(RefCell::new(IbConn {
        frag_size: frag,
        depth,
        send_host,
        recv_host,
        send_dev,
        recv_dev,
    }));
    sim.world
        .mpi
        .ib_conns
        .insert((sender, receiver), Rc::clone(&conn));

    let hs = Handshake::start(sim);
    zero_copy_pin_attempt(
        sim,
        (sender, receiver),
        Rc::clone(&conn),
        (s_gpu, r_gpu),
        hs,
        move |sim| {
            let firsts = {
                let c = conn.borrow();
                c.send_host
                    .first()
                    .copied()
                    .zip(c.recv_host.first().copied())
            };
            let Some((first_s, first_r)) = firsts else {
                // Zero-depth ring: degenerate configuration, nothing to
                // register.
                return done(sim, Ok(conn));
            };
            ensure_registered(sim, sender, first_s, move |sim| {
                ensure_registered(sim, receiver, first_r, move |sim| {
                    done(sim, Ok(conn));
                });
            });
        },
    );
}

/// Map the pinned host rings into both GPUs (CUDA zero copy), rolling
/// the `PinnedRegister` fault charge point. On permanent loss the marks
/// are skipped and the runtime zero-copy flag flips off; the staged path
/// needs no mapping, so establishment continues either way.
fn zero_copy_pin_attempt(
    sim: &mut Sim<MpiWorld>,
    (sender, receiver): (usize, usize),
    conn: Rc<RefCell<IbConn>>,
    (s_gpu, r_gpu): (memsim::GpuId, memsim::GpuId),
    mut hs: Handshake,
    then: impl FnOnce(&mut Sim<MpiWorld>) + 'static,
) {
    let op = FaultOp::PinnedRegister;
    let verdict = fault::fault_roll(sim, op);
    if verdict == FaultDecision::Transient {
        if let Some(delay) = hs.retry(sim, op) {
            sim.schedule_in(delay, move |sim| {
                zero_copy_pin_attempt(sim, (sender, receiver), conn, (s_gpu, r_gpu), hs, then);
            });
            return;
        }
    }
    if verdict == FaultDecision::Ok {
        let c = conn.borrow();
        let marks = (c.send_host.iter().map(|&p| (p, s_gpu)))
            .chain(c.recv_host.iter().map(|&p| (p, r_gpu)));
        for (p, gpu) in marks {
            sim.world
                .mem()
                .registry
                .register(p, Registration::ZeroCopy(gpu));
        }
    } else {
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

    #[test]
    fn sm_connection_cached_after_first_use() {
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        sm_connection(&mut sim, 0, 1, |sim, conn| {
            let conn = conn.expect("no faults");
            let c = conn.borrow();
            assert_eq!(c.ring.len(), c.depth);
            assert!(c.staging.is_some());
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
        sm_connection(&mut sim, 0, 1, |_, conn| {
            assert!(conn.expect("no faults").borrow().staging.is_none());
        });
        sim.run();
    }

    #[test]
    fn ib_connection_registers_rings() {
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        ib_connection(&mut sim, 0, 1, |sim, conn| {
            let conn = conn.expect("no faults");
            let c = conn.borrow();
            assert_eq!(c.send_host.len(), c.depth);
            let p = c.send_host[0];
            assert!(sim
                .world
                .mem()
                .registry
                .is_registered(p, Registration::Rdma));
            assert!(sim
                .world
                .mem()
                .registry
                .is_registered(p, Registration::PinnedHost));
        });
        sim.run();
        // Two registrations charged (one per side).
        assert!(sim.now() >= SimTime::from_micros(100));
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
                !sim.world.mpi.sm_conns.contains_key(&(0, 1)),
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
            let conn = conn.expect("connects without zero copy");
            let c = conn.borrow();
            assert!(!sim.world.mpi.zero_copy_runtime_ok);
            // The pinned rings are still NIC-registered, but not mapped
            // into the GPUs.
            assert!(!sim
                .world
                .mem()
                .registry
                .is_registered(c.send_host[0], Registration::ZeroCopy(memsim::GpuId(0))));
        });
        sim.run();
    }
}
