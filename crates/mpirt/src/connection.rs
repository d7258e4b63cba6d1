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
//! What is established **once** is a [`Handshake`] — of an SM pair, a
//! copy-in/out pair, a NIC-handler pair or a mapped peer allocation —
//! the paper's "single one-time establishment of the RDMA connection
//! (and then caching the registration)". One table,
//! `MpiState::handshakes`, holds each begun handshake: pending with the
//! callers waiting for its outcome, or up; a failed one leaves no entry.
//!
//! Every capability step of a handshake — an IPC open, the zero-copy
//! pin, the NIC handler install, the stream doorbell — runs through one
//! driver, `establish`, which absorbs injected faults: a transient is
//! retried under a capped exponential backoff until `HANDSHAKE_TIMEOUT`
//! of virtual time or `HANDSHAKE_RETRY_MAX` retries are spent; a
//! permanent loss (or a spent budget) takes the [`Capability`] away for
//! the rest of the run, meters the demotion and surfaces a typed error,
//! so the protocol layer can renegotiate the path.

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
use memsim::{IpcHandle, MemError, MemSpace, Ptr, Registration};
use netsim::ensure_registered;
use simcore::trace::names;
use simcore::{Sim, SimTime};

/// Attempt cap for one connection handshake under transient faults.
const HANDSHAKE_RETRY_MAX: u32 = 5;

/// Virtual-time budget for one connection handshake: when injected
/// transient faults keep an establishment step failing past this long,
/// the runtime treats the capability as lost and renegotiates.
const HANDSHAKE_TIMEOUT: SimTime = SimTime(5_000_000);

/// What a handshake establishes: the key of `MpiState::handshakes`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Handshake {
    /// `sender -> receiver` over SM: the IPC open of the sender's ring.
    Sm(usize, usize),
    /// `sender -> receiver` copy-in/out: the zero-copy pin and the NIC
    /// registration of the two host rings.
    CopyInOut(usize, usize),
    /// The NIC (sPIN) handler of `sender -> receiver`.
    NicHandler(usize, usize),
    /// A dense side's user allocation (its base pointer), mapped over
    /// IPC by the importing rank: each importer opens the handle itself.
    PeerBuffer(usize, Ptr),
}

/// A caller waiting for a handshake's outcome.
pub(crate) type Waiter = Box<dyn FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>)>;

/// Where a begun handshake stands.
pub enum Status {
    /// Running; its callers, first to last, get its outcome.
    Pending(Vec<Waiter>),
    Up,
}

/// A capability the runtime offers while its knob is on and no
/// handshake step has lost it (`MpiState::offers`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Capability {
    /// CUDA IPC, the SM path (`MpiConfig::use_ipc`).
    Ipc,
    /// Mapped pinned host rings (`MpiConfig::zero_copy`).
    ZeroCopy,
    /// The NIC DEV executor (`MpiConfig::nic_offload`).
    NicOffload,
    /// Stream-triggered sends (`MpiConfig::stream_trigger`).
    StreamTrigger,
}

impl Capability {
    /// The fault charge point this capability's handshake step rolls.
    pub fn op(self) -> FaultOp {
        match self {
            Capability::Ipc => FaultOp::IpcOpen,
            Capability::ZeroCopy => FaultOp::PinnedRegister,
            Capability::NicOffload => FaultOp::NicHandler,
            Capability::StreamTrigger => FaultOp::StreamDoorbell,
        }
    }
}

/// One establishment step: the capability it needs and the directed
/// rank pair its demotion is metered at.
pub(crate) type Step = (Capability, (usize, usize));

/// How one attempt of a step reports: `Ok`, or the error it failed
/// with — [`MemError::Faulted`] for an injected fault.
pub(crate) type Report = Box<dyn FnOnce(&mut Sim<MpiWorld>, Result<(), MemError>)>;

/// Run `step` until an `attempt` succeeds, then `then(Ok)`, in the event
/// the attempt reports in. A transient fault retries under the
/// handshake budget; a lost capability or a spent budget takes it away
/// for the rest of the run, meters the demotion at the pair and gives
/// `then` a [`MpiError::Faulted`]; any other error reaches `then` as
/// [`MpiError::Mem`].
pub(crate) fn establish<A, T>(sim: &mut Sim<MpiWorld>, step: Step, attempt: A, then: T)
where
    A: Fn(&mut Sim<MpiWorld>, Report) + Clone + 'static,
    T: FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
{
    let budget = (sim.now() + HANDSHAKE_TIMEOUT, fault::default_backoff());
    attempt_within(sim, step, budget, attempt, then);
}

fn attempt_within<A, T>(
    sim: &mut Sim<MpiWorld>,
    step: Step,
    (deadline, mut backoff): (SimTime, Backoff),
    attempt: A,
    then: T,
) where
    A: Fn(&mut Sim<MpiWorld>, Report) + Clone + 'static,
    T: FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
{
    let again = attempt.clone();
    let report: Report = Box::new(move |sim, res| {
        let (cap, (a, b)) = step;
        let transient = match res {
            Ok(()) => return then(sim, Ok(())),
            Err(MemError::Faulted { transient }) => transient,
            Err(e) => return then(sim, Err(MpiError::Mem(e.to_string()))),
        };
        let spent = sim.now() >= deadline || backoff.attempts() >= HANDSHAKE_RETRY_MAX;
        if transient && !spent {
            fault::count_retry(sim, cap.op());
            let delay = backoff.next_delay();
            let budget = (deadline, backoff);
            sim.schedule_in(delay, move |sim| {
                attempt_within(sim, step, budget, again, then);
            });
            return;
        }
        sim.world.mpi.lost.insert(cap);
        let (a32, b32) = (a as u32, b as u32);
        match cap {
            Capability::NicOffload => sim.trace.count(names::OFFLOAD_NIC_DEMOTIONS, a32, b32, 1),
            Capability::StreamTrigger => {
                (sim.trace).count(names::OFFLOAD_STREAM_DEMOTIONS, a32, b32, 1)
            }
            Capability::Ipc | Capability::ZeroCopy => {}
        }
        sim.trace.count(names::FALLBACK_EVENTS, a32, b32, 1);
        let why = if transient {
            let n = backoff.attempts();
            format!("{cap:?} handshake {a} -> {b} timed out after {n} retries")
        } else {
            format!("{cap:?} capability lost in handshake {a} -> {b}")
        };
        then(sim, Err(MpiError::Faulted(why)));
    });
    attempt(sim, report);
}

/// Roll `op`'s fault charge point as one attempt's outcome.
pub(crate) fn roll(sim: &mut Sim<MpiWorld>, op: FaultOp) -> Result<(), MemError> {
    match fault::fault_roll(sim, op) {
        FaultDecision::Ok => Ok(()),
        verdict => Err(MemError::Faulted {
            transient: verdict == FaultDecision::Transient,
        }),
    }
}

/// The first of `keys` whose handshake is still in flight.
pub(crate) fn in_flight(
    sim: &Sim<MpiWorld>,
    keys: impl IntoIterator<Item = Handshake>,
) -> Option<Handshake> {
    let table = &sim.world.mpi.handshakes;
    (keys.into_iter()).find(|k| matches!(table.get(k), Some(Status::Pending(_))))
}

/// Queue `then` behind `key`'s handshake, in flight: it gets the outcome
/// in the event that settles it, after the callers before it.
pub(crate) fn wait(
    sim: &mut Sim<MpiWorld>,
    key: Handshake,
    then: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    if let Some(Status::Pending(waiters)) = sim.world.mpi.handshakes.get_mut(&key) {
        waiters.push(Box::new(then));
    }
}

/// Join `key`'s handshake: when it is up `done` runs next (deferred
/// through `schedule_now`), when in flight it waits for the outcome.
/// Otherwise the entry goes pending and `true` tells the caller to run
/// the handshake and [`settle`] it.
fn claim(
    sim: &mut Sim<MpiWorld>,
    key: Handshake,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) -> bool {
    match sim.world.mpi.handshakes.get(&key) {
        Some(Status::Up) => {
            sim.schedule_now(move |sim| done(sim, Ok(())));
        }
        Some(Status::Pending(_)) => wait(sim, key, done),
        None => {
            let entry = Status::Pending(vec![Box::new(done)]);
            sim.world.mpi.handshakes.insert(key, entry);
            return true;
        }
    }
    false
}

/// End `key`'s handshake with `res` — up, or forgotten so a later
/// caller starts afresh — and hand `res` to every caller in order.
fn settle(sim: &mut Sim<MpiWorld>, key: Handshake, res: Result<(), MpiError>) {
    let table = &mut sim.world.mpi.handshakes;
    let entry = match res {
        Ok(()) => table.insert(key, Status::Up),
        Err(_) => table.remove(&key),
    };
    if let Some(Status::Pending(waiters)) = entry {
        for w in waiters {
            w(sim, res.clone());
        }
    }
}

/// Settle a claimed handshake with a memory error, as an event.
fn refuse(sim: &mut Sim<MpiWorld>, key: Handshake, e: MemError) {
    let err = MpiError::Mem(e.to_string());
    sim.schedule_now(move |sim| settle(sim, key, Err(err)));
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

/// Run the IPC handshake `key` of the transfer `pair` unless it is up or
/// in flight: `export` marks what the peer maps and yields the handle
/// it opens (`None`: nothing to map), and the open is the step. `done`
/// receives `Err` when the IPC capability was lost in the handshake
/// (the caller is expected to renegotiate to copy-in/copy-out).
fn ipc_handshake(
    sim: &mut Sim<MpiWorld>,
    key: Handshake,
    pair: (usize, usize),
    export: impl FnOnce(&mut Sim<MpiWorld>) -> Result<Option<IpcHandle>, MemError>,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    if !claim(sim, key, done) {
        return;
    }
    let handle = match export(sim) {
        Ok(Some(handle)) => handle,
        Ok(None) => {
            // Zero-depth ring: degenerate configuration, nothing to map.
            sim.schedule_now(move |sim| settle(sim, key, Ok(())));
            return;
        }
        Err(e) => return refuse(sim, key, e),
    };
    let open = move |sim: &mut Sim<MpiWorld>, report: Report| {
        ipc_open(sim, handle, move |sim, res| report(sim, res.map(drop)));
    };
    establish(sim, (Capability::Ipc, pair), open, move |sim, res| {
        settle(sim, key, res);
    });
}

/// Get or lazily establish the SM connection `sender -> receiver`,
/// charging the one-time IPC open of the sender's `Dev(Send)` ring
/// (handles for all slots travel in one exchange; the first slot's is
/// opened). The receiver's `Dev(Recv)` ring stages fragments when
/// `recv_local_staging` is on and the two GPUs differ.
pub(crate) fn sm_connection(
    sim: &mut Sim<MpiWorld>,
    sender: usize,
    receiver: usize,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    let export = move |sim: &mut Sim<MpiWorld>| {
        let cfg = &sim.world.mpi.config;
        let (frag, staged) = (cfg.frag_size, cfg.recv_local_staging);
        let mut handle = None;
        for slot in ring(sim, sender, Loc::Dev(End::Send))? {
            let h = sim.world.mem().registry.export_ipc(slot, frag)?;
            handle = handle.or(Some(h));
        }
        if staged && sim.world.rank(receiver).gpu != sim.world.rank(sender).gpu {
            ring(sim, receiver, Loc::Dev(End::Recv))?;
        }
        Ok(handle)
    };
    let key = Handshake::Sm(sender, receiver);
    ipc_handshake(sim, key, (sender, receiver), export, done);
}

/// Map a peer's *user buffer* into `importer` over IPC (for the
/// contiguous fast paths where one side reads or writes the other's
/// buffer directly) for the transfer `pair`. The mapping cost is charged
/// the first time a given importer maps a given allocation — its
/// repeated transfers of the same buffer reuse the mapping. A fresh
/// mapping first forgets those of freed allocations: `Memory::free`
/// withdraws a buffer's IPC export, and its mappings go with it.
pub(crate) fn open_peer_buffer(
    sim: &mut Sim<MpiWorld>,
    pair: (usize, usize),
    importer: usize,
    buf: Ptr,
    len: u64,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    let export = move |sim: &mut Sim<MpiWorld>| {
        let MpiWorld { cluster, mpi } = &mut sim.world;
        let registry = &mut cluster.memory.registry;
        (mpi.handshakes).retain(|key, status| match (key, status) {
            (Handshake::PeerBuffer(_, base), Status::Up) => {
                registry.is_registered(*base, Registration::IpcExport)
            }
            _ => true,
        });
        registry.export_ipc(buf, len).map(Some)
    };
    let key = Handshake::PeerBuffer(importer, Ptr { offset: 0, ..buf });
    ipc_handshake(sim, key, pair, export, done);
}

/// Get or lazily establish the copy-in/out connection `sender ->
/// receiver` over the sender's `Host(Send)` / `Dev(Send)` rings and the
/// receiver's `Host(Recv)` / `Dev(Recv)` rings, registering each host
/// ring with the NIC the first time any connection needs it.
///
/// Mapping the pinned rings into the GPUs (zero copy) is its own step
/// (`FaultOp::PinnedRegister`), rolled once per connection: a lost pin
/// demotes the runtime to the explicitly staged variant — the
/// connection still comes up, just without the zero-copy capability.
pub fn ib_connection(
    sim: &mut Sim<MpiWorld>,
    sender: usize,
    receiver: usize,
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    let key = Handshake::CopyInOut(sender, receiver);
    if !claim(sim, key, done) {
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
            return refuse(sim, key, e);
        }
    }
    let pin = |sim: &mut Sim<MpiWorld>, report: Report| {
        let res = roll(sim, FaultOp::PinnedRegister);
        report(sim, res);
    };
    let step = (Capability::ZeroCopy, (sender, receiver));
    establish(sim, step, pin, move |sim, _| {
        let first = |rank, end| {
            let slots = sim.world.rank(rank).rings.get(&Loc::Host(end));
            slots.and_then(|s| s.first()).copied()
        };
        let (Some(first_s), Some(first_r)) = (first(sender, End::Send), first(receiver, End::Recv))
        else {
            // Zero-depth ring: degenerate configuration, nothing to
            // register.
            return settle(sim, key, Ok(()));
        };
        ensure_registered(sim, sender, first_s, move |sim| {
            ensure_registered(sim, receiver, first_r, move |sim| settle(sim, key, Ok(())));
        });
    });
}

/// Get or lazily install the NIC DEV handler of the directed `pair`: a
/// `FaultOp::NicHandler` roll, then the arch's `nic_handler_setup`.
/// `Err` means the NIC offload capability is lost.
pub(crate) fn nic_handler(
    sim: &mut Sim<MpiWorld>,
    pair: (usize, usize),
    done: impl FnOnce(&mut Sim<MpiWorld>, Result<(), MpiError>) + 'static,
) {
    let key = Handshake::NicHandler(pair.0, pair.1);
    if !claim(sim, key, done) {
        return;
    }
    let install = |sim: &mut Sim<MpiWorld>, report: Report| match roll(sim, FaultOp::NicHandler) {
        Ok(()) => {
            let setup = sim.world.gpus_ref().topo.nic_handler_setup;
            sim.schedule_in(setup, move |sim| report(sim, Ok(())));
        }
        err => report(sim, err),
    };
    establish(
        sim,
        (Capability::NicOffload, pair),
        install,
        move |sim, res| {
            settle(sim, key, res);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use crate::world::{MpiWorld, RankSpec};
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
        let specs = RankSpec::laid_out(3, &topo);
        let mut sim = Sim::new(MpiWorld::new(&specs, 3, MpiConfig::default()));
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
        open_peer_buffer(&mut sim, (1, 0), 0, buf, 4096, |_, res| {
            res.expect("no faults")
        });
        sim.run();
        let t1 = sim.now();
        assert!(t1 >= SimTime::from_micros(120));
        open_peer_buffer(&mut sim, (1, 0), 0, buf, 4096, move |sim, _| {
            assert_eq!(sim.now(), t1, "second mapping is cached");
        });
        sim.run();
    }

    /// Each importing process opens a dense buffer's handle itself: a
    /// same-node broadcast from a dense device root to two peers maps
    /// the root's buffer twice, once per receiver.
    #[test]
    fn peer_buffer_mapping_is_paid_per_importer() {
        use crate::coll::bcast;
        use datatype::DataType;
        let specs = [RankSpec::at(0, 0), RankSpec::at(1, 0), RankSpec::at(2, 0)];
        let mut sim = Sim::new(MpiWorld::new(&specs, 3, MpiConfig::default()));
        let ty = (DataType::contiguous(32 << 10, &DataType::double()).expect("valid")).commit();
        let bufs: Vec<Ptr> = (0..3)
            .map(|g| {
                let space = MemSpace::Device(memsim::GpuId(g));
                sim.world.mem().alloc(space, ty.size()).expect("fits")
            })
            .collect();
        let done = bcast(&mut sim, 0, &ty, 1, &bufs, 0);
        sim.run();
        assert_eq!(done.expect_bytes(), ty.size());
        let opens = sim.trace.counter_at(names::GPUSIM_IPC_OPEN_COUNT, 0, 0);
        assert_eq!(opens, 2, "one IPC open per importing rank");
        let mapped = |importer| Handshake::PeerBuffer(importer, bufs[0]);
        for importer in [1, 2] {
            assert!(matches!(
                sim.world.mpi.handshakes.get(&mapped(importer)),
                Some(Status::Up)
            ));
        }
    }

    /// A freed buffer's mapping goes with it: sending from fresh dense
    /// device buffers, each freed after its transfer, keeps one
    /// peer-buffer entry in the handshake table — the live buffer's.
    #[test]
    fn freed_peer_buffers_leave_the_handshake_table() {
        use crate::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
        use datatype::DataType;
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let ty = (DataType::contiguous(32 << 10, &DataType::double()).expect("valid")).commit();
        let dev = |g| MemSpace::Device(memsim::GpuId(g));
        let rbuf = sim.world.mem().alloc(dev(1), ty.size()).expect("fits");
        for _ in 0..8 {
            let sbuf = sim.world.mem().alloc(dev(0), ty.size()).expect("fits");
            let reqs = [
                isend(&mut sim, SendArgs::new(0, 1, sbuf, &ty, 1)),
                irecv(&mut sim, RecvArgs::new(1, 0, rbuf, &ty, 1)),
            ];
            wait_all(&mut sim, &reqs).expect("no faults");
            let peers = (sim.world.mpi.handshakes.keys())
                .filter(|k| matches!(k, Handshake::PeerBuffer(..)))
                .count();
            assert_eq!(peers, 1, "only the live buffer stays mapped");
            sim.world.mem().free(sbuf).expect("live");
        }
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
            sim.world.mpi.offers(Capability::Ipc),
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
            assert!(!sim.world.mpi.offers(Capability::Ipc));
            assert!(
                !sim.world.mpi.handshakes.contains_key(&Handshake::Sm(0, 1)),
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
            assert!(!sim.world.mpi.offers(Capability::ZeroCopy));
            // The demotion is counted once, for the pair.
            let fallbacks = sim
                .trace
                .counter_at(faultsim::counters::FALLBACK_EVENTS, 0, 1);
            assert_eq!(fallbacks, 1);
        });
        sim.run();
    }
}
