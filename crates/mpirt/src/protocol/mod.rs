//! Protocol selection (the BML role) and shared per-side machinery.
//!
//! Every rendezvous, each half of an eager message and each comparator
//! message is one [`plan::TransferPlan`] run by the one executor in
//! `exec`; [`sm`], [`copyio`] and [`offload`] establish the connection a
//! rendezvous plan runs over, [`eager`] runs its two halves over none,
//! and [`comparator`] over its own staging (DESIGN.md §17).

// Panic freedom (DESIGN.md §11): every protocol step surfaces a typed
// `MpiError`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod comparator;
pub mod copyio;
pub mod eager;
pub(crate) mod exec;
pub mod offload;
pub mod plan;
pub mod sm;

use crate::connection::Capability;
use crate::cpupack::CpuEngine;
use crate::matcher::RecvPosting;
use crate::protocol::comparator::RunEngine;
use crate::protocol::plan::Comparator;
use crate::request::{MpiError, Request};
use crate::tuner::PathClass;
use crate::world::MpiWorld;
use datatype::{DataType, Signature};
use devengine::{Direction, FragmentEngine, LayoutKey};
use memsim::Ptr;
use simcore::par::{CopyOp, StridedWindow};
use simcore::Sim;

/// One endpoint of a transfer.
#[derive(Clone)]
pub struct Side {
    pub rank: usize,
    pub ty: DataType,
    pub count: u64,
    pub buf: Ptr,
}

impl Side {
    pub fn total(&self) -> u64 {
        self.ty.size() * self.count
    }

    pub fn dense(&self) -> bool {
        self.ty.is_contiguous(self.count)
    }

    pub fn device(&self) -> bool {
        self.buf.space.is_device()
    }

    /// Displacement-0 pointer adjusted to the first data byte, for the
    /// contiguous fast paths (dense data starts at `true_lb`).
    pub(crate) fn data_ptr(&self) -> Ptr {
        self.buf.offset_by(self.ty.true_lb())
    }
}

/// The two layouts of a transfer as the key of per-shape state that
/// decides bytes — compiled NIC programs, captured graphs, merged move
/// lists: each side's [`LayoutKey`], so a fingerprint collision must
/// also match exact size, true bounds and count before a wrong entry
/// could be served. Taken of the canonical tree when canonicalization
/// is on, so equivalent datatype trees share an entry. (The tuner's
/// `TuneKey` folds bare fingerprints; it may only ever decide time.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ShapeKey {
    pub s: LayoutKey,
    pub r: LayoutKey,
}

impl ShapeKey {
    pub(crate) fn of(sim: &Sim<MpiWorld>, s: &Side, r: &Side) -> ShapeKey {
        let canonicalize = sim.world.mpi.config.engine.optimizer.canonicalize;
        let key = |side: &Side| {
            if canonicalize {
                LayoutKey::of(&side.ty.canonical(), side.count)
            } else {
                LayoutKey::of(&side.ty, side.count)
            }
        };
        ShapeKey {
            s: key(s),
            r: key(r),
        }
    }
}

/// The engine driving a non-dense side's conversion (dense sides have
/// none: their fragments are direct windows of the user buffer).
pub(crate) enum SideEngine {
    Gpu(FragmentEngine),
    Cpu(CpuEngine),
    /// A Wang-style comparator end.
    Runs(RunEngine),
}

impl SideEngine {
    /// Charge the conversion of the next `n` packed bytes between the
    /// typed buffer and the fragment at `frag`. Nothing moves. A caller
    /// that will read the fragment's unit list lends a buffer in
    /// `units`, and `done` runs at the charge's completion instant with
    /// the list built there, the way the engine priced it — typed side
    /// in `src_off` (relative to [`Self::typed_base`]) for a pack, in
    /// `dst_off` for an unpack. With `None`, `done` gets an empty list,
    /// and an engine that can price the fragment without deriving its
    /// list (a cached plan, warm) derives none.
    pub(crate) fn charge_fragment(
        &mut self,
        sim: &mut Sim<MpiWorld>,
        frag: Ptr,
        n: u64,
        units: Option<Vec<CopyOp>>,
        done: impl FnOnce(&mut Sim<MpiWorld>, Vec<CopyOp>) + 'static,
    ) {
        match self {
            SideEngine::Gpu(eng) => {
                eng.charge_fragment(sim, frag, n, units, |_| {}, |sim, _, u| done(sim, u))
            }
            SideEngine::Cpu(eng) => eng.charge_fragment(sim, n, units, |sim, _, u| done(sim, u)),
            SideEngine::Runs(eng) => eng.charge_fragment(sim, frag, units, done),
        }
    }

    /// A strided GPU end's packed range `from..to` as the window its
    /// kernel converts; `None` for an engine that lists its units.
    pub(crate) fn window(&self, from: u64, to: u64) -> Option<StridedWindow> {
        match self {
            SideEngine::Gpu(eng) => eng.window(from, to),
            SideEngine::Cpu(_) | SideEngine::Runs(_) => None,
        }
    }

    /// The pointer the typed-side unit offsets are relative to.
    pub(crate) fn typed_base(&self) -> Ptr {
        match self {
            SideEngine::Gpu(eng) => eng.typed_base(),
            SideEngine::Cpu(eng) => eng.typed_base(),
            SideEngine::Runs(eng) => eng.typed_base(),
        }
    }
}

/// The engine converting `side` in direction `dir`, the way the plan's
/// `comparator` (if any) defines a conversion.
pub(crate) fn make_engine(
    sim: &mut Sim<MpiWorld>,
    side: &Side,
    dir: Direction,
    comparator: Option<Comparator>,
) -> Result<SideEngine, MpiError> {
    if comparator == Some(Comparator::Wang) {
        return Ok(SideEngine::Runs(RunEngine::new(sim, side, dir)));
    }
    if side.device() {
        let (stream, cache) = {
            let r = sim.world.rank(side.rank);
            (r.kernel_stream, std::rc::Rc::clone(&r.dev_cache))
        };
        // Ours caches DEV plans and chunks their preparation against
        // the kernels; a comparator's kernel converts the whole type
        // fresh.
        let ours = comparator.is_none();
        let mut cfg = sim.world.mpi.config.engine.clone();
        cfg.pipeline &= ours;
        let eng = FragmentEngine::new(
            sim,
            side.rank,
            stream,
            &side.ty,
            side.count,
            side.buf,
            dir,
            cfg,
            ours.then_some(&cache),
        )
        .map_err(MpiError::Type)?;
        Ok(SideEngine::Gpu(eng))
    } else {
        Ok(SideEngine::Cpu(
            CpuEngine::new(&side.ty, side.count, side.buf, dir, side.rank)
                .map_err(MpiError::Type)?,
        ))
    }
}

/// Start a matched rendezvous transfer: verify signatures, then pick the
/// protocol — same-node GPU↔GPU with IPC takes the pipelined RDMA
/// protocol; everything else (InfiniBand, host data, IPC disabled) the
/// pipelined copy-in/copy-out protocol.
pub(crate) fn start_rendezvous(
    sim: &mut Sim<MpiWorld>,
    send: Side,
    send_req: Request,
    posting: RecvPosting,
) {
    let s_sig = Signature::of(&send.ty, send.count);
    if let Err(e) = posting.signature().check_recv(&s_sig) {
        send_req.complete(sim, Err(MpiError::Type(e.clone())));
        posting.request.complete(sim, Err(MpiError::Type(e)));
        return;
    }
    let recv = Side {
        rank: posting.rank,
        ty: posting.ty.clone(),
        count: posting.count,
        buf: posting.buf,
    };
    let recv_req = posting.request.clone();
    run_transfer(sim, send, recv, send_req, recv_req);
}

/// Run a (signature-checked) transfer.
pub(crate) fn run_transfer(
    sim: &mut Sim<MpiWorld>,
    send: Side,
    recv: Side,
    send_req: Request,
    recv_req: Request,
) {
    // A fragment must hold a byte and a ring a fragment: a shape that
    // pipelines nothing fails both requests before any handshake.
    let cfg = &sim.world.mpi.config;
    let degenerate = if cfg.frag_size == 0 {
        Some("frag_size")
    } else if cfg.pipeline_depth == 0 {
        Some("pipeline_depth")
    } else {
        None
    };
    if let Some(field) = degenerate {
        let err = MpiError::Faulted(format!("MpiConfig::{field} must be positive"));
        send_req.complete(sim, Err(err.clone()));
        recv_req.complete(sim, Err(err));
        return;
    }
    if send.total() == 0 {
        send_req.complete(sim, Ok(0));
        recv_req.complete(sim, Ok(0));
        return;
    }
    let done = exec::Requests {
        send: send_req,
        recv: recv_req,
    };
    dispatch(sim, send, recv, done);
}

/// Run one (signature-checked) transfer down `class`, past the path
/// choice — what [`crate::tuner::predict`] prices. A same-node or
/// copy-in/out class is the one the world's facts give the pair.
pub fn transfer_down(
    sim: &mut Sim<MpiWorld>,
    class: PathClass,
    s: Side,
    r: Side,
) -> (Request, Request) {
    let (send, recv) = (Request::new(), Request::new());
    let done = exec::Requests {
        send: send.clone(),
        recv: recv.clone(),
    };
    match class {
        PathClass::NicOffload | PathClass::StreamTriggered => {
            offload::start(sim, class, s, r, done)
        }
        _ => dispatch(sim, s, r, done),
    }
    (send, recv)
}

/// Start a transfer down the protocol it takes now. Selection reads
/// what the runtime *offers* ([`MpiState::offers`]): once a handshake
/// loses the IPC capability, every later same-node transfer takes
/// copy-in/copy-out without re-attempting the lost path. A protocol
/// that finds a handshake it needs still in flight comes back here at
/// that handshake's outcome.
///
/// [`MpiState::offers`]: crate::world::MpiState::offers
pub(crate) fn dispatch(sim: &mut Sim<MpiWorld>, send: Side, recv: Side, done: exec::Requests) {
    let same_node = sim.world.same_node(send.rank, recv.rank);
    let ipc = sim.world.mpi.offers(Capability::Ipc);
    if same_node && ipc && send.device() && recv.device() {
        sm::start(sim, send, recv, done);
    } else {
        // Cross-node (and degraded same-node) transfers consult the
        // analytic path selector: the offload classes compete only while
        // offered, and win only when their schedule is strictly shorter.
        match crate::tuner::select_path(sim, &send, &recv, same_node) {
            class @ (PathClass::NicOffload | PathClass::StreamTriggered) => {
                offload::start(sim, class, send, recv, done)
            }
            _ => copyio::start(sim, send, recv, done),
        }
    }
}
