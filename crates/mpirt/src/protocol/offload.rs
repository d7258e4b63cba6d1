//! The offload path classes: NIC-executed DEV programs and GPU
//! stream-triggered sends.
//!
//! Both eliminate work the GPU-pack pipeline pays on every transfer:
//!
//! * **NicOffload** — the NIC packet processor executes the merged
//!   gather/scatter descriptor program (sPIN), so there is no pack
//!   kernel, no packed staging buffer and no per-fragment control
//!   traffic. A one-time DEV handler install per rank pair mirrors the
//!   IPC/pinned-registration handshakes, including its fault charge
//!   point (`FaultOp::NicHandler`): a loss takes the NicOffload
//!   capability away, and this — and every later — transfer demotes to
//!   the GPU-pack copy-in/out pipeline, sticky and byte-equal, exactly
//!   like the SmIpc → CopyInOut demotion.
//!
//! * **StreamTriggered** — the transfer is captured once into a GPU
//!   stream-op graph (trigger → pack kernel → doorbell → unpack kernel
//!   → completion) and replayed per iteration with zero CPU events on
//!   the critical path (HPE's stream-aware MPI). The doorbell ring is
//!   the fault charge point (`FaultOp::StreamDoorbell`), rolled before
//!   each replay: a lost doorbell demotes to the CPU-driven pipeline,
//!   sticky: the StreamTrigger capability is lost.
//!
//! Neither path is entered unless `tuner::select_path` predicted a win
//! past its never-worse margin, so a demotion only ever returns the
//! transfer to the timing it would have had with the knob off.
//!
//! Both are one-fragment [`plan_for`](crate::protocol::plan::plan_for) plans run by the executor; this
//! module owns what precedes them — the capability step (run by
//! `connection::establish`), the NIC program cache and graph capture —
//! and demotion, which substitutes the incumbent's plan by handing the
//! transfer to `copyio::start`. Their one stage only charges: each
//! class's connection carries the whole message's typed → typed
//! [`MoveList`], which the executor lands as it lands every plan's.

use crate::connection::{establish, nic_handler, roll, Capability, Report};
use crate::protocol::exec::{self, Conn, Requests};
use crate::protocol::{copyio, ShapeKey, Side};
use crate::request::MpiError;
use crate::tuner::PathClass;
use crate::world::MpiWorld;
use devengine::{flip_units, merge_units, whole_units};
use faultsim::FaultOp;
use gpusim::{GraphCapture, StreamGraph, StreamId};
use memsim::MoveList;
use netsim::{compile_program, NicProgram};
use simcore::par::CopyOp;
use simcore::Sim;
use std::rc::Rc;

/// One captured stream-triggered transfer shape: the replayable graph
/// plus everything the replay needs baked at capture time — the
/// whole-message pack and unpack unit lists its two kernels are priced
/// on, and their merge: the transfer's one typed → typed move, relative
/// to the two buffers shifted by their `true_lb`s.
pub struct CapturedXfer {
    pub graph: StreamGraph,
    pub pack_units: Vec<CopyOp>,
    pub unpack_units: Vec<CopyOp>,
    pub moves: Rc<MoveList>,
    /// The send and the receive buffer's `true_lb` shifts.
    pub shifts: (i64, i64),
}

/// Start one offload rendezvous (`class` is `NicOffload` or
/// `StreamTriggered`): acquire the class's capability, fetch its cached
/// per-shape state — the compiled descriptor program or the captured
/// graph — and run the class's plan. NicOffload installs (or reuses, or
/// waits for) the pair's DEV handler; StreamTriggered rings the doorbell
/// before every replay, one `FaultOp::StreamDoorbell` step. A lost
/// capability demotes to `copyio::start`: this and every later transfer
/// renegotiate to the GPU-pack pipeline.
pub(crate) fn start(sim: &mut Sim<MpiWorld>, class: PathClass, s: Side, r: Side, done: Requests) {
    let pair = (s.rank, r.rank);
    let run = move |sim: &mut Sim<MpiWorld>, held: Result<(), MpiError>| {
        if held.is_err() {
            return copyio::start(sim, s, r, done);
        }
        let conn = if class == PathClass::NicOffload {
            nic_program(sim, &s, &r).map(Conn::Nic)
        } else {
            captured(sim, &s, &r).map(Conn::Graph)
        };
        let mut t = exec::open(sim, s, r, class, done);
        match conn {
            Ok(conn) => exec::run(sim, t, conn),
            Err(e) => t.fail(sim, e),
        }
    };
    if class == PathClass::NicOffload {
        return nic_handler(sim, pair, run);
    }
    let doorbell = |sim: &mut Sim<MpiWorld>, report: Report| {
        let res = roll(sim, FaultOp::StreamDoorbell);
        report(sim, res);
    };
    establish(sim, (Capability::StreamTrigger, pair), doorbell, run);
}

/// Get (or compile) the merged NIC descriptor program for this shape.
fn nic_program(sim: &mut Sim<MpiWorld>, s: &Side, r: &Side) -> Result<Rc<NicProgram>, MpiError> {
    let key = ShapeKey::of(sim, s, r);
    if let Some(p) = sim.world.mpi.nic_programs.get(&key) {
        return Ok(Rc::clone(p));
    }
    let p = Rc::new(compile_program(&s.ty, s.count, &r.ty, r.count).map_err(MpiError::Type)?);
    sim.world.mpi.nic_programs.insert(key, Rc::clone(&p));
    Ok(p)
}

/// The graph a stream-triggered transfer of `total` bytes captures on
/// `stream`: trigger → pack kernel → doorbell → unpack kernel →
/// completion.
pub(crate) fn transfer_graph(stream: StreamId, total: u64) -> GraphCapture {
    (GraphCapture::begin(stream).trigger().kernel())
        .doorbell(total)
        .kernel()
        .completion()
}

/// Get (or capture) the stream-op graph for this pair and shape. The
/// capture is the expensive, once-per-shape step: bake whole-message
/// pack/unpack unit lists and merge them ([`merge_units`], as
/// [`compile_program`] merges a NIC program's), and walk the graph
/// through the capture API (its only sanctioned constructor).
fn captured(sim: &mut Sim<MpiWorld>, s: &Side, r: &Side) -> Result<Rc<CapturedXfer>, MpiError> {
    let key = ShapeKey::of(sim, s, r);
    if let Some(c) = sim
        .world
        .mpi
        .stream_captures
        .get(&(s.rank, r.rank))
        .and_then(|m| m.get(&key))
    {
        return Ok(Rc::clone(c));
    }
    let total = s.total();
    let (unit_size, coalesce) = {
        let cfg = &sim.world.mpi.config;
        (cfg.engine.unit_size, cfg.engine.optimizer.coalesce)
    };
    let (pack_units, s_shift) =
        whole_units(&s.ty, s.count, unit_size, coalesce).map_err(MpiError::Type)?;
    let (r_pack, r_shift) =
        whole_units(&r.ty, r.count, unit_size, coalesce).map_err(MpiError::Type)?;
    let mut merged = Vec::new();
    merge_units(&pack_units, &r_pack, total as usize, &mut merged)?;
    let unpack_units = flip_units(&r_pack);
    let stream = sim.world.rank(s.rank).kernel_stream;
    let graph = transfer_graph(stream, total).finish(sim);
    let cap = Rc::new(CapturedXfer {
        graph,
        pack_units,
        unpack_units,
        moves: Rc::new(MoveList::new(&merged)),
        shifts: (s_shift, r_shift),
    });
    sim.world
        .mpi
        .stream_captures
        .entry((s.rank, r.rank))
        .or_default()
        .insert(key, Rc::clone(&cap));
    Ok(cap)
}
