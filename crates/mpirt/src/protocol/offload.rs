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
//! Neither path is entered unless `tuner::select_path` predicted it
//! strictly faster than the incumbent, so a demotion only ever returns
//! the transfer to the timing it would have had with the knob off.
//!
//! Both are one-fragment [`plan_for`](crate::protocol::plan::plan_for) plans run by the executor; this
//! module owns what precedes them — the capability step (run by
//! `connection::establish`), the per-shape [`Program`] both classes
//! share and graph capture — and demotion, which substitutes the
//! incumbent's plan by handing the transfer to `copyio::start`. Their
//! one stage only charges: each class's connection carries the
//! program's whole-message typed → typed move list, which the
//! executor lands as it lands every plan's.

use crate::connection::{establish, nic_handler, roll, Capability, Report};
use crate::protocol::exec::{self, Conn, Requests};
use crate::protocol::{copyio, Side};
use crate::request::MpiError;
use crate::tuner::PathClass;
use crate::world::MpiWorld;
use datatype::{DataType, TypeError};
use devengine::{flip_units, merge_units, runs, whole_units};
use faultsim::FaultOp;
use gpusim::{GraphCapture, StreamGraph, StreamId};
use simcore::par::{CopyOp, OpListBuf};
use simcore::Sim;
use std::rc::Rc;
use std::sync::Arc;

/// One transfer shape compiled on the host for both offload classes
/// (sPIN's host-side compile): the two whole-message DEV walks at the
/// engine's unit size and coalescing, and their merge — the transfer's
/// one typed → typed move. The packed intermediate exists only as a
/// merge index, never as memory.
pub struct Program {
    /// The send side's units in pack orientation: what the graph's pack
    /// kernel is priced on.
    pub(crate) pack_units: Vec<CopyOp>,
    /// The receive side's units in unpack orientation: what the graph's
    /// unpack kernel is priced on.
    pub(crate) unpack_units: Vec<CopyOp>,
    /// The one move, relative to the two buffers shifted by `shifts`.
    pub(crate) moves: Arc<OpListBuf>,
    /// The send and the receive buffer's `true_lb` shifts.
    pub(crate) shifts: (i64, i64),
    /// Descriptors the NIC handler issues: one per contiguous run of
    /// either side's whole walk, whatever the unit size splits.
    pub(crate) descriptors: u64,
}

impl Program {
    /// Compile `s_count × s_ty` into `r_count × r_ty`. The receiver may
    /// post a longer type than the message; a shorter one cannot take
    /// it.
    pub(crate) fn compile(
        (s_ty, s_count): (&DataType, u64),
        (r_ty, r_count): (&DataType, u64),
        unit_size: u64,
        coalesce: bool,
    ) -> Result<Program, TypeError> {
        let (pack_units, s_shift) = whole_units(s_ty, s_count, unit_size, coalesce)?;
        let (r_pack, r_shift) = whole_units(r_ty, r_count, unit_size, coalesce)?;
        let bytes = s_ty.size() * s_count;
        let mut merged = Vec::new();
        merge_units(&pack_units, &r_pack, bytes as usize, &mut merged).map_err(|_| {
            TypeError::Truncated {
                incoming: bytes,
                capacity: r_ty.size() * r_count,
            }
        })?;
        Ok(Program {
            descriptors: runs(&pack_units) + runs(&r_pack),
            unpack_units: flip_units(&r_pack),
            pack_units,
            moves: Arc::new(OpListBuf::new(merged)),
            shifts: (s_shift, r_shift),
        })
    }

    /// Payload bytes the program moves.
    pub(crate) fn bytes(&self) -> u64 {
        self.moves.list().reach().bytes
    }
}

/// One captured stream-triggered transfer shape: the replayable graph
/// and the shape's [`Program`], whose unit lists its kernels are priced
/// on and whose move the replay lands.
pub struct CapturedXfer {
    pub(crate) graph: StreamGraph,
    pub(crate) program: Rc<Program>,
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
            program(sim, &s, &r).map(Conn::Nic)
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

/// Get (or compile) the [`Program`] for this shape: one shape-table
/// entry serves both offload classes.
fn program(sim: &mut Sim<MpiWorld>, s: &Side, r: &Side) -> Result<Rc<Program>, MpiError> {
    let engine = &sim.world.mpi.config.engine;
    let (unit_size, coalesce) = (engine.unit_size, engine.optimizer.coalesce);
    let compile = || Program::compile((&s.ty, s.count), (&r.ty, r.count), unit_size, coalesce);
    Ok(sim.world.mpi.shapes.program(s, r, compile)?)
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
/// capture is the expensive, once-per-pair-and-shape step: walk the
/// graph through the capture API (its only sanctioned constructor) over
/// the shape's [`Program`].
fn captured(sim: &mut Sim<MpiWorld>, s: &Side, r: &Side) -> Result<Rc<CapturedXfer>, MpiError> {
    if let Some(c) = sim.world.mpi.shapes.capture(s, r) {
        return Ok(c);
    }
    let program = program(sim, s, r)?;
    let stream = sim.world.rank(s.rank).kernel_stream;
    let graph = transfer_graph(stream, s.total()).finish(sim);
    let cap = Rc::new(CapturedXfer { graph, program });
    sim.world.mpi.shapes.keep_capture(s, r, &cap);
    Ok(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use gpusim::GpuWorld as _;
    use memsim::MemSpace;
    use netsim::{execute_program, ChannelKind, ClusterWorld, NicCosts};
    use simcore::SimTime;
    use std::cell::RefCell;

    /// A program as the NIC class runs it under the default engine: one
    /// unit per contiguous run.
    fn compile(s: (&DataType, u64), r: (&DataType, u64)) -> Result<Program, TypeError> {
        Program::compile(s, r, u64::MAX, true)
    }

    #[test]
    fn program_moves_bytes_like_pack_then_unpack() {
        let s_ty = DataType::vector(24, 3, 7, &DataType::double())
            .unwrap()
            .commit();
        let blocklens: Vec<u64> = [9u64, 3].repeat(12);
        let displs: Vec<i64> = (0..24).map(|i| i * 20).collect();
        let r_ty = DataType::indexed(&blocklens, &displs, &DataType::double())
            .unwrap()
            .commit();
        let count = 2u64;
        assert_eq!(s_ty.size() * count, r_ty.size());
        let mut w = ClusterWorld::new(2);
        w.net_system.connect(0, 1, ChannelKind::InfiniBand);
        let mut sim = Sim::new(w);
        let (s_base, s_len) = buffer_span(&s_ty, count);
        let (r_base, r_len) = buffer_span(&r_ty, 1);
        let src = (sim.world.memory)
            .alloc(MemSpace::Host, s_len as u64)
            .unwrap();
        let dst = (sim.world.memory)
            .alloc(MemSpace::Host, r_len as u64)
            .unwrap();
        let bytes = pattern(s_len);
        sim.world.memory.write(src, &bytes).unwrap();

        let prog = compile((&s_ty, count), (&r_ty, 1)).unwrap();
        assert_eq!(prog.bytes(), s_ty.size() * count);
        assert!(prog.descriptors > 0);
        let costs = NicCosts::of(&sim.world.gpus_ref().topo);
        let hit = Rc::new(RefCell::new(false));
        let h = Rc::clone(&hit);
        let program = (prog.descriptors, prog.bytes());
        execute_program(&mut sim, 0, 1, program, &costs, move |_| {
            *h.borrow_mut() = true
        })
        .unwrap();
        let end = sim.run();
        assert!(*hit.borrow());
        assert!(end > SimTime::ZERO, "NIC execution charges virtual time");
        assert_eq!(sim.world.memory.bytes_moved(), 0, "executing only charges");

        // The program's one move, applied between the shifted buffers,
        // equals reference pack → reference unpack.
        let (s_shift, r_shift) = prog.shifts;
        let (from, to) = (
            src.add(s_base as u64).offset_by(s_shift),
            dst.add(r_base as u64).offset_by(r_shift),
        );
        let whole = memsim::Move {
            src: from,
            dst: to,
            segs: simcore::par::Segs::Shared(&prog.moves),
            stream: false,
        };
        sim.world.memory.transfer_batch(&[whole]).unwrap();
        let packed = reference_pack(&s_ty, count, &bytes, s_base);
        let got = sim.world.memory.read_vec(dst, r_len as u64).unwrap();
        let mut pos = 0usize;
        for seg in r_ty.segments(1) {
            let off = (r_base + seg.disp) as usize;
            assert_eq!(
                &got[off..off + seg.len as usize],
                &packed[pos..pos + seg.len as usize]
            );
            pos += seg.len as usize;
        }
    }

    #[test]
    fn compiled_program_is_the_merge_of_the_two_walks() {
        let dbl = DataType::double();
        // 3 blocks of 16 bytes every 32 | blocks of 8, 24 and 16 bytes.
        let s_ty = DataType::vector(3, 2, 4, &dbl).unwrap().commit();
        let r_ty = DataType::indexed(&[1, 3, 2], &[0, 2, 8], &dbl)
            .unwrap()
            .commit();
        let prog = compile((&s_ty, 1), (&r_ty, 1)).unwrap();
        let op = |src_off, dst_off, len| CopyOp {
            src_off,
            dst_off,
            len,
        };
        assert_eq!(
            prog.moves.ops(),
            [op(0, 0, 8), op(8, 16, 8), op(32, 24, 16), op(64, 64, 16)]
        );
        assert_eq!((prog.bytes(), prog.descriptors), (48, 6));
        // A receive posted longer than the message: the same moves, and
        // the handler still issues the whole receive program.
        let long = compile((&s_ty, 1), (&r_ty, 2)).unwrap();
        assert_eq!(long.moves, prog.moves);
        assert!(long.descriptors > prog.descriptors);
        // A shorter one cannot take the message.
        assert_eq!(
            compile((&s_ty, 2), (&r_ty, 1)).err(),
            Some(TypeError::Truncated {
                incoming: 96,
                capacity: 48
            })
        );
    }

    /// At any unit size, a program's descriptors are the units of the
    /// coalescing walks: one per contiguous run of either side.
    #[test]
    fn descriptors_are_the_runs_at_any_unit_size() {
        use datatype::testutil::arb_datatype;
        use simcore::rng::SimRng;
        for seed in 0..60u64 {
            let ty = arb_datatype(&mut SimRng::new(0x41C ^ seed)).commit();
            let runs = whole_units(&ty, 2, u64::MAX, true).unwrap().0.len() as u64;
            for (unit, coalesce) in [(8, false), (256, false), (1024, true)] {
                let p = Program::compile((&ty, 2), (&ty, 2), unit, coalesce).unwrap();
                assert_eq!(p.descriptors, 2 * runs, "seed {seed}, unit {unit}");
            }
        }
    }
}
