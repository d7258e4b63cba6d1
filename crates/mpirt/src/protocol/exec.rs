//! The transfer-plan executor: the one fragment pump.
//!
//! [`open`] plans a transfer and opens its protocol span; the protocol
//! modules establish the connection the plan needs and hand over to
//! [`run`], which walks the [`TransferPlan`]: it claims ring slots FIFO in
//! sequence order, pushes each fragment through the plan's
//! [`StageOp`]s — every stage's completion callback starts the next
//! stage directly, with no event hop of its own — and returns the
//! slot's credit the way the plan's [`Credit`] policy says. One state
//! struct, one pump, one failure path, one slot free-list and one
//! `frag` span per slot residency serve every path class.
//!
//! Ordering obligations (DESIGN.md §17): conversion engines are
//! sequential, so fragments enter every stage in sequence order; the
//! receive request completes before the last ack (or notification) is
//! sent; a failure resolves both requests at most once.

use crate::connection::{IbConn, SmConn};
use crate::protocol::offload::CapturedXfer;
use crate::protocol::plan::{plan_for, Credit, End, Facts, Loc, StageOp, TransferPlan};
use crate::protocol::{make_engine, Side, SideEngine};
use crate::request::{MpiError, Request};
use crate::tuner::{tuned_shape, PathClass};
use crate::world::MpiWorld;
use devengine::Direction;
use gpusim::{graph_kernel, memcpy, GpuWorld as _};
use memsim::Ptr;
use netsim::{ensure_registered, execute_program, send_am, wire_send, NicCosts, NicProgram};
use simcore::trace::names;
use simcore::{Sim, SpanId, Track};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// What the handshake established for a plan to run over.
pub(crate) enum Conn {
    /// Nothing beyond the peer-buffer mapping (both-dense sm).
    None,
    Sm(Rc<RefCell<SmConn>>),
    Ib(Rc<RefCell<IbConn>>),
    Nic(Rc<NicProgram>),
    Graph(Rc<CapturedXfer>),
}

impl Conn {
    /// Shape of the allocated fragment rings, if the connection has any.
    fn ring_shape(&self) -> Option<(u64, usize)> {
        match self {
            Conn::Sm(c) => Some((c.borrow().frag_size, c.borrow().depth)),
            Conn::Ib(c) => Some((c.borrow().frag_size, c.borrow().depth)),
            _ => None,
        }
    }

    /// Resolve a ring location through the connections' checked slot
    /// accessors: `None` is corrupted bookkeeping (or a plan run over
    /// the wrong connection), reported as a typed failure.
    fn slot(&self, loc: Loc, slot: usize) -> Option<Ptr> {
        match (self, loc) {
            (Conn::Sm(c), Loc::Dev(End::Send)) => c.borrow().ring_slot(slot),
            (Conn::Sm(c), Loc::Dev(End::Recv)) => c.borrow().staging_slot(slot),
            (Conn::Ib(c), Loc::Dev(End::Send)) => c.borrow().send_dev_slot(slot),
            (Conn::Ib(c), Loc::Dev(End::Recv)) => c.borrow().recv_dev_slot(slot),
            (Conn::Ib(c), Loc::Host(End::Send)) => c.borrow().send_host_slot(slot),
            (Conn::Ib(c), Loc::Host(End::Recv)) => c.borrow().recv_host_slot(slot),
            _ => None,
        }
    }
}

/// One planned transfer: what exists from [`open`] on, through the
/// handshake, until the requests resolve.
pub(crate) struct Transfer {
    pub plan: TransferPlan,
    pub s: Side,
    pub r: Side,
    pub send_req: Request,
    pub recv_req: Request,
    /// The plan's protocol span (inert when it has none).
    pub span: SpanId,
}

impl Transfer {
    /// Abort: resolve both requests with `err` (unless a racing
    /// completion already resolved one — the first resolution stands)
    /// and close the protocol span.
    pub fn fail(&self, sim: &mut Sim<MpiWorld>, err: MpiError) {
        self.send_req.complete_if_pending(sim, Err(err.clone()));
        self.recv_req.complete_if_pending(sim, Err(err));
        sim.trace.span_end(sim.now(), self.span);
    }

    fn side(&self, end: End) -> &Side {
        match end {
            End::Send => &self.s,
            End::Recv => &self.r,
        }
    }

    fn req(&self, end: End) -> &Request {
        match end {
            End::Send => &self.send_req,
            End::Recv => &self.recv_req,
        }
    }

    fn ranks(&self) -> (u32, u32) {
        (self.s.rank as u32, self.r.rank as u32)
    }
}

/// Plan a transfer down `class` on the facts as they stand now, and
/// open the plan's protocol span (if it has one).
pub(crate) fn open(
    sim: &mut Sim<MpiWorld>,
    s: Side,
    r: Side,
    class: PathClass,
    send_req: Request,
    recv_req: Request,
) -> Transfer {
    let plan = plan_for(&Facts::of(sim, s.rank, r.rank), &s, &r, class);
    let track = Track::Proto {
        from: s.rank as u32,
        to: r.rank as u32,
    };
    let span = match plan.span {
        Some(name) => sim
            .trace
            .span_begin(sim.now(), names::CAT_MPIRT, name, track),
        None => SpanId::disabled(),
    };
    Transfer {
        plan,
        s,
        r,
        send_req,
        recv_req,
        span,
    }
}

/// State of one transfer in flight.
struct Exec {
    t: Transfer,
    conn: Conn,
    s_engine: Option<SideEngine>,
    r_engine: Option<SideEngine>,
    total: u64,
    nfrags: u64,
    next_seq: u64,
    /// Slot credits, claimed and returned FIFO.
    free_slots: VecDeque<usize>,
    /// Bytes whose last stage completed / whose slot ack came back.
    landed: u64,
    acked: u64,
}

type St = Rc<RefCell<Exec>>;

/// One fragment on its way through the stages.
#[derive(Clone, Copy)]
struct Frag {
    seq: u64,
    slot: usize,
    n: u64,
    /// Covers the slot's whole residency: claim to credit return.
    span: SpanId,
}

impl Exec {
    fn engine(&mut self, end: End) -> &mut Option<SideEngine> {
        match end {
            End::Send => &mut self.s_engine,
            End::Recv => &mut self.r_engine,
        }
    }

    /// Where fragment `f` sits at `loc`; a miss is corrupted ring
    /// bookkeeping, surfaced as a typed failure.
    fn resolve(&self, loc: Loc, f: Frag) -> Result<Ptr, MpiError> {
        match loc {
            Loc::User(end) => Ok(self.t.side(end).data_ptr().add(f.seq * self.t.plan.frag)),
            _ => (self.conn.slot(loc, f.slot)).ok_or_else(|| faulted("ring slot out of range")),
        }
    }
}

fn faulted(why: &str) -> MpiError {
    MpiError::Faulted(why.into())
}

// Resolving a request only queues its continuations, so holding the
// state borrow across the abort cannot re-enter.
fn fail(sim: &mut Sim<MpiWorld>, st: &St, err: MpiError) {
    st.borrow().t.fail(sim, err);
}

/// Run `t`'s plan over `conn`: tune the shape against the allocated
/// ring, build the conversion engines the plan uses, then pump.
pub(crate) fn run(sim: &mut Sim<MpiWorld>, mut t: Transfer, conn: Conn) {
    if let Some((frag0, depth0)) = conn.ring_shape() {
        (t.plan.frag, t.plan.depth) = tuned_shape(sim, &t.s, &t.r, t.plan.class, frag0, depth0);
    }
    let engine = |sim: &mut Sim<MpiWorld>, end, dir| {
        if t.plan.converts(end) {
            make_engine(sim, t.side(end), dir).map(Some)
        } else {
            Ok(None)
        }
    };
    let engines = engine(sim, End::Send, Direction::Pack)
        .and_then(|p| engine(sim, End::Recv, Direction::Unpack).map(|u| (p, u)));
    let (s_engine, r_engine) = match engines {
        Ok(pair) => pair,
        Err(err) => return t.fail(sim, err),
    };
    // A plan that opens with `Direct` wires straight out of a dense
    // host sender's user buffer, which must be registered with the NIC
    // once.
    let register = (t.plan.stages.first() == Some(&StageOp::Direct)).then_some((t.s.rank, t.s.buf));
    let total = t.s.total();
    let st = Rc::new(RefCell::new(Exec {
        nfrags: total.div_ceil(t.plan.frag.max(1)),
        free_slots: (0..t.plan.depth).collect(),
        t,
        conn,
        s_engine,
        r_engine,
        total,
        next_seq: 0,
        landed: 0,
        acked: 0,
    }));
    match register {
        Some((rank, buf)) => ensure_registered(sim, rank, buf, move |sim| pump(sim, st)),
        None => pump(sim, st),
    }
}

/// Start the first stage of every fragment a free slot exists for, in
/// sequence order.
fn pump(sim: &mut Sim<MpiWorld>, st: St) {
    loop {
        let (seq, slot, n, ring, (from, to)) = {
            let mut x = st.borrow_mut();
            if x.next_seq >= x.nfrags {
                return;
            }
            let Some(slot) = x.free_slots.pop_front() else {
                return;
            };
            let seq = x.next_seq;
            x.next_seq += 1;
            let n = x.t.plan.frag.min(x.total - seq * x.t.plan.frag);
            (seq, slot, n, x.t.plan.ring, x.t.ranks())
        };
        let span = if ring {
            let track = Track::Ring { from, to };
            sim.trace
                .span_begin(sim.now(), names::CAT_MPIRT, names::SPAN_FRAG, track)
        } else {
            SpanId::disabled()
        };
        step(sim, Rc::clone(&st), Frag { seq, slot, n, span }, 0);
    }
}

/// Run stage `idx` of fragment `f`; its completion runs stage `idx+1`,
/// and the completion of the last stage [`landed`]. A stage that cannot
/// start fails the transfer.
fn step(sim: &mut Sim<MpiWorld>, st: St, f: Frag, idx: usize) {
    let op = st.borrow().t.plan.stages.get(idx).copied();
    let started = match op {
        Some(op) => run_op(sim, &st, f, op, idx),
        None => landed(sim, &st, f),
    };
    if let Err(err) = started {
        fail(sim, &st, err);
    }
}

/// The `run` arm of every [`StageOp`]: issue the stage's one primitive
/// with `step(idx + 1)` as its completion.
fn run_op(
    sim: &mut Sim<MpiWorld>,
    st: &St,
    f: Frag,
    op: StageOp,
    idx: usize,
) -> Result<(), MpiError> {
    let rank_of = |end| st.borrow().t.side(end).rank;
    let (s_rank, r_rank) = (rank_of(End::Send), rank_of(End::Recv));
    let (a, b) = (s_rank as u32, r_rank as u32);
    let at = |loc| st.borrow().resolve(loc, f);
    let stw = Rc::clone(st);
    let next = move |sim: &mut Sim<MpiWorld>| step(sim, stw, f, idx + 1);
    match op {
        // Engines are sequential: one fragment at a time, in sequence
        // order, so the engine is lent out for the call only.
        StageOp::Kernel { end, frag, .. } | StageOp::CpuConvert { end, frag } => {
            let frag = at(frag)?;
            let mut engine = (st.borrow_mut().engine(end).take())
                .ok_or_else(|| faulted("conversion engine already in use"))?;
            engine.process_fragment(sim, frag, f.n, next);
            *st.borrow_mut().engine(end) = Some(engine);
        }
        StageOp::Copy {
            stream_of,
            from,
            to,
        } => {
            let (from, to) = (at(from)?, at(to)?);
            let stream = sim.world.rank(rank_of(stream_of)).copy_stream;
            memcpy(sim, stream, from, to, f.n, move |sim, _| next(sim));
        }
        StageOp::Wire { from, to } => {
            let (src, dst) = (at(from)?, at(to)?);
            let (now, stw) = (sim.now(), Rc::clone(st));
            // The hop must go through the faultsim-consulting wrapper —
            // raw link charges are banned by the fault-coverage lint.
            let arrive = wire_send(sim, s_rank, r_rank, f.n, move |sim| {
                if let Err(e) = sim.world.mem().copy(src, dst, f.n) {
                    return fail(sim, &stw, MpiError::Mem(e.to_string()));
                }
                sim.trace.count(names::MPIRT_WIRE_BYTES, a, b, f.n);
                next(sim);
            })
            .map_err(MpiError::Net)?;
            let track = Track::LinkData { from: a, to: b };
            sim.trace
                .span_at(now, arrive, names::CAT_MPIRT, names::SPAN_WIRE, track);
        }
        StageOp::Notify { to } => {
            send_am(sim, rank_of(to.other()), rank_of(to), 16, next).map_err(MpiError::Net)?;
        }
        StageOp::Direct => {
            sim.schedule_now(next);
        }
        StageOp::NicProgram => {
            let (prog, s_buf, r_buf) = match &*st.borrow() {
                Exec {
                    conn: Conn::Nic(p),
                    t,
                    ..
                } => (Rc::clone(p), t.s.buf, t.r.buf),
                _ => return Err(faulted("NIC stage without a compiled program")),
            };
            let costs = NicCosts::of(&sim.world.gpus_ref().topo);
            execute_program(sim, s_rank, r_rank, s_buf, r_buf, &prog, &costs, next)
                .map_err(MpiError::Net)?;
        }
        StageOp::GraphReplay => {
            let (cap, sides) = match &*st.borrow() {
                Exec {
                    conn: Conn::Graph(c),
                    t,
                    ..
                } => (Rc::clone(c), (t.s.clone(), t.r.clone())),
                _ => return Err(faulted("replay stage without a captured graph")),
            };
            graph_replay(sim, cap, sides, Rc::clone(st), next);
        }
    }
    Ok(())
}

/// Replay a captured graph for one iteration: re-arm on the stream
/// front-end, then pack kernel → wire → unpack kernel with no CPU event
/// in between (the graph kernels skip the driver launch path — they
/// were baked at capture).
fn graph_replay(
    sim: &mut Sim<MpiWorld>,
    cap: Rc<CapturedXfer>,
    (s, r): (Side, Side),
    st: St,
    next: impl FnOnce(&mut Sim<MpiWorld>) + 'static,
) {
    let armed = Rc::clone(&cap);
    gpusim::replay_issue(sim, &armed.graph, move |sim, _| {
        let src = s.buf.offset_by(cap.s_shift);
        let pack = cap.pack_units.clone();
        let stream = sim.world.rank(s.rank).kernel_stream;
        graph_kernel(sim, stream, src, cap.bounce, pack, move |sim, _| {
            let stw = Rc::clone(&st);
            let shipped = wire_send(sim, s.rank, r.rank, cap.total, move |sim| {
                let dst = r.buf.offset_by(cap.r_shift);
                let unpack = cap.unpack_units.clone();
                let stream = sim.world.rank(r.rank).kernel_stream;
                graph_kernel(sim, stream, cap.bounce, dst, unpack, move |sim, _| {
                    next(sim)
                });
            });
            if let Err(e) = shipped {
                fail(sim, &stw, MpiError::Net(e));
            }
        });
    });
}

/// A fragment's last stage completed: account it, return the slot's
/// credit per the plan's policy, and complete the requests when
/// everything has moved.
fn landed(sim: &mut Sim<MpiWorld>, st: &St, f: Frag) -> Result<(), MpiError> {
    let (credit, (a, b), total, done) = {
        let mut x = st.borrow_mut();
        x.landed += f.n;
        if x.t.plan.credit != Credit::Ack {
            x.free_slots.push_back(f.slot);
        }
        (x.t.plan.credit, x.t.ranks(), x.total, x.landed >= x.total)
    };
    sim.trace.count(names::MPI_DELIVERED_BYTES, a, b, f.n);
    let rank_of = |end| st.borrow().t.side(end).rank;
    let stw = Rc::clone(st);
    match credit {
        Credit::Ack => {
            if done {
                st.borrow().t.recv_req.complete(sim, Ok(total));
            }
            // Ack the slot so the sender can reuse it.
            send_am(
                sim,
                rank_of(End::Recv),
                rank_of(End::Send),
                16,
                move |sim| {
                    sim.trace.span_end(sim.now(), f.span);
                    let finished = {
                        let mut x = stw.borrow_mut();
                        x.acked += f.n;
                        x.free_slots.push_back(f.slot);
                        x.acked >= x.total
                    };
                    if finished {
                        let x = stw.borrow();
                        x.t.send_req.complete(sim, Ok(total));
                        sim.trace.span_end(sim.now(), x.t.span);
                    } else {
                        pump(sim, stw);
                    }
                },
            )
            .map_err(MpiError::Net)?;
        }
        Credit::Local { far } => {
            sim.trace.span_end(sim.now(), f.span);
            if !done {
                pump(sim, stw);
                return Ok(());
            }
            st.borrow().t.req(far.other()).complete(sim, Ok(total));
            // Tell the far side its buffer is free / filled.
            send_am(sim, rank_of(far.other()), rank_of(far), 16, move |sim| {
                let x = stw.borrow();
                x.t.req(far).complete(sim, Ok(total));
                sim.trace.span_end(sim.now(), x.t.span);
            })
            .map_err(MpiError::Net)?;
        }
        Credit::Fused => {
            let x = st.borrow();
            x.t.recv_req.complete(sim, Ok(total));
            x.t.send_req.complete(sim, Ok(total));
        }
    }
    Ok(())
}
