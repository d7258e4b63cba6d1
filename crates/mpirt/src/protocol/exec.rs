//! The transfer-plan executor: the one fragment pump.
//!
//! [`open`] plans a transfer and opens its protocol span; the protocol
//! modules establish the connection the plan needs and hand over to
//! [`run`] — as eager does with each half of a message, over no
//! connection, and a comparator over its own staging — which walks the
//! [`TransferPlan`]: it claims ring slots FIFO in
//! sequence order, pushes each fragment through the plan's
//! [`StageOp`]s — every stage's completion callback starts the next
//! stage directly, with no event hop of its own — and returns the
//! slot's credit the way the plan's [`Credit`] policy says. One state
//! struct, one pump, one failure path, one slot free-list and one
//! `frag` span per slot residency serve every path class.
//!
//! **Charge per stage, queue per fragment, move per transfer.** Every
//! stage is charged — stream, CPU and link reservations, fault rolls and
//! retries, spans, counters, completion events, against the slots of
//! the two ranks' rings — but no stage writes a byte. Each
//! conversion charge hands its unit list back, the fragment carries
//! them, and [`landed`] resolves the fragment's one move, source buffer
//! → destination buffer: a typed end's own list against a dense end's
//! window — or, a strided GPU end, the [`StridedWindow`] its kernel
//! converts, which no list ever spells out — or the merge of the two
//! lists ([`devengine::merge_units`]) when both ends are typed — an
//! offload plan's connection holds its whole message's merge already.
//! The packed stream is an index, never memory. The move is
//! range-checked and accounted at the landing
//! instant and appended to the transfer's queue; [`flush`] hands the
//! queue to [`memsim::Memory::transfer_batch`] as one job the copy pool
//! can split — when the last fragment lands (before either request
//! resolves), on the failure path (before the requests resolve `Err`),
//! early when the queue holds [`QUEUE_UNITS`], and after every fragment
//! of a transfer whose two buffers share an allocation. A fragment due
//! at once with nothing queued ahead of it — the one fragment of a
//! one-fragment transfer — moves alone through the same batch.
//!
//! **Derive per fragment, once.** The merge is a pure function of the
//! two layouts and the fragment's packed window, so its result is kept
//! in the shape table ([`crate::shape`]) under exactly that, with the
//! bookkeeping `Memory::transfer` would derive from it. A fragment looks
//! its list up when it starts and pins what it finds; with the list in
//! hand nothing will read either end's unit list, so the conversion
//! charges are asked for none, and a cached DEV plan that also knows the
//! launch's traffic derives none — the engine advances its cursor, and
//! the one pass over units left is the copy. A miss runs the merge as
//! ever, on lists [`merge_units`] validates, and leaves the result
//! behind. One `pump`, one `step`, one `run_op` arm per stage, one
//! `landed` either way (DESIGN.md §17, "What a repeated transfer
//! reuses").
//!
//! Ordering obligations (DESIGN.md §17): conversion engines are
//! sequential, so fragments enter every stage in sequence order; the
//! receive end resolves before the last ack (or notification) is
//! sent; the send end resolves only after the last fragment landed and
//! the queue moved, so the send buffer is stable — and the receive
//! buffer unobserved — from pack charge to the flush that precedes
//! completion; a failure resolves both ends at most once.

use crate::protocol::offload::{CapturedXfer, Program};
use crate::protocol::plan::{
    plan_for, Credit, End, Facts, Loc, StageOp, TransferPlan, CONTROL_BYTES,
};
use crate::protocol::{make_engine, Side, SideEngine};
use crate::request::{MpiError, Request};
use crate::tuner::{tuned_shape, PathClass};
use crate::world::MpiWorld;
use devengine::{flip_units_in_place, merge_units, Direction};
use gpusim::{charge_memcpy, graph_kernel, GpuWorld as _};
use memsim::{MemSpace, Move, Ptr};
use netsim::{ensure_registered, execute_program, send_am, wire_send, NicCosts};
use simcore::par::{CopyOp, OpList, OpListBuf, Segs, StridedWindow};
use simcore::scratch::{recycle_units_buf, take_units_buf};
use simcore::trace::names;
use simcore::{Sim, SpanId, Track};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// What the handshake established for a plan to run over.
pub(crate) enum Conn {
    /// Nothing beyond the peer-buffer mapping (both-dense sm).
    None,
    /// The two ranks' own rings (`RankState::rings`), one per ring
    /// [`Loc`] the plan names.
    Rings,
    Nic(Rc<Program>),
    Graph(Rc<CapturedXfer>),
    /// A comparator message's own staging: a whole-message buffer for
    /// each ring location its one-fragment plan names.
    Staged(Rc<Vec<(Loc, Ptr)>>),
}

// Every transfer's state holds its connection inline: two words at most.
const _: () = assert!(std::mem::size_of::<Conn>() <= 16);

impl Conn {
    /// An offload plan's compiled program: its one move is the whole
    /// message, typed → typed.
    fn program(&self) -> Option<&Program> {
        match self {
            Conn::Nic(prog) => Some(prog),
            Conn::Graph(cap) => Some(&cap.program),
            _ => None,
        }
    }
}

/// How a transfer resolves. It is the last thing in a transfer's
/// state, so a continuation lives inline there, in the one allocation,
/// and one executor serves every kind.
pub(crate) trait Resolve: 'static {
    /// Whether the executor counts the bytes each landed fragment
    /// delivers (`mpi.delivered.bytes`).
    fn counts_delivery(&self) -> bool;

    /// `end` moved all `total` bytes.
    fn resolve(&mut self, sim: &mut Sim<MpiWorld>, end: End, total: u64);

    /// Abort with `err`. An end that already resolved stays resolved —
    /// an abort may race with a completion that beat it by one event.
    fn fail(&mut self, sim: &mut Sim<MpiWorld>, err: MpiError);
}

/// A rendezvous: the send and the receive request.
/// The executor counts what each fragment delivers.
pub(crate) struct Requests {
    pub send: Request,
    pub recv: Request,
}

impl Resolve for Requests {
    fn counts_delivery(&self) -> bool {
        true
    }

    fn resolve(&mut self, sim: &mut Sim<MpiWorld>, end: End, total: u64) {
        let req = if end == End::Send {
            &self.send
        } else {
            &self.recv
        };
        req.complete(sim, Ok(total));
    }

    fn fail(&mut self, sim: &mut Sim<MpiWorld>, err: MpiError) {
        self.send.complete_if_pending(sim, Err(err.clone()));
        self.recv.complete_if_pending(sim, Err(err));
    }
}

/// An eager half: the protocol's next step, run once with the outcome —
/// no request in between. The half's plan resolves both ends at once
/// ([`Credit::Fused`]); the protocol counts what it delivers.
pub(crate) struct Then<F>(pub Option<F>);

impl<F> Resolve for Then<F>
where
    F: FnOnce(&mut Sim<MpiWorld>, Result<u64, MpiError>) + 'static,
{
    fn counts_delivery(&self) -> bool {
        false
    }

    fn resolve(&mut self, sim: &mut Sim<MpiWorld>, _: End, total: u64) {
        if let Some(k) = self.0.take() {
            k(sim, Ok(total));
        }
    }

    fn fail(&mut self, sim: &mut Sim<MpiWorld>, err: MpiError) {
        if let Some(k) = self.0.take() {
            k(sim, Err(err));
        }
    }
}

/// One planned transfer: what exists from [`open`] on, through the
/// handshake, until it resolves.
pub(crate) struct Transfer<D: ?Sized = Requests> {
    pub plan: TransferPlan,
    pub s: Side,
    pub r: Side,
    /// The plan's protocol span (inert when it has none).
    pub span: SpanId,
    pub done: D,
}

impl<D: Resolve + ?Sized> Transfer<D> {
    /// Abort: resolve both ends with `err` and close the protocol span.
    pub fn fail(&mut self, sim: &mut Sim<MpiWorld>, err: MpiError) {
        self.done.fail(sim, err);
        sim.trace.span_end(sim.now(), self.span);
    }

    fn side(&self, end: End) -> &Side {
        match end {
            End::Send => &self.s,
            End::Recv => &self.r,
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
    done: Requests,
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
        span,
        done,
    }
}

/// The conversion engines a plan runs: none, one end's, or — two typed
/// ends, whose fragments merge into move lists — both, boxed so a
/// transfer's state holds one engine inline.
enum Engines {
    None,
    One(End, SideEngine),
    Both(Box<[SideEngine; 2]>),
}

impl Engines {
    fn get(&mut self, end: End) -> Option<&mut SideEngine> {
        match self {
            Engines::One(e, engine) if *e == end => Some(engine),
            Engines::Both(both) => {
                let [s, r] = &mut **both;
                Some(if end == End::Send { s } else { r })
            }
            _ => None,
        }
    }

    /// Where `end`'s unit offsets are relative to; `None` for an end
    /// that runs no engine (a dense one).
    fn typed_base(&self, end: End) -> Option<Ptr> {
        match self {
            Engines::One(e, engine) if *e == end => Some(engine.typed_base()),
            Engines::Both(both) => {
                let [s, r] = &**both;
                Some(if end == End::Send { s } else { r }.typed_base())
            }
            _ => None,
        }
    }

    /// A lone strided end's packed range `from..to` as the window its
    /// kernel converts: the fragment's whole move, so the end lends no
    /// unit buffer. Two typed ends merge lists, so neither is one.
    fn window(&self, end: End, from: u64, to: u64) -> Option<StridedWindow> {
        match self {
            Engines::One(e, engine) if *e == end => engine.window(from, to),
            _ => None,
        }
    }
}

/// State of one transfer in flight. The transfer comes last: its
/// resolution is sized only when the state is built.
struct Exec<D: ?Sized = dyn Resolve> {
    conn: Conn,
    engines: Engines,
    total: u64,
    nfrags: u64,
    next_seq: u64,
    /// Slot credits are claimed and returned FIFO: slots `fresh..depth`
    /// have never been claimed and come first, then the returned ones.
    fresh: usize,
    /// Bytes whose last stage completed / whose slot ack came back.
    landed: u64,
    acked: u64,
    /// The sequence number each end's conversion engine converts next.
    /// The engines walk the packed stream strictly forward, and a
    /// retried stage lets later fragments overtake an earlier one, so a
    /// fragment that reaches a conversion stage ahead of its turn waits
    /// (parked) until the engine gets there.
    s_turn: u64,
    r_turn: u64,
    /// Made the first time a fragment needs it: a transfer of one
    /// fragment never does.
    pipe: Option<Box<Pipeline>>,
    t: Transfer<D>,
}

/// What only the fragments of a pipelined transfer share.
#[derive(Default)]
struct Pipeline {
    /// Returned slot credits. A credit returns only while fragments
    /// wait for one.
    free_slots: VecDeque<usize>,
    /// Fragments ahead of their turn at a conversion stage, with the
    /// stage's index.
    parked: Vec<(Frag, usize)>,
    /// Unit buffers of moved fragments, for this transfer's later
    /// fragments: a transfer cycles the same few lists, however long
    /// it is. They return to [`simcore::scratch`] with the last
    /// fragment.
    spare: Vec<Vec<CopyOp>>,
    /// Landed fragments whose bytes have not moved yet, in landing
    /// order, and the units their lists hold; [`flush`] moves them as
    /// one batch.
    queue: Vec<Queued>,
    queued_units: usize,
}

/// The queue is flushed early once its lists hold this many units
/// (768 KiB of `CopyOp`s). The bound is on what holding the queue costs
/// — memory, and owned lists that should still be in cache when a
/// flush copies what their scan read at landing — not on payload.
/// Coarse lists reach tens of megabytes of payload first (a 67 MB
/// triangle is 4 Ki units as the optimizer coalesces it
/// — one flush — and 70 Ki in bare 1 KiB units: three flushes, each two
/// full lanes), and a fine list is moved on one lane whenever it is
/// flushed, so it loses nothing by going early: `pp_irregular` read the
/// same with eight times this bound. Pinned lists count like owned
/// ones — the shape table may evict a list while the queue holds it, and
/// then the queue is all that keeps it alive.
const QUEUE_UNITS: usize = 32 << 10;

/// A landed fragment awaiting its transfer's flush: what
/// [`memsim::Move`] takes, with the list kept alive.
struct Queued {
    src: Ptr,
    dst: Ptr,
    list: QueuedList,
    /// The plan's [`TransferPlan::stream`].
    stream: bool,
}

impl Queued {
    fn entry(&self) -> Move<'_> {
        Move {
            src: self.src,
            dst: self.dst,
            segs: self.list.segs(),
            stream: self.stream,
        }
    }
}

enum QueuedList {
    /// Two typed ends: the fragment's (cached) merged list, or an
    /// offload plan's whole-message one.
    Pinned(Arc<OpListBuf>),
    /// A lone typed end's own list, in a unit buffer, scanned once.
    Owned(OpListBuf),
    /// A lone strided end: its kernel's window, unlisted.
    Strided(StridedWindow),
    /// Two dense ends: the fragment's window, one op, scanned where it
    /// is read.
    Window([CopyOp; 1]),
}

impl QueuedList {
    fn segs(&self) -> Segs<'_> {
        match self {
            QueuedList::Pinned(list) => Segs::Shared(list),
            QueuedList::Owned(units) => Segs::List(units.list()),
            QueuedList::Strided(w) => Segs::Strided(*w),
            QueuedList::Window(op) => Segs::List(OpList::new(op)),
        }
    }

    /// What it counts against [`QUEUE_UNITS`]: its list's length, or
    /// one for a window, which holds no list.
    fn held_units(&self) -> usize {
        match self {
            QueuedList::Pinned(list) => list.ops().len(),
            QueuedList::Owned(units) => units.list().ops().len(),
            QueuedList::Strided(_) | QueuedList::Window(_) => 1,
        }
    }
}

type St = Rc<RefCell<Exec>>;

/// One fragment on its way through the stages.
struct Frag {
    seq: u64,
    slot: usize,
    n: u64,
    /// Covers the slot's whole residency: claim to credit return.
    span: SpanId,
    /// What each end's conversion charge handed back: the fragment's
    /// unit list the way that end would have moved it — the sender's
    /// typed buffer → fragment, the receiver's fragment → typed buffer,
    /// fragment offsets relative to the fragment's start. Empty until
    /// that stage completes, for a dense end, and when nothing will
    /// read them because `moves` is known.
    s_units: Vec<CopyOp>,
    r_units: Vec<CopyOp>,
    /// The fragment's typed → typed move list, if an earlier transfer
    /// left it in the shape table: found once,
    /// when the fragment starts, and pinned here until it lands.
    moves: Option<Arc<OpListBuf>>,
}

impl Exec {
    fn pipe(&mut self) -> &mut Pipeline {
        self.pipe.get_or_insert_with(Box::default)
    }

    fn units_buf(&mut self) -> Vec<CopyOp> {
        (self.pipe.as_mut())
            .and_then(|p| p.spare.pop())
            .unwrap_or_else(take_units_buf)
    }

    /// Claim the next slot credit, if one is free.
    fn claim_slot(&mut self) -> Option<usize> {
        if self.fresh < self.t.plan.depth {
            self.fresh += 1;
            return Some(self.fresh - 1);
        }
        self.pipe.as_mut()?.free_slots.pop_front()
    }

    /// Return `slot`'s credit, unless every fragment has one already.
    fn return_slot(&mut self, slot: usize) {
        if self.next_seq < self.nfrags {
            self.pipe().free_slots.push_back(slot);
        }
    }

    /// A unit buffer a fragment is done with: kept for the transfer's
    /// other fragments until the last one lands, or — a transfer of one
    /// fragment has none — straight back to the shelf.
    fn spare_buf(&mut self, buf: Vec<CopyOp>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.nfrags > 1 {
            self.pipe().spare.push(buf);
        } else {
            recycle_units_buf(buf);
        }
    }

    /// Fragment `f`'s packed window `[seq·frag, seq·frag + n)` as the
    /// shape table keys its move list, if both ends are typed.
    fn list_window(&self, f: &Frag) -> Option<(u64, u64, u64)> {
        matches!(self.engines, Engines::Both(_)).then_some((self.t.plan.frag, f.seq, f.n))
    }

    fn turn(&mut self, end: End) -> &mut u64 {
        match end {
            End::Send => &mut self.s_turn,
            End::Recv => &mut self.r_turn,
        }
    }

    /// Where fragment `f` sits at `loc`: its window of a user buffer, or
    /// its slot in the end's rank's ring. A miss is corrupted ring
    /// bookkeeping (or a plan run over the wrong connection), surfaced
    /// as a typed failure.
    fn resolve(&self, world: &MpiWorld, loc: Loc, f: &Frag) -> Result<Ptr, MpiError> {
        let slot = match (loc, &self.conn) {
            (Loc::User(end), _) => {
                return Ok(self.t.side(end).data_ptr().add(f.seq * self.t.plan.frag))
            }
            (Loc::Dev(end) | Loc::Host(end), Conn::Rings) => {
                let ring = world.rank(self.t.side(end).rank).rings.get(&loc);
                ring.and_then(|slots| slots.get(f.slot)).copied()
            }
            (_, Conn::Staged(bufs)) if f.slot == 0 => {
                (bufs.iter()).find_map(|&(at, buf)| (at == loc).then_some(buf))
            }
            _ => None,
        };
        slot.ok_or_else(|| faulted("ring slot out of range"))
    }
}

fn faulted(why: &str) -> MpiError {
    MpiError::Faulted(why.into())
}

/// The executor's one failure path. A partly-landed transfer shows
/// exactly its landed fragments, so the queue moves first; a flush that
/// fails as well cannot outrank the error being reported.
// Resolving a request only queues its continuations, and a half's
// continuation never reaches its own transfer's state, so holding the
// state borrow across the abort cannot re-enter.
fn fail(sim: &mut Sim<MpiWorld>, st: &St, err: MpiError) {
    let _ = flush(sim, st);
    st.borrow_mut().t.fail(sim, err);
}

/// Run `t`'s plan over `conn`: tune the shape against the allocated
/// ring, build the conversion engines the plan uses, then pump.
pub(crate) fn run<D: Resolve>(sim: &mut Sim<MpiWorld>, mut t: Transfer<D>, conn: Conn) {
    if let Conn::Rings = conn {
        (t.plan.frag, t.plan.depth) = tuned_shape(sim, &t.s, &t.r, t.plan.class);
    }
    let engine = |sim: &mut Sim<MpiWorld>, end, dir| {
        if t.plan.converts(end) {
            make_engine(sim, t.side(end), dir, t.plan.comparator).map(Some)
        } else {
            Ok(None)
        }
    };
    let engines = engine(sim, End::Send, Direction::Pack)
        .and_then(|p| engine(sim, End::Recv, Direction::Unpack).map(|u| (p, u)));
    let engines = match engines {
        Ok((Some(s), Some(r))) => Engines::Both(Box::new([s, r])),
        Ok((Some(s), None)) => Engines::One(End::Send, s),
        Ok((None, Some(r))) => Engines::One(End::Recv, r),
        Ok((None, None)) => Engines::None,
        Err(err) => return t.fail(sim, err),
    };
    // A plan that opens with `Direct` wires straight out of a dense
    // host sender's user buffer, which must be registered with the NIC
    // once.
    let register = (t.plan.stages.get(0) == Some(StageOp::Direct)).then_some((t.s.rank, t.s.buf));
    let total = t.s.total();
    let st: St = Rc::new(RefCell::new(Exec {
        nfrags: total.div_ceil(t.plan.frag.max(1)),
        fresh: 0,
        conn,
        engines,
        total,
        next_seq: 0,
        landed: 0,
        acked: 0,
        s_turn: 0,
        r_turn: 0,
        pipe: None,
        t,
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
            let Some(slot) = x.claim_slot() else {
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
        let mut f = Frag {
            seq,
            slot,
            n,
            span,
            s_units: Vec::new(),
            r_units: Vec::new(),
            moves: None,
        };
        let x = st.borrow();
        if let Some(window) = x.list_window(&f) {
            f.moves = sim.world.mpi.shapes.moves(&x.t.s, &x.t.r, window);
        }
        drop(x);
        step(sim, Rc::clone(&st), f, 0);
    }
}

/// Run stage `idx` of fragment `f`; its completion runs stage `idx+1`,
/// and the completion of the last stage [`landed`]. A stage that cannot
/// start fails the transfer.
fn step(sim: &mut Sim<MpiWorld>, st: St, f: Frag, idx: usize) {
    let op = st.borrow().t.plan.stages.get(idx);
    let started = match op {
        Some(op) => run_op(sim, &st, f, op, idx),
        None => landed(sim, &st, f),
    };
    if let Err(err) = started {
        fail(sim, &st, err);
    }
}

/// The `run` arm of every [`StageOp`]: issue the stage's one charge with
/// `step(idx + 1)` as its completion.
fn run_op(
    sim: &mut Sim<MpiWorld>,
    st: &St,
    mut f: Frag,
    op: StageOp,
    idx: usize,
) -> Result<(), MpiError> {
    let rank_of = |end| st.borrow().t.side(end).rank;
    let at = |sim: &Sim<MpiWorld>, loc, f: &Frag| st.borrow().resolve(&sim.world, loc, f);
    let stw = Rc::clone(st);
    let next = move |sim: &mut Sim<MpiWorld>, f: Frag| step(sim, stw, f, idx + 1);
    match op {
        // Engines are sequential: one fragment at a time, in sequence
        // order.
        StageOp::Kernel { end, frag, .. }
        | StageOp::CpuConvert { end, frag }
        | StageOp::Memcpy2d { end, frag } => {
            let frag = at(sim, frag, &f)?;
            let seq = f.seq;
            if seq != *st.borrow_mut().turn(end) {
                st.borrow_mut().pipe().parked.push((f, idx));
                return Ok(());
            }
            let due = {
                let mut x = st.borrow_mut();
                // The list is read at landing, unless the moves are known
                // or the end is a lone strided one, whose window is its
                // move.
                let from = seq * x.t.plan.frag;
                let listed = x.engines.window(end, from, from + f.n).is_none();
                let buf = (f.moves.is_none() && listed).then(|| x.units_buf());
                let engine = (x.engines.get(end)).ok_or_else(|| faulted("no conversion engine"))?;
                // The charge completes in a later event, never within
                // this call, so the engine is used in place.
                engine.charge_fragment(sim, frag, f.n, buf, move |sim, units| {
                    match end {
                        End::Send => f.s_units = units,
                        End::Recv => f.r_units = units,
                    }
                    next(sim, f);
                });
                *x.turn(end) = seq + 1;
                x.pipe.as_mut().and_then(|p| {
                    let next_up =
                        (p.parked.iter()).position(|(f, i)| *i == idx && f.seq == seq + 1);
                    next_up.map(|pos| p.parked.swap_remove(pos))
                })
            };
            if let Some((parked, idx)) = due {
                step(sim, Rc::clone(st), parked, idx);
            }
        }
        StageOp::Copy {
            stream_of,
            from,
            to,
        } => {
            let (from, to) = (at(sim, from, &f)?, at(sim, to, &f)?);
            let stream = sim.world.rank(rank_of(stream_of)).copy_stream;
            charge_memcpy(sim, stream, from, to, f.n, move |sim, _| next(sim, f));
        }
        StageOp::Wire { from, to } => {
            // Both ends of the hop must exist, though the wire only
            // charges: the bytes land with the fragment.
            at(sim, from, &f)?;
            at(sim, to, &f)?;
            let (now, n) = (sim.now(), f.n);
            let (a, b) = st.borrow().t.ranks();
            let arrive = wire_send(sim, a as usize, b as usize, n, move |sim| {
                sim.trace.count(names::MPIRT_WIRE_BYTES, a, b, n);
                next(sim, f);
            })
            .map_err(MpiError::Net)?;
            let track = Track::LinkData { from: a, to: b };
            sim.trace
                .span_at(now, arrive, names::CAT_MPIRT, names::SPAN_WIRE, track);
        }
        StageOp::Notify { to } => {
            send_am(
                sim,
                rank_of(to.other()),
                rank_of(to),
                CONTROL_BYTES,
                move |sim| next(sim, f),
            )
            .map_err(MpiError::Net)?;
        }
        StageOp::Direct => {
            sim.schedule_now(move |sim| next(sim, f));
        }
        StageOp::NicProgram => {
            let prog = match &st.borrow().conn {
                Conn::Nic(p) => Rc::clone(p),
                _ => return Err(faulted("NIC stage without a compiled program")),
            };
            let costs = NicCosts::of(&sim.world.gpus_ref().topo);
            let (from, to) = (rank_of(End::Send), rank_of(End::Recv));
            let program = (prog.descriptors, prog.bytes());
            let landed = move |sim: &mut Sim<MpiWorld>| next(sim, f);
            execute_program(sim, from, to, program, &costs, landed).map_err(MpiError::Net)?;
        }
        StageOp::GraphReplay => {
            let cap = match &st.borrow().conn {
                Conn::Graph(c) => Rc::clone(c),
                _ => return Err(faulted("replay stage without a captured graph")),
            };
            graph_replay(sim, cap, Rc::clone(st), move |sim| next(sim, f));
        }
    }
    Ok(())
}

/// The far side of a graph kernel: the mapped host staging the pack
/// kernel streams to and the unpack kernel from. Host-side traffic is
/// priced by its space alone, so it needs no allocation.
const GRAPH_HOST: Ptr = Ptr::start_of(MemSpace::Host);

/// Replay a captured graph for one iteration: re-arm on the stream
/// front-end, then pack kernel → wire → unpack kernel with no CPU event
/// in between (the graph kernels skip the driver launch path — they
/// were baked at capture). Every leg only charges; `next` runs when the
/// unpack kernel completes, and the transfer lands the capture's one
/// move then.
fn graph_replay(
    sim: &mut Sim<MpiWorld>,
    cap: Rc<CapturedXfer>,
    st: St,
    next: impl FnOnce(&mut Sim<MpiWorld>) + 'static,
) {
    let ((s_rank, s_buf), (r_rank, r_buf)) = {
        let t = &st.borrow().t;
        ((t.s.rank, t.s.buf), (t.r.rank, t.r.buf))
    };
    let prog = Rc::clone(&cap.program);
    gpusim::replay_issue(sim, &cap.graph, move |sim, _| {
        let pack = (s_buf.offset_by(prog.shifts.0), GRAPH_HOST);
        let stream = sim.world.rank(s_rank).kernel_stream;
        let units = Rc::clone(&prog);
        graph_kernel(sim, stream, pack, &units.pack_units, move |sim, _| {
            let shipped = wire_send(sim, s_rank, r_rank, prog.bytes(), move |sim| {
                let unpack = (GRAPH_HOST, r_buf.offset_by(prog.shifts.1));
                let stream = sim.world.rank(r_rank).kernel_stream;
                graph_kernel(sim, stream, unpack, &prog.unpack_units, move |sim, _| {
                    next(sim)
                });
            });
            if let Err(e) = shipped {
                fail(sim, &st, MpiError::Net(e));
            }
        });
    });
}

/// Queue fragment `f`'s one move, sender's buffer → receiver's, and
/// move the queue if `last` or if it cannot wait. An offload plan's two
/// ends are typed, and its one fragment is the whole message. Otherwise
/// an end that runs no conversion is dense and its window of the user
/// buffer *is* the fragment, so a lone typed end's list — or a strided
/// end's window, whose reach is closed form — applies as it stands;
/// two typed ends meet through their [`typed_moves`]. The queue
/// cannot wait when it holds [`QUEUE_UNITS`], or when the two buffers
/// share an allocation — a later fragment's source may be this one's
/// destination, so such a transfer gathers-then-scatters fragment by
/// fragment, as ever. Both ranges are checked against the live
/// allocations at the landing instant, so a bad buffer fails the
/// transfer there: by the move itself when it is due and nothing waits
/// ahead of it, else here and again by [`flush`], which is when they
/// are dereferenced.
fn queue_fragment(
    sim: &mut Sim<MpiWorld>,
    st: &St,
    f: &mut Frag,
    last: bool,
) -> Result<(), MpiError> {
    // Each end's base: where its unit offsets are relative to — its
    // engine's typed base, or an offload plan's shifted buffer — or, a
    // dense end, which has neither, its window.
    let base = |end: End| {
        let x = st.borrow();
        let shifted = (x.conn.program()).map(|p| {
            let (s_shift, r_shift) = p.shifts;
            let shift = if end == End::Send { s_shift } else { r_shift };
            x.t.side(end).buf.offset_by(shift)
        });
        match x.engines.typed_base(end).or(shifted) {
            Some(typed) => Ok((true, typed)),
            None => x
                .resolve(&sim.world, Loc::User(end), f)
                .map(|window| (false, window)),
        }
    };
    let ((s_typed, src), (r_typed, dst)) = (base(End::Send)?, base(End::Recv)?);
    let lone = |end: End, units: &mut Vec<CopyOp>| {
        let from = f.seq * st.borrow().t.plan.frag;
        let window = st.borrow().engines.window(end, from, from + f.n);
        window.map_or_else(
            || QueuedList::Owned(OpListBuf::new(std::mem::take(units))),
            QueuedList::Strided,
        )
    };
    let list = match (s_typed, r_typed) {
        (true, true) => QueuedList::Pinned(typed_moves(sim, st, f)?),
        (true, false) => lone(End::Send, &mut f.s_units),
        (false, true) => lone(End::Recv, &mut f.r_units),
        (false, false) => QueuedList::Window([CopyOp {
            src_off: 0,
            dst_off: 0,
            len: f.n as usize,
        }]),
    };
    let q = Queued {
        src,
        dst,
        list,
        stream: st.borrow().t.plan.stream,
    };
    let (due, alone) = {
        let mut x = st.borrow_mut();
        x.spare_buf(std::mem::take(&mut f.s_units));
        x.spare_buf(std::mem::take(&mut f.r_units));
        let (queued, alone) =
            (x.pipe.as_ref()).map_or((0, true), |p| (p.queued_units, p.queue.is_empty()));
        let due =
            last || queued + q.list.held_units() >= QUEUE_UNITS || src.distance_to(dst).is_some();
        (due, alone)
    };
    if due && alone {
        return move_now(sim, st, [q]);
    }
    let (mem, reach) = (sim.world.mem(), q.list.segs().reach());
    let in_range =
        (mem.check_range(src, reach.src_need)).and_then(|()| mem.check_range(dst, reach.dst_need));
    in_range.map_err(|e| MpiError::Mem(e.to_string()))?;
    {
        let mut x = st.borrow_mut();
        let p = x.pipe();
        p.queued_units += q.list.held_units();
        p.queue.push(q);
    }
    if due {
        flush(sim, st)?;
    }
    Ok(())
}

/// Move every queued fragment, as one batch: `Memory` re-checks each
/// against the live allocations, then copies the run as one job. The
/// unit buffers go back to the transfer's spares.
fn flush(sim: &mut Sim<MpiWorld>, st: &St) -> Result<(), MpiError> {
    let queue = (st.borrow_mut().pipe.as_mut()).map_or_else(Vec::new, |p| {
        p.queued_units = 0;
        std::mem::take(&mut p.queue)
    });
    move_now(sim, st, queue)
}

/// Move `queue`'s fragments as one batch and keep their unit buffers.
fn move_now(
    sim: &mut Sim<MpiWorld>,
    st: &St,
    queue: impl AsRef<[Queued]> + IntoIterator<Item = Queued>,
) -> Result<(), MpiError> {
    let moved = match queue.as_ref() {
        [] => return Ok(()),
        [q] => sim.world.mem().transfer_batch(&[q.entry()]),
        all => sim
            .world
            .mem()
            .transfer_batch(&all.iter().map(Queued::entry).collect::<Vec<_>>()),
    };
    let mut x = st.borrow_mut();
    for q in queue {
        if let QueuedList::Owned(units) = q.list {
            x.spare_buf(units.into_ops());
        }
    }
    moved.map_err(|e| MpiError::Mem(e.to_string()))
}

/// Fragment `f`'s typed → typed move list: an offload plan's, the one
/// pinned when the fragment started, or — a miss — the merge of the two
/// lists the conversion charges handed back over the fragment's packed
/// window, left in the shape table for the next transfer through the
/// same window of the same two layouts. [`merge_units`] validates the
/// lists it merges; its result is a pure function of that key.
fn typed_moves(sim: &mut Sim<MpiWorld>, st: &St, f: &mut Frag) -> Result<Arc<OpListBuf>, MpiError> {
    let whole = (st.borrow().conn.program()).map(|p| Arc::clone(&p.moves));
    if let Some(known) = whole.or_else(|| f.moves.take()) {
        return Ok(known);
    }
    let mut merged = st.borrow_mut().units_buf();
    // Back to pack orientation: typed side first on both lists.
    flip_units_in_place(&mut f.r_units);
    let moves = merge_units(&f.s_units, &f.r_units, f.n as usize, &mut merged)
        .map(|()| Arc::new(OpListBuf::new(merged.clone())));
    st.borrow_mut().spare_buf(merged);
    let moves = moves?;
    let x = st.borrow();
    if let Some(window) = x.list_window(f) {
        (sim.world.mpi.shapes).keep_moves(&x.t.s, &x.t.r, window, &moves);
    }
    Ok(moves)
}

/// A fragment's last stage completed: queue its bytes' move and move
/// the queue if this is the last fragment — before either end resolves
/// — or the queue cannot wait; account the fragment, return the slot's
/// credit per the plan's policy, and resolve the ends when everything
/// has moved.
fn landed(sim: &mut Sim<MpiWorld>, st: &St, mut f: Frag) -> Result<(), MpiError> {
    let last = {
        let x = st.borrow();
        x.landed + f.n >= x.total
    };
    queue_fragment(sim, st, &mut f, last)?;
    let (credit, (a, b), total, done, counts) = {
        let mut x = st.borrow_mut();
        x.landed += f.n;
        if x.t.plan.credit != Credit::Ack {
            x.return_slot(f.slot);
        }
        let done = x.landed >= x.total;
        if let (true, Some(p)) = (done, x.pipe.as_mut()) {
            p.spare.drain(..).for_each(recycle_units_buf);
        }
        let counts = x.t.done.counts_delivery();
        (x.t.plan.credit, x.t.ranks(), x.total, done, counts)
    };
    if counts {
        sim.trace.count(names::MPI_DELIVERED_BYTES, a, b, f.n);
    }
    let rank_of = |end| st.borrow().t.side(end).rank;
    let stw = Rc::clone(st);
    match credit {
        Credit::Ack => {
            if done {
                st.borrow_mut().t.done.resolve(sim, End::Recv, total);
            }
            // Ack the slot so the sender can reuse it.
            send_am(
                sim,
                rank_of(End::Recv),
                rank_of(End::Send),
                CONTROL_BYTES,
                move |sim| {
                    sim.trace.span_end(sim.now(), f.span);
                    let finished = {
                        let mut x = stw.borrow_mut();
                        x.acked += f.n;
                        x.return_slot(f.slot);
                        x.acked >= x.total
                    };
                    if finished {
                        let mut x = stw.borrow_mut();
                        x.t.done.resolve(sim, End::Send, total);
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
            st.borrow_mut().t.done.resolve(sim, far.other(), total);
            // Tell the far side its buffer is free / filled.
            send_am(
                sim,
                rank_of(far.other()),
                rank_of(far),
                CONTROL_BYTES,
                move |sim| {
                    let mut x = stw.borrow_mut();
                    x.t.done.resolve(sim, far, total);
                    sim.trace.span_end(sim.now(), x.t.span);
                },
            )
            .map_err(MpiError::Net)?;
        }
        Credit::Fused => {
            let mut x = st.borrow_mut();
            x.t.done.resolve(sim, End::Recv, total);
            x.t.done.resolve(sim, End::Send, total);
        }
    }
    Ok(())
}
