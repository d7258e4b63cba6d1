//! The eager protocol for small messages.
//!
//! The sender packs into a host bounce buffer leased from its rank
//! (`crate::lease`) and ships the bytes with the first (and only)
//! active message; the send completes as soon as the data is buffered.
//! The receiver unpacks at match time — possibly much later, from the
//! unexpected queue — and the bounce goes back to the sender's lease.
//!
//! Both conversions are plans the executor runs: [`eager_half`] packs
//! the typed buffer into the bounce, and at match unpacks the bounce
//! into the posted receive. Each half hands its outcome straight to the
//! next step here (DESIGN.md §17, "Eager is a plan").

use crate::matcher::{Envelope, RecvPosting};
use crate::protocol::exec::{self, Conn, Then, Transfer};
use crate::protocol::plan::{eager_half, End};
use crate::request::{MpiError, Request};
use crate::world::MpiWorld;
use datatype::Signature;
use gpusim::GpuWorld as _;
use memsim::Ptr;
use netsim::send_am;
use simcore::trace::names;
use simcore::{Sim, SpanId, Track};

use super::Side;

/// Run the half of an `n`-byte message between `typed`'s buffer and the
/// bounce buffer at `bounce` (held on `bounce_rank`'s behalf): a pack
/// for the sender's side, an unpack for the receiver's. `then` gets the
/// outcome.
fn run_half(
    sim: &mut Sim<MpiWorld>,
    end: End,
    typed: Side,
    (bounce_rank, bounce, n): (usize, Ptr, u64),
    then: impl FnOnce(&mut Sim<MpiWorld>, Result<u64, MpiError>) + 'static,
) {
    let bounce = Side {
        rank: bounce_rank,
        ty: sim.world.mpi.byte.clone(),
        count: n,
        buf: bounce,
    };
    let plan = eager_half(end, &typed, n);
    let (s, r) = match end {
        End::Send => (typed, bounce),
        End::Recv => (bounce, typed),
    };
    let t = Transfer {
        plan,
        s,
        r,
        span: SpanId::disabled(),
        done: Then(Some(then)),
    };
    exec::run(sim, t, Conn::None);
}

/// Start an eager send. `bytes` must be at or below the eager limit. A
/// user buffer that does not hold the typed span fails the send with
/// `MpiError::Mem` before anything is charged.
pub fn send(sim: &mut Sim<MpiWorld>, s: Side, to: usize, tag: u64, send_req: Request) {
    let n = s.total();
    if n > 0 {
        // Instances sit `extent` apart; the data of the first and the
        // last bound the bytes the pack reads.
        let last = i128::from(s.count - 1) * i128::from(s.ty.extent());
        let reach = u64::try_from(last + i128::from(s.ty.true_extent())).unwrap_or(u64::MAX);
        let first = s.buf.offset_by(s.ty.true_lb());
        if let Err(e) = sim.world.mem_ref().check_range(first, reach) {
            send_req.complete(sim, Err(MpiError::Mem(e.to_string())));
            return;
        }
    }
    let from = s.rank;
    let bounce = match sim.world.lease(from, memsim::MemSpace::Host, n) {
        Ok(p) => p,
        Err(e) => {
            send_req.complete(sim, Err(MpiError::Mem(e.to_string())));
            return;
        }
    };
    let sig = Signature::of(&s.ty, s.count);
    let span = sim.trace.span_begin(
        sim.now(),
        names::CAT_MPIRT,
        names::SPAN_EAGER,
        Track::Proto {
            from: from as u32,
            to: to as u32,
        },
    );
    // However the send fails, the bounce buffer goes back to the lease
    // and the span closes. The error is the root cause; returning a
    // block we leased cannot fail independently of it.
    let sreq = send_req.clone();
    let fail = move |sim: &mut Sim<MpiWorld>, e: MpiError| {
        let _ = sim.world.give_back(from, bounce, n);
        sim.trace.span_end(sim.now(), span);
        sreq.complete(sim, Err(e));
    };

    let after_pack = move |sim: &mut Sim<MpiWorld>, packed: Result<u64, MpiError>| {
        if let Err(e) = packed {
            return fail(sim, e);
        }
        let starter_sig = sig;
        let shipped = send_am(sim, from, to, n, move |sim| {
            // Arrived: try to match.
            let env = Envelope {
                src: from,
                dst: to,
                tag,
                bytes: n,
                starter: Box::new(move |sim, posting| {
                    deliver(sim, posting, from, bounce, n, starter_sig, span);
                }),
            };
            if let Some((posting, starter)) = sim.world.mpi.matcher.arrive(env) {
                starter(sim, posting);
            }
        });
        match shipped {
            Ok(()) => send_req.complete(sim, Ok(n)),
            Err(e) => fail(sim, MpiError::Net(e)),
        }
    };

    // A zero-byte message has nothing to pack.
    if n == 0 {
        sim.schedule_now(move |sim| after_pack(sim, Ok(0)));
    } else {
        run_half(sim, End::Send, s, (from, bounce, n), after_pack);
    }
}

/// Unpack a buffered eager message into the matched receive.
fn deliver(
    sim: &mut Sim<MpiWorld>,
    posting: RecvPosting,
    from: usize,
    bounce: Ptr,
    n: u64,
    sig: Signature,
    span: SpanId,
) {
    let req = posting.request.clone();
    let to = posting.rank;
    // However the delivery ends, the receive resolves, the bounce
    // buffer goes back to the sender's lease and the span closes.
    let finish = move |sim: &mut Sim<MpiWorld>, unpacked: Result<u64, MpiError>| {
        if unpacked.is_ok() {
            sim.trace
                .count(names::MPI_DELIVERED_BYTES, from as u32, to as u32, n);
        }
        let freed = sim.world.give_back(from, bounce, n);
        let freed = freed.map_err(|e| MpiError::Mem(e.to_string()));
        req.complete(sim, unpacked.and(freed).map(|_| n));
        sim.trace.span_end(sim.now(), span);
    };
    if let Err(e) = posting.signature().check_recv(&sig) {
        return finish(sim, Err(MpiError::Type(e)));
    }
    if n == 0 {
        return finish(sim, Ok(0));
    }
    let side = Side {
        rank: posting.rank,
        ty: posting.ty,
        count: posting.count,
        buf: posting.buf,
    };
    // The message may be shorter than the posted receive: the half
    // unpacks exactly the incoming `n` bytes.
    run_half(sim, End::Recv, side, (from, bounce, n), finish);
}
