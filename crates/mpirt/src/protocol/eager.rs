//! The eager protocol for small messages.
//!
//! The sender packs into a transient host bounce buffer and ships the
//! bytes with the first (and only) active message; the send completes
//! as soon as the data is buffered. The receiver unpacks at match time
//! — possibly much later, from the unexpected queue.

use crate::matcher::{Envelope, RecvPosting};
use crate::request::{MpiError, Request};
use crate::world::MpiWorld;
use datatype::Signature;
use devengine::{pack_async, Direction};
use gpusim::GpuWorld as _;
use memsim::Ptr;
use netsim::send_am;
use simcore::trace::names;
use simcore::{Sim, SpanId, Track};
use std::rc::Rc;

use super::{make_engine, Side};

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
    let bounce = match sim.world.mem().alloc(memsim::MemSpace::Host, n.max(1)) {
        Ok(p) => p,
        Err(e) => {
            send_req.complete(sim, Err(MpiError::Mem(e.to_string())));
            return;
        }
    };
    let sig = Signature::of(&s.ty, s.count);
    let from = s.rank;
    let span = sim.trace.span_begin(
        sim.now(),
        names::CAT_MPIRT,
        names::SPAN_EAGER,
        Track::Proto {
            from: from as u32,
            to: to as u32,
        },
    );
    // However the send fails, the bounce buffer is released and the
    // span closes. The error is the root cause; releasing a pointer we
    // allocated cannot fail independently of it.
    let sreq = send_req.clone();
    let fail = move |sim: &mut Sim<MpiWorld>, e: MpiError| {
        let _ = sim.world.mem().free(bounce);
        sim.trace.span_end(sim.now(), span);
        sreq.complete(sim, Err(e));
    };

    let after_pack = move |sim: &mut Sim<MpiWorld>, packed: Result<(), MpiError>| {
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

    // Pack into the bounce buffer.
    if n == 0 {
        sim.schedule_now(move |sim| after_pack(sim, Ok(())));
    } else if s.device() {
        let (stream, cache) = {
            let r = sim.world.rank(s.rank);
            (r.kernel_stream, Rc::clone(&r.dev_cache))
        };
        let cfg = sim.world.mpi.config.engine.clone();
        pack_async(
            sim,
            s.rank,
            stream,
            &s.ty,
            s.count,
            s.buf,
            bounce,
            cfg,
            Some(&cache),
            move |sim, _| after_pack(sim, Ok(())),
        );
    } else {
        match make_engine(sim, &s, Direction::Pack) {
            Ok(mut eng) => eng.process_fragment(sim, bounce, n, after_pack),
            Err(e) => after_pack(sim, Err(e)),
        }
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
    // buffer is released and the span closes.
    let finish = move |sim: &mut Sim<MpiWorld>, unpacked: Result<(), MpiError>| {
        if unpacked.is_ok() {
            sim.trace
                .count(names::MPI_DELIVERED_BYTES, from as u32, to as u32, n);
        }
        let freed = sim.world.mem().free(bounce);
        let freed = freed.map_err(|e| MpiError::Mem(e.to_string()));
        req.complete(sim, unpacked.and(freed).map(|_| n));
        sim.trace.span_end(sim.now(), span);
    };
    if let Err(e) = posting.signature().check_recv(&sig) {
        return finish(sim, Err(MpiError::Type(e)));
    }
    if n == 0 {
        return finish(sim, Ok(()));
    }
    let side = Side {
        rank: posting.rank,
        ty: posting.ty,
        count: posting.count,
        buf: posting.buf,
    };
    // The message may be shorter than the posted receive; a single
    // capped fragment unpacks exactly the incoming prefix.
    match make_engine(sim, &side, Direction::Unpack) {
        Ok(mut eng) => eng.process_fragment(sim, bounce, n, finish),
        Err(e) => finish(sim, Err(e)),
    }
}
