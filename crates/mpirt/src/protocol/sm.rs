//! The pipelined RDMA protocol over CUDA IPC (§4.1, Figure 4).
//!
//! Same-node GPU↔GPU transfers. The sender packs fragments into a ring
//! of reusable GPU buffers exposed to the receiver through a one-time
//! IPC mapping; active messages carry "unpack fragment i" requests one
//! way and "fragment i is free" acknowledgements the other, so the
//! sender packs fragment `i+1` while the receiver unpacks fragment `i`.
//!
//! The rendezvous handshake short-circuits the conversion stages:
//!
//! * sender contiguous → the receiver unpacks straight out of the
//!   sender's (mapped) user buffer, no pack at all;
//! * receiver contiguous → the sender's pack kernels scatter directly
//!   into the receiver's (mapped) user buffer, no unpack at all;
//! * both contiguous → a bulk peer-to-peer copy.
//!
//! Which stages each shape has is [`plan_for`](crate::protocol::plan::plan_for)'s decision and running
//! them the executor's; this module owns the IPC handshake — mapping a
//! dense side's user buffer, opening the sender's fragment ring — and the
//! renegotiation when that handshake loses the IPC capability. A
//! transfer that finds either handshake in flight waits for its outcome
//! and is dispatched afresh.

use crate::connection::{in_flight, open_peer_buffer, sm_connection, wait, Handshake};
use crate::protocol::exec::{self, Conn, Requests, Transfer};
use crate::protocol::{copyio, dispatch, Side};
use crate::tuner::PathClass;
use crate::world::MpiWorld;
use memsim::Ptr;
use simcore::Sim;

/// Path renegotiation: the IPC mapping was lost mid-handshake, so replay
/// the same transfer over the copy-in/copy-out plan. Connection
/// establishment precedes all data motion, so nothing has moved yet and
/// the sides and requests replay verbatim; on a lost capability the
/// handshake driver already metered the demotion and took IPC away,
/// steering every *later* transfer straight to copy-in/out.
fn renegotiate(sim: &mut Sim<MpiWorld>, t: Transfer) {
    sim.trace.span_end(sim.now(), t.span);
    copyio::start(sim, t.s, t.r, t.done);
}

pub(crate) fn start(sim: &mut Sim<MpiWorld>, s: Side, r: Side, done: Requests) {
    // A dense side's user buffer is read (sender) or written (receiver)
    // in place by the peer, which must map it over IPC first.
    let window = if s.dense() {
        Some((r.rank, s.data_ptr()))
    } else if r.dense() {
        Some((s.rank, r.data_ptr()))
    } else {
        None
    };
    // Two dense sides need the mapping only; every other shape pipelines
    // through the pair's rings.
    let handshakes = [
        window.map(|(importer, buf)| Handshake::PeerBuffer(importer, Ptr { offset: 0, ..buf })),
        (!(s.dense() && r.dense())).then_some(Handshake::Sm(s.rank, r.rank)),
    ];
    if let Some(key) = in_flight(sim, handshakes.into_iter().flatten()) {
        return wait(sim, key, move |sim, _| dispatch(sim, s, r, done));
    }
    let (pair, total) = ((s.rank, r.rank), s.total());
    let t = exec::open(sim, s, r, PathClass::SmIpc, done);
    match window {
        Some((importer, buf)) => {
            open_peer_buffer(sim, pair, importer, buf, total, move |sim, res| match res {
                Ok(()) => connect(sim, t),
                Err(_) => renegotiate(sim, t),
            })
        }
        None => connect(sim, t),
    }
}

/// Establish (or reuse) the SM connection when the plan pipelines, then
/// run the plan.
fn connect(sim: &mut Sim<MpiWorld>, t: Transfer) {
    if !t.plan.ring {
        return exec::run(sim, t, Conn::None);
    }
    sm_connection(sim, t.s.rank, t.r.rank, move |sim, conn| match conn {
        Ok(()) => exec::run(sim, t, Conn::Rings),
        Err(_) => renegotiate(sim, t),
    });
}
