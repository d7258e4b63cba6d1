//! The pipelined copy-in/copy-out protocol (§4.2).
//!
//! Used whenever GPU RDMA is unavailable: across nodes (InfiniBand), for
//! host-resident data, or when IPC is administratively disabled. Data
//! flows
//!
//! ```text
//!   sender typed buffer ──pack──▶ host fragment ──wire──▶ host fragment ──unpack──▶ receiver typed buffer
//! ```
//!
//! fully pipelined over a ring of `pipeline_depth` fragments. With
//! `zero_copy` the pack/unpack kernels read/write the pinned host
//! fragments directly (the device↔host hop rides inside the kernel and
//! overlaps with it); otherwise explicit `cudaMemcpy` staging hops are
//! inserted on the copy stream. Dense sides skip their conversion stage
//! entirely.
//!
//! Those variants are [`plan_for`]'s to enumerate and the executor's
//! to run; this module runs the copy-in/out handshake. It is also
//! what every demotion lands on: SmIpc renegotiation and both offload
//! classes substitute this protocol's plan.

use crate::connection::{ib_connection, in_flight, wait, Handshake};
use crate::protocol::exec::{self, Conn, Requests};
use crate::protocol::plan::{plan_for, Facts};
use crate::protocol::{dispatch, Side};
use crate::world::MpiWorld;
use simcore::Sim;

pub(crate) fn start(sim: &mut Sim<MpiWorld>, s: Side, r: Side, done: Requests) {
    // A transfer never runs past the pair's handshake: with one in
    // flight it waits for the outcome and is dispatched afresh.
    if let Some(key) = in_flight(sim, [Handshake::CopyInOut(s.rank, r.rank)]) {
        return wait(sim, key, move |sim, _| dispatch(sim, s, r, done));
    }
    let class = Facts::of(sim, s.rank, r.rank).copy_class();
    let t = exec::open(sim, s, r, class, done);
    ib_connection(sim, t.s.rank, t.r.rank, move |sim, conn| {
        let mut t = t;
        if let Err(e) = conn {
            return t.fail(sim, e);
        }
        // Zero copy needs both the configured knob and the runtime
        // capability; mapping the pinned rings may just have lost the
        // latter, which demotes this very transfer to staged copies.
        let facts = Facts::of(sim, t.s.rank, t.r.rank);
        if facts.copy_class() != t.plan.class {
            t.plan = plan_for(&facts, &t.s, &t.r, facts.copy_class());
        }
        exec::run(sim, t, Conn::Rings);
    });
}
