//! An Open MPI-like point-to-point runtime with the paper's GPU-aware
//! datatype protocols.
//!
//! Layering follows §4 of the paper:
//!
//! * **PML** ([`api`] + [`matcher`]) — MPI matching, eager vs rendezvous
//!   selection, request completion.
//! * **BML / BTL** — transport selection by channel kind: the `smcuda`
//!   BTL ([`protocol::sm`]) uses CUDA IPC + the paper's **pipelined RDMA
//!   protocol** (Figure 4); the `openib` BTL ([`protocol::copyio`]) uses the
//!   **copy-in/copy-out protocol** through pinned host fragment rings,
//!   optionally with zero-copy. Both — and the two offload classes in
//!   [`protocol::offload`], and the paper's two comparators in
//!   [`protocol::comparator`] — are [`protocol::plan::TransferPlan`]s:
//!   one stage list per transfer that the single executor in
//!   `protocol::exec` runs and [`tuner`] prices.
//! * The **GPU datatype engine** (`devengine::FragmentEngine`) packs and
//!   unpacks device data; the **CPU convertor** (`devengine::cpupack`)
//!   host data. Contiguous datatypes short-circuit the pack and/or unpack
//!   stages after the rendezvous handshake, exactly as in §4.1.

pub mod api;
pub mod coll;
pub mod config;
pub mod connection;
pub mod lease;
pub mod matcher;
pub mod protocol;
pub mod request;
pub mod scale;
pub mod schedule;
pub mod session;
pub mod shape;
pub mod tuner;
pub mod world;

pub use api::{
    irecv, isend, mean_round_trip, ping_pong, wait_all, PingPongSpec, RecvArgs, SendArgs,
};
pub use coll::{allgather, alltoall, barrier, bcast};
pub use config::MpiConfig;
pub use protocol::comparator::comparator_transfer;
pub use protocol::plan::Comparator;
pub use protocol::Side;
pub use request::{join, MpiError, Request};
pub use session::{Session, SessionBuilder};
pub use world::{MpiWorld, RankSpec};
