//! Interconnect simulation: the wires between MPI processes.
//!
//! Two channel kinds cover the paper's evaluation environments:
//!
//! * **Shared memory** (same node) — control messages ride a low-latency
//!   in-node queue; bulk data moves GPU-to-GPU over PCIe via CUDA IPC
//!   (which is `gpusim`'s job, not ours — the BTL calls both).
//! * **InfiniBand FDR** (across nodes) — control and data ride the HCA
//!   links (~6 GB/s, ~1.3 µs); bulk GPU data stages through pinned host
//!   memory, as the paper does for large messages.
//!
//! On top of the links sit **Active Messages** (each message carries the
//! reference of a receiver-side callback, exactly the BTL mechanism in
//! §4.1), the staged **wire hop** of the copy-in/copy-out pipeline, and
//! **RDMA registration** with a one-time cost and a registration cache —
//! the cost structure that motivates the paper's single-connection
//! pipelined protocol. Each is one fallible charge through
//! `gpusim::fault::charge`. The **NIC DEV executor** ([`nic`]) charges
//! a gather/scatter program given as its descriptor and byte counts:
//! this crate knows no datatype — the runtime compiles the program.

// Panic freedom (DESIGN.md §11): the interconnect surfaces typed errors.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod am;
pub mod channel;
pub mod nic;
pub mod rdma;
pub mod topology;
pub mod wire;
pub mod world;

pub use am::{am_time, send_am};
pub use channel::{Channel, ChannelKind, Link, NetError, NetSystem};
pub use nic::{execute_program, NicCosts};
pub use rdma::ensure_registered;
pub use topology::Topology;
pub use wire::wire_send;
pub use world::{ClusterWorld, NetWorld};
