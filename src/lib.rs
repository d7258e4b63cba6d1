//! `gpu-ddt` — facade crate for the HPDC'16 *GPU-Aware Non-contiguous
//! Data Movement In Open MPI* reproduction.
//!
//! The workspace is organized as one crate per subsystem (see DESIGN.md);
//! this crate re-exports them under stable names so examples, integration
//! tests and downstream users can depend on a single entry point:
//!
//! * [`simcore`] — discrete-event simulation kernel (virtual time).
//! * [`memsim`] — simulated host/device memory spaces.
//! * [`gpusim`] — CUDA-like GPU runtime (streams, kernels, memcpy, IPC).
//! * [`datatype`] — the MPI derived-datatype engine (CPU side).
//! * [`devengine`] — the paper's GPU datatype engine (DEV methodology).
//! * [`netsim`] — PCIe/InfiniBand/shared-memory interconnect models.
//! * [`mpirt`] — the Open MPI-like PML/BML/BTL runtime with the paper's
//!   pipelined RDMA and copy-in/out protocols, and the paper's two
//!   comparators (Wang- and Jenkins-style) as plans of the same executor.

pub use datatype;
pub use devengine;
pub use gpusim;
pub use memsim;
pub use mpirt;
pub use netsim;
pub use simcore;

/// The handful of names almost every program starts from:
///
/// ```
/// use gpu_ddt::prelude::*;
///
/// let mut sess = Session::builder().two_ranks_two_gpus().build();
/// # let _ = &mut sess;
/// ```
pub mod prelude {
    pub use datatype::DataType;
    pub use gpusim::GpuArch;
    pub use memsim::Ptr;
    pub use mpirt::{irecv, isend, ping_pong, wait_all, PingPongSpec, RecvArgs, SendArgs, Session};
    pub use simcore::{Counter, Metrics, SimTime, Tracer};
}
