//! A CUDA-like simulated GPU runtime.
//!
//! Every operation (kernel, memcpy, zero-copy access) has two halves.
//! Temporally, it is charged virtual time on a FIFO *stream* — with its
//! fault roll, span and counters — by one charging body
//! ([`charge_transfer_kernel`], [`charge_memcpy`], [`charge_memcpy_2d`])
//! issued through the retry driver [`fault::charge`]; functionally, the
//! bytes move between the host-backed buffers in [`memsim`] at the
//! completion instant — by [`memcpy`] / [`memcpy_2d`] themselves, or by
//! a caller that moves a staged pipeline's payload once (the transfer
//! executor, the DEV engine). The cost model is built on the same first-order
//! mechanics that shaped the paper's Figure 6–8 results:
//!
//! * global-memory access happens in 128-byte transactions issued per
//!   32-thread warp, 8 bytes per thread (one 256-byte warp chunk per
//!   iteration — exactly the access pattern of the paper's kernels);
//! * misaligned chunks touch an extra cache line, so packing a lower
//!   triangular matrix (whose columns start at arbitrary phases) costs
//!   ~1.5× the DRAM traffic of an aligned sub-matrix — that *is* the
//!   paper's 94%-vs-80% bandwidth gap, emerging mechanically;
//! * kernels additionally stream their CUDA-DEV descriptor array from
//!   global memory (32 bytes per work unit), which is what makes
//!   1-element-block datatypes (matrix transpose, Figure 12) expensive;
//! * `cudaMemcpy2D` falls off a bandwidth cliff when the row width is not
//!   a multiple of 64 bytes (Figure 8's published behaviour);
//! * PCIe transfers, kernel launches and memcpy calls pay fixed
//!   latencies, and SM occupancy can be throttled (the paper's "minimal
//!   GPU resources" experiment) or derated by a co-running application.

// Panic freedom (DESIGN.md §11): a simulated GPU surfaces typed errors.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod arch;
pub mod copy;
pub mod fault;
pub mod kernel;
pub mod spec;
pub mod stream_trigger;
pub mod system;

pub use arch::GpuArch;
pub use copy::{
    charge_memcpy, charge_memcpy_2d, copy_time, memcpy, memcpy_2d, memcpy_2d_time, Copy2d,
    CopyDirection,
};
pub use fault::{count_retry, fault_roll, fault_scaled, FifoResource, Rolled};
pub use kernel::{charge_transfer_kernel, kernel_time, KernelConfig, KernelTraffic};
pub use spec::{GpuSpec, Interconnect, NodeTopology, NotPowerOfTwo, Pow2};
pub use stream_trigger::{
    graph_kernel, graph_kernel_time, replay_issue, replay_time, GraphCapture, StreamGraph,
};
pub use system::{ipc_open, GpuState, GpuSystem, GpuWorld, NodeWorld, StreamId};
