//! Simulated memory spaces.
//!
//! The paper moves bytes between **host memory** and one or more **GPU
//! device memories**, across process boundaries via CUDA IPC / GPUDirect.
//! In this reproduction every space is backed by real host memory behind a
//! slab allocator, and a [`Ptr`] carries *which* space it points into —
//! so the runtime can implement the paper's "is this buffer on a GPU?"
//! detection (`cuPointerGetAttribute` in real CUDA) exactly, and the
//! simulated DMA engines can really move the bytes while the cost models
//! charge virtual time.
//!
//! The crate is purely functional (no virtual time); timing lives in
//! `gpusim` and `netsim`.

pub mod error;
pub mod pool;
pub mod ptr;
pub mod registry;
pub mod shelf;
pub mod space;

pub use error::MemError;
pub use pool::{MemPool, Memory, Move};
pub use ptr::{AllocId, Ptr};
pub use registry::{IpcHandle, Registration, RegistrationTable};
pub use space::{GpuId, MemSpace};
