//! The GPU datatype engine — the paper's primary contribution.
//!
//! Pack/unpack of non-contiguous GPU-resident data is split into two
//! stages exactly as in §3 of the paper:
//!
//! 1. **CPU stage** — the host walks the stack-based datatype and emits
//!    *Datatype Engine Vectors* (DEVs): `<source displacement, length,
//!    destination displacement>` tuples. Each DEV is then divided into
//!    equal-size *CUDA DEVs* (work units of S ∈ {1 KB, 2 KB, 4 KB},
//!    a multiple of 8 bytes × the 32-thread warp size) so every warp
//!    gets a balanced share.
//! 2. **GPU stage** — a single kernel grid-strides over the CUDA-DEV
//!    array and copies each unit (the general kernel), or computes the
//!    offsets arithmetically for vector-shaped types (the specialized
//!    vector kernel, which needs no descriptor array at all).
//!
//! The CPU stage is **pipelined** with kernel execution (convert a part,
//! launch, keep converting), and because the CUDA-DEV list depends only
//! on the datatype — not the buffer addresses — it is **cached** and
//! reused across messages ([`DevCache`]).
//!
//! Host-resident data takes the CPU convertor ([`cpupack`]) over the
//! same DEV walk. DEV programs are walked only in this crate: its cursor
//! is crate-private, and every other crate takes a whole-message walk
//! ([`whole_units`], [`flip_units`]) or an engine.

pub mod cache;
pub mod config;
pub mod cpupack;
pub mod dev;
pub mod engine;
pub mod tune;

pub use cache::{DevCache, LayoutKey, Lru, PlanKey};
pub use config::{EngineConfig, OptimizerConfig};
pub use dev::{
    build_plan, build_plan_opt, flip_units, flip_units_in_place, merge_units, runs, whole_units,
    DevPlan, MergeError, SliceParts,
};
pub use engine::{
    listed_window, pack_async, prep_time, unpack_async, window_traffic, Direction, FragmentEngine,
};
