//! The MPI derived-datatype (DDT) engine — CPU side.
//!
//! This is a from-scratch reimplementation of the datatype machinery the
//! paper builds on: the full set of MPI type combiners, the size /
//! extent / lower-bound algebra, type signatures for matching, and —
//! most importantly — Open MPI's *stack-based convertor*, which walks a
//! committed datatype as a stream of contiguous segments and supports
//! suspending/resuming at an arbitrary byte position (the mechanism that
//! makes fragment-by-fragment pipelined pack/unpack possible).
//!
//! Layering: this crate knows nothing about GPUs or virtual time. The
//! GPU engine (`devengine`) converts the same committed types into DEV
//! work-unit lists; `mpirt` uses the convertor both as the host-side
//! engine and as the correctness reference for every GPU path.

pub mod convertor;
pub mod error;
pub(crate) mod primitive;
pub mod segment;
pub mod signature;
pub mod testutil;
pub(crate) mod typ;

pub use convertor::{Convertor, PackKind};
pub use error::TypeError;
pub use primitive::Primitive;
pub use segment::Segment;
pub use signature::Signature;
/// The shape [`DataType::strided`] returns: defined by the copy
/// layer, which moves a window of it without listing its blocks.
pub use simcore::par::Strided2D;
pub use typ::DataType;
