//! Fat pointers into simulated memory.

use crate::space::MemSpace;
use std::fmt;

/// Identifier of one allocation within a pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AllocId(pub u64);

/// A pointer into a simulated memory space: which space, which
/// allocation, and a byte offset within it.
///
/// Unlike a raw address this survives simulation determinism (no ASLR)
/// and lets every access be bounds-checked against its allocation — the
/// simulated analogue of running the whole stack under compute-sanitizer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ptr {
    pub space: MemSpace,
    pub alloc: AllocId,
    pub offset: u64,
}

impl Ptr {
    /// The start of an allocation in `space`, for a price: a price reads
    /// a pointer's space and offset, never which allocation it names.
    pub const fn start_of(space: MemSpace) -> Ptr {
        Ptr {
            space,
            alloc: AllocId(0),
            offset: 0,
        }
    }

    /// Pointer displaced `bytes` forward.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // deliberate pointer-arithmetic name, like `ptr::add`
    pub fn add(self, bytes: u64) -> Ptr {
        Ptr {
            offset: self.offset + bytes,
            ..self
        }
    }

    /// Pointer displaced by a possibly negative byte count (MPI datatype
    /// lower bounds can be negative relative to the buffer argument).
    #[must_use]
    pub fn offset_by(self, bytes: i64) -> Ptr {
        let off = self.offset as i64 + bytes;
        debug_assert!(off >= 0, "pointer underflow: {self} by {bytes}");
        Ptr {
            offset: off.max(0) as u64,
            ..self
        }
    }

    /// Byte distance to another pointer in the same allocation.
    pub fn distance_to(self, other: Ptr) -> Option<i64> {
        if self.space == other.space && self.alloc == other.alloc {
            Some(other.offset as i64 - self.offset as i64)
        } else {
            None
        }
    }

    /// Does this pointer refer to device memory?
    pub fn is_device(self) -> bool {
        self.space.is_device()
    }

    /// Alignment of the pointed-to address, assuming allocation bases are
    /// maximally aligned (they are: the pools align bases to 512 bytes in
    /// the model, matching `cudaMalloc` guarantees).
    pub fn alignment(self) -> u64 {
        if self.offset == 0 {
            512
        } else {
            1 << self.offset.trailing_zeros().min(9)
        }
    }
}

impl fmt::Display for Ptr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:a{}+{}", self.space, self.alloc.0, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GpuId;

    fn p(off: u64) -> Ptr {
        Ptr {
            space: MemSpace::Device(GpuId(0)),
            alloc: AllocId(3),
            offset: off,
        }
    }

    #[test]
    fn displacement() {
        assert_eq!(p(8).add(8).offset, 16);
        assert_eq!(p(16).offset_by(-8).offset, 8);
        assert_eq!(p(0).distance_to(p(48)), Some(48));
        assert_eq!(p(48).distance_to(p(0)), Some(-48));
    }

    #[test]
    fn distance_across_allocs_is_none() {
        let a = p(0);
        let mut b = p(0);
        b.alloc = AllocId(4);
        assert_eq!(a.distance_to(b), None);
    }

    #[test]
    fn alignment_model() {
        assert_eq!(p(0).alignment(), 512);
        assert_eq!(p(8).alignment(), 8);
        assert_eq!(p(12).alignment(), 4);
        assert_eq!(p(1).alignment(), 1);
        assert_eq!(p(1024).alignment(), 512);
    }
}
