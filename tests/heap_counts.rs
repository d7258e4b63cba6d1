//! Heap allocations of a steady eager message, counted by a global
//! allocator (ROADMAP item 2, the heap half).
//!
//! A device-strided eager send and its receive, once the session is
//! warm (connection, DEV cache, the sender's bounce lease), must make no
//! allocation as large as the message — the bounce comes from the
//! rank's lease, not a fresh zeroed block — and fewer heap allocations
//! than the same message made when each bounce was allocated and freed
//! (EXPERIMENTS.md, "Land bytes on the idle core"). This binary holds
//! one test, so nothing else allocates while it counts.

#![expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; it forwards every call to `System`"
)]

use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::MemSpace;
use mpirt::{irecv, isend, wait_all, MpiConfig, MpiWorld, RecvArgs, SendArgs};
use simcore::Sim;
use std::alloc::{GlobalAlloc, Layout, System};
#[expect(
    clippy::disallowed_types,
    reason = "the allocator's counters are process-global by nature; only this test reads them"
)]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Heap allocations (and reallocations) the same warm message made
/// when every eager bounce was a fresh allocation.
const PARENT_ALLOCATIONS: usize = 22;

struct Counting;

#[expect(
    clippy::disallowed_types,
    reason = "the allocator's counters are process-global by nature; only this test reads them"
)]
static COUNTING: AtomicBool = AtomicBool::new(false);
#[expect(
    clippy::disallowed_types,
    reason = "the allocator's counters are process-global by nature; only this test reads them"
)]
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
#[expect(
    clippy::disallowed_types,
    reason = "the allocator's counters are process-global by nature; only this test reads them"
)]
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the trait's contract; counting touches only atomics and allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_steady_eager_message_allocates_nothing_its_size() {
    // `a2a_64`'s block: 64 × 256 B at a 512 B stride, 16 KiB, eager.
    let ty = DataType::hvector(64, 256, 512, &DataType::byte())
        .unwrap()
        .commit();
    let n = ty.size() as usize;
    let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
    let len = ty.extent() as u64;
    let bufs: Vec<_> = (0..2)
        .map(|rank| {
            let space = MemSpace::Device(sim.world.mpi.ranks[rank].gpu);
            let buf = sim.world.mem().alloc(space, len).unwrap();
            sim.world
                .mem()
                .write(buf, &vec![rank as u8 + 1; len as usize])
                .unwrap();
            buf
        })
        .collect();
    let message = |sim: &mut Sim<MpiWorld>| {
        let s = isend(sim, SendArgs::new(0, 1, bufs[0], &ty, 1));
        let r = irecv(sim, RecvArgs::new(1, 0, bufs[1], &ty, 1));
        wait_all(sim, &[s, r]).unwrap();
    };
    for _ in 0..8 {
        message(&mut sim);
    }
    COUNTING.store(true, Ordering::Relaxed);
    message(&mut sim);
    COUNTING.store(false, Ordering::Relaxed);
    let (allocations, largest) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    );
    eprintln!("a warm {n}-byte eager message: {allocations} allocations, largest {largest} B");
    assert!(
        largest < n,
        "an allocation of {largest} B for a {n}-byte message"
    );
    assert!(
        allocations < PARENT_ALLOCATIONS,
        "{allocations} allocations, {PARENT_ALLOCATIONS} with a fresh bounce per message"
    );
    let got = sim.world.mem().read_vec(bufs[1], len).unwrap();
    let row = |r: &[u8]| r[..256] == [1; 256] && r[256..].iter().all(|&b| b == 2);
    assert!(got.chunks(512).all(row), "received bytes");
}
