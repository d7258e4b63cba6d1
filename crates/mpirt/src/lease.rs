//! Transient buffers leased from the rank.
//!
//! An eager bounce, a barrier's scratch and a comparator's staging live
//! for one message (or one barrier) each. Allocating and freeing one
//! per use zero-fills a fresh block every time, and the `free` would
//! wait for the copy lane, which may still be landing bytes into some
//! other buffer. So a rank keeps what it used: `MpiWorld::lease` hands
//! out an idle block of the request's size class — the power of two at
//! or above it — and `MpiWorld::give_back` returns it, the way Open
//! MPI's BTLs draw fragments from a free list registered once.
//!
//! A leased block is not re-zeroed: each user writes every byte it
//! reads first (a pack fills the `n` bytes its unpack reads; a
//! barrier's bytes carry no meaning). Leases are bounded per class: at
//! most `IDLE_BLOCKS` (64) idle blocks and `IDLE_BYTES` (64 MiB) of them; a block
//! returned past either bound is freed. An allocation that fails for
//! want of room frees every rank's idle blocks in that space and tries
//! once more.

use crate::world::MpiWorld;
use memsim::{MemError, MemSpace, Ptr};

/// Most idle blocks a class keeps: a rank of a 64-rank alltoall has 63
/// eager bounces out at once.
const IDLE_BLOCKS: usize = 64;

/// Most idle bytes a class keeps.
const IDLE_BYTES: u64 = 64 << 20;

/// Smallest size class.
const MIN_CLASS: u64 = 64;

/// The size class of a `len`-byte request.
fn class_of(len: u64) -> u64 {
    len.max(MIN_CLASS).next_power_of_two()
}

/// One rank's idle blocks, by memory space and size class.
#[derive(Debug, Default)]
pub struct Leases {
    classes: Vec<Class>,
}

#[derive(Debug)]
struct Class {
    space: MemSpace,
    size: u64,
    idle: Vec<Ptr>,
}

impl Leases {
    fn class(&mut self, space: MemSpace, size: u64) -> &mut Class {
        let at = self
            .classes
            .iter()
            .position(|c| c.space == space && c.size == size);
        let at = at.unwrap_or_else(|| {
            self.classes.push(Class {
                space,
                size,
                idle: Vec::new(),
            });
            self.classes.len() - 1
        });
        &mut self.classes[at]
    }

    /// Idle blocks, across classes.
    pub fn idle(&self) -> usize {
        self.classes.iter().map(|c| c.idle.len()).sum()
    }
}

impl MpiWorld {
    /// A block of at least `len` bytes in `space` on `rank`'s behalf: an
    /// idle one of its class, or a fresh one. Its bytes are whatever the
    /// last lease left there.
    pub(crate) fn lease(
        &mut self,
        rank: usize,
        space: MemSpace,
        len: u64,
    ) -> Result<Ptr, MemError> {
        let size = class_of(len);
        let leases = &mut self.mpi.ranks[rank].leases;
        if let Some(block) = leases.class(space, size).idle.pop() {
            return Ok(block);
        }
        match self.cluster.memory.alloc(space, size) {
            Err(MemError::OutOfMemory { .. }) => {
                self.free_idle(space)?;
                self.cluster.memory.alloc(space, size)
            }
            fresh => fresh,
        }
    }

    /// Return a block [`MpiWorld::lease`] gave out for a `len`-byte
    /// request on `rank`'s behalf. A class already at its bound frees
    /// it.
    pub(crate) fn give_back(&mut self, rank: usize, block: Ptr, len: u64) -> Result<(), MemError> {
        let size = class_of(len);
        let class = self.mpi.ranks[rank].leases.class(block.space, size);
        let held = class.idle.len() as u64 + 1;
        if held as usize <= IDLE_BLOCKS && held * size <= IDLE_BYTES {
            class.idle.push(block);
            return Ok(());
        }
        self.cluster.memory.free(block).map(|_| ())
    }

    /// Free every rank's idle blocks in `space`.
    fn free_idle(&mut self, space: MemSpace) -> Result<(), MemError> {
        let idle: Vec<Ptr> = (self.mpi.ranks.iter_mut())
            .flat_map(|r| r.leases.classes.iter_mut())
            .filter(|c| c.space == space)
            .flat_map(|c| c.idle.drain(..))
            .collect();
        idle.into_iter()
            .try_for_each(|b| self.cluster.memory.free(b).map(|_| ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use memsim::GpuId;

    #[test]
    fn a_lease_is_reused_by_class_and_bounded() {
        let mut w = MpiWorld::two_ranks_two_gpus(MpiConfig::default());
        let host = MemSpace::Host;
        let used = |w: &MpiWorld| w.cluster.memory.pool(host).used();
        assert_eq!((class_of(1), class_of(64), class_of(65)), (64, 64, 128));
        let a = w.lease(0, host, 100).unwrap();
        assert_eq!(used(&w), 128);
        w.give_back(0, a, 100).unwrap();
        // The same class, on the same rank: the same block.
        assert_eq!(w.lease(0, host, 128).unwrap(), a);
        w.give_back(0, a, 128).unwrap();
        // Another rank, space or class: another block.
        let b = w.lease(1, host, 100).unwrap();
        let c = w.lease(0, MemSpace::Device(GpuId(0)), 100).unwrap();
        let d = w.lease(0, host, 200).unwrap();
        assert!(a != b && a != d && c.space != host);
        // A class keeps at most `IDLE_BLOCKS` idle.
        let many: Vec<Ptr> = (0..IDLE_BLOCKS + 3)
            .map(|_| w.lease(0, host, 8).unwrap())
            .collect();
        let before = used(&w);
        for &p in &many {
            w.give_back(0, p, 8).unwrap();
        }
        assert_eq!(used(&w), before - 3 * MIN_CLASS);
        assert_eq!(w.mpi.ranks[0].leases.idle(), 1 + IDLE_BLOCKS);
    }

    /// A recycled bounce delivers only its own message: a short eager
    /// message sent after a long one leases the long one's block, whose
    /// every byte is poisoned first. Host and device ends, cold and warm:
    /// the oracle's bytes arrive, the receive buffer's gaps and tail stay
    /// untouched, and each half moves the message's bytes once.
    #[test]
    fn a_recycled_bounce_delivers_only_its_own_message() {
        use crate::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
        use datatype::convertor::{pack_all, unpack_all};
        use datatype::testutil::{buffer_span, pattern};
        use datatype::DataType;
        use gpusim::GpuWorld as _;
        use simcore::Sim;
        // 256-byte blocks 384 bytes apart: 120 of them (30 KiB) and 70
        // (17.5 KiB) are both in the 32 KiB class.
        let vector = |blocks| {
            DataType::vector(blocks, 256, 384, &DataType::byte())
                .unwrap()
                .commit()
        };
        let (long, short) = (vector(120), vector(70));
        assert_eq!(class_of(long.size()), class_of(short.size()));
        const GAP: u8 = 0xEE;
        for device in [false, true] {
            let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
            let space = |sim: &Sim<MpiWorld>, rank: usize| match device {
                true => MemSpace::Device(sim.world.mpi.ranks[rank].gpu),
                false => MemSpace::Host,
            };
            for round in ["cold", "warm"] {
                for ty in [&long, &short] {
                    let (base, len) = buffer_span(ty, 1);
                    let sent = pattern(len);
                    let (s_space, r_space) = (space(&sim, 0), space(&sim, 1));
                    let sbuf = sim.world.mem().alloc(s_space, len as u64).unwrap();
                    let rbuf = sim.world.mem().alloc(r_space, len as u64).unwrap();
                    sim.world.mem().write(sbuf, &sent).unwrap();
                    sim.world.mem().write(rbuf, &vec![GAP; len]).unwrap();
                    // Poison the bounce this message will lease.
                    let idle: Vec<Ptr> = sim.world.mpi.ranks[0]
                        .leases
                        .classes
                        .iter()
                        .flat_map(|c| c.idle.iter().copied())
                        .collect();
                    for &b in &idle {
                        let class = class_of(long.size());
                        sim.world
                            .mem()
                            .write(b, &vec![0xAB; class as usize])
                            .unwrap();
                    }
                    let (moved, delivered) = (
                        sim.world.mem().bytes_moved(),
                        sim.trace
                            .counter(simcore::trace::names::MPI_DELIVERED_BYTES),
                    );
                    let at = |p: Ptr| p.add(base as u64);
                    let s = isend(&mut sim, SendArgs::new(0, 1, at(sbuf), ty, 1));
                    let r = irecv(&mut sim, RecvArgs::new(1, 0, at(rbuf), ty, 1));
                    wait_all(&mut sim, &[s, r]).unwrap();
                    let note = format!("device {device}, {round}, {} B", ty.size());
                    let mut want = vec![GAP; len];
                    unpack_all(ty, 1, &mut want, base, &pack_all(ty, 1, &sent, base));
                    let got = sim.world.mem().read_vec(rbuf, len as u64).unwrap();
                    assert!(got == want, "{note}: bytes");
                    let n = ty.size();
                    let delivered = sim
                        .trace
                        .counter(simcore::trace::names::MPI_DELIVERED_BYTES)
                        - delivered;
                    assert_eq!(delivered, n, "{note}");
                    assert_eq!(
                        sim.world.mem().bytes_moved() - moved,
                        2 * n,
                        "{note}: pack and unpack, once each"
                    );
                    // The one bounce went back where it came from.
                    let leases = &sim.world.mpi.ranks[0].leases;
                    assert_eq!(leases.idle(), 1, "{note}");
                    if !idle.is_empty() {
                        assert_eq!(leases.classes[0].idle, idle, "{note}: another block");
                    }
                }
            }
        }
    }

    #[test]
    fn a_full_space_frees_the_idle_blocks_and_retries() {
        let mut w = MpiWorld::two_ranks_two_gpus(MpiConfig::default());
        let gpu = MemSpace::Device(GpuId(1));
        let room = w.cluster.memory.pool(gpu).capacity();
        let idle = w.lease(0, gpu, room / 2).unwrap();
        w.give_back(0, idle, room / 2).unwrap();
        // Half the space is idle on rank 0's lease: rank 1 still gets
        // the whole class it asks for.
        let big = w.lease(1, gpu, room / 2 + 1).unwrap();
        assert_eq!(w.cluster.memory.pool(gpu).used(), class_of(room / 2 + 1));
        assert_eq!(w.mpi.ranks[0].leases.idle(), 0);
        assert!(big.space == gpu);
    }
}
