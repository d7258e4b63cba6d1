//! Slab allocators backing the simulated memory spaces, and the one
//! byte mover: [`Memory::transfer_batch`] writes every simulated byte
//! that moves, whatever the spaces, the segment shape or the caller
//! (`cudaMemcpy`, a pack or unpack kernel, a landed fragment, a NIC
//! program, a collective's self-copy).

#![expect(
    unsafe_code,
    reason = "a move between two allocations of one table splits the borrow through \
              a raw pointer, and a queued landing holds both buffers by raw pointer; \
              each block states its SAFETY argument"
)]

use crate::error::MemError;
use crate::ptr::{AllocId, Ptr};
use crate::registry::RegistrationTable;
use crate::shelf;
use crate::space::{GpuId, MemSpace};
use simcore::hash::DetHashMap;
use simcore::par::{par_transfer_batch, strided_units, CopyOp, Lane, OpList, SegList, Segs};
use std::cell::OnceCell;

/// One allocation: its length, and its bytes from the first access on.
/// An allocation is all zeroes until something writes it, so the zeroed
/// backing is made when a byte is first borrowed — a ring slot that is
/// only ever resolved, registered and charged never costs host memory.
/// The backing is a block from [`shelf`], possibly longer than `len`,
/// whose first byte is a host cache line's, and goes back there when
/// the allocation is dropped.
struct Backing {
    len: u64,
    /// End of the furthest byte a mutable borrow has reached: the block
    /// is still zero from here on, so reusing it re-zeroes only below.
    dirty: u64,
    block: OnceCell<shelf::Block>,
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        let block = self.block.get_or_init(|| shelf::take(self.len as usize));
        &block.bytes()[..self.len as usize]
    }

    /// The bytes, mutably, with everything below `end` counted as
    /// written.
    fn bytes_mut(&mut self, end: u64) -> &mut [u8] {
        let len = self.len as usize;
        &mut self.block_mut(end).bytes_mut()[..len]
    }

    /// The block, backed now, with everything below `end` counted as
    /// written.
    fn block_mut(&mut self, end: u64) -> &mut shelf::Block {
        self.dirty = self.dirty.max(end.min(self.len));
        let len = self.len as usize;
        self.block.get_or_init(|| shelf::take(len));
        self.block.get_mut().expect("backed above")
    }

    /// The first byte, backed now, for a queued landing to read: no
    /// reference is made to the bytes.
    fn read_ptr(&self) -> *const u8 {
        self.block
            .get_or_init(|| shelf::take(self.len as usize))
            .as_ptr()
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            shelf::put(block, self.dirty as usize);
        }
    }
}

/// All allocations living in one memory space.
pub struct MemPool {
    space: MemSpace,
    capacity: u64,
    used: u64,
    peak: u64,
    next_id: u64,
    allocs: DetHashMap<AllocId, Backing>,
}

impl MemPool {
    /// Create a pool with a capacity limit (a K40 has 12 GB; the host is
    /// effectively unlimited but still bounded to catch leaks in tests).
    pub fn new(space: MemSpace, capacity: u64) -> Self {
        MemPool {
            space,
            capacity,
            used: 0,
            peak: 0,
            next_id: 0,
            allocs: DetHashMap::default(),
        }
    }

    pub fn space(&self) -> MemSpace {
        self.space
    }

    /// Allocate `len` zero-initialized bytes. Only the length is
    /// recorded (and counted against the capacity); the bytes are
    /// backed at their first access.
    pub fn alloc(&mut self, len: u64) -> Result<Ptr, MemError> {
        if self.used + len > self.capacity {
            return Err(MemError::OutOfMemory {
                space: self.space,
                requested: len,
            });
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        let backing = Backing {
            len,
            dirty: 0,
            block: OnceCell::new(),
        };
        self.allocs.insert(id, backing);
        self.used += len;
        self.peak = self.peak.max(self.used);
        Ok(Ptr {
            space: self.space,
            alloc: id,
            offset: 0,
        })
    }

    /// Release an allocation; `ptr` must point at its base (offset 0),
    /// matching `cudaFree` semantics. Returns the freed size.
    pub fn free(&mut self, ptr: Ptr) -> Result<u64, MemError> {
        self.check_space(ptr)?;
        if ptr.offset != 0 {
            return Err(MemError::InvalidPointer(ptr));
        }
        match self.allocs.remove(&ptr.alloc) {
            Some(freed) => {
                self.used -= freed.len;
                Ok(freed.len)
            }
            None => Err(MemError::InvalidPointer(ptr)),
        }
    }

    /// Size of the allocation behind `ptr`.
    pub(crate) fn alloc_len(&self, ptr: Ptr) -> Result<u64, MemError> {
        self.check_space(ptr)?;
        self.allocs
            .get(&ptr.alloc)
            .map(|b| b.len)
            .ok_or(MemError::InvalidPointer(ptr))
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of allocated bytes (the paper argues its approach
    /// needs only a small pipeline buffer instead of a full-size staging
    /// copy; tests assert that through this counter).
    pub fn peak(&self) -> u64 {
        self.peak
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check_space(&self, ptr: Ptr) -> Result<(), MemError> {
        if ptr.space != self.space {
            return Err(MemError::WrongSpace {
                ptr,
                expected: self.space,
            });
        }
        Ok(())
    }

    fn check_range(&self, ptr: Ptr, len: u64) -> Result<(), MemError> {
        let alloc_len = self.alloc_len(ptr)?;
        if (ptr.offset.checked_add(len)).is_none_or(|end| end > alloc_len) {
            return Err(MemError::OutOfBounds {
                ptr,
                len,
                alloc_len,
            });
        }
        Ok(())
    }

    /// Borrow `len` bytes starting at `ptr`.
    pub fn slice(&self, ptr: Ptr, len: u64) -> Result<&[u8], MemError> {
        self.check_range(ptr, len)?;
        let data = self.allocs[&ptr.alloc].bytes();
        Ok(&data[ptr.offset as usize..(ptr.offset + len) as usize])
    }

    /// Borrow `len` bytes mutably starting at `ptr`.
    pub fn slice_mut(&mut self, ptr: Ptr, len: u64) -> Result<&mut [u8], MemError> {
        self.check_range(ptr, len)?;
        let data = self.allocs.get_mut(&ptr.alloc).expect("checked above");
        let end = ptr.offset + len;
        Ok(&mut data.bytes_mut(end)[ptr.offset as usize..end as usize])
    }

    /// Copy from a user slice into the pool.
    pub fn write(&mut self, ptr: Ptr, bytes: &[u8]) -> Result<(), MemError> {
        self.slice_mut(ptr, bytes.len() as u64)?
            .copy_from_slice(bytes);
        Ok(())
    }

    /// Copy out of the pool into a fresh `Vec`.
    pub fn read_vec(&self, ptr: Ptr, len: u64) -> Result<Vec<u8>, MemError> {
        Ok(self.slice(ptr, len)?.to_vec())
    }

    /// Range-checked segment moves whose source and destination share
    /// this pool's allocation `src.alloc` (a self-send inside one
    /// buffer): gather every source segment into a scratch copy first,
    /// then scatter, so a destination segment that overlaps a later
    /// op's source cannot clobber it — what the fragment ring used to
    /// provide for such a transfer. A strided window is listed first.
    fn transfer_within(&mut self, src: Ptr, dst: Ptr, segs: Segs<'_>) -> Result<(), MemError> {
        let mut listed = Vec::new();
        let ops = match segs {
            Segs::List(l) => l.ops(),
            Segs::Shared(l) => l.ops(),
            Segs::Strided(w) => {
                strided_units(&w, &mut listed);
                &listed
            }
        };
        let backing = (self.allocs.get_mut(&src.alloc)).ok_or(MemError::InvalidPointer(src))?;
        // Only slice indexing bounds the scatter below: the whole
        // allocation counts as written.
        let data = backing.bytes_mut(backing.len);
        let (s0, d0) = (src.offset as usize, dst.offset as usize);
        let mut scratch = Vec::with_capacity(segs.bytes() as usize);
        for o in ops {
            scratch.extend_from_slice(&data[s0 + o.src_off..s0 + o.src_off + o.len]);
        }
        let mut at = 0;
        for o in ops {
            data[d0 + o.dst_off..d0 + o.dst_off + o.len].copy_from_slice(&scratch[at..at + o.len]);
            at += o.len;
        }
        Ok(())
    }
}

/// One entry of [`Memory::transfer_batch`]: segments between two base
/// pointers — listed, or a strided window — whose reach is what they
/// need of them.
#[derive(Clone, Copy, Debug)]
pub struct Move<'a> {
    pub src: Ptr,
    pub dst: Ptr,
    pub segs: Segs<'a>,
    /// Land whole destination cache lines with streaming stores
    /// ([`SegList::stream`]): for a destination nothing reads back soon.
    /// Every backing starts on a cache line, so a simulated 64-byte
    /// boundary is a host one.
    pub stream: bool,
}

impl<'a> Move<'a> {
    /// The entry as the copy layer takes it: offsets relative to the two
    /// allocations' first bytes, windows as wide as the reach.
    fn seg_list(&self) -> SegList<'a> {
        let reach = self.segs.reach();
        SegList {
            src_at: self.src.offset as usize,
            src_len: reach.src_need as usize,
            dst_at: self.dst.offset as usize,
            dst_len: reach.dst_need as usize,
            segs: self.segs,
            stream: self.stream,
        }
    }
}

/// The full memory system of a simulated node: host memory plus one pool
/// per GPU, and the registration table used by IPC/RDMA/zero-copy.
///
/// **Byte movement.** [`Memory::transfer_batch`] checks and accounts a
/// move at the landing instant; a batch that one copy lane moves goes
/// onto the FIFO [`Lane`] and lands on the copy pool's worker while the
/// simulation goes on. The wait rule keeps every reader sequential:
/// every byte access that does not go through the lane — `slice`,
/// `slice_mut`, `write`, `read_vec`, `pool`, `pool_mut`, `free`, a
/// batch moved on this thread, and the drop — first waits for the lane
/// to drain. A queued landing trails its caller by a bounded number of
/// bytes, and [`Memory::drain`] waits for all of them.
pub struct Memory {
    host: MemPool,
    devices: Vec<MemPool>,
    pub registry: RegistrationTable,
    /// Bytes written by [`Memory::transfer_batch`].
    bytes_moved: u64,
    lane: Lane,
}

impl Drop for Memory {
    /// A queued landing holds backings this drop releases.
    fn drop(&mut self) {
        self.lane.wait();
    }
}

impl Memory {
    /// `gpu_count` GPUs with `device_capacity` bytes each; host capacity
    /// is fixed at 256 GB (generous but finite so leaks fail tests).
    pub fn new(gpu_count: u32, device_capacity: u64) -> Self {
        Memory {
            host: MemPool::new(MemSpace::Host, 256 << 30),
            devices: (0..gpu_count)
                .map(|i| MemPool::new(MemSpace::Device(GpuId(i)), device_capacity))
                .collect(),
            registry: RegistrationTable::new(),
            bytes_moved: 0,
            lane: Lane::default(),
        }
    }

    /// Wait until every queued landing has moved: a caller that hands
    /// control back to the user (a completed wait) pays for its bytes
    /// before it returns.
    pub fn drain(&self) {
        self.lane.settle();
    }

    /// Physical traffic so far: every byte `transfer_batch` wrote.
    /// Divided by the payload delivered it says how many times the
    /// simulator itself touched each byte (1 on the rendezvous paths:
    /// staging hops are charged, not executed).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    pub fn gpu_count(&self) -> u32 {
        self.devices.len() as u32
    }

    /// One space's pool, once the lane has drained: its bytes are
    /// borrowed through it.
    pub fn pool(&self, space: MemSpace) -> &MemPool {
        self.lane.settle();
        self.pool_at(space)
    }

    pub fn pool_mut(&mut self, space: MemSpace) -> &mut MemPool {
        self.lane.settle();
        self.pool_at_mut(space)
    }

    /// One space's pool, without waiting: for what touches no byte.
    fn pool_at(&self, space: MemSpace) -> &MemPool {
        match space {
            MemSpace::Host => &self.host,
            MemSpace::Device(g) => &self.devices[g.index()],
        }
    }

    fn pool_at_mut(&mut self, space: MemSpace) -> &mut MemPool {
        match space {
            MemSpace::Host => &mut self.host,
            MemSpace::Device(g) => &mut self.devices[g.index()],
        }
    }

    /// Allocate in a given space.
    pub fn alloc(&mut self, space: MemSpace, len: u64) -> Result<Ptr, MemError> {
        self.pool_at_mut(space).alloc(len)
    }

    /// Free an allocation (also drops any registrations on it). Waits
    /// for the lane: a queued landing may hold the backing, and a
    /// released block goes back to this thread's shelf.
    pub fn free(&mut self, ptr: Ptr) -> Result<u64, MemError> {
        self.registry.drop_all(ptr.space, ptr.alloc);
        self.pool_mut(ptr.space).free(ptr)
    }

    pub fn write(&mut self, ptr: Ptr, bytes: &[u8]) -> Result<(), MemError> {
        self.pool_mut(ptr.space).write(ptr, bytes)
    }

    pub fn read_vec(&self, ptr: Ptr, len: u64) -> Result<Vec<u8>, MemError> {
        self.pool(ptr.space).read_vec(ptr, len)
    }

    pub fn slice(&self, ptr: Ptr, len: u64) -> Result<&[u8], MemError> {
        self.pool(ptr.space).slice(ptr, len)
    }

    pub fn slice_mut(&mut self, ptr: Ptr, len: u64) -> Result<&mut [u8], MemError> {
        self.pool_mut(ptr.space).slice_mut(ptr, len)
    }

    /// Batch of segment moves between a source and destination base
    /// pointer: the one-entry [`Memory::transfer_batch`], with plain
    /// stores. Offsets in `ops` are relative to `src`/`dst`; destination
    /// segments must be disjoint. `src` and `dst` may share an
    /// allocation: every source segment is then read before any
    /// destination segment is written, so one op is a `memmove`.
    pub fn transfer(&mut self, src: Ptr, dst: Ptr, ops: &[CopyOp]) -> Result<(), MemError> {
        self.transfer_batch(&[Move {
            src,
            dst,
            segs: Segs::List(OpList::new(ops)),
            stream: false,
        }])
    }

    /// Whether `len` bytes at `ptr` lie inside a live allocation.
    pub fn check_range(&self, ptr: Ptr, len: u64) -> Result<(), MemError> {
        self.pool_at(ptr.space).check_range(ptr, len)
    }

    /// Execute `moves` in order, as `transfer` would one by one — but
    /// every entry's two ranges are checked against the live
    /// allocations before any entry moves a byte, and each run of
    /// entries between the same two allocations reaches the copy layer
    /// as one job, so a transfer's fragments share its lanes the way
    /// one list of their total size would. An entry's reach is its
    /// segments' ([`Segs::reach`]): found when its list was scanned, or
    /// closed form for a window, so no caller can state one that
    /// understates its list, and a cached list is checked in O(1) — by
    /// the copy layer against the entry's two ranges; entries whose
    /// ranges share an allocation gather-then-scatter one at a time
    /// through slice indexing. Within a run, destination segments must
    /// be disjoint across entries. An entry that moves no byte is no
    /// entry: it is neither checked nor touches an allocation.
    ///
    /// A run the copy lane takes ([`Lane::takes`]: one lane's worth,
    /// each list a window, a shared list or one segment) is queued on
    /// it and moves behind the landings queued before it; every other
    /// run waits for the lane and moves here. Either way the run is
    /// checked, counted in [`Memory::bytes_moved`] and its backings made
    /// now.
    pub fn transfer_batch(&mut self, moves: &[Move<'_>]) -> Result<(), MemError> {
        let moving = |m: &&Move<'_>| m.segs.bytes() > 0;
        for m in moves.iter().filter(moving) {
            let reach = m.segs.reach();
            self.check_range(m.src, reach.src_need)?;
            self.check_range(m.dst, reach.dst_need)?;
        }
        let mut rest = moves;
        while let Some((first, tail)) = rest.split_first() {
            if !moving(&first) {
                rest = tail;
                continue;
            }
            let (src, dst) = (first.src, first.dst);
            let same = |m: &&Move<'_>| {
                moving(m) && m.src.distance_to(src).is_some() && m.dst.distance_to(dst).is_some()
            };
            let run;
            (run, rest) = rest.split_at(rest.iter().take_while(same).count());
            self.bytes_moved += run.iter().map(|m| m.segs.bytes()).sum::<u64>();
            if src.distance_to(dst).is_some() {
                self.lane.wait();
                for m in run {
                    (self.pool_at_mut(src.space)).transfer_within(m.src, m.dst, m.segs)?;
                }
                continue;
            }
            let (one, many);
            let lists: &[SegList<'_>] = match run {
                [m] => {
                    one = [m.seg_list()];
                    &one
                }
                _ => {
                    many = run.iter().map(Move::seg_list).collect::<Vec<_>>();
                    &many
                }
            };
            // The copy layer keeps each entry inside its window.
            let ends = run.iter().map(|m| m.dst.offset + m.segs.reach().dst_need);
            let dst_end = ends.max().unwrap_or_default();
            if self.lane.takes(lists) {
                let src_all = &self.pool_at(src.space).allocs[&src.alloc];
                let (src_raw, src_len) = (src_all.read_ptr(), src_all.len as usize);
                let dst_all = (self.pool_at_mut(dst.space).allocs)
                    .get_mut(&dst.alloc)
                    .expect("checked");
                let dst_len = dst_all.len as usize;
                let dst_raw = dst_all.block_mut(dst_end).as_mut_ptr();
                for l in lists {
                    // SAFETY: two different allocations (the shared case
                    // moved above), both backed, each pointer spanning its
                    // allocation's length. A backing's block never moves
                    // or shrinks while the allocation lives, and `free`
                    // and the drop wait for the lane before releasing
                    // one; every other access to the bytes (`slice`,
                    // `write`, a batch moved here, ...) waits first too,
                    // so until this landing has moved nothing else
                    // touches the destination or writes the source.
                    unsafe { self.lane.land(dst_raw, dst_len, src_raw, src_len, l) };
                }
                continue;
            }
            self.lane.wait();
            let src_all = self.pool_at(src.space).allocs[&src.alloc].bytes();
            let (src_raw, src_len) = (src_all.as_ptr(), src_all.len());
            let dst_pool = self.pool_at_mut(dst.space);
            let dst_all = dst_pool.allocs.get_mut(&dst.alloc).expect("checked");
            // SAFETY: different allocations (the shared case was handled
            // above), the source backed before its pointer was taken.
            let src_all = unsafe { std::slice::from_raw_parts(src_raw, src_len) };
            par_transfer_batch(dst_all.bytes_mut(dst_end), src_all, lists);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::par::{OpListBuf, Reach};
    use std::sync::Arc;

    fn mem() -> Memory {
        Memory::new(2, 64 << 20)
    }

    #[test]
    fn alloc_free_accounting() {
        let mut m = mem();
        let d = MemSpace::Device(GpuId(0));
        let p = m.alloc(d, 1024).unwrap();
        assert_eq!(m.pool(d).used(), 1024);
        assert_eq!(m.pool(d).alloc_len(p).unwrap(), 1024);
        assert_eq!(m.free(p).unwrap(), 1024);
        assert_eq!(m.pool(d).used(), 0);
        assert_eq!(m.pool(d).peak(), 1024);
    }

    #[test]
    fn oom_is_reported() {
        let mut m = Memory::new(1, 1000);
        let d = MemSpace::Device(GpuId(0));
        assert!(m.alloc(d, 800).is_ok());
        let err = m.alloc(d, 400).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
    }

    #[test]
    fn double_free_fails() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 64).unwrap();
        m.free(p).unwrap();
        assert!(matches!(m.free(p), Err(MemError::InvalidPointer(_))));
    }

    #[test]
    fn free_requires_base_pointer() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 64).unwrap();
        assert!(m.free(p.add(8)).is_err());
        m.free(p).unwrap();
    }

    #[test]
    fn bounds_checking() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 16).unwrap();
        assert!(m.write(p, &[0u8; 16]).is_ok());
        let err = m.write(p.add(8), &[0u8; 16]).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
    }

    #[test]
    fn wrong_space_rejected() {
        let m = mem();
        let bogus = Ptr {
            space: MemSpace::Device(GpuId(1)),
            alloc: AllocId(0),
            offset: 0,
        };
        assert!(matches!(
            m.pool(MemSpace::Host).slice(bogus, 1),
            Err(MemError::WrongSpace { .. })
        ));
    }

    #[test]
    fn cross_space_copy_moves_bytes() {
        let mut m = mem();
        let h = m.alloc(MemSpace::Host, 256).unwrap();
        let d = m.alloc(MemSpace::Device(GpuId(0)), 256).unwrap();
        let pattern: Vec<u8> = (0..=255).collect();
        m.write(h, &pattern).unwrap();
        m.transfer(h, d, &[op(0, 0, 256)]).unwrap(); // H2D
        let back = m.read_vec(d, 256).unwrap();
        assert_eq!(back, pattern);
        // D2D to second GPU.
        let d2 = m.alloc(MemSpace::Device(GpuId(1)), 256).unwrap();
        m.transfer(d, d2, &[op(0, 0, 256)]).unwrap();
        assert_eq!(m.read_vec(d2, 256).unwrap(), pattern);
    }

    #[test]
    fn same_alloc_overlapping_copy() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 16).unwrap();
        m.write(p, &[1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0])
            .unwrap();
        m.transfer(p, p.add(4), &[op(0, 0, 8)]).unwrap(); // overlapping forward copy
        assert_eq!(m.read_vec(p, 16).unwrap()[4..12], [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn transfer_scatters_into_device() {
        let mut m = mem();
        let src = m.alloc(MemSpace::Host, 64).unwrap();
        let dst = m.alloc(MemSpace::Device(GpuId(0)), 64).unwrap();
        let bytes: Vec<u8> = (0..64).collect();
        m.write(src, &bytes).unwrap();
        let ops = [
            CopyOp {
                src_off: 0,
                dst_off: 32,
                len: 16,
            },
            CopyOp {
                src_off: 16,
                dst_off: 0,
                len: 16,
            },
        ];
        m.transfer(src, dst, &ops).unwrap();
        let out = m.read_vec(dst, 64).unwrap();
        assert_eq!(&out[32..48], &bytes[0..16]);
        assert_eq!(&out[0..16], &bytes[16..32]);
    }

    #[test]
    fn transfer_within_one_allocation_reads_before_it_writes() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 32).unwrap();
        let bytes: Vec<u8> = (0..32).collect();
        m.write(p, &bytes).unwrap();
        // Swap the two halves of bytes 4..20 through one call: each
        // op's destination is the other op's source.
        let ops = [
            CopyOp {
                src_off: 0,
                dst_off: 8,
                len: 8,
            },
            CopyOp {
                src_off: 8,
                dst_off: 0,
                len: 8,
            },
        ];
        m.transfer(p.add(4), p.add(4), &ops).unwrap();
        let out = m.read_vec(p, 32).unwrap();
        assert_eq!(&out[4..12], &bytes[12..20]);
        assert_eq!(&out[12..20], &bytes[4..12]);
        assert_eq!((&out[..4], &out[20..]), (&bytes[..4], &bytes[20..]));
        // Out of range is still a typed error, and moves nothing.
        let err = m.transfer(p.add(20), p, &ops).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        assert_eq!(m.read_vec(p, 32).unwrap(), out);
    }

    #[test]
    fn bytes_moved_counts_what_copy_and_transfer_wrote() {
        let mut m = mem();
        let h = m.alloc(MemSpace::Host, 64).unwrap();
        let d = m.alloc(MemSpace::Device(GpuId(0)), 64).unwrap();
        m.write(h, &[7u8; 64]).unwrap();
        assert_eq!(
            m.bytes_moved(),
            0,
            "write() is the test harness, not traffic"
        );
        m.transfer(h, d, &[op(0, 0, 48)]).unwrap();
        m.transfer(h, h.add(32), &[op(0, 0, 16)]).unwrap();
        assert_eq!(m.bytes_moved(), 64);
        let ops = [CopyOp {
            src_off: 0,
            dst_off: 8,
            len: 24,
        }];
        m.transfer(d, h, &ops).unwrap();
        m.transfer(h, h, &ops).unwrap();
        assert_eq!(m.bytes_moved(), 64 + 48);
        // A failed move is not traffic.
        assert!(m.transfer(h, d, &[op(0, 0, 65)]).is_err());
        assert!(m.transfer(h.add(48), d, &ops).is_err());
        assert_eq!(m.bytes_moved(), 64 + 48);
        // Neither is a move of no byte: it succeeds, whatever it names.
        m.free(d).unwrap();
        m.transfer(h, d.add(1 << 20), &[op(0, 0, 0)]).unwrap();
        m.transfer(d, d, &[]).unwrap();
        assert_eq!(m.bytes_moved(), 64 + 48);
    }

    fn backed(m: &Memory, p: Ptr) -> bool {
        m.pool(p.space).allocs[&p.alloc].block.get().is_some()
    }

    #[test]
    fn an_allocation_is_backed_at_its_first_access_and_counted_from_the_start() {
        let mut m = Memory::new(1, 1 << 40);
        let d = MemSpace::Device(GpuId(0));
        // More than the box holds: only ever counted, never backed.
        let ring = m.alloc(d, 1 << 39).unwrap();
        assert!(!backed(&m, ring));
        assert_eq!(m.pool(d).used(), 1 << 39);
        assert_eq!(m.pool(d).peak(), 1 << 39);
        assert_eq!(m.pool(d).alloc_len(ring).unwrap(), 1 << 39);
        // Range checks and OOM go by the recorded length.
        assert!(matches!(
            m.slice(ring.add(1 << 39), 1),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(!backed(&m, ring), "a refused access backs nothing");
        assert!(matches!(
            m.alloc(d, (1 << 39) + 1),
            Err(MemError::OutOfMemory { .. })
        ));
        assert_eq!(m.free(ring).unwrap(), 1 << 39);
        assert_eq!((m.pool(d).used(), m.pool(d).peak()), (0, 1 << 39));

        // Each way in backs the allocation, zeroed, exactly once.
        let read = m.alloc(d, 64).unwrap();
        assert_eq!(m.slice(read, 64).unwrap(), &[0u8; 64]);
        assert!(backed(&m, read));
        let written = m.alloc(d, 64).unwrap();
        m.slice_mut(written.add(8), 8).unwrap().fill(7);
        assert_eq!(
            m.read_vec(written, 24).unwrap()[6..18],
            [0, 0, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0]
        );
        let (src, dst) = (
            m.alloc(d, 64).unwrap(),
            m.alloc(MemSpace::Host, 64).unwrap(),
        );
        // A move of no byte — one empty op, or no op — touches neither.
        m.transfer(src, dst, &[op(0, 0, 0)]).unwrap();
        m.transfer(src, dst, &[]).unwrap();
        assert!(!backed(&m, src) && !backed(&m, dst));
        m.transfer(src, dst, &[op(0, 0, 32)]).unwrap();
        assert!(backed(&m, src) && backed(&m, dst));
        let (src, dst) = (m.alloc(d, 64).unwrap(), m.alloc(d, 64).unwrap());
        let ops = [CopyOp {
            src_off: 0,
            dst_off: 16,
            len: 8,
        }];
        m.transfer(src, dst, &ops).unwrap();
        assert!(backed(&m, src) && backed(&m, dst));
        assert_eq!(m.read_vec(dst, 64).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn a_reach_is_what_three_scans_found_cached_or_not() {
        let ops = [
            CopyOp {
                src_off: 40,
                dst_off: 0,
                len: 8,
            },
            CopyOp {
                src_off: 0,
                dst_off: 20,
                len: 12,
            },
        ];
        let reach = OpList::new(&ops).reach();
        let by_scans = Reach {
            src_need: ops
                .iter()
                .map(|o| (o.src_off + o.len) as u64)
                .max()
                .unwrap(),
            dst_need: ops
                .iter()
                .map(|o| (o.dst_off + o.len) as u64)
                .max()
                .unwrap(),
            bytes: ops.iter().map(|o| o.len as u64).sum(),
        };
        assert_eq!(reach, by_scans);
        assert_eq!((reach.src_need, reach.dst_need, reach.bytes), (48, 32, 20));
        assert_eq!(OpList::new(&[]).reach(), Reach::default());
        let cached = Arc::new(OpListBuf::new(ops.to_vec()));
        assert_eq!((cached.list().reach(), cached.ops()), (reach, &ops[..]));

        let mut m = mem();
        let (src, dst) = (
            m.alloc(MemSpace::Host, 48).unwrap(),
            m.alloc(MemSpace::Device(GpuId(0)), 32).unwrap(),
        );
        m.write(src, &(0..48).collect::<Vec<u8>>()).unwrap();
        for (k, segs) in [Segs::List(OpList::new(&ops)), Segs::Shared(&cached)]
            .into_iter()
            .enumerate()
        {
            let entry = Move {
                src,
                dst,
                segs,
                stream: false,
            };
            assert_eq!(entry.segs.reach(), reach);
            m.transfer_batch(&[entry]).unwrap();
            assert_eq!(m.read_vec(dst, 8).unwrap(), (40..48).collect::<Vec<u8>>());
            assert_eq!(m.bytes_moved(), 20 * (k as u64 + 1));
            // One byte short of its reach: refused against the live
            // allocation, cached or not.
            let short = Move {
                src: src.add(1),
                ..entry
            };
            assert!(matches!(
                m.transfer_batch(&[short]),
                Err(MemError::OutOfBounds { .. })
            ));
        }
    }

    /// Four allocations in three spaces, filled alike on every call.
    fn four_buffers(m: &mut Memory) -> [Ptr; 4] {
        let spaces = [
            MemSpace::Host,
            MemSpace::Device(GpuId(0)),
            MemSpace::Device(GpuId(1)),
            MemSpace::Device(GpuId(0)),
        ];
        let mut seed = 0u8;
        spaces.map(|space| {
            let p = m.alloc(space, 256).unwrap();
            seed += 1;
            let bytes: Vec<u8> = (0..=255u8).map(|i| i.wrapping_mul(7) ^ seed).collect();
            m.write(p, &bytes).unwrap();
            p
        })
    }

    fn op(src_off: usize, dst_off: usize, len: usize) -> CopyOp {
        CopyOp {
            src_off,
            dst_off,
            len,
        }
    }

    #[test]
    fn a_batch_is_its_entries_transferred_one_by_one() {
        let lists = [
            vec![op(0, 8, 16), op(32, 40, 8)],
            vec![op(3, 100, 29)],
            vec![op(0, 64, 32), op(64, 0, 32)], // aliased: swaps through itself
            vec![op(100, 0, 50), op(0, 200, 50)],
            vec![op(8, 8, 8)],
            vec![],
            vec![op(5, 3, 200)], // coarse: streams whole lines
        ];
        // (source, destination, base offsets) per entry: a run of two
        // between the same allocations, an aliased entry, a pair in the
        // other direction that reads what the run wrote, another run.
        let plan = [
            (0, 1, 0, 0, 0),
            (0, 1, 16, 32, 1),
            (2, 2, 0, 64, 2),
            (1, 0, 0, 0, 3),
            (3, 2, 100, 0, 4),
            (3, 2, 0, 128, 5),
            (3, 2, 7, 16, 0),
            (1, 3, 0, 40, 6),
        ];
        let (mut one_by_one, mut batched) = (mem(), mem());
        let (a, b) = (four_buffers(&mut one_by_one), four_buffers(&mut batched));
        for &(s, d, s_at, d_at, l) in &plan {
            (one_by_one.transfer(a[s].add(s_at), a[d].add(d_at), &lists[l])).unwrap();
        }
        let moves: Vec<Move<'_>> = (plan.iter())
            .map(|&(s, d, s_at, d_at, l)| Move {
                src: b[s].add(s_at),
                dst: b[d].add(d_at),
                segs: Segs::List(OpList::new(&lists[l])),
                stream: l % 2 == 0,
            })
            .collect();
        batched.transfer_batch(&moves).unwrap();
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(
                batched.read_vec(*b, 256).unwrap(),
                one_by_one.read_vec(*a, 256).unwrap()
            );
        }
        assert_eq!(batched.bytes_moved(), one_by_one.bytes_moved());
        assert_eq!(batched.bytes_moved(), 24 + 29 + 64 + 100 + 8 + 24 + 200);
        batched.transfer_batch(&[]).unwrap();
    }

    #[test]
    fn a_bad_entry_anywhere_fails_the_batch_before_a_byte_moves() {
        let good = [op(0, 0, 16)];
        let wraps_src = [op(usize::MAX - 3, 0, 8)];
        let wraps_dst = [op(0, usize::MAX - 3, 8)];
        let past_end = [op(250, 0, 16)];
        for at in 0..3 {
            for bad in [&wraps_src[..], &wraps_dst[..], &past_end[..]] {
                let mut m = mem();
                let [h, d0, d1, _] = four_buffers(&mut m);
                let before = m.read_vec(d0, 256).unwrap();
                let entry = |src, dst, ops| Move {
                    src,
                    dst,
                    segs: Segs::List(OpList::new(ops)),
                    stream: true,
                };
                let mut moves = vec![entry(h, d0, &good[..]), entry(h, d0.add(16), &good[..])];
                moves.insert(at, entry(d1, d0.add(32), bad));
                assert!(matches!(
                    m.transfer_batch(&moves),
                    Err(MemError::OutOfBounds { .. })
                ));
                assert_eq!(m.read_vec(d0, 256).unwrap(), before);
                assert_eq!(m.bytes_moved(), 0, "a failed batch is not traffic");
                // The one-list call refuses the same ops the same way: a
                // wrapped end is a reach no allocation holds.
                assert_eq!(OpList::new(&wraps_src).reach().src_need, u64::MAX);
                assert!(matches!(
                    m.transfer(d1, d0, bad),
                    Err(MemError::OutOfBounds { .. })
                ));
                // A buffer freed since the entry was made is a typed
                // error too, whichever end it is.
                m.free(if at == 0 { h } else { d0 }).unwrap();
                moves.remove(at);
                assert!(matches!(
                    m.transfer_batch(&moves),
                    Err(MemError::InvalidPointer(_))
                ));
                assert_eq!(m.bytes_moved(), 0);
            }
        }
    }

    /// Every allocation's first byte is a host cache line's, whether its
    /// backing is fresh or comes back from the shelf, below the shelf's
    /// threshold and above it.
    #[test]
    fn every_backing_starts_on_a_cache_line() {
        let sizes = [1, 100, 4096, shelf::SHELF_MIN_BYTES as u64 - 1]
            .into_iter()
            .chain([1, 3].map(|k| k * shelf::SHELF_MIN_BYTES as u64 + 16));
        let aligned = |m: &Memory, p: Ptr| {
            (m.slice(p, 1).unwrap().as_ptr() as usize).is_multiple_of(shelf::LINE)
        };
        shelf::clear();
        for round in ["fresh", "reused"] {
            let mut m = mem();
            for (i, len) in sizes.clone().enumerate() {
                let space = if i % 2 == 0 {
                    MemSpace::Host
                } else {
                    MemSpace::Device(GpuId(0))
                };
                let p = m.alloc(space, len).unwrap();
                assert!(aligned(&m, p), "{round} {len}");
                m.write(p.add(len - 1), &[1]).unwrap();
            }
        }
        assert_eq!(shelf::stats().hits, 2, "both large blocks came back");
    }

    /// A block a dropped `Memory` released reads as zeros to the next
    /// `Memory` on the thread, whichever write path dirtied it and
    /// whatever size the next allocation asks for.
    #[test]
    fn a_recycled_allocation_reads_zero() {
        const BIG: u64 = 4 * shelf::SHELF_MIN_BYTES as u64;
        let zero = |m: &Memory, p: Ptr, len: u64| m.slice(p, len).unwrap().iter().all(|&b| b == 0);
        shelf::clear();
        let mut second = mem();
        let mut first = mem();
        let (h, d0, d1) = (
            MemSpace::Host,
            MemSpace::Device(GpuId(0)),
            MemSpace::Device(GpuId(1)),
        );
        // Too small to shelve: the source of the moves below.
        let head = first.alloc(h, 64).unwrap();
        first.write(head, &[0xA5; 64]).unwrap();
        // Each block's tail is dirtied through one path only; a path
        // that wrote past the recorded extent would leave it dirty.
        let tail = BIG - 64;
        let by_slice = first.alloc(h, BIG).unwrap();
        first.slice_mut(by_slice.add(tail), 64).unwrap().fill(1);
        let by_write = first.alloc(d0, BIG).unwrap();
        first.write(by_write.add(tail), &[2; 64]).unwrap();
        let by_copy_across = first.alloc(d1, BIG).unwrap();
        first
            .transfer(head, by_copy_across.add(tail), &[op(0, 0, 64)])
            .unwrap();
        let by_copy_beside = first.alloc(h, BIG).unwrap();
        first
            .transfer(head, by_copy_beside.add(tail), &[op(0, 0, 64)])
            .unwrap();
        let by_copy_within = first.alloc(d0, BIG).unwrap();
        first.write(by_copy_within, &[3; 64]).unwrap();
        first
            .transfer(by_copy_within, by_copy_within.add(tail), &[op(0, 0, 64)])
            .unwrap();
        let by_transfer = first.alloc(d1, BIG).unwrap();
        first
            .transfer(head, by_transfer, &[op(0, tail as usize, 64)])
            .unwrap();
        let by_transfer_within = first.alloc(h, BIG).unwrap();
        first.write(by_transfer_within, &[4; 64]).unwrap();
        let to_tail = [op(0, tail as usize, 64)];
        first
            .transfer(by_transfer_within, by_transfer_within, &to_tail)
            .unwrap();
        let dirtied = [
            by_slice,
            by_write,
            by_copy_across,
            by_copy_beside,
            by_copy_within,
            by_transfer,
            by_transfer_within,
        ];
        for p in dirtied {
            assert!(!zero(&first, p, BIG));
        }
        drop(first);
        assert_eq!(shelf::stats().idle_bytes, 7 * BIG);

        // Smaller (served short), equal, and larger (a miss).
        let short = second.alloc(h, BIG / 2).unwrap();
        assert!(zero(&second, short, BIG / 2));
        let equal: Vec<Ptr> = (0..6).map(|_| second.alloc(d0, BIG).unwrap()).collect();
        for &p in &equal {
            assert!(zero(&second, p, BIG));
        }
        let larger = second.alloc(d1, 2 * BIG).unwrap();
        assert!(zero(&second, larger, 2 * BIG));
        let st = shelf::stats();
        assert_eq!((st.hits, st.fresh, st.idle_bytes), (7, 7 + 1, 0));
        // The block served short comes back long.
        second.slice_mut(short, BIG / 2).unwrap().fill(5);
        second.free(short).unwrap();
        let long = second.alloc(h, BIG).unwrap();
        assert!(zero(&second, long, BIG));
        assert_eq!(shelf::stats().hits, 8);
    }

    /// Seeded chains of landings — strided windows, shared cached lists,
    /// one-segment windows, long borrowed lists, moves inside one
    /// allocation, multi-entry runs — over buffers in three spaces, with
    /// slices taken between landings and buffers freed and allocated
    /// again, leave every buffer as a synchronous reference does. Each
    /// look and each free comes right after a half-megabyte window lands
    /// in that buffer, so a look or a free that did not wait for the
    /// lane would meet its bytes still moving. Long streaks between
    /// looks put most landings on the copy lane wherever the pool has a
    /// worker; CI runs this at pool sizes 1, 2 and 4.
    #[test]
    fn the_lane_lands_in_order_and_every_look_sees_the_sequential_bytes() {
        use simcore::par::{Strided2D, StridedWindow};
        use simcore::rng::SimRng;
        const LEN: usize = 2 << 20;
        let spaces = [
            MemSpace::Host,
            MemSpace::Device(GpuId(0)),
            MemSpace::Device(GpuId(1)),
        ];
        /// A buffer and an offset into it.
        type At = (usize, usize);
        /// Land `moves` (segments `ops`, at the offsets `at`) in the
        /// reference — a gather of every source segment, then the
        /// scatter, entry by entry — and in `m`.
        fn land(
            m: &mut Memory,
            model: &mut [Vec<u8>],
            moves: &[Move<'_>],
            at: &[(At, At)],
            ops: &[CopyOp],
        ) {
            for &((s, s_at), (d, d_at)) in at {
                let gathered: Vec<Vec<u8>> = (ops.iter())
                    .map(|o| model[s][s_at + o.src_off..][..o.len].to_vec())
                    .collect();
                for (o, g) in ops.iter().zip(gathered) {
                    model[d][d_at + o.dst_off..][..o.len].copy_from_slice(&g);
                }
            }
            // Last, so that what follows meets the landing still moving.
            m.transfer_batch(moves).unwrap();
        }
        /// A strided window of `blocks` blocks.
        fn window(rng: &mut SimRng, blocks: u64, unpack: bool) -> StridedWindow {
            let block_bytes = rng.range_u64(1, 300);
            StridedWindow {
                shape: Strided2D {
                    outer: 1,
                    inner: u64::MAX,
                    block_bytes,
                    inner_stride: rng.range(300, 700) as i64,
                    outer_stride: 0,
                    first_disp: 0,
                },
                base_shift: 0,
                from: 0,
                to: block_bytes * blocks,
                unpack,
            }
        }
        /// Half a megabyte, packed from the next buffer into buffer `k`.
        fn land_big(m: &mut Memory, model: &mut [Vec<u8>], bufs: &[Ptr], k: usize) {
            let w = StridedWindow {
                shape: Strided2D {
                    outer: 1,
                    inner: u64::MAX,
                    block_bytes: 256,
                    inner_stride: 384,
                    outer_stride: 0,
                    first_disp: 0,
                },
                base_shift: 0,
                from: 0,
                to: 256 * 2048,
                unpack: false,
            };
            let mut ops = Vec::new();
            strided_units(&w, &mut ops);
            let s = (k + 1) % bufs.len();
            let entry = Move {
                src: bufs[s],
                dst: bufs[k],
                segs: Segs::Strided(w),
                stream: false,
            };
            land(m, model, &[entry], &[((s, 0), (k, 0))], &ops);
        }
        let mut rng = simcore::rng::rng(0x1A4E);
        let (mut m, mut model) = (mem(), Vec::new());
        let mut bufs: Vec<Ptr> = Vec::new();
        for k in 0..6 {
            let p = m.alloc(spaces[k % 3], LEN as u64).unwrap();
            let mut bytes = vec![0u8; LEN];
            simcore::rng::fill_bytes(k as u64, &mut bytes);
            m.write(p, &bytes).unwrap();
            bufs.push(p);
            model.push(bytes);
        }
        let (mut looks, mut freed, mut since_look) = (0, 0, 0);
        for step in 0..6000 {
            let s = rng.range(0, bufs.len());
            let d = if rng.chance(0.1) {
                s
            } else {
                (s + rng.range(1, bufs.len())) % bufs.len()
            };
            let kind = rng.range(0, 5);
            // The segments, relative to offsets chosen below to fit them.
            let (blocks, unpack) = (rng.range_u64(1, 40), rng.chance(0.5));
            let w = window(&mut rng, blocks, unpack);
            let mut list = Vec::new();
            let mut at = 0;
            for _ in 0..rng.range(1, if kind == 2 { 2 } else { 80 }) {
                let len = rng.range(1, 200);
                at += rng.range(0, 50);
                list.push(op(rng.range(0, 8000), at, len));
                at += len;
            }
            let shared = Arc::new(OpListBuf::new(list.clone()));
            let segs = match kind {
                0 => Segs::Strided(w),
                1 => Segs::Shared(&shared),
                _ => Segs::List(OpList::new(&list)),
            };
            let reach = segs.reach();
            let (s_at, d_at) = (
                rng.range(0, LEN - reach.src_need as usize),
                rng.range(0, LEN - reach.dst_need as usize),
            );
            let ops = match segs {
                Segs::Strided(w) => {
                    let mut units = Vec::new();
                    strided_units(&w, &mut units);
                    units
                }
                _ => list.clone(),
            };
            let entry = Move {
                src: bufs[s].add(s_at as u64),
                dst: bufs[d].add(d_at as u64),
                segs,
                stream: rng.chance(0.3),
            };
            // Sometimes a run of two entries between the same buffers,
            // the second landing past the first's reach.
            let next = d_at + reach.dst_need as usize;
            if d != s && rng.chance(0.1) && next + reach.dst_need as usize <= LEN {
                let second = Move {
                    dst: entry.dst.add(reach.dst_need),
                    ..entry
                };
                let at = [((s, s_at), (d, d_at)), ((s, s_at), (d, next))];
                land(&mut m, &mut model, &[entry, second], &at, &ops);
            } else {
                land(
                    &mut m,
                    &mut model,
                    &[entry],
                    &[((s, s_at), (d, d_at))],
                    &ops,
                );
            }
            since_look += 1;
            if since_look > 70 && rng.chance(1.0 / 100.0) {
                // Freed right behind a landing into it and made again;
                // a landing into the new buffer (on the lane, in the
                // streak) backs it from the block just freed.
                let k = rng.range(0, bufs.len());
                land_big(&mut m, &mut model, &bufs, k);
                m.free(bufs[k]).unwrap();
                bufs[k] = m.alloc(spaces[k % 3], LEN as u64).unwrap();
                model[k] = vec![0; LEN];
                let one = [op(0, 100, 64)];
                let entry = Move {
                    src: bufs[(k + 1) % bufs.len()],
                    dst: bufs[k],
                    segs: Segs::List(OpList::new(&one)),
                    stream: false,
                };
                land(
                    &mut m,
                    &mut model,
                    &[entry],
                    &[(((k + 1) % bufs.len(), 0), (k, 0))],
                    &one,
                );
                let got = m.slice(bufs[k], 1 << 19).unwrap();
                assert!(
                    got == &model[k][..1 << 19],
                    "step {step}: buffer {k} made again"
                );
                (freed, since_look) = (freed + 1, 0);
            }
            if rng.chance(1.0 / 150.0) || step == 5999 {
                let k = rng.range(0, bufs.len());
                land_big(&mut m, &mut model, &bufs, k);
                // Half the time, a batch moved here from the bytes still
                // landing (two borrowed segments are more than the lane
                // takes) before the look.
                if rng.chance(0.5) {
                    let j = (k + 2) % bufs.len();
                    let two = [op(0, 0, 4096), op(300_000, 4096, 4096)];
                    let entry = Move {
                        src: bufs[k],
                        dst: bufs[j].add(1 << 20),
                        segs: Segs::List(OpList::new(&two)),
                        stream: false,
                    };
                    land(
                        &mut m,
                        &mut model,
                        &[entry],
                        &[((k, 0), (j, 1 << 20))],
                        &two,
                    );
                    let got = m.slice(bufs[j].add(1 << 20), 8192).unwrap();
                    assert!(
                        got == &model[j][1 << 20..][..8192],
                        "step {step}: buffer {j}"
                    );
                }
                let (from, len) = (rng.range(0, 1 << 19), rng.range(1, 4096));
                let got = m.slice(bufs[k].add(from as u64), len as u64).unwrap();
                assert!(
                    got == &model[k][from..from + len],
                    "step {step}: buffer {k}"
                );
                looks += 1;
            }
        }
        for (k, &p) in bufs.iter().enumerate() {
            assert!(m.read_vec(p, LEN as u64).unwrap() == model[k], "buffer {k}");
        }
        assert!(looks > 20 && freed > 5, "{looks} looks, {freed} frees");
        let queued = m.lane.queued();
        if simcore::par::pool_info().threads > 1 {
            assert!(queued > 0, "the lane took no landing");
        } else {
            assert_eq!(queued, 0, "a pool of one thread has no lane");
        }
    }

    #[test]
    fn distinct_allocs_get_distinct_ids() {
        let mut m = mem();
        let a = m.alloc(MemSpace::Host, 8).unwrap();
        let b = m.alloc(MemSpace::Host, 8).unwrap();
        assert_ne!(a.alloc, b.alloc);
    }
}
