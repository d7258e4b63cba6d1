//! `a2a_64`: a full-stack `alltoall` over 64 ranks on a fat tree, on a
//! persistent session. Each pair exchanges one device-resident strided
//! block of 64 × 256 B at stride 512 B (16 KiB, so every message is
//! eager). Op = one alltoall.
//!
//! Blocks stay under the 64 KiB eager limit on purpose: with rendezvous
//! at 64 ranks one set-up takes 18–46 s (see the README).

use super::{expected_recv, oracle_eq, Counts, OpReport, Size, Stopwatch, Workload};
use crate::spans::Spans;
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::api::wait_all;
use mpirt::{alltoall, Session};
use netsim::Topology;
use simcore::rng::fill_bytes;
use simcore::trace::names;

const BLOCK_COUNT: u64 = 64;
const BLOCK_BYTES: u64 = 256;
const STRIDE_BYTES: i64 = 512;

pub struct AllToAll {
    ranks: usize,
    seed: u64,
}

impl AllToAll {
    pub fn new(seed: u64, size: Size) -> AllToAll {
        AllToAll {
            ranks: match size {
                Size::Full => 64,
                Size::Smoke => 8,
            },
            seed,
        }
    }
}

/// The strided block one rank sends to one other rank.
pub fn block_type() -> DataType {
    DataType::hvector(BLOCK_COUNT, BLOCK_BYTES, STRIDE_BYTES, &DataType::byte())
        .expect("strided block")
        .commit()
}

/// A 64-rank-style session on the workload's fat tree, with per-rank
/// send buffers filled from `seed` and zeroed receive buffers. Shared
/// with the collective probe, which builds a smaller one.
pub struct World {
    pub sess: Session,
    pub ty: DataType,
    /// Bytes from one peer's block to the next in a rank's buffer.
    pub block: u64,
    pub sends: Vec<Ptr>,
    pub recvs: Vec<Ptr>,
}

pub fn build_world(ranks: usize, seed: u64, record: bool, sp: &mut Spans) -> World {
    let s = sp.begin("mpirt.session_build");
    let mut sess = Session::builder()
        .ranks(ranks)
        .topology(Topology::FatTree {
            ranks_per_node: 4,
            radix: 4,
        })
        .record_if(record)
        .build();
    sp.end(s);

    let s = sp.begin("datatype.commit");
    let ty = block_type();
    sp.end(s);

    let s = sp.begin("memsim.alloc_fill");
    // `alltoall` places peer i's block at i · max(extent, size).
    let block = (ty.extent() as u64).max(ty.size());
    let len = block * ranks as u64;
    let mut sends = Vec::with_capacity(ranks);
    let mut recvs = Vec::with_capacity(ranks);
    for r in 0..ranks {
        let space = MemSpace::Device(sess.world.mpi.ranks[r].gpu);
        let mem = sess.world.mem();
        let send = mem.alloc(space, len).expect("send buffer");
        fill_bytes(
            seed ^ ((r as u64 + 1) << 32),
            mem.slice_mut(send, len).expect("fresh allocation"),
        );
        sends.push(send);
        recvs.push(mem.alloc(space, len).expect("receive buffer"));
    }
    sp.end(s);
    World {
        sess,
        ty,
        block,
        sends,
        recvs,
    }
}

/// Post one alltoall and drive it to completion, with a span around
/// each half.
pub fn alltoall_once(w: &mut World, op_tag: u64, sp: &mut Spans) -> bool {
    let post = sp.begin("mpirt.post");
    let req = alltoall(&mut w.sess, &w.ty, 1, &w.sends, &w.recvs, op_tag);
    sp.end(post);
    let drive = sp.begin("mpirt.drive");
    let done = wait_all(&mut w.sess, &[req]);
    sp.end(drive);
    done.is_ok()
}

pub struct State {
    world: World,
    ops: u64,
}

impl Workload for AllToAll {
    type State = State;

    fn setup(&self, record: bool, sp: &mut Spans) -> State {
        State {
            world: build_world(self.ranks, self.seed, record, sp),
            ops: 0,
        }
    }

    fn op(&self, st: &mut State, sp: &mut Spans) -> OpReport {
        let p = self.ranks as u64;
        let payload = p * (p - 1) * st.world.ty.size();
        let delivered = st.world.sess.trace.counter(names::MPI_DELIVERED_BYTES);
        let then = st.world.sess.now();
        let watch = Stopwatch::start();
        let done = alltoall_once(&mut st.world, st.ops, sp);
        let (wall_ns, cpu_s) = watch.stop();
        st.ops += 1;
        let moved = st.world.sess.trace.counter(names::MPI_DELIVERED_BYTES) - delivered;
        OpReport {
            wall_ns,
            cpu_s,
            sim_ns: (st.world.sess.now() - then).as_nanos(),
            ok: done && moved == payload,
        }
    }

    fn counts(&self, st: &mut State) -> Counts {
        Counts::of_session(&mut st.world.sess)
    }

    /// Block `i` of rank `r`'s receive buffer is rank `i`'s block `r`,
    /// packed and unpacked by the CPU reference — except the rank's own
    /// block, which the collective moves with a plain copy of the whole
    /// stride, gaps included.
    fn verify(&self, st: &mut State, corrupt: bool) -> bool {
        let w = &mut st.world;
        let block = w.block;
        let mem = w.sess.world.mem();
        let mut all = true;
        for r in 0..self.ranks {
            for i in 0..self.ranks {
                let src = mem
                    .slice(w.sends[i].add(r as u64 * block), block)
                    .expect("send block");
                let got = mem
                    .slice(w.recvs[r].add(i as u64 * block), block)
                    .expect("receive block");
                let damage = corrupt && r == 0 && i == 1;
                all &= if i == r {
                    got == src
                } else {
                    let expected = expected_recv(&w.ty, src, 0, &w.ty, 0, block as usize);
                    oracle_eq(got, &expected, damage)
                };
            }
        }
        all
    }

    fn probe_type(&self) -> DataType {
        block_type()
    }
}
