//! Collective operations built on the point-to-point stack.
//!
//! The paper notes that a committed datatype is usable in "any
//! point-to-point, collective, I/O and one-sided" operation; this
//! module demonstrates that the GPU datatype engine composes with
//! classic collective algorithms unchanged — every underlying transfer
//! goes through the same protocol selection (pipelined IPC RDMA /
//! copy-in/out / eager) as a plain send.
//!
//! This module is *posting only*. Who talks to whom in which round is
//! defined once, in [`crate::schedule`] (the textbook algorithms Open
//! MPI's `coll/base` uses at these scales: binomial-tree broadcast,
//! ring allgather, pairwise alltoall, dissemination barrier);
//! `exchange` posts one round of a round-structured schedule and
//! `fan_out` one level of the broadcast tree.
//!
//! Buffers are passed as one pointer per rank (each rank's buffer in
//! its own memory space), since all ranks live in one simulation.
//!
//! A transfer that fails resolves the collective's request with its own
//! error, at once, and the collective posts nothing further.

use crate::api::{irecv, isend, RecvArgs, SendArgs};
use crate::request::{join, MpiError, Request};
use crate::schedule::{bcast_children, Exchange};
use crate::world::MpiWorld;
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use simcore::Sim;
use std::cell::Cell;
use std::rc::Rc;

/// Tag space reserved for collectives (far above user tags).
const COLL_TAG_BASE: u64 = 1 << 40;

/// What every transfer of one collective call shares.
struct Coll {
    ty: DataType,
    count: u64,
    /// Bytes from one block of a rank's buffer to the next.
    block: u64,
    /// Per rank: the buffer its sends read and the one its receives fill.
    src: Vec<Ptr>,
    dst: Vec<Ptr>,
    /// Round `k` uses `tag + k`.
    tag: u64,
    /// The request the caller holds.
    all: Request,
}

impl Coll {
    fn ranks(&self) -> usize {
        self.src.len()
    }

    /// A transfer failed: the collective fails with that error, now. The
    /// failing rank never reports in — its part of a `join` stays
    /// unresolved, a broadcast's countdown stays above zero — so `all`
    /// cannot be resolved a second time.
    fn fail(&self, sim: &mut Sim<MpiWorld>, e: &MpiError) {
        self.all.complete_if_pending(sim, Err(e.clone()));
    }
}

/// A collective's arguments against the world: every buffer table
/// holds one pointer per rank, and the root, if any, is a rank.
fn check_args(sim: &Sim<MpiWorld>, tables: &[&[Ptr]], root: Option<usize>) -> Result<(), MpiError> {
    let p = sim.world.mpi.ranks.len();
    if let Some(t) = tables.iter().find(|t| t.len() != p) {
        return Err(MpiError::Mem(format!(
            "{} buffers for a {p}-rank world",
            t.len()
        )));
    }
    match root {
        Some(root) if root >= p => Err(MpiError::Mem(format!(
            "root {root} outside a {p}-rank world"
        ))),
        _ => Ok(()),
    }
}

/// A request already failed with `e`: the collective posts nothing.
fn failed(sim: &mut Sim<MpiWorld>, e: MpiError) -> Request {
    let req = Request::new();
    req.complete(sim, Err(e));
    req
}

/// `n` unresolved parts and the request that joins them.
fn parts(sim: &mut Sim<MpiWorld>, n: usize) -> (Vec<Request>, Request) {
    let parts: Vec<Request> = (0..n).map(|_| Request::new()).collect();
    let all = join(sim, &parts);
    (parts, all)
}

/// Distance between consecutive `count`-element blocks of `ty`.
fn block_bytes(ty: &DataType, count: u64) -> u64 {
    count * ty.extent().max(ty.size() as i64) as u64
}

/// Post `rank`'s send and receive of `round`; when both complete, post
/// the next round; after the last, resolve `done`.
fn exchange(
    sim: &mut Sim<MpiWorld>,
    kind: Exchange,
    cx: Rc<Coll>,
    rank: usize,
    round: usize,
    done: Request,
) {
    if cx.all.is_complete() {
        return; // failed elsewhere
    }
    if round == kind.rounds(cx.ranks()) {
        done.complete(sim, Ok(0));
        return;
    }
    let step = kind.step(rank, round, cx.ranks());
    let tag = cx.tag + round as u64;
    let from_buf = cx.src[rank].add(step.send_block as u64 * cx.block);
    let into_buf = cx.dst[rank].add(step.recv_block as u64 * cx.block);
    let s = isend(
        sim,
        SendArgs::new(rank, step.to, from_buf, &cx.ty, cx.count).tag(tag),
    );
    let rv = irecv(
        sim,
        RecvArgs::new(rank, step.from, into_buf, &cx.ty, cx.count).tag(tag),
    );
    let both = join(sim, &[s, rv]);
    both.on_complete(sim, move |sim, res| match res {
        Ok(_) => exchange(sim, kind, cx, rank, round + 1, done),
        Err(e) => cx.fail(sim, e),
    });
}

/// Copy `rank`'s own block `src → dst` on its copy stream, then run
/// `then`; a buffer that does not hold the block fails the collective
/// with `MpiError::Mem` when the copy lands.
fn self_copy(
    sim: &mut Sim<MpiWorld>,
    cx: &Rc<Coll>,
    rank: usize,
    (src, dst): (Ptr, Ptr),
    then: impl FnOnce(&mut Sim<MpiWorld>, Rc<Coll>) + 'static,
) {
    let (cx, stream) = (Rc::clone(cx), sim.world.mpi.ranks[rank].copy_stream);
    gpusim::charge_memcpy(sim, stream, src, dst, cx.block, move |sim, _| {
        match sim.world.mem().copy(src, dst, cx.block) {
            Ok(()) => then(sim, cx),
            Err(e) => cx.fail(sim, &MpiError::Mem(e.to_string())),
        }
    });
}

/// Broadcast `count` instances of `ty` from `root`'s buffer to every
/// rank, binomial tree. Completes when all ranks have the data. Fails
/// at once with `MpiError::Mem`, posting nothing, unless `bufs` holds
/// one buffer per rank and `root` is a rank.
pub fn bcast(
    sim: &mut Sim<MpiWorld>,
    root: usize,
    ty: &DataType,
    count: u64,
    bufs: &[Ptr],
    op_tag: u64,
) -> Request {
    if let Err(e) = check_args(sim, &[bufs], Some(root)) {
        return failed(sim, e);
    }
    let p = bufs.len();
    let done = Request::new();
    if p == 1 {
        done.complete(sim, Ok(0));
        return done;
    }
    let cx = Rc::new(Coll {
        ty: ty.clone(),
        count,
        block: 0,
        src: bufs.to_vec(),
        dst: bufs.to_vec(),
        tag: COLL_TAG_BASE + op_tag,
        all: done.clone(),
    });
    // Each rank forwards to its sub-trees once its own data is ready;
    // the root starts immediately.
    fan_out(sim, cx, root, root, Rc::new(Cell::new(p - 1)));
    done
}

/// Post `rank`'s sends to its children in the tree rooted at `root`,
/// with the children's receives; each child fans out in turn when its
/// data has landed. `waiting` counts the ranks still without the data.
fn fan_out(
    sim: &mut Sim<MpiWorld>,
    cx: Rc<Coll>,
    rank: usize,
    root: usize,
    waiting: Rc<Cell<usize>>,
) {
    if cx.all.is_complete() {
        return; // failed elsewhere (or `rank` is the last leaf)
    }
    for child in bcast_children(rank, root, cx.ranks()) {
        // The send side needs no continuation; completion is tracked on
        // the receiving child.
        isend(
            sim,
            SendArgs::new(rank, child, cx.src[rank], &cx.ty, cx.count).tag(cx.tag),
        );
        let r = irecv(
            sim,
            RecvArgs::new(child, rank, cx.dst[child], &cx.ty, cx.count).tag(cx.tag),
        );
        let (cx, waiting) = (Rc::clone(&cx), Rc::clone(&waiting));
        r.on_complete(sim, move |sim, res| {
            if let Err(e) = res {
                return cx.fail(sim, e);
            }
            waiting.set(waiting.get() - 1);
            if waiting.get() == 0 {
                cx.all.complete(sim, Ok(cx.ty.size() * cx.count));
            }
            fan_out(sim, cx, child, root, waiting);
        });
    }
}

/// Ring allgather: every rank contributes `count` instances of `ty`
/// from `send_bufs[r]`; each rank's `recv_bufs[r]` holds `p` blocks
/// (block `i` at offset `i * count * extent`). Completes when all ranks
/// hold everything. Fails at once with `MpiError::Mem`, posting
/// nothing, unless both tables hold one buffer per rank.
pub fn allgather(
    sim: &mut Sim<MpiWorld>,
    ty: &DataType,
    count: u64,
    send_bufs: &[Ptr],
    recv_bufs: &[Ptr],
    op_tag: u64,
) -> Request {
    if let Err(e) = check_args(sim, &[send_bufs, recv_bufs], None) {
        return failed(sim, e);
    }
    let (rings, all) = parts(sim, send_bufs.len());
    let cx = Rc::new(Coll {
        ty: ty.clone(),
        count,
        block: block_bytes(ty, count),
        src: recv_bufs.to_vec(),
        dst: recv_bufs.to_vec(),
        tag: COLL_TAG_BASE + (1 << 20) + op_tag,
        all: all.clone(),
    });
    // Local copy of own contribution into slot `r` (charged as a
    // device/host copy on the rank's copy stream). The ring starts
    // only once the copy lands: round 0 sends slot `r` itself, and an
    // eager-path send snapshots the block when posted — posting before
    // the copy completes would ship uninitialized bytes (seen at 32
    // ranks with small host blocks; device rendezvous masked it).
    for (r, ring) in rings.into_iter().enumerate() {
        let dst = recv_bufs[r].add(r as u64 * cx.block);
        let start =
            move |sim: &mut Sim<MpiWorld>, cx| exchange(sim, Exchange::Ring, cx, r, 0, ring);
        self_copy(sim, &cx, r, (send_bufs[r], dst), start);
    }
    all
}

/// Pairwise alltoall: rank r's `send_bufs[r]` holds `p` blocks of
/// `count` instances; block `i` goes to rank `i`, landing in block `r`
/// of `recv_bufs[i]`. `p-1` exchange rounds plus a local copy. Fails
/// at once with `MpiError::Mem`, posting nothing, unless both tables
/// hold one buffer per rank.
pub fn alltoall(
    sim: &mut Sim<MpiWorld>,
    ty: &DataType,
    count: u64,
    send_bufs: &[Ptr],
    recv_bufs: &[Ptr],
    op_tag: u64,
) -> Request {
    if let Err(e) = check_args(sim, &[send_bufs, recv_bufs], None) {
        return failed(sim, e);
    }
    let p = send_bufs.len();
    let (mut rounds, all) = parts(sim, 2 * p);
    let locals = rounds.split_off(p);
    let cx = Rc::new(Coll {
        ty: ty.clone(),
        count,
        block: block_bytes(ty, count),
        src: send_bufs.to_vec(),
        dst: recv_bufs.to_vec(),
        tag: COLL_TAG_BASE + (2 << 20) + op_tag,
        all: all.clone(),
    });
    // Local block r -> r.
    let size = ty.size() * count;
    for (r, local) in locals.into_iter().enumerate() {
        let src = send_bufs[r].add(r as u64 * cx.block);
        let dst = recv_bufs[r].add(r as u64 * cx.block);
        self_copy(sim, &cx, r, (src, dst), move |sim, _| {
            local.complete(sim, Ok(size));
        });
    }
    // The rounds of each rank run one after the other.
    for (r, done) in rounds.into_iter().enumerate() {
        exchange(sim, Exchange::Rotation, Rc::clone(&cx), r, 0, done);
    }
    all
}

/// Dissemination barrier over 1-byte eager messages.
pub fn barrier(sim: &mut Sim<MpiWorld>, op_tag: u64) -> Request {
    let p = sim.world.mpi.ranks.len();
    // Tiny host scratch per rank, released when the barrier resolves.
    let scratch = match sim.world.mem().alloc(MemSpace::Host, 8 * p as u64) {
        Ok(base) => base,
        Err(e) => return failed(sim, MpiError::Mem(e.to_string())),
    };
    let slots: Vec<Ptr> = (0..p).map(|r| scratch.add(8 * r as u64)).collect();
    let (rounds, all) = parts(sim, p);
    all.on_complete(sim, move |sim, _| {
        // Nothing to report to: the barrier has already resolved.
        let _ = sim.world.mem().free(scratch);
    });
    let cx = Rc::new(Coll {
        ty: DataType::byte().commit(),
        count: 1,
        block: 0,
        src: slots.clone(),
        dst: slots,
        tag: COLL_TAG_BASE + (3 << 20) + op_tag,
        all: all.clone(),
    });
    for (r, done) in rounds.into_iter().enumerate() {
        exchange(sim, Exchange::Dissemination, Rc::clone(&cx), r, 0, done);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use crate::world::RankSpec;
    use datatype::testutil::pattern;
    use memsim::{GpuId, MemSpace};

    /// A 4-rank job: two nodes with two GPUs each (SM within a node,
    /// IB across).
    fn four_ranks() -> Sim<MpiWorld> {
        four_ranks_with(MpiConfig::default())
    }

    fn four_ranks_with(config: MpiConfig) -> Sim<MpiWorld> {
        let specs = [
            RankSpec {
                gpu: GpuId(0),
                node: 0,
            },
            RankSpec {
                gpu: GpuId(1),
                node: 0,
            },
            RankSpec {
                gpu: GpuId(2),
                node: 1,
            },
            RankSpec {
                gpu: GpuId(3),
                node: 1,
            },
        ];
        Sim::new(MpiWorld::new(&specs, 4, config))
    }

    fn dev_alloc(sim: &mut Sim<MpiWorld>, rank: usize, bytes: u64) -> Ptr {
        let gpu = sim.world.mpi.ranks[rank].gpu;
        sim.world.mem().alloc(MemSpace::Device(gpu), bytes).unwrap()
    }

    #[test]
    fn bcast_delivers_to_all() {
        let mut sim = four_ranks();
        let ty = DataType::vector(64, 8, 16, &DataType::double())
            .unwrap()
            .commit();
        let len = ty.extent() as u64;
        let bufs: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, len)).collect();
        let data = pattern(len as usize);
        sim.world.mem().write(bufs[2], &data).unwrap(); // root = 2
        let req = bcast(&mut sim, 2, &ty, 1, &bufs, 0);
        sim.run();
        assert!(req.is_complete());
        for (r, b) in bufs.iter().enumerate() {
            let got = sim.world.mem().read_vec(*b, len).unwrap();
            for s in ty.segments(1) {
                let range = s.disp as usize..(s.disp + s.len as i64) as usize;
                assert_eq!(&got[range.clone()], &data[range], "rank {r}");
            }
        }
    }

    #[test]
    fn allgather_assembles_all_blocks() {
        let mut sim = four_ranks();
        let ty = DataType::contiguous(1024, &DataType::double())
            .unwrap()
            .commit();
        let block = ty.size();
        let sends: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, block)).collect();
        let recvs: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, block * 4)).collect();
        let mut datas = Vec::new();
        for (r, s) in sends.iter().enumerate() {
            let mut d = pattern(block as usize);
            d[0] = r as u8 + 1; // distinguish contributions
            sim.world.mem().write(*s, &d).unwrap();
            datas.push(d);
        }
        let req = allgather(&mut sim, &ty, 1, &sends, &recvs, 0);
        sim.run();
        assert!(req.is_complete());
        for (r, b) in recvs.iter().enumerate() {
            let got = sim.world.mem().read_vec(*b, block * 4).unwrap();
            for (i, d) in datas.iter().enumerate() {
                assert_eq!(
                    &got[i * block as usize..(i + 1) * block as usize],
                    &d[..],
                    "rank {r}, block {i}"
                );
            }
        }
    }

    #[test]
    fn alltoall_transposes_blocks() {
        let mut sim = four_ranks();
        let ty = DataType::contiguous(512, &DataType::double())
            .unwrap()
            .commit();
        let block = ty.size();
        let sends: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, block * 4)).collect();
        let recvs: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, block * 4)).collect();
        // send_bufs[r] block i = filled with marker (r*4 + i + 1).
        for (r, s) in sends.iter().enumerate() {
            let mut d = vec![0u8; (block * 4) as usize];
            for i in 0..4 {
                d[i * block as usize..(i + 1) * block as usize].fill((r * 4 + i + 1) as u8);
            }
            sim.world.mem().write(*s, &d).unwrap();
        }
        let req = alltoall(&mut sim, &ty, 1, &sends, &recvs, 0);
        sim.run();
        assert!(req.is_complete());
        for (r, b) in recvs.iter().enumerate() {
            let got = sim.world.mem().read_vec(*b, block * 4).unwrap();
            for i in 0..4usize {
                // recv_bufs[r] block i came from rank i's block r.
                let expect = (i * 4 + r + 1) as u8;
                assert!(
                    got[i * block as usize..(i + 1) * block as usize]
                        .iter()
                        .all(|&x| x == expect),
                    "rank {r} block {i}: expected {expect}"
                );
            }
        }
    }

    #[test]
    fn barrier_completes() {
        let mut sim = four_ranks();
        let req = barrier(&mut sim, 0);
        sim.run();
        assert!(req.is_complete());
        assert_eq!(sim.world.mpi.matcher.pending(), 0);
    }

    #[test]
    fn bcast_single_rank_is_trivial() {
        let specs = [RankSpec {
            gpu: GpuId(0),
            node: 0,
        }];
        let mut sim = Sim::new(MpiWorld::new(&specs, 1, MpiConfig::default()));
        let ty = DataType::double().commit();
        let b = dev_alloc(&mut sim, 0, 8);
        let req = bcast(&mut sim, 0, &ty, 1, &[b], 0);
        assert!(req.is_complete());
    }

    /// One rank's receive buffer is a block short: the transfer into the
    /// missing block fails, and the collective's request resolves with
    /// that transfer's error — no panic, no `Stalled` from the ranks the
    /// failure leaves without a partner — exactly once, with every block
    /// that did land correct and the rest untouched.
    #[test]
    fn a_failed_transfer_fails_the_collective_with_its_own_error() {
        const FILL: u8 = 0xA5;
        // Rendezvous-sized blocks: the executor range-checks a landing.
        let ty = DataType::contiguous(16 << 10, &DataType::double())
            .unwrap()
            .commit();
        let block = ty.size();
        let short = 1; // the rank whose receive buffer lacks its last block
                       // Also with NIC offload on, whose landing is the NIC's program.
        let runs = [false, true].map(|nic_offload| MpiConfig {
            nic_offload,
            ..MpiConfig::default()
        });
        for (which, config) in runs
            .iter()
            .flat_map(|c| ["alltoall", "allgather", "bcast"].map(|which| (which, c.clone())))
        {
            let mut sim = four_ranks_with(config);
            let blocks = if which == "bcast" { 1 } else { 4 };
            let sends: Vec<Ptr> = (0..4)
                .map(|r| dev_alloc(&mut sim, r, block * blocks))
                .collect();
            let recvs: Vec<Ptr> = (0..4)
                .map(|r| {
                    let held = blocks - (r == short) as u64;
                    let b = dev_alloc(&mut sim, r, (block * held).max(8));
                    let fill = vec![FILL; (block * held) as usize];
                    sim.world.mem().write(b, &fill).unwrap();
                    b
                })
                .collect();
            // Block `i` of rank `r`'s send buffer is all `16 r + i + 1`.
            for (r, s) in sends.iter().enumerate() {
                for i in 0..blocks {
                    let mark = vec![(16 * r as u64 + i + 1) as u8; block as usize];
                    sim.world.mem().write(s.add(i * block), &mark).unwrap();
                }
            }
            let root = 2;
            let req = match which {
                "alltoall" => alltoall(&mut sim, &ty, 1, &sends, &recvs, 0),
                "allgather" => allgather(&mut sim, &ty, 1, &sends, &recvs, 0),
                _ => {
                    let mark = vec![33u8; block as usize];
                    sim.world.mem().write(recvs[root], &mark).unwrap();
                    bcast(&mut sim, root, &ty, 1, &recvs, 0)
                }
            };
            let failed = crate::api::wait_all(&mut sim, std::slice::from_ref(&req));
            assert!(
                matches!(failed, Err(MpiError::Mem(_))),
                "{which}: {failed:?}"
            );
            // Stragglers run out; nothing resolves the request again.
            while sim.step() {}
            assert!(matches!(req.result(), Some(Err(MpiError::Mem(_)))));
            let mut landed = 0;
            for (r, b) in recvs.iter().enumerate() {
                for i in 0..blocks as usize - (r == short) as usize {
                    let want = match which {
                        "alltoall" => 16 * i + r + 1, // rank i's block r
                        "allgather" => 16 * i + 1,    // rank i's contribution
                        _ => 33,
                    } as u8;
                    let got = sim
                        .world
                        .mem()
                        .read_vec(b.add(i as u64 * block), block)
                        .unwrap();
                    let whole = |v: u8| got.iter().all(|&x| x == v);
                    assert!(
                        whole(want) || whole(FILL),
                        "{which}: rank {r} block {i} is neither delivered nor untouched"
                    );
                    landed += whole(want) as usize;
                }
            }
            let posted = sim.world.mpi.matcher.pending();
            println!("{which}: {landed} blocks landed, {posted} postings left unmatched");
            assert!(landed >= 2, "{which}: transfers before the failure land");
        }
    }

    /// A collective called with a buffer table that does not hold one
    /// buffer per rank, or a root that is not a rank, fails at once with
    /// `MpiError::Mem` and posts nothing.
    fn refuses(which: &str, call: impl FnOnce(&mut Sim<MpiWorld>, &[Ptr], &[Ptr]) -> Request) {
        let mut sim = four_ranks();
        let bufs: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, 64)).collect();
        let req = call(&mut sim, &bufs, &bufs[..3]);
        assert!(
            matches!(req.result(), Some(Err(MpiError::Mem(_)))),
            "{which}: {:?}",
            req.result()
        );
        assert_eq!(sim.world.mpi.matcher.pending(), 0, "{which} posted");
        assert!(!sim.step(), "{which} scheduled work");
        assert_eq!(sim.world.mem_ref().bytes_moved(), 0, "{which} moved bytes");
    }

    #[test]
    fn bcast_with_bad_arguments_fails_at_once() {
        let ty = DataType::byte().commit();
        refuses("short table", |sim, _, three| {
            bcast(sim, 0, &ty, 8, three, 0)
        });
        refuses("root past the world", |sim, four, _| {
            bcast(sim, 4, &ty, 8, four, 0)
        });
    }

    #[test]
    fn allgather_with_bad_arguments_fails_at_once() {
        let ty = DataType::byte().commit();
        refuses("short receive table", |sim, four, three| {
            allgather(sim, &ty, 8, four, three, 0)
        });
        refuses("both tables short", |sim, _, three| {
            allgather(sim, &ty, 8, three, three, 0)
        });
    }

    #[test]
    fn alltoall_with_bad_arguments_fails_at_once() {
        let ty = DataType::byte().commit();
        refuses("short send table", |sim, four, three| {
            alltoall(sim, &ty, 8, three, four, 0)
        });
        refuses("both tables short", |sim, _, three| {
            alltoall(sim, &ty, 8, three, three, 0)
        });
    }

    /// A barrier releases its scratch when it resolves: one per epoch
    /// leaves the host pool where it found it.
    #[test]
    fn barriers_release_their_scratch() {
        let mut sim = four_ranks();
        let before = sim.world.mem().pool(MemSpace::Host).used();
        for epoch in 0..100 {
            let req = barrier(&mut sim, 1_000_000 + epoch);
            sim.run();
            req.expect_bytes();
        }
        assert_eq!(sim.world.mem().pool(MemSpace::Host).used(), before);
        assert_eq!(sim.world.mpi.matcher.pending(), 0);
    }
}
