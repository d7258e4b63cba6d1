//! Full-stack collectives past the paper's two-rank testbeds: N-rank
//! worlds laid out by `netsim::Topology` through
//! `Session::builder().ranks(n).topology(...)`.
//!
//! Every transfer here still runs the complete protocol stack —
//! matching, rendezvous, channel scheduling — just on bigger jobs; the
//! message-level model (`mpirt::scale`, `scale_soak`) covers the
//! 1024-rank regime these worlds are too detailed for.

use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::scale::{self, ScaleConfig, ScaleOp};
use mpirt::{allgather, alltoall, barrier, bcast, Session};
use netsim::{ChannelKind, Topology};
use simcore::Counter;

fn contig(bytes: u64) -> DataType {
    DataType::contiguous(bytes / 8, &DataType::double())
        .unwrap()
        .commit()
}

fn host_alloc(sess: &mut Session, bytes: u64) -> Ptr {
    sess.world.mem().alloc(MemSpace::Host, bytes).unwrap()
}

#[test]
fn topology_places_ranks_on_nodes() {
    let sess = Session::builder()
        .ranks(16)
        .topology(Topology::FatTree {
            ranks_per_node: 4,
            radix: 2,
        })
        .build();
    // Four ranks per node: 0..4 share a node, 4 is one hop away.
    assert!(sess.world.same_node(0, 3));
    assert!(!sess.world.same_node(0, 4));
    assert_eq!(
        sess.world.cluster.net_system.kind(0, 3),
        ChannelKind::SharedMemory
    );
    assert_eq!(
        sess.world.cluster.net_system.kind(0, 4),
        ChannelKind::InfiniBand
    );
}

#[test]
fn bcast_reaches_64_ranks_on_a_fat_tree() {
    let n = 64usize;
    let mut sess = Session::builder()
        .ranks(n)
        .topology(Topology::FatTree {
            ranks_per_node: 4,
            radix: 4,
        })
        .build();
    let ty = contig(2048);
    let len = ty.size();
    let bufs: Vec<Ptr> = (0..n).map(|_| host_alloc(&mut sess, len)).collect();
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    sess.world.mem().write(bufs[5], &data).unwrap(); // root = 5
    let req = bcast(&mut sess, 5, &ty, 1, &bufs, 0);
    sess.run();
    assert!(req.is_complete());
    for (r, b) in bufs.iter().enumerate() {
        let got = sess.world.mem().read_vec(*b, len).unwrap();
        assert_eq!(got, data, "rank {r}");
    }
}

#[test]
fn allgather_assembles_32_rank_ring() {
    let n = 32usize;
    let mut sess = Session::builder()
        .ranks(n)
        .topology(Topology::Ring { ranks_per_node: 2 })
        .build();
    let ty = contig(512);
    let block = ty.size();
    let sends: Vec<Ptr> = (0..n).map(|_| host_alloc(&mut sess, block)).collect();
    let recvs: Vec<Ptr> = (0..n)
        .map(|_| host_alloc(&mut sess, block * n as u64))
        .collect();
    for (r, s) in sends.iter().enumerate() {
        let d = vec![r as u8 + 1; block as usize];
        sess.world.mem().write(*s, &d).unwrap();
    }
    let req = allgather(&mut sess, &ty, 1, &sends, &recvs, 0);
    sess.run();
    assert!(req.is_complete());
    for (r, b) in recvs.iter().enumerate() {
        let got = sess.world.mem().read_vec(*b, block * n as u64).unwrap();
        for i in 0..n {
            assert!(
                got[i * block as usize..(i + 1) * block as usize]
                    .iter()
                    .all(|&x| x == i as u8 + 1),
                "rank {r} block {i}"
            );
        }
    }
}

#[test]
fn alltoall_transposes_16_ranks_on_a_dragonfly() {
    let n = 16usize;
    let mut sess = Session::builder()
        .ranks(n)
        .topology(Topology::Dragonfly {
            ranks_per_node: 2,
            group_size: 2,
        })
        .build();
    let ty = contig(256);
    let block = ty.size();
    let sends: Vec<Ptr> = (0..n)
        .map(|_| host_alloc(&mut sess, block * n as u64))
        .collect();
    let recvs: Vec<Ptr> = (0..n)
        .map(|_| host_alloc(&mut sess, block * n as u64))
        .collect();
    for (r, s) in sends.iter().enumerate() {
        let mut d = vec![0u8; (block * n as u64) as usize];
        for i in 0..n {
            d[i * block as usize..(i + 1) * block as usize].fill((r * n + i) as u8);
        }
        sess.world.mem().write(*s, &d).unwrap();
    }
    let req = alltoall(&mut sess, &ty, 1, &sends, &recvs, 0);
    sess.run();
    assert!(req.is_complete());
    for (r, b) in recvs.iter().enumerate() {
        let got = sess.world.mem().read_vec(*b, block * n as u64).unwrap();
        for i in 0..n {
            let expect = (i * n + r) as u8;
            assert!(
                got[i * block as usize..(i + 1) * block as usize]
                    .iter()
                    .all(|&x| x == expect),
                "rank {r} block {i}"
            );
        }
    }
}

#[test]
fn barrier_synchronizes_64_ranks() {
    let mut sess = Session::builder().ranks(64).build();
    let req = barrier(&mut sess, 0);
    sess.run();
    assert!(req.is_complete());
}

/// The two models run one schedule: with eager-sized host blocks every
/// transfer of the full stack is one active message, so a collective's
/// `netsim.am.count` equals the message count of the scale model's
/// matching op — `n − 1`, `n(n − 1)`, `n(n − 1)`, `n ⌈log₂ n⌉`.
#[test]
fn full_stack_and_scale_model_send_the_same_messages() {
    let ty = contig(256);
    let bytes = ty.size();
    for n in [4usize, 16] {
        let log2 = n.trailing_zeros() as u64; // both sizes are powers of two
        let n64 = n as u64;
        let cases = [
            (ScaleOp::Bcast { root: 1, bytes }, n64 - 1),
            (ScaleOp::Allgather { bytes }, n64 * (n64 - 1)),
            (ScaleOp::Alltoall { bytes }, n64 * (n64 - 1)),
            (ScaleOp::Barrier, n64 * log2),
        ];
        for (op, want) in cases {
            let mut sess = Session::builder().ranks(n).build();
            let small: Vec<Ptr> = (0..n).map(|_| host_alloc(&mut sess, bytes)).collect();
            let wide = |sess: &mut Session| -> Vec<Ptr> {
                (0..n).map(|_| host_alloc(sess, bytes * n64)).collect()
            };
            let req = match op {
                ScaleOp::Bcast { root, .. } => bcast(&mut sess, root as usize, &ty, 1, &small, 0),
                ScaleOp::Allgather { .. } => {
                    let recvs = wide(&mut sess);
                    allgather(&mut sess, &ty, 1, &small, &recvs, 0)
                }
                ScaleOp::Alltoall { .. } => {
                    let (sends, recvs) = (wide(&mut sess), wide(&mut sess));
                    alltoall(&mut sess, &ty, 1, &sends, &recvs, 0)
                }
                _ => barrier(&mut sess, 0),
            };
            sess.run();
            req.expect_bytes();
            let full = sess.trace.counter(Counter::NetsimAmCount);
            let model = scale::run(&ScaleConfig::new(n as u32, vec![op]), false).msgs;
            assert_eq!((full, model), (want, want), "{op:?} on {n} ranks");
        }
    }
}
