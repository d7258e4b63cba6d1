//! Multi-GPU all-to-all with derived datatypes: the communication
//! pattern of a distributed matrix transpose / parallel FFT across
//! four ranks on two nodes (two GPUs per node).
//!
//! ```text
//! cargo run --release --example multigpu_alltoall
//! ```
//!
//! Every pairwise exchange beneath the collective independently picks
//! its transport — CUDA-IPC RDMA within a node, copy-in/out over
//! InfiniBand across nodes — while the GPU datatype engine handles the
//! non-contiguous blocks on both ends.

use gpu_ddt::memsim::{GpuId, MemSpace};
use gpu_ddt::mpirt::coll::alltoall;
use gpu_ddt::mpirt::RankSpec;
use gpu_ddt::prelude::*;

fn main() {
    let p = 4usize;
    // Each rank sends one 512x512-double tile to every rank, described
    // as a sub-matrix vector inside a 1024-column frame.
    let n: u64 = 512;
    let tile = DataType::vector(n, n, 2 * n as i64, &DataType::double())
        .unwrap()
        .commit();
    let block = tile.extent() as u64;
    println!(
        "alltoall of {p}x{p} tiles, {} MB of data per rank pair message",
        tile.size() >> 20
    );

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
    let mut sess = Session::builder()
        .rank_specs(&specs, 4)
        .label("alltoall")
        .build();

    let mut send_bufs = Vec::new();
    let mut recv_bufs = Vec::new();
    for r in 0..p {
        let gpu = sess.world.mpi.ranks[r].gpu;
        let s = sess
            .world
            .cluster
            .memory
            .alloc(MemSpace::Device(gpu), block * p as u64)
            .unwrap();
        let d = sess
            .world
            .cluster
            .memory
            .alloc(MemSpace::Device(gpu), block * p as u64)
            .unwrap();
        // Tag each tile with its (sender, dest) pair for verification.
        for i in 0..p {
            let marker = (r * p + i + 1) as u8;
            let bytes = vec![marker; block as usize];
            sess.world
                .cluster
                .memory
                .write(s.add(i as u64 * block), &bytes)
                .unwrap();
        }
        send_bufs.push(s);
        recv_bufs.push(d);
    }

    let t0 = sess.now();
    let req = alltoall(&mut sess, &tile, 1, &send_bufs, &recv_bufs, 0);
    sess.run();
    assert!(req.is_complete());
    let dt = sess.now() - t0;
    println!("alltoall completed in {dt} (virtual time)");

    // Verify: recv_bufs[r] block i holds rank i's tile destined to r —
    // but only the bytes the datatype describes were transferred.
    for (r, rbuf) in recv_bufs.iter().enumerate() {
        for i in 0..p {
            let got = sess
                .world
                .cluster
                .memory
                .read_vec(rbuf.add(i as u64 * block), block)
                .unwrap();
            let expect = (i * p + r + 1) as u8;
            for seg in tile.segments(1) {
                let range = seg.disp as usize..(seg.disp + seg.len as i64) as usize;
                assert!(
                    got[range.clone()].iter().all(|&b| b == expect),
                    "rank {r} tile {i}"
                );
            }
        }
    }
    println!("OK — all {}x{} tiles verified on every rank", p, p);
    let bytes_total = tile.size() * (p * (p - 1)) as u64;
    let metrics = sess.finish();
    assert_eq!(metrics.counter(Counter::MpiDeliveredBytes), bytes_total);
    println!(
        "aggregate payload {} MB, effective {:.2} GB/s across the job",
        bytes_total >> 20,
        bytes_total as f64 / dt.as_secs_f64() / 1e9
    );
}
