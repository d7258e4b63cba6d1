//! 2-D stencil halo exchange (the SHOC-style workload from the paper's
//! §3 motivation): each rank owns a tile of a larger grid on its GPU;
//! every iteration exchanges four boundaries with its neighbour — two
//! are contiguous rows, two are strided columns described by a vector
//! datatype.
//!
//! ```text
//! cargo run --release --example stencil_halo
//! ```
//!
//! Shows how MPI datatypes remove all manual packing from application
//! code, and how the contiguous/vector halves behave differently on
//! the wire (the contiguous sides take the RDMA fast path; the vector
//! sides run the GPU pack/unpack kernels).

use gpu_ddt::memsim::MemSpace;
use gpu_ddt::prelude::*;

/// Tile geometry: `n` × `n` doubles plus a one-cell halo ring,
/// column-major storage with leading dimension `n + 2`.
struct Tile {
    ld: u64,
    buf: Ptr,
}

impl Tile {
    fn idx(&self, row: u64, col: u64) -> u64 {
        (col * self.ld + row) * 8
    }
}

fn main() {
    let n: u64 = 1024;
    let ld = n + 2;
    let iters = 10u32;

    let mut sess = Session::builder()
        .two_ranks_two_gpus()
        .label("stencil-halo")
        .build();

    // Datatypes for the four boundaries of a column-major tile:
    //   north/south: one grid *row* -> strided, one element per column.
    //   east/west:   one grid *column* -> contiguous run of n doubles.
    let row_ty = DataType::vector(n, 1, ld as i64, &DataType::double())
        .unwrap()
        .commit();
    let col_ty = DataType::contiguous(n, &DataType::double())
        .unwrap()
        .commit();
    println!("row halo type:    {row_ty} ({} bytes)", row_ty.size());
    println!("column halo type: {col_ty} ({} bytes)", col_ty.size());

    // One tile per rank, on its own GPU.
    let bytes = ld * ld * 8;
    let tiles: Vec<Tile> = (0..2)
        .map(|r| {
            let gpu = sess.world.mpi.ranks[r].gpu;
            let buf = sess
                .world
                .cluster
                .memory
                .alloc(MemSpace::Device(gpu), bytes)
                .unwrap();
            Tile { ld, buf }
        })
        .collect();

    // Ranks are east/west neighbours: exchange east column of rank 0
    // with west halo of rank 1 (contiguous), and for demonstration the
    // south row of rank 0 with the north halo row of rank 1 (vector).
    let mut per_iter = Vec::new();
    for it in 0..iters {
        let t0 = sess.now();
        // Contiguous column exchange, then the strided row exchange.
        let mut reqs = vec![isend(
            &mut sess,
            SendArgs::new(0, 1, tiles[0].buf.add(tiles[0].idx(1, n)), &col_ty, 1).tag(1),
        )];
        reqs.push(irecv(
            &mut sess,
            RecvArgs::new(1, 0, tiles[1].buf.add(tiles[1].idx(1, 0)), &col_ty, 1).tag(1),
        ));
        // Strided row exchange, reverse direction.
        reqs.push(isend(
            &mut sess,
            SendArgs::new(1, 0, tiles[1].buf.add(tiles[1].idx(1, 1)), &row_ty, 1).tag(2),
        ));
        reqs.push(irecv(
            &mut sess,
            RecvArgs::new(0, 1, tiles[0].buf.add(tiles[0].idx(n + 1, 1)), &row_ty, 1).tag(2),
        ));
        wait_all(&mut sess, &reqs).expect("halo exchange failed");
        let dt = sess.now() - t0;
        if it > 0 {
            per_iter.push(dt);
        } else {
            println!("iteration 0 (cold: connection + DEV cache): {dt}");
        }
    }
    let mean = SimTime::from_nanos(
        per_iter.iter().map(|t| t.as_nanos()).sum::<u64>() / per_iter.len() as u64,
    );
    println!(
        "steady-state halo exchange: {mean} per iteration ({} warm iterations)",
        per_iter.len()
    );
    println!(
        "  contiguous column: {} KB each way; strided row: {} KB each way",
        col_ty.size() / 1024,
        row_ty.size() / 1024
    );

    let metrics = sess.finish();
    let expect = iters as u64 * (col_ty.size() + row_ty.size());
    assert_eq!(metrics.counter(Counter::MpiDeliveredBytes), expect);
    println!(
        "metrics: {} bytes delivered over {iters} iterations",
        expect
    );
}
