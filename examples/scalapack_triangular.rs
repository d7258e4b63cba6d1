//! ScaLAPACK-style exchange of a lower-triangular matrix — the paper's
//! indexed-datatype workload — demonstrating the CUDA-DEV cache.
//!
//! ```text
//! cargo run --release --example scalapack_triangular
//! ```
//!
//! Dense linear algebra factorizations repeatedly communicate
//! triangular panels. Described as an MPI indexed datatype they can be
//! sent directly from GPU memory; the first transfer pays the CPU-side
//! DEV conversion, later transfers reuse the cached CUDA-DEV list and
//! run noticeably faster — the effect the paper highlights in Fig. 7.

use gpu_ddt::memsim::MemSpace;
use gpu_ddt::prelude::*;

/// Lower-triangular n×n panel of doubles, column-major.
fn triangular(n: u64) -> DataType {
    let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
    DataType::indexed(&lens, &disps, &DataType::double())
        .unwrap()
        .commit()
}

fn main() {
    let n: u64 = 2048;
    let ty = triangular(n);
    println!(
        "triangular panel: {} ({} MB of data in a {} MB footprint)",
        ty,
        ty.size() >> 20,
        (ty.extent() as u64) >> 20
    );

    let mut sess = Session::builder()
        .two_ranks_two_gpus()
        .label("scalapack")
        .build();
    let gpu0 = sess.world.mpi.ranks[0].gpu;
    let gpu1 = sess.world.mpi.ranks[1].gpu;
    let len = ty.extent() as u64;
    let sbuf = sess
        .world
        .cluster
        .memory
        .alloc(MemSpace::Device(gpu0), len)
        .unwrap();
    let rbuf = sess
        .world
        .cluster
        .memory
        .alloc(MemSpace::Device(gpu1), len)
        .unwrap();

    let round = |sess: &mut Session, tag: u64| {
        let t0 = sess.now();
        let s = isend(sess, SendArgs::new(0, 1, sbuf, &ty, 1).tag(tag));
        let r = irecv(sess, RecvArgs::new(1, 0, rbuf, &ty, 1).tag(tag));
        wait_all(sess, &[s, r]).expect("transfer failed");
        sess.now() - t0
    };

    let cold = round(&mut sess, 0);
    println!("panel transfer #1 (cold — IPC mapping, RDMA setup, DEV conversion): {cold}");
    let warm1 = round(&mut sess, 1);
    println!("panel transfer #2 (warm — cached CUDA-DEVs, cached connection):     {warm1}");
    let warm2 = round(&mut sess, 2);
    println!("panel transfer #3:                                                  {warm2}");

    let cache = sess.world.mpi.ranks[0].dev_cache.borrow();
    let plans = cache.plans();
    println!(
        "sender DEV cache: {} plan(s), {} KB of descriptors, hit rate {:.0}%",
        plans.len(),
        plans.used_bytes() / 1024,
        100.0 * plans.hits() as f64 / (plans.hits() + plans.misses()) as f64
    );
    drop(cache);
    assert!(warm1 < cold, "warm transfers must beat the cold one");
    let _ = warm2;

    // The same cache behaviour is visible in the session's counters.
    let metrics = sess.finish();
    println!(
        "metrics: {} DEV cache hits, {} misses, {} bytes delivered",
        metrics.counter(Counter::DevengineCacheHit),
        metrics.counter(Counter::DevengineCacheMiss),
        metrics.counter(Counter::MpiDeliveredBytes)
    );
}
