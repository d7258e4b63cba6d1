//! Figure 6 — GPU memory bandwidth of packing kernels.
//!
//! Packs each workload into a local GPU buffer (warm CUDA-DEV cache, so
//! this isolates the kernels as the paper does) and reports achieved
//! copy bandwidth against the `cudaMemcpy` practical peak.
//!
//! Paper's result: V ≈ 94% of peak, T ≈ 80% (occupancy/misalignment),
//! T-stair recovers to ≈ V, C = `cudaMemcpy` = the ceiling.

use bench::env;
use bench::harness::gbps;
use bench::runner::{solo_session, BenchOpts, Sweep};
use bench::workloads::{alloc_typed, contiguous_matrix, stair_triangular, submatrix, triangular};
use datatype::DataType;
use devengine::pack_async;
use gpusim::{memcpy, GpuArch, GpuWorld as _};
use memsim::MemSpace;
use simcore::Tracer;

/// Bandwidth of one warm pack of `ty` into a device buffer.
fn pack_bw(ty: &DataType, arch: &'static GpuArch, record: bool) -> (f64, Tracer) {
    let mut sess = solo_session(arch, env::config(), record);
    let typed = alloc_typed(&mut sess, 0, ty, 1, true, true);
    let total = ty.size();
    let gpu = sess.world.mpi.ranks[0].gpu;
    let packed = sess
        .world
        .mem()
        .alloc(MemSpace::Device(gpu), total)
        .unwrap();
    let stream = sess.world.mpi.ranks[0].kernel_stream;
    let cache = std::rc::Rc::clone(&sess.world.mpi.ranks[0].dev_cache);
    let cfg = sess.world.mpi.config.engine.clone();

    // Warm-up populates the CUDA-DEV cache.
    pack_async(
        &mut sess,
        0,
        stream,
        ty,
        1,
        typed,
        packed,
        cfg.clone(),
        Some(&cache),
        |_, _| {},
    );
    sess.run();
    let start = sess.now();
    pack_async(
        &mut sess,
        0,
        stream,
        ty,
        1,
        typed,
        packed,
        cfg,
        Some(&cache),
        |_, _| {},
    );
    let end = sess.run();
    (gbps(total, end - start), sess.into_trace())
}

/// `cudaMemcpy` D2D of the same payload — the practical peak.
fn memcpy_bw(bytes: u64, arch: &'static GpuArch, record: bool) -> (f64, Tracer) {
    let mut sess = solo_session(arch, env::config(), record);
    let gpu = sess.world.mpi.ranks[0].gpu;
    let a = sess
        .world
        .mem()
        .alloc(MemSpace::Device(gpu), bytes)
        .unwrap();
    let b = sess
        .world
        .mem()
        .alloc(MemSpace::Device(gpu), bytes)
        .unwrap();
    let stream = sess.world.mpi.ranks[0].kernel_stream;
    let start = sess.now();
    memcpy(&mut sess, stream, a, b, bytes, |_, _| {});
    let end = sess.run();
    (gbps(bytes, end - start), sess.into_trace())
}

fn main() {
    let opts = BenchOpts::parse();
    Sweep::new(
        "fig6",
        "GPU memory bandwidth of packing kernels (GB/s)",
        "matrix_size",
        &[512, 1024, 2048, 3072, 4096],
    )
    .series("T", |n, a, r| pack_bw(&triangular(n), a, r))
    .series("V", |n, a, r| pack_bw(&submatrix(n), a, r))
    .series("T-stair", |n, a, r| {
        pack_bw(&stair_triangular(n, 128), a, r)
    })
    .series("C-cudaMemcpy", |n, a, r| {
        memcpy_bw(contiguous_matrix(n).size(), a, r)
    })
    .run(&opts);
}
