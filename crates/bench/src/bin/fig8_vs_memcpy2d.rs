//! Figure 8 — the specialized vector pack kernel vs `cudaMemcpy2D`.
//!
//! Fixed block counts (1 K and 8 K blocks), sweeping the block size
//! including values that are *not* multiples of 64 bytes — where
//! `cudaMemcpy2D` through the DMA engine falls off its bandwidth cliff
//! while the kernel path degrades only mildly.
//!
//! Series (times in ms):
//!   kernel-d2d    — pack kernel into a device buffer
//!   kernel-d2d2h  — + explicit D2H copy of the packed buffer
//!   kernel-d2h    — zero-copy pack straight into host memory (cpy)
//!   mcp2d-d2d     — cudaMemcpy2D device→device
//!   mcp2d-d2d2h   — cudaMemcpy2D d2d + contiguous D2H
//!   mcp2d-d2h     — cudaMemcpy2D device→host directly

use bench::env;
use bench::harness::ms;
use bench::runner::{solo_session, BenchOpts, Sweep};
use bench::workloads::{alloc_typed, raw_vector};
use devengine::pack_async;
use gpusim::{memcpy, memcpy_2d, GpuArch, GpuWorld as _};
use memsim::{MemSpace, Ptr};
use mpirt::Session;
use simcore::{SimTime, Tracer};

struct Setup {
    sess: Session,
    typed: Ptr,
    gpu_buf: Ptr,
    host_buf: Ptr,
    total: u64,
    blocks: u64,
    block: u64,
    stride: u64,
}

fn setup(blocks: u64, block: u64, arch: &'static GpuArch, record: bool) -> Setup {
    let ty = raw_vector(blocks, block, block); // gap == block size
    let mut sess = solo_session(arch, env::config(), record);
    let typed = alloc_typed(&mut sess, 0, &ty, 1, true, true);
    let total = ty.size();
    let gpu = sess.world.mpi.ranks[0].gpu;
    let gpu_buf = sess
        .world
        .mem()
        .alloc(MemSpace::Device(gpu), total)
        .unwrap();
    let host_buf = sess.world.mem().alloc(MemSpace::Host, total).unwrap();
    Setup {
        sess,
        typed,
        gpu_buf,
        host_buf,
        total,
        blocks,
        block,
        stride: 2 * block,
    }
}

fn kernel_time(
    blocks: u64,
    block: u64,
    arch: &'static GpuArch,
    to_host: bool,
    then_d2h: bool,
    record: bool,
) -> (SimTime, Tracer) {
    let ty = raw_vector(blocks, block, block);
    let mut s = setup(blocks, block, arch, record);
    let stream = s.sess.world.mpi.ranks[0].kernel_stream;
    let copy_stream = s.sess.world.mpi.ranks[0].copy_stream;
    let dst = if to_host { s.host_buf } else { s.gpu_buf };
    let (gpu_buf, host_buf, total) = (s.gpu_buf, s.host_buf, s.total);
    let start = s.sess.now();
    let cfg = s.sess.world.mpi.config.engine.clone();
    pack_async(
        &mut s.sess,
        0,
        stream,
        &ty,
        1,
        s.typed,
        dst,
        cfg,
        None,
        move |sim, _| {
            if then_d2h {
                memcpy(sim, copy_stream, gpu_buf, host_buf, total, |_, _| {});
            }
        },
    );
    let t = s.sess.run() - start;
    (t, s.sess.into_trace())
}

fn mcp2d_time(
    blocks: u64,
    block: u64,
    arch: &'static GpuArch,
    to_host: bool,
    then_d2h: bool,
    record: bool,
) -> (SimTime, Tracer) {
    let mut s = setup(blocks, block, arch, record);
    let stream = s.sess.world.mpi.ranks[0].copy_stream;
    let dst = if to_host { s.host_buf } else { s.gpu_buf };
    let (gpu_buf, host_buf, total) = (s.gpu_buf, s.host_buf, s.total);
    let start = s.sess.now();
    memcpy_2d(
        &mut s.sess,
        stream,
        s.typed,
        s.stride,
        dst,
        s.block,
        s.block,
        s.blocks,
        move |sim, _| {
            if then_d2h {
                memcpy(sim, stream, gpu_buf, host_buf, total, |_, _| {});
            }
        },
    );
    let t = s.sess.run() - start;
    (t, s.sess.into_trace())
}

fn main() {
    let opts = BenchOpts::parse();
    for blocks in [1024u64, 8192] {
        let (panel, title) = match blocks {
            1024 => ("1k", "vector pack vs cudaMemcpy2D, 1K blocks (ms)"),
            _ => ("8k", "vector pack vs cudaMemcpy2D, 8K blocks (ms)"),
        };
        Sweep::new(
            "fig8",
            title,
            "block_size_bytes",
            &[128, 192, 256, 512, 1000, 1024, 2048, 3000, 4096],
        )
        .series("kernel-d2d", move |b, arch, r| {
            let (t, tr) = kernel_time(blocks, b, arch, false, false, r);
            (ms(t), tr)
        })
        .series("kernel-d2d2h", move |b, arch, r| {
            let (t, tr) = kernel_time(blocks, b, arch, false, true, r);
            (ms(t), tr)
        })
        .series("kernel-d2h-cpy", move |b, arch, r| {
            let (t, tr) = kernel_time(blocks, b, arch, true, false, r);
            (ms(t), tr)
        })
        .series("mcp2d-d2d", move |b, arch, r| {
            let (t, tr) = mcp2d_time(blocks, b, arch, false, false, r);
            (ms(t), tr)
        })
        .series("mcp2d-d2d2h", move |b, arch, r| {
            let (t, tr) = mcp2d_time(blocks, b, arch, false, true, r);
            (ms(t), tr)
        })
        .series("mcp2d-d2h", move |b, arch, r| {
            let (t, tr) = mcp2d_time(blocks, b, arch, true, false, r);
            (ms(t), tr)
        })
        .run(&opts.for_panel(panel));
        println!();
    }
}
