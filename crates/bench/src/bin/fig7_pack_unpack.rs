//! Figure 7 — pack + unpack time vs matrix size, for the sub-matrix
//! (V) and lower-triangular (T) workloads.
//!
//! Two panels as in the paper:
//!
//! * **bypass CPU** (`*-d2d`): pack into a contiguous GPU buffer and
//!   unpack back — series show the effect of pipelining the CPU DEV
//!   preparation (≈2× for T) and of caching the CUDA-DEVs;
//! * **through CPU** (`*-d2d2h`, `*-cpy`): plus the round-trip
//!   device↔host movement, either explicit (`d2d2h`) or implicit via
//!   zero-copy (`cpy`), which overlaps the PCIe hop with the kernels
//!   and comes out slightly faster.

use bench::env;
use bench::harness::ms;
use bench::runner::{solo_session, BenchOpts, Sweep};
use bench::workloads::{alloc_typed, submatrix, triangular};
use datatype::DataType;
use devengine::{pack_async, unpack_async, DevCache, EngineConfig};
use gpusim::{memcpy, GpuWorld as _};
use memsim::MemSpace;
use mpirt::{MpiWorld, Session};
use simcore::{Sim, SimTime, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    /// Pack/unpack against a device buffer only.
    D2d,
    /// Device buffer + explicit D2H and H2D copies.
    D2d2h,
    /// Zero-copy: the kernels target a mapped host buffer directly.
    ZeroCopy,
}

/// Time pack + (transport) + unpack for one configuration. `cached`
/// pre-runs once so the CUDA-DEV cache is hot.
fn run(
    ty: &DataType,
    arch: &'static gpusim::GpuArch,
    cfg: EngineConfig,
    cached: bool,
    via: Via,
    record: bool,
) -> (SimTime, Tracer) {
    let mut sess: Session = solo_session(arch, env::config(), record);
    let typed = alloc_typed(&mut sess, 0, ty, 1, true, true);
    let typed_out = alloc_typed(&mut sess, 0, ty, 1, true, false);
    let total = ty.size();
    let gpu = sess.world.mpi.ranks[0].gpu;
    let gpu_buf = sess
        .world
        .mem()
        .alloc(MemSpace::Device(gpu), total)
        .unwrap();
    let host_buf = sess.world.mem().alloc(MemSpace::Host, total).unwrap();
    let stream = sess.world.mpi.ranks[0].kernel_stream;
    let copy_stream = sess.world.mpi.ranks[0].copy_stream;
    let cache = if cached {
        Some(Rc::new(RefCell::new(DevCache::default())))
    } else {
        None
    };

    let once = |sim: &mut Sim<MpiWorld>| -> SimTime {
        let start = sim.now();
        let packed = match via {
            Via::ZeroCopy => host_buf,
            _ => gpu_buf,
        };
        let cfg2 = cfg.clone();
        let ty2 = ty.clone();
        let cache2 = cache.clone();
        pack_async(
            sim,
            0,
            stream,
            ty,
            1,
            typed,
            packed,
            cfg.clone(),
            cache.as_ref(),
            move |sim, _| {
                let after_transport = move |sim: &mut Sim<MpiWorld>| {
                    unpack_async(
                        sim,
                        0,
                        stream,
                        &ty2,
                        1,
                        typed_out,
                        packed,
                        cfg2,
                        cache2.as_ref(),
                        |_, _| {},
                    );
                };
                match via {
                    Via::D2d2h => {
                        memcpy(sim, copy_stream, gpu_buf, host_buf, total, move |sim, _| {
                            memcpy(sim, copy_stream, host_buf, gpu_buf, total, move |sim, _| {
                                after_transport(sim);
                            });
                        });
                    }
                    _ => after_transport(sim),
                }
            },
        );
        sim.run() - start
    };

    if cached {
        once(&mut sess); // warm the cache
    }
    let t = once(&mut sess);
    (t, sess.into_trace())
}

fn main() {
    let opts = BenchOpts::parse();
    let pipe = env::config().engine;
    let no_pipe = EngineConfig {
        pipeline: false,
        ..pipe.clone()
    };

    type Series = (&'static str, fn(u64) -> DataType, EngineConfig, bool, Via);
    let configs: [Series; 8] = [
        ("V-d2d", submatrix, pipe.clone(), false, Via::D2d),
        ("T-d2d", triangular, no_pipe, false, Via::D2d),
        ("T-d2d-pipeline", triangular, pipe.clone(), false, Via::D2d),
        ("T-d2d-cached", triangular, pipe.clone(), true, Via::D2d),
        ("V-d2d2h", submatrix, pipe.clone(), false, Via::D2d2h),
        ("V-cpy", submatrix, pipe.clone(), false, Via::ZeroCopy),
        ("T-d2d2h-cached", triangular, pipe.clone(), true, Via::D2d2h),
        ("T-cpy-cached", triangular, pipe, true, Via::ZeroCopy),
    ];

    let mut sweep = Sweep::new(
        "fig7",
        "pack+unpack time (ms); bypass-CPU and through-CPU panels",
        "matrix_size",
        &[512, 1024, 2048, 3072, 4096],
    );
    for (name, mk, cfg, cached, via) in configs {
        sweep = sweep.series(name, move |n, arch, record| {
            let (t, trace) = run(&mk(n), arch, cfg.clone(), cached, via, record);
            (ms(t), trace)
        });
    }
    sweep.run(&opts);
}
