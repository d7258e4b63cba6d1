//! Ablation: CUDA-DEV work-unit size S.
//!
//! §3.2 sets S to 1–4 KB ("to reduce the branch penalties and increase
//! opportunities for ILP"; the lower bound is 256 B). Smaller units
//! mean more descriptors to prepare and stream; larger units mean
//! coarser warp balancing. Reports uncached pack time of the
//! triangular matrix per S.

use bench::env;
use bench::harness::ms;
use bench::runner::{solo_session, BenchOpts, Sweep};
use bench::workloads::{alloc_typed, triangular};
use devengine::{pack_async, EngineConfig, OptimizerConfig};
use gpusim::{GpuArch, GpuWorld as _};
use memsim::MemSpace;
use simcore::{SimTime, Tracer};

fn pack_time(n: u64, unit_size: u64, arch: &'static GpuArch, record: bool) -> (SimTime, Tracer) {
    let t = triangular(n);
    let config = env::config();
    let mut sess = solo_session(arch, config.clone(), record);
    let typed = alloc_typed(&mut sess, 0, &t, 1, true, true);
    let gpu = sess.world.mpi.ranks[0].gpu;
    let packed = sess
        .world
        .mem()
        .alloc(MemSpace::Device(gpu), t.size())
        .unwrap();
    let stream = sess.world.mpi.ranks[0].kernel_stream;
    // This sweep studies the static S knob itself: coalescing would
    // merge descriptors past the S splits and the unit-size tuner would
    // override the swept value, so the optimizer is pinned off.
    let cfg = EngineConfig {
        unit_size,
        optimizer: OptimizerConfig::disabled(),
        ..config.engine
    };
    let start = sess.now();
    pack_async(
        &mut sess,
        0,
        stream,
        &t,
        1,
        typed,
        packed,
        cfg,
        None,
        |_, _| {},
    );
    let end = sess.run();
    (end - start, sess.into_trace())
}

fn main() {
    let opts = BenchOpts::parse();
    let mut sweep = Sweep::new(
        "ablation-unit-size",
        "triangular pack time vs CUDA-DEV unit size (ms, uncached, pipelined)",
        "matrix_size",
        &[1024, 2048, 4096],
    );
    for (name, s) in [
        ("S=256", 256u64),
        ("S=512", 512),
        ("S=1K", 1024),
        ("S=2K", 2048),
        ("S=4K", 4096),
    ] {
        sweep = sweep.series(name, move |n, arch, r| {
            let (t, tr) = pack_time(n, s, arch, r);
            (ms(t), tr)
        });
    }
    sweep.run(&opts);
}
