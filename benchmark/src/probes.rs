//! Per-layer probes of the traced run: each times one layer's public
//! function, in this process, right after the workload's segments.
//!
//! The datatype and devengine probes run on the workload's own
//! datatype. The rest run on fixed inputs, the same whatever the
//! workload, so that every traced run prints every per-layer metric:
//! the dense and the irregular unit list for `simcore::par`, a 16-rank
//! alltoall for `mpirt::coll`, and the soak's configuration on 1 and 2
//! shards for `simcore::shard` and `mpirt::scale`.
//!
//! None of these numbers is bounded: they say where to look, the
//! end-to-end metrics say whether it mattered.

use crate::run::{metric, Metric};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::a2a::{alltoall_once, build_world};
use crate::workloads::soak::{self, fingerprint, soak_once};
use crate::workloads::{irregular, Size};
use bench::runner::solo_session;
use bench::workloads::triangular;
use datatype::convertor::pack_all;
use datatype::testutil::buffer_span;
use datatype::{Convertor, DataType, PackKind};
use devengine::{build_plan_opt, pack_async, unpack_async, DevCache, EngineConfig};
use gpusim::{GpuArch, GpuWorld as _};
use memsim::{GpuId, MemSpace};
use mpirt::{MpiConfig, MpiWorld};
use simcore::par::{par_transfer, pool_info, CopyOp};
use simcore::rng::fill_bytes;
use simcore::{Sim, SimTime};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Median wall ns of `reps` calls of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn gbps(bytes: u64, ns: f64) -> f64 {
    bytes as f64 / ns
}

/// `datatype.*`: commit, the segment walk, and the CPU reference pack —
/// the manual-copy line every GPU figure is read against, and the
/// verifier's own cost.
fn datatype_probes(make: &dyn Fn() -> DataType, out: &mut Vec<Metric>) {
    let commit_ns = median_ns(5, || {
        black_box(make());
    });
    out.push(metric("datatype.commit_us", commit_ns * 1e-3, "us"));

    let ty = make();
    let mut segs = Vec::new();
    let mut seen = 0usize;
    let walk_ns = median_ns(5, || {
        let mut cv = Convertor::new(&ty, 1, PackKind::Pack).expect("committed");
        seen = 0;
        while !cv.finished() {
            cv.next_segments_into(1 << 20, &mut segs);
            seen += segs.len();
        }
        black_box(seen);
    });
    out.push(metric(
        "datatype.walk_ns_per_seg",
        walk_ns / seen.max(1) as f64,
        "ns",
    ));

    let (base, len) = buffer_span(&ty, 1);
    let mut typed = vec![0u8; len];
    fill_bytes(1, &mut typed);
    // Small types are packed in batches, so that a sample is well above
    // the clock's resolution.
    let batch = (4 << 20) / ty.size().max(1) + 1;
    let pack_ns = median_ns(5, || {
        for _ in 0..batch {
            black_box(pack_all(&ty, 1, &typed, base));
        }
    });
    out.push(metric(
        "datatype.cpu_pack_gbps",
        gbps(ty.size() * batch, pack_ns),
        "GB/s",
    ));
}

/// `devengine.*`: the cold plan build, the warm cache lookup, and a
/// whole pack and unpack on a solo session. Returns (pack, unpack) ms.
fn devengine_probes(ty: &DataType, out: &mut Vec<Metric>) -> (f64, f64) {
    let cfg = EngineConfig::default();
    let build_ns = median_ns(5, || {
        black_box(build_plan_opt(ty, 1, cfg.unit_size, cfg.optimizer.coalesce).expect("plan"));
    });
    out.push(metric("devengine.plan_build_ms", build_ns * 1e-6, "ms"));

    let mut cache = DevCache::default();
    cache
        .get_or_build_opt(ty, 1, cfg.unit_size, cfg.optimizer.coalesce)
        .expect("plan");
    const LOOKUPS: usize = 1000;
    let hit_ns = median_ns(5, || {
        for _ in 0..LOOKUPS {
            let (plan, hit) = cache
                .get_or_build_opt(ty, 1, cfg.unit_size, cfg.optimizer.coalesce)
                .expect("plan");
            assert!(hit, "the probe's plan must stay cached");
            black_box(plan);
        }
    });
    out.push(metric(
        "devengine.cache_hit_us",
        hit_ns * 1e-3 / LOOKUPS as f64,
        "us",
    ));

    let mut sess = solo_session(GpuArch::default_arch(), MpiConfig::default(), false);
    let (base, len) = buffer_span(ty, 1);
    let gpu = sess.world.mpi.ranks[0].gpu;
    let stream = sess.world.mpi.ranks[0].kernel_stream;
    let mem = sess.world.mem();
    let typed = mem
        .alloc(MemSpace::Device(gpu), len.max(1) as u64)
        .expect("typed buffer");
    fill_bytes(2, mem.slice_mut(typed, len as u64).expect("fresh"));
    let typed = typed.add(base as u64);
    let packed = mem
        .alloc(MemSpace::Device(gpu), ty.size().max(1))
        .expect("packed buffer");
    let cache = Rc::new(RefCell::new(DevCache::default()));
    let mut once = |pack: bool| {
        let sim: &mut Sim<MpiWorld> = &mut sess;
        let (cfg, cache) = (EngineConfig::default(), Some(&cache));
        if pack {
            pack_async(sim, 0, stream, ty, 1, typed, packed, cfg, cache, |_, _| {});
        } else {
            unpack_async(sim, 0, stream, ty, 1, typed, packed, cfg, cache, |_, _| {});
        }
        black_box(sim.run());
    };
    once(true); // cache miss and page-in
    once(false);
    let pack_ms = median_ns(5, || once(true)) * 1e-6;
    let unpack_ms = median_ns(5, || once(false)) * 1e-6;
    out.push(metric("devengine.pack_ms", pack_ms, "ms"));
    out.push(metric("devengine.unpack_ms", unpack_ms, "ms"));
    (pack_ms, unpack_ms)
}

/// A gather of `units` out of a buffer of `src_len` bytes.
fn par_gbps(units: &[CopyOp], src_len: usize, total: u64) -> f64 {
    let mut src = vec![0u8; src_len];
    fill_bytes(3, &mut src);
    let mut dst = vec![0u8; total as usize];
    par_transfer(&mut dst, &src, units); // page-in
    let ns = median_ns(5, || {
        par_transfer(&mut dst, &src, units);
        black_box(dst[0]);
    });
    gbps(total, ns)
}

/// `simcore.par.*`: the copy layer over a coarse unit list (the dense
/// triangle's) and a fine one (the irregular type's), against a plain
/// `copy_from_slice` of the same bytes in the same process: the
/// ceiling.
fn par_probes(seed: u64, size: Size, out: &mut Vec<Metric>) {
    let (order, blocks) = match size {
        Size::Full => (4096, 131_072),
        Size::Smoke => (512, 8_192),
    };
    let cfg = EngineConfig::default();
    let mut coarse_bytes = 0;
    for (name, ty) in [
        ("simcore.par.gbps_coarse", triangular(order)),
        ("simcore.par.gbps_fine", irregular(seed, blocks)),
    ] {
        let plan = build_plan_opt(&ty, 1, cfg.unit_size, false).expect("plan");
        assert_eq!(plan.base_shift, 0, "both layouts start at displacement 0");
        let (_, len) = buffer_span(&ty, 1);
        out.push(metric(
            name,
            par_gbps(&plan.units, len, plan.total_bytes),
            "GB/s",
        ));
        coarse_bytes = coarse_bytes.max(plan.total_bytes);
    }
    let src = vec![7u8; coarse_bytes as usize];
    let mut dst = vec![0u8; coarse_bytes as usize];
    dst.copy_from_slice(&src);
    let ns = median_ns(5, || {
        dst.copy_from_slice(black_box(&src));
        black_box(dst[0]);
    });
    out.push(metric(
        "simcore.par.memcpy_gbps",
        gbps(coarse_bytes, ns),
        "GB/s",
    ));
    out.push(metric(
        "simcore.par.pool_threads",
        pool_info().threads as f64,
        "count",
    ));
}

/// `simcore.event.ns_per_event`: schedule a million no-op events and
/// run them.
fn event_probe(size: Size, out: &mut Vec<Metric>) {
    let events: u64 = match size {
        Size::Full => 1_000_000,
        Size::Smoke => 100_000,
    };
    let ns = median_ns(3, || {
        let mut sim = Sim::new(0u64);
        for i in 0..events {
            sim.schedule_in(SimTime::from_nanos(10 + i), |s| s.world += 1);
        }
        sim.run();
        assert_eq!(sim.executed_events(), events);
        black_box(sim.world);
    });
    out.push(metric(
        "simcore.event.ns_per_event",
        ns / events as f64,
        "ns",
    ));
}

/// `memsim.alloc_fill_gbps` and `gpusim.memcpy_d2d_gbps`: allocate and
/// fill a device buffer, then copy it device to device through the
/// simulated stream. Both are wall rates of the host code.
fn memory_probes(size: Size, out: &mut Vec<Metric>) {
    let bytes: u64 = match size {
        Size::Full => 64 << 20,
        Size::Smoke => 4 << 20,
    };
    let mut sess = solo_session(GpuArch::default_arch(), MpiConfig::default(), false);
    let space = MemSpace::Device(GpuId(0));
    let stream = sess.world.mpi.ranks[0].copy_stream;
    let fill_ns = median_ns(5, || {
        let mem = sess.world.mem();
        let p = mem.alloc(space, bytes).expect("device buffer");
        fill_bytes(4, mem.slice_mut(p, bytes).expect("fresh"));
        mem.free(p).expect("free");
    });
    out.push(metric(
        "memsim.alloc_fill_gbps",
        gbps(bytes, fill_ns),
        "GB/s",
    ));

    let mem = sess.world.mem();
    let src = mem.alloc(space, bytes).expect("source");
    let dst = mem.alloc(space, bytes).expect("destination");
    let mut copy = || {
        let sim: &mut Sim<MpiWorld> = &mut sess;
        gpusim::memcpy(sim, stream, src, dst, bytes, |_, _| {});
        black_box(sim.run());
    };
    copy(); // page-in
    let copy_ns = median_ns(5, copy);
    out.push(metric(
        "gpusim.memcpy_d2d_gbps",
        gbps(bytes, copy_ns),
        "GB/s",
    ));
}

/// `mpirt.coll.*`: post and drive of an eager alltoall over 16 ranks,
/// the workload `a2a_64` in small.
fn coll_probe(seed: u64, out: &mut Vec<Metric>) {
    let mut sp = Spans::new(false);
    let mut w = build_world(16, seed, false, &mut sp);
    assert!(alltoall_once(&mut w, 0, &mut sp), "warm-up alltoall");
    sp.set_on(true);
    for tag in 1..=5 {
        assert!(alltoall_once(&mut w, tag, &mut sp), "probe alltoall");
    }
    for (name, span) in [
        ("mpirt.coll.post_ms", "mpirt.post"),
        ("mpirt.coll.drive_ms", "mpirt.drive"),
    ] {
        out.push(metric(name, median(&sp.durations_ns(span)) * 1e-6, "ms"));
    }
}

/// `simcore.shard.*` and `mpirt.scale.*`: the soak on 1 shard and on 2,
/// twice each in turn. The 2-shard engine is measured here and not as a
/// workload because its op times are bimodal on a 2-vCPU box.
fn shard_probes(seed: u64, size: Size, out: &mut Vec<Metric>) {
    let cfg = soak::config(seed, size);
    let mut sp = Spans::new(false);
    let mut phases: [Vec<[f64; 3]>; 2] = [Vec::new(), Vec::new()];
    let mut events = 0;
    let mut reference = None;
    let mut all_match = true;
    for _ in 0..2 {
        for shards in [1u32, 2] {
            let (report, ns) = soak_once(&cfg, shards, false, &mut sp);
            events = report.executed;
            all_match &= *reference.get_or_insert(fingerprint(&report)) == fingerprint(&report);
            phases[shards as usize - 1].push(ns);
        }
    }
    let phase = |shards: usize, i: usize| {
        median(&phases[shards - 1].iter().map(|p| p[i]).collect::<Vec<_>>())
    };
    let rate = |shards: usize| events as f64 / (phase(shards, 1) * 1e-9);
    out.push(metric("simcore.shard.events_per_s_s1", rate(1), "1/s"));
    out.push(metric("simcore.shard.events_per_s_s2", rate(2), "1/s"));
    out.push(metric(
        "simcore.shard.speedup_s2",
        rate(2) / rate(1),
        "ratio",
    ));
    out.push(metric(
        "simcore.shard.digest_match_s2",
        f64::from(u8::from(all_match)),
        "bool",
    ));
    out.push(metric("mpirt.scale.build_ms", phase(1, 0) * 1e-6, "ms"));
    out.push(metric("mpirt.scale.run_ms", phase(1, 1) * 1e-6, "ms"));
    out.push(metric("mpirt.scale.finish_ms", phase(1, 2) * 1e-6, "ms"));
}

/// Run every probe. `make_type` builds the workload's own datatype;
/// `op_ms_p50` is the workload's untraced op median, which
/// `mpirt.protocol_residual_ms` is computed from.
pub fn run_all(
    make_type: &dyn Fn() -> DataType,
    seed: u64,
    size: Size,
    op_ms_p50: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    datatype_probes(make_type, &mut out);
    let (pack_ms, unpack_ms) = devengine_probes(&make_type(), &mut out);
    // Computed, not measured: what a round trip costs beyond its two
    // packs and two unpacks — the owner of ROADMAP's "100x gap" between
    // the raw pack rate and the ping-pong. It reads as such on the
    // ping-pong workloads only.
    out.push(metric(
        "mpirt.protocol_residual_ms",
        op_ms_p50 - 2.0 * (pack_ms + unpack_ms),
        "ms",
    ));
    par_probes(seed, size, &mut out);
    event_probe(size, &mut out);
    memory_probes(size, &mut out);
    coll_probe(seed, &mut out);
    shard_probes(seed, size, &mut out);
    out
}
