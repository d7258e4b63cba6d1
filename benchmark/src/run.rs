//! The segment runner and the arithmetic that turns segments into
//! metrics.
//!
//! A run of one workload is a fixed list of segments. Each segment
//! builds everything from nothing, warms up, runs a fixed number of
//! timed ops, verifies and drops everything. Op counts are fixed, not
//! time-boxed, so every run at one `--seconds` does identical work, and
//! every wall metric is a median over segments or over pooled op
//! samples: the median steps over the allocator's first-set-up
//! transient and over short neighbour bursts.

use crate::spans::Spans;
use crate::stats::{iqr_share, median, tail};
use crate::workloads::{Counts, Size, Spec, Workload};
use std::time::Instant;

/// The run length the nominal op counts in [`crate::workloads::SPECS`]
/// were sized for; `BENCHMARK.json`'s `run_seconds`. Other `--seconds`
/// scale the op counts in proportion.
pub const NOMINAL_SECONDS: u64 = 16;

/// What a segment records besides its timings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegKind {
    /// Nothing recorded: the segments end-to-end metrics come from.
    Plain,
    /// Harness spans recorded around every call into a layer.
    Spans,
    /// The program's own virtual-time tracer recording.
    ProgramTrace,
}

/// The segments of an untraced run: all plain.
pub fn untraced_plan(size: Size) -> Vec<SegKind> {
    let n = match size {
        Size::Full => 9,
        Size::Smoke => 2,
    };
    vec![SegKind::Plain; n]
}

/// The segments of a traced run: 3 with spans, interleaved with plain
/// ones so that the two see the same box, then the program tracer's.
pub fn traced_plan(size: Size) -> Vec<SegKind> {
    use SegKind::*;
    match size {
        Size::Full => vec![
            Spans,
            Plain,
            Spans,
            Plain,
            Spans,
            Plain,
            ProgramTrace,
            ProgramTrace,
        ],
        Size::Smoke => vec![Spans, Plain, ProgramTrace],
    }
}

/// Timed ops per segment for a run of `seconds`.
pub fn ops_per_segment(spec: &Spec, size: Size, seconds: u64) -> usize {
    match size {
        Size::Smoke => spec.smoke_ops,
        Size::Full => {
            let scaled = (spec.ops as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
            scaled.max(1) as usize
        }
    }
}

pub struct Segment {
    pub kind: SegKind,
    /// Wall seconds from nothing to ready for the first timed op.
    pub setup_s: f64,
    /// Wall ms of the first warm-up op: the cold one.
    pub first_op_ms: f64,
    pub op_wall_ns: Vec<f64>,
    pub op_cpu_s: Vec<f64>,
    pub op_sim_ns: Vec<u64>,
    /// Ops that returned an error or failed their check.
    pub failed_ops: usize,
    pub verified: bool,
    /// Counter deltas over the timed ops.
    pub counts: Counts,
}

impl Segment {
    pub fn ops(&self) -> usize {
        self.op_wall_ns.len()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.op_wall_ns.iter().sum::<f64>() * 1e-9)
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.op_cpu_s.iter().sum::<f64>() * 1e3 / self.ops() as f64
    }
}

/// Run one segment of `w`.
pub fn run_segment<W: Workload>(
    w: &W,
    kind: SegKind,
    warmups: usize,
    ops: usize,
    corrupt: bool,
    next_op_id: &mut u32,
    sp: &mut Spans,
) -> Segment {
    sp.set_on(kind == SegKind::Spans);
    let record = kind == SegKind::ProgramTrace;

    let setup_span = sp.begin("segment.setup");
    let t = Instant::now();
    let mut st = w.setup(record, sp);
    let built_s = t.elapsed().as_secs_f64();

    let oracle_span = sp.begin("harness.arm_oracle");
    w.arm_oracle(&mut st);
    sp.end(oracle_span);

    let warm_span = sp.begin("warmup");
    let t = Instant::now();
    let mut first_op_ms = 0.0;
    let mut failed_ops = 0;
    for i in 0..warmups {
        let r = w.op(&mut st, sp);
        if i == 0 {
            first_op_ms = r.wall_ns * 1e-6;
        }
        failed_ops += usize::from(!r.ok);
    }
    let setup_s = built_s + t.elapsed().as_secs_f64();
    sp.end(warm_span);
    sp.end(setup_span);

    let before = w.counts(&mut st);
    let fresh_before = simcore::scratch::stats().fresh;
    let mut seg = Segment {
        kind,
        setup_s,
        first_op_ms,
        op_wall_ns: Vec::with_capacity(ops),
        op_cpu_s: Vec::with_capacity(ops),
        op_sim_ns: Vec::with_capacity(ops),
        failed_ops,
        verified: false,
        counts: Counts::default(),
    };
    for _ in 0..ops {
        sp.set_op(Some(*next_op_id));
        let op_span = sp.begin("op");
        let r = w.op(&mut st, sp);
        sp.end(op_span);
        sp.set_op(None);
        *next_op_id += 1;
        seg.op_wall_ns.push(r.wall_ns);
        seg.op_cpu_s.push(r.cpu_s);
        seg.op_sim_ns.push(r.sim_ns);
        seg.failed_ops += usize::from(!r.ok);
    }
    seg.counts = w.counts(&mut st) - before;
    seg.counts.scratch_fresh = simcore::scratch::stats().fresh - fresh_before;

    let verify_span = sp.begin("verify");
    seg.verified = w.verify(&mut st, corrupt);
    sp.end(verify_span);
    drop(st);
    seg
}

/// Everything one process measured on one workload.
pub struct RunData {
    pub segments: Vec<Segment>,
    pub spans: Spans,
}

pub fn run_workload<W: Workload>(
    w: &W,
    spec: &Spec,
    plan: &[SegKind],
    ops: usize,
    corrupt: bool,
) -> RunData {
    let mut spans = Spans::new(false);
    let mut next_op_id = 0u32;
    let segments = plan
        .iter()
        .map(|&kind| {
            run_segment(
                w,
                kind,
                spec.warmups,
                ops,
                corrupt,
                &mut next_op_id,
                &mut spans,
            )
        })
        .collect();
    RunData { segments, spans }
}

/// Ops attempted and failed over `segments`, warm-ups not counted as
/// attempts. A segment whose oracle failed has verified none of its
/// ops, so all of them count as failed.
pub fn attempted_failed(segments: &[Segment]) -> (usize, usize) {
    let attempted: usize = segments.iter().map(Segment::ops).sum();
    let failed: usize = segments
        .iter()
        .map(|s| {
            if s.verified {
                s.failed_ops.min(s.ops())
            } else {
                s.ops()
            }
        })
        .sum();
    (attempted, failed)
}

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn pooled_op_ms(segments: &[&Segment]) -> Vec<f64> {
    segments
        .iter()
        .flat_map(|s| s.op_wall_ns.iter().map(|ns| ns * 1e-6))
        .collect()
}

/// Median of the pooled per-op wall samples of `segments`, in ms.
pub fn op_ms_p50(segments: &[&Segment]) -> f64 {
    median(&pooled_op_ms(segments))
}

/// The wall end-to-end metrics, from the plain segments of a run.
/// `peak_rss_mb` is read by the caller at exit.
pub fn end_to_end(segments: &[Segment], peak_rss_mb: f64) -> Vec<Metric> {
    let plain: Vec<&Segment> = segments
        .iter()
        .filter(|s| s.kind == SegKind::Plain)
        .collect();
    let per_seg = |f: fn(&Segment) -> f64| -> Vec<f64> { plain.iter().map(|s| f(s)).collect() };
    vec![
        metric("setup_s", median(&per_seg(|s| s.setup_s)), "s"),
        metric("ops_per_s", median(&per_seg(Segment::ops_per_s)), "1/s"),
        metric("op_ms_p50", op_ms_p50(&plain), "ms"),
        metric(
            "cpu_ms_per_op",
            median(&per_seg(Segment::cpu_ms_per_op)),
            "ms",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Virtual microseconds per op over every timed op of the run: the
/// model's answer, bit-stable at one seed and one op count.
pub fn sim_us_per_op(segments: &[Segment]) -> f64 {
    let total: u64 = segments.iter().flat_map(|s| &s.op_sim_ns).sum();
    let ops: usize = segments.iter().map(Segment::ops).sum();
    total as f64 / 1e3 / ops as f64
}

/// The exact figures of a run: virtual time and the program's counts
/// per op, and the share of failed ops. `--aa` requires them identical
/// across runs at one seed.
pub fn exact(segments: &[Segment]) -> Vec<Metric> {
    let (attempted, failed) = attempted_failed(segments);
    let ops = attempted as f64;
    let mut total = Counts::default();
    for s in segments {
        total += s.counts;
    }
    vec![
        metric("sim_us_per_op", sim_us_per_op(segments), "sim_us"),
        metric("fail_share", failed as f64 / ops, "share"),
        metric("events_per_op", total.events as f64 / ops, "count"),
        metric(
            "delivered_bytes_per_op",
            total.delivered_bytes as f64 / ops,
            "B",
        ),
    ]
}

/// The per-layer metrics that come from the workload's own segments:
/// span durations, exact per-op counts, and the harness's own figures.
/// The probes add the rest.
pub fn from_segments(data: &RunData) -> Vec<Metric> {
    let segs = &data.segments;
    let of = |kind: SegKind| -> Vec<&Segment> { segs.iter().filter(|s| s.kind == kind).collect() };
    let (plain, spanned, traced) = (
        of(SegKind::Plain),
        of(SegKind::Spans),
        of(SegKind::ProgramTrace),
    );
    // Counts repeat exactly in every segment; the un-recorded ones are
    // taken so that the figure is the one an untraced run has.
    let mut total = Counts::default();
    let mut ops = 0.0;
    for s in plain.iter().chain(&spanned) {
        total += s.counts;
        ops += s.ops() as f64;
    }
    let per_op = |x: u64| x as f64 / ops;
    let lookups = total.cache_hits + total.cache_misses;

    let sp = &data.spans;
    // A workload that never opens a span (`soak_1k` builds no session)
    // reports 0 for it.
    let median_or_zero = |d: Vec<f64>| if d.is_empty() { 0.0 } else { median(&d) };
    let span_median = |name: &str, scale: f64| median_or_zero(sp.durations_ns(name)) * scale;
    let per_op_median = |name: &str, scale: f64| median_or_zero(sp.per_op_ns(name)) * scale;

    let untraced: Vec<&Segment> = plain.iter().chain(&spanned).copied().collect();
    let rates: Vec<f64> = untraced.iter().map(|s| s.ops_per_s()).collect();
    let (tail_pct, tail_ms) = tail(&pooled_op_ms(&untraced));
    let p50_plain = op_ms_p50(&plain);

    vec![
        metric("sim_us_per_op", sim_us_per_op(segs), "sim_us"),
        metric("simcore.event.count_per_op", per_op(total.events), "count"),
        metric(
            "simcore.scratch.fresh_per_op",
            per_op(total.scratch_fresh),
            "count",
        ),
        metric(
            "simcore.trace.record_overhead_share",
            op_ms_p50(&traced) / p50_plain - 1.0,
            "share",
        ),
        metric(
            "devengine.units_per_op",
            per_op(total.kernel_units),
            "count",
        ),
        metric(
            "devengine.cache.hit_share",
            if lookups == 0 {
                0.0
            } else {
                total.cache_hits as f64 / lookups as f64
            },
            "share",
        ),
        metric(
            "gpusim.kernel.launches_per_op",
            per_op(total.kernel_launches),
            "count",
        ),
        metric("netsim.am.count_per_op", per_op(total.am_count), "count"),
        metric("netsim.wire_bytes_per_op", per_op(total.wire_bytes), "B"),
        metric(
            "faultsim.injected_per_op",
            per_op(total.faults_injected),
            "count",
        ),
        metric("faultsim.retries_per_op", per_op(total.retries), "count"),
        metric(
            "mpirt.session_build_ms",
            span_median("mpirt.session_build", 1e-6),
            "ms",
        ),
        metric(
            "mpirt.post_us_per_op",
            per_op_median("mpirt.post", 1e-3),
            "us",
        ),
        metric(
            "mpirt.drive_ms_per_op",
            per_op_median("mpirt.drive", 1e-6),
            "ms",
        ),
        metric(
            "mpirt.first_op_ms",
            median(&untraced.iter().map(|s| s.first_op_ms).collect::<Vec<_>>()),
            "ms",
        ),
        metric("harness.op_ms_tail", tail_ms, "ms"),
        metric("harness.op_ms_tail_pct", tail_pct, "%"),
        metric("harness.setup_first_s", segs[0].setup_s, "s"),
        metric("harness.seg_rate_iqr_share", iqr_share(&rates), "share"),
        metric(
            "harness.trace_overhead_share",
            op_ms_p50(&spanned) / p50_plain - 1.0,
            "share",
        ),
        metric("harness.cores", crate::sys::cores() as f64, "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    fn seg(
        kind: SegKind,
        setup_s: f64,
        op_ms: &[f64],
        failed_ops: usize,
        verified: bool,
    ) -> Segment {
        Segment {
            kind,
            setup_s,
            first_op_ms: 1.0,
            op_wall_ns: op_ms.iter().map(|ms| ms * 1e6).collect(),
            op_cpu_s: op_ms.iter().map(|ms| ms * 2e-3).collect(),
            op_sim_ns: vec![1500; op_ms.len()],
            failed_ops,
            verified,
            counts: Counts {
                events: 10 * op_ms.len() as u64,
                ..Counts::default()
            },
        }
    }

    fn value(ms: &[Metric], name: &str) -> f64 {
        ms.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn end_to_end_metrics_are_segment_medians() {
        // Three segments of two ops; the middle one hit a 10x burst and
        // an allocator transient in its set-up.
        let segs = [
            seg(SegKind::Plain, 0.30, &[10.0, 10.0], 0, true),
            seg(SegKind::Plain, 4.50, &[100.0, 100.0], 0, true),
            seg(SegKind::Plain, 0.32, &[10.0, 12.0], 0, true),
            // Never part of an end-to-end figure.
            seg(SegKind::Spans, 9.0, &[500.0, 500.0], 0, true),
        ];
        let m = end_to_end(&segs, 123.5);
        assert_eq!(value(&m, "setup_s"), 0.32);
        // Segment rates: 100/s, 10/s, 2/0.022 s = 90.9/s; the median
        // is the third.
        assert!((value(&m, "ops_per_s") - 2.0 / 0.022).abs() < 1e-9);
        // Pooled samples 10 10 10 12 100 100: median 11.
        assert!((value(&m, "op_ms_p50") - 11.0).abs() < 1e-9);
        // CPU was set to twice the wall: 20, 200, 22 ms per op.
        assert!((value(&m, "cpu_ms_per_op") - 22.0).abs() < 1e-9);
        assert_eq!(value(&m, "peak_rss_mb"), 123.5);
        assert_eq!(
            m.iter().map(|m| m.name).collect::<Vec<_>>(),
            crate::END_TO_END
        );
    }

    #[test]
    fn failures_count_against_attempts() {
        let segs = [
            seg(SegKind::Plain, 0.1, &[1.0; 4], 0, true),
            seg(SegKind::Plain, 0.1, &[1.0; 4], 1, true),
            // The oracle failed: none of its four ops is verified.
            seg(SegKind::Plain, 0.1, &[1.0; 4], 0, false),
        ];
        assert_eq!(attempted_failed(&segs), (12, 5));
        let x = exact(&segs);
        assert!((value(&x, "fail_share") - 5.0 / 12.0).abs() < 1e-12);
        assert_eq!(value(&x, "sim_us_per_op"), 1.5);
        assert_eq!(value(&x, "events_per_op"), 10.0);
    }

    #[test]
    fn op_counts_scale_with_the_run_length() {
        let dense = &SPECS[0];
        assert_eq!(
            ops_per_segment(dense, Size::Full, NOMINAL_SECONDS),
            dense.ops
        );
        assert_eq!(
            ops_per_segment(dense, Size::Full, 2 * NOMINAL_SECONDS),
            2 * dense.ops
        );
        assert_eq!(ops_per_segment(&SPECS[4], Size::Full, 1), 1, "never zero");
        assert_eq!(ops_per_segment(dense, Size::Smoke, 60), dense.smoke_ops);
        assert_eq!(untraced_plan(Size::Full).len(), 9);
        assert_eq!(
            traced_plan(Size::Full)
                .iter()
                .filter(|k| **k == SegKind::Spans)
                .count(),
            3
        );
    }
}
