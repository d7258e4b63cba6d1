//! The analytic auto-tuner: prices candidate shapes in closed form (no
//! simulation runs) to pick work-unit size, pipeline granularity,
//! fragment size and ring depth per datatype layout.
//!
//! It holds no cost constants. Every stage is priced by a closure its
//! caller builds from the charging crate's own price function —
//! `gpusim::kernel_time`, `gpusim::copy_time`, `netsim::Link::time`,
//! the engine's `prep_time`, … — the function that crate's charge
//! calls, so the model prices what the simulator charges; the only
//! model error left is an estimated traffic against the exact one.
//! This module folds the prices into a bounded-buffer pipeline
//! makespan. Every picker includes the static default among its
//! candidates and only deviates when the model predicts a win beyond a
//! safety margin, so a tuned run is never *predicted* worse than the
//! default; the `ablation_optimizer` bench asserts the simulated times
//! agree.

use simcore::SimTime;

/// Makespan estimate for `total` bytes moved through `stages` — each
/// the price of one stage for a fragment of the given size — in
/// fragments of `frag` bytes with at most `depth` fragments in flight:
/// the first fragment fills the whole pipe, every further fragment costs
/// the bottleneck stage (or the fill time divided by the ring depth when
/// the ring is what limits overlap). The last fragment is charged at its
/// *actual* size — billing the tail as a full round systematically
/// overprices large fragments and makes shrinking look profitable when
/// it isn't.
pub fn pipeline_makespan_ns<F: Fn(u64) -> SimTime>(
    total: u64,
    frag: u64,
    depth: usize,
    stages: &[F],
) -> f64 {
    assert!(frag > 0 && depth > 0, "degenerate pipeline shape");
    let total = total.max(1);
    let first = frag.min(total);
    let nf = total.div_ceil(first);
    let times = |b: u64| stages.iter().map(move |price| price(b).as_nanos() as f64);
    let fill = |b: u64| times(b).sum::<f64>();
    let per_round = |b: u64| {
        let bottleneck = times(b).fold(0.0f64, f64::max);
        bottleneck.max(fill(b) / depth as f64)
    };
    let tail = total - (nf - 1) * first;
    let mut cost = fill(first);
    if nf >= 2 {
        cost += (nf - 2) as f64 * per_round(first) + per_round(tail);
    }
    cost
}

/// Work-unit candidates from §3.2 (the paper sweeps S ∈ {1, 2, 4} KB).
pub(crate) const UNIT_CANDIDATES: [u64; 3] = [1024, 2048, 4096];

/// Pick the work-unit size S for the generic DEV path: a layout with
/// `segments` contiguous runs totalling `total` bytes shatters into
/// about `segments + total / S` units, and `price` is what converting
/// the layout costs in that many units. The static `base` is always a
/// candidate and wins ties.
pub(crate) fn pick_unit_size(
    base: u64,
    total: u64,
    segments: u64,
    price: impl Fn(u64) -> SimTime,
) -> u64 {
    let cost = |s: u64| price(segments + total / s.max(1));
    let mut best = base;
    let mut best_cost = cost(base);
    for cand in UNIT_CANDIDATES {
        let c = cost(cand);
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    best
}

/// Only deviate from the default when the model predicts at least this
/// much improvement (guards against model/simulator disagreement).
const CHUNK_MARGIN: f64 = 0.97;

/// Pick the CPU→kernel pipeline chunk for a streaming (Fresh) job of
/// `total` bytes, given the price of preparing and of converting a
/// chunk of a given size. With cheap preparation the per-chunk kernel
/// launch dominates and a single launch wins; with expensive
/// preparation overlapping chunks win — the two-stage makespan model
/// decides, with the configured default always a candidate.
pub(crate) fn pick_pipeline_chunk(
    total: u64,
    default_chunk: u64,
    prep: impl Fn(u64) -> SimTime,
    kernel: impl Fn(u64) -> SimTime,
) -> u64 {
    let stages: [&dyn Fn(u64) -> SimTime; 2] = [&prep, &kernel];
    // Depth 2: the CPU prepares one chunk ahead of the kernel.
    let model = |chunk: u64| pipeline_makespan_ns(total, chunk, 2, &stages);
    let default_cost = model(default_chunk);
    let mut best = default_chunk;
    let mut best_cost = default_cost;
    for cand in [
        default_chunk.saturating_mul(2),
        default_chunk.saturating_mul(4),
        u64::MAX,
    ] {
        let c = model(cand);
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    if best_cost < default_cost * CHUNK_MARGIN {
        best
    } else {
        default_chunk
    }
}

/// Only deviate from the configured fragment/depth when the model
/// predicts at least a 7% win.
const FRAG_MARGIN: f64 = 0.93;

/// Never tune a transport fragment below this (rendezvous bookkeeping
/// per fragment stops amortizing).
pub const MIN_FRAG: u64 = 64 << 10;

/// Pick the transport fragment size and ring depth for a pipelined
/// protocol whose per-fragment stages are priced by `stages`.
/// Candidates shrink the configured fragment (the ring slots are
/// allocated at `frag0` bytes, so a tuned fragment must never exceed
/// it) and may halve the ring depth; `(frag0, depth0)` always competes
/// and wins ties.
pub fn pick_fragment<F: Fn(u64) -> SimTime>(
    total: u64,
    frag0: u64,
    depth0: usize,
    stages: &[F],
) -> (u64, usize) {
    let depth0 = depth0.max(1);
    // Below three fragments at the configured size the pipeline never
    // reaches a steady state and the makespan model systematically
    // overvalues the shorter fill ramp of small fragments; splitting a
    // message that barely fragments only adds per-fragment overhead.
    if total.div_ceil(frag0.max(1)) < 3 {
        return (frag0, depth0);
    }
    let default_cost = pipeline_makespan_ns(total, frag0, depth0, stages);
    let mut best = (frag0, depth0);
    let mut best_cost = default_cost;
    for shift in [1u32, 2] {
        let f = (frag0 >> shift) & !255;
        if f < MIN_FRAG || f == 0 {
            continue;
        }
        for d in [depth0, (depth0 / 2).max(1)] {
            let c = pipeline_makespan_ns(total, f, d, stages);
            if c < best_cost {
                best_cost = c;
                best = (f, d);
            }
        }
    }
    if best_cost < default_cost * FRAG_MARGIN {
        best
    } else {
        (frag0, depth0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage costing `fixed_ns + ns_per_byte · bytes`.
    fn affine(fixed_ns: f64, ns_per_byte: f64) -> impl Fn(u64) -> SimTime {
        move |b| SimTime::from_nanos((fixed_ns + ns_per_byte * b as f64).round() as u64)
    }

    #[test]
    fn makespan_reduces_to_serial_for_one_fragment() {
        let stages = [affine(1000.0, 1.0), affine(6000.0, 0.5)];
        let total = 1 << 20;
        let serial = pipeline_makespan_ns(total, u64::MAX, 2, &stages);
        let expect: f64 = stages.iter().map(|s| s(total).as_nanos() as f64).sum();
        assert!((serial - expect).abs() < 1e-6);
    }

    #[test]
    fn makespan_pipelining_approaches_bottleneck() {
        let stages = [affine(0.0, 1.0), affine(0.0, 1.0)];
        let total = 1u64 << 20;
        let piped = pipeline_makespan_ns(total, 1 << 14, 4, &stages);
        // 64 fragments: ~total * 1 ns/B bottleneck, not 2x (the serial sum).
        assert!(piped < 1.2 * total as f64);
        assert!(piped >= total as f64);
    }

    #[test]
    fn unit_size_prefers_fewer_units() {
        // Monotone model: the largest candidate wins for any shattered
        // layout; an explicitly larger base survives as the incumbent.
        let price = |units: u64| SimTime::from_nanos(12 * units);
        assert_eq!(pick_unit_size(1024, 1 << 20, 1000, price), 4096);
        assert_eq!(pick_unit_size(8192, 1 << 20, 1000, price), 8192);
    }

    #[test]
    fn chunk_collapses_to_single_kernel_when_prep_is_cheap() {
        // Coalesced triangular: ~2k units over 17 MB, launch 6 us.
        let total = 17 << 20;
        let units_per_byte = 2048.0 / total as f64;
        let prep = affine(1000.0, 12.0 * units_per_byte);
        let kernel = affine(6000.0, 2.0 / 338.0); // ~2B traffic/B at ~338 GB/s
        assert_eq!(pick_pipeline_chunk(total, 1 << 20, prep, kernel), u64::MAX);
    }

    #[test]
    fn chunk_keeps_pipelining_when_prep_dominates() {
        // Unsplit 1 KB units: ~17k units of prep vs ~100 us of kernel.
        let prep = affine(1000.0, 12.0 / 1024.0);
        let kernel = affine(6000.0, 2.0 / 338.0);
        assert_eq!(
            pick_pipeline_chunk(17 << 20, 1 << 20, prep, kernel),
            1 << 20
        );
    }

    #[test]
    fn fragment_default_always_competes() {
        // A pipe dominated by per-fragment fixed cost: shrinking can
        // only hurt, the default must survive.
        let stages = [affine(100_000.0, 0.01)];
        let (f, d) = pick_fragment(8 << 20, 512 << 10, 4, &stages);
        assert_eq!((f, d), (512 << 10, 4));
    }

    #[test]
    fn fragment_shrinks_when_fill_dominates() {
        // Four fragments of a 2 MB message through a deep per-byte pipe:
        // halving the fragment shortens the fill ramp.
        let stages = [affine(100.0, 1.0), affine(100.0, 1.0), affine(100.0, 1.0)];
        let (f, _) = pick_fragment(2 << 20, 512 << 10, 4, &stages);
        assert!(f < 512 << 10, "expected a shorter ramp, kept {f}");
        assert!(f >= MIN_FRAG);
    }

    #[test]
    fn fragment_keeps_default_when_message_barely_fragments() {
        // One or two fragments: no steady state to model, never split.
        let stages = [affine(100.0, 1.0), affine(100.0, 1.0), affine(100.0, 1.0)];
        for total in [256u64 << 10, 1 << 20] {
            let (f, d) = pick_fragment(total, 512 << 10, 4, &stages);
            assert_eq!((f, d), (512 << 10, 4));
        }
    }
}
