//! The analytic auto-tuner: prices candidate shapes (no simulation
//! runs) to pick work-unit size, pipeline granularity, fragment size
//! and ring depth per datatype layout.
//!
//! It holds no cost constants: every stage is priced by a closure its
//! caller builds from the price function the charging crate's charge
//! calls (`gpusim::kernel_time`, `netsim::Link::time`, the engine's
//! `prep_time`, …). The prices fold into one schedule,
//! [`Pipeline::makespan`] — the list schedule the executor runs, FIFO
//! resources and ring slots that return on the plan's credit — so on
//! an idle system the prediction is the run, but for estimated inputs.
//! Every picker keeps the static default on a tie.

use simcore::SimTime;
use std::collections::BTreeSet;

/// What one stage costs one fragment: how long it holds its resource,
/// then how much longer until it completes — a link's latency, while
/// the link already carries the next message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cost {
    pub hold: SimTime,
    pub until: SimTime,
}

/// One stage of a pipeline: the resource it holds — stages naming the
/// same resource queue on it in the order they ask — and its cost for
/// a fragment of the given size.
pub struct Stage<'a, R> {
    pub resource: R,
    pub cost: Box<dyn Fn(u64) -> Cost + 'a>,
}

impl<'a, R> Stage<'a, R> {
    /// A stage whose charge lasts `price`, holding `resource` for all
    /// of it but the last `until` — a link's latency; zero elsewhere.
    pub fn new(resource: R, until: SimTime, price: impl Fn(u64) -> SimTime + 'a) -> Self {
        let cost = move |n| Cost {
            hold: price(n).saturating_sub(until),
            until,
        };
        Stage {
            resource,
            cost: Box::new(cost),
        }
    }
}

/// A pipeline the way its executor runs it: every fragment passes
/// `stages` in order, each stage starting when the fragment's previous
/// stage completed and its resource is free; at most `depth` fragments
/// hold a ring slot, and a slot returns — to the next fragment in
/// sequence — when its fragment's last stage completes. `closing` runs
/// once, after the last fragment.
pub struct Pipeline<'a, R> {
    pub stages: Vec<Stage<'a, R>>,
    pub closing: Option<Stage<'a, R>>,
}

impl<R: Copy + PartialEq> Pipeline<'_, R> {
    /// When the last of `total` bytes, moved in fragments of `frag` with
    /// at most `depth` in flight, completes: the list schedule
    ///
    /// start(i, k) = max(end(i, k − 1), free(res_k), credit(i − depth)),
    ///
    /// with requests served in the order they are made — ties to the
    /// earlier fragment — as the executor's FIFO reservations serve them.
    pub fn makespan(&self, total: u64, frag: u64, depth: usize) -> SimTime {
        let total = total.max(1);
        let frag = frag.clamp(1, total);
        let nf = total.div_ceil(frag);
        let sizes = [frag, total - (nf - 1) * frag];
        let costs: Vec<[Cost; 2]> = (self.stages.iter())
            .map(|st| sizes.map(|n| (st.cost)(n)))
            .collect();
        let mut free: Vec<(R, SimTime)> = Vec::new();
        let mut run = |res: R, at: SimTime, c: Cost| {
            let i = (free.iter().position(|(r, _)| *r == res)).unwrap_or_else(|| {
                free.push((res, SimTime::ZERO));
                free.len() - 1
            });
            let start = at.max(free[i].1);
            free[i].1 = start + c.hold;
            start + c.hold + c.until
        };
        // Each in-flight fragment's next request: (when, fragment, stage).
        let admitted = nf.min(depth.max(1) as u64);
        let mut ready: BTreeSet<(SimTime, u64, usize)> =
            (0..admitted).map(|i| (SimTime::ZERO, i, 0)).collect();
        let mut next = admitted;
        let mut end = SimTime::ZERO;
        while let Some((at, seq, k)) = ready.pop_first() {
            let done = match self.stages.get(k) {
                Some(st) => run(st.resource, at, costs[k][usize::from(seq + 1 == nf)]),
                None => at,
            };
            if k + 1 < self.stages.len() {
                ready.insert((done, seq, k + 1));
                continue;
            }
            end = end.max(done);
            if next < nf {
                ready.insert((done, next, 0));
                next += 1;
            }
        }
        match &self.closing {
            Some(st) => run(st.resource, end, (st.cost)(sizes[1])),
            None => end,
        }
    }
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
    best_of(base, UNIT_CANDIDATES.into_iter(), |s| {
        price(segments + total / s.max(1))
    })
}

/// Pick the CPU→kernel pipeline chunk for a streaming (Fresh) job of
/// `total` bytes, given the price of preparing and of converting a
/// chunk of a given size, scheduled as the engine's driver runs them:
/// the CPU prepares chunk after chunk, never waiting for a kernel, and
/// each kernel queues on the stream once its chunk is prepared — two
/// stages on two resources, no slot bound.
pub(crate) fn pick_pipeline_chunk(
    total: u64,
    default_chunk: u64,
    prep: impl Fn(u64) -> SimTime,
    kernel: impl Fn(u64) -> SimTime,
) -> u64 {
    let pipe = Pipeline {
        stages: vec![
            Stage::new(0, SimTime::ZERO, prep),
            Stage::new(1, SimTime::ZERO, kernel),
        ],
        closing: None,
    };
    let candidates = [2, 4].map(|k| default_chunk.saturating_mul(k));
    best_of(
        default_chunk,
        candidates.into_iter().chain([u64::MAX]),
        |chunk| pipe.makespan(total, chunk, usize::MAX),
    )
}

/// The candidate with the strictly shortest schedule, or `incumbent`.
fn best_of<T: Copy>(
    incumbent: T,
    candidates: impl Iterator<Item = T>,
    cost: impl Fn(T) -> SimTime,
) -> T {
    // `min_by_key` keeps the first of equal minima.
    let all = std::iter::once(incumbent).chain(candidates);
    all.min_by_key(|&c| cost(c)).unwrap_or(incumbent)
}

/// Never tune a transport fragment below this (rendezvous bookkeeping
/// per fragment stops amortizing).
pub const MIN_FRAG: u64 = 64 << 10;

/// Pick the transport fragment size and ring depth of `pipe`.
/// Candidates shrink the configured fragment (the ring slots are
/// allocated at `frag0` bytes, so a tuned fragment must never exceed
/// it) and may halve the ring depth; `(frag0, depth0)` always competes
/// and wins ties.
pub fn pick_fragment<R: Copy + PartialEq>(
    pipe: &Pipeline<'_, R>,
    total: u64,
    frag0: u64,
    depth0: usize,
) -> (u64, usize) {
    let depth0 = depth0.max(1);
    let shrunk = [1u32, 2]
        .into_iter()
        .map(|shift| (frag0 >> shift) & !255)
        .filter(|&f| f >= MIN_FRAG);
    let candidates = shrunk.flat_map(|f| [(f, depth0), (f, (depth0 / 2).max(1))]);
    best_of((frag0, depth0), candidates, |(f, d)| {
        pipe.makespan(total, f, d)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stages each on a resource of its own.
    fn pipeline<const N: usize>(
        stages: [impl Fn(u64) -> SimTime + 'static; N],
    ) -> Pipeline<'static, usize> {
        let stages = (stages.into_iter().enumerate())
            .map(|(resource, price)| Stage::new(resource, SimTime::ZERO, price))
            .collect();
        Pipeline {
            stages,
            closing: None,
        }
    }

    /// A stage costing `fixed_ns + ns_per_byte · bytes`.
    fn affine(fixed_ns: f64, ns_per_byte: f64) -> impl Fn(u64) -> SimTime {
        move |b| SimTime::from_nanos((fixed_ns + ns_per_byte * b as f64).round() as u64)
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// A stage on `resource` costing the same whatever the fragment.
    fn fixed(resource: u8, hold: u64, until: u64) -> Stage<'static, u8> {
        let cost = Cost {
            hold: ns(hold),
            until: ns(until),
        };
        Stage {
            resource,
            cost: Box::new(move |_| cost),
        }
    }

    #[test]
    fn link_latency_overlaps_across_fragments() {
        // One link: 100 ns on the wire, 1 µs in flight. Four fragments
        // leave back to back and arrive 1 µs after they leave — not
        // 4 × 1.1 µs.
        let mut pipe = Pipeline {
            stages: vec![fixed(0, 100, 1000)],
            closing: None,
        };
        assert_eq!(pipe.makespan(4 << 10, 1 << 10, 4), ns(1400));
        // A closing message on the same link leaves after the last
        // arrival.
        pipe.closing = Some(fixed(0, 10, 1000));
        assert_eq!(pipe.makespan(4 << 10, 1 << 10, 4), ns(2410));
    }

    #[test]
    fn credit_bound_depth_one_ring() {
        // Two stages and an ack (50 ns on the control link, 300 ns in
        // flight): with one slot, each fragment waits for the previous
        // fragment's ack — 3 × 650 ns.
        let pipe = Pipeline {
            stages: vec![fixed(0, 100, 0), fixed(1, 200, 0), fixed(2, 50, 300)],
            closing: None,
        };
        assert_eq!(pipe.makespan(3, 1, 1), ns(1950));
        // Two slots: fragment 2 starts on fragment 0's ack, at 650 ns.
        assert_eq!(pipe.makespan(3, 1, 2), ns(1300));
    }

    #[test]
    fn one_resource_shared_by_two_stages() {
        // Stages one and three share a resource. Both fragments ask for
        // it at 0 ns; fragment 0's third stage asks at 150 ns, and waits
        // behind fragment 1's first (100..200 ns): 200..300, then
        // fragment 1's third 300..400 — requests served in the order
        // they are made, not fragment by fragment (which reads 500).
        let pipe = Pipeline {
            stages: vec![fixed(0, 100, 0), fixed(1, 50, 0), fixed(0, 100, 0)],
            closing: None,
        };
        assert_eq!(pipe.makespan(2, 1, 2), ns(400));
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
        // The CPU is the bottleneck and still overlaps the kernels: 17
        // one-MiB preparations (13.3 µs each) and the last kernel
        // (12.2 µs) take 238.1 µs; 2 MiB chunks pay 8 fewer preparation
        // calls, 230.1 µs, and keep pipelining.
        let prep = affine(1000.0, 12.0 / 1024.0);
        let kernel = affine(6000.0, 2.0 / 338.0);
        let picked = pick_pipeline_chunk(17 << 20, 1 << 20, prep, kernel);
        assert_eq!(picked, 2 << 20);
        // The engine measures the same on the layout these prices stand
        // for, 17 Ki fresh ~1 KiB units: 240.3 µs in 2 MiB chunks,
        // 246.8 µs in 1 MiB ones, 347.4 µs in one.
        let measured = |chunk: u64| {
            use crate::config::{EngineConfig, OptimizerConfig};
            use datatype::DataType;
            use memsim::{GpuId, MemSpace};
            // Alternating 1 KiB and 1016 B blocks: no vector shape.
            let lens: Vec<u64> = (0..17 << 10).map(|i| 128 - i % 2).collect();
            let disps: Vec<i64> = (0..17 << 10).map(|i| i * 256).collect();
            let ty = DataType::indexed(&lens, &disps, &DataType::double())
                .unwrap()
                .commit();
            let mut sim = simcore::Sim::new(gpusim::NodeWorld::new(1));
            let mem = &mut sim.world.memory;
            let typed = mem.alloc(MemSpace::Device(GpuId(0)), ty.extent() as u64);
            let packed = mem.alloc(MemSpace::Device(GpuId(0)), ty.size());
            let stream = sim.world.gpu_system.default_stream(GpuId(0));
            let cfg = EngineConfig {
                optimizer: OptimizerConfig::disabled(),
                pipeline_chunk: chunk,
                ..EngineConfig::default()
            };
            let (typed, packed) = (typed.unwrap(), packed.unwrap());
            crate::engine::pack_async(
                &mut sim,
                0,
                stream,
                &ty,
                1,
                typed,
                packed,
                cfg,
                None,
                |_, _| {},
            );
            sim.run()
        };
        let (one, two, whole) = (measured(1 << 20), measured(2 << 20), measured(u64::MAX));
        assert!(
            two < one && two < whole,
            "1 MiB {one}, 2 MiB {two}, one chunk {whole}"
        );
    }

    #[test]
    fn fragment_default_always_competes() {
        // A pipe dominated by per-fragment fixed cost: shrinking can
        // only hurt, the default must survive.
        let pipe = pipeline([affine(100_000.0, 0.01)]);
        let (f, d) = pick_fragment(&pipe, 8 << 20, 512 << 10, 4);
        assert_eq!((f, d), (512 << 10, 4));
    }

    #[test]
    fn fragment_shrinks_when_fill_dominates() {
        // Four fragments of a 2 MB message through a deep per-byte pipe:
        // halving the fragment shortens the fill ramp.
        let pipe = pipeline([affine(100.0, 1.0), affine(100.0, 1.0), affine(100.0, 1.0)]);
        let (f, _) = pick_fragment(&pipe, 2 << 20, 512 << 10, 4);
        assert!(f < 512 << 10, "expected a shorter ramp, kept {f}");
        assert!(f >= MIN_FRAG);
    }
}
