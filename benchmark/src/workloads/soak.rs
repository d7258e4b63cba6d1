//! `soak_1k`: the message-level engine at 1024 ranks — one alltoall of
//! 1 KiB per pair on a fat tree with `scale_soak`'s fault plan live,
//! over a million messages. Op = `build` + `run` + `finish`.
//!
//! It runs on 1 shard: 2-shard op times are bimodal on a 2-vCPU box and
//! cannot be gated (see the README). The traced run measures the
//! 2-shard engine as a probe.

use super::{Counts, OpReport, Size, Stopwatch, Workload, DEFAULT_SEED};
use crate::spans::Spans;
use datatype::DataType;
use faultsim::{FaultKind, FaultOp, FaultPlan};
use mpirt::scale::{self, ScaleConfig, ScaleOp, ScaleReport};
use netsim::Topology;
use simcore::trace::names;
use std::time::Instant;

/// Digest and message count `BENCH_scale.json` commits for the
/// 1024-rank soak at `ScaleConfig::seed = 0xD15C0`.
const COMMITTED_DIGEST: u64 = 0xb6ed_e866_0277_6a05;
const COMMITTED_MSGS: u64 = 1_047_552;
const PAIR_BYTES: u64 = 1024;

pub struct Soak {
    cfg: ScaleConfig,
    /// Whether this is the configuration `BENCH_scale.json` describes.
    committed: bool,
}

/// The soak's configuration: `scale_soak.rs`'s, with the jitter seed
/// taken from the run's seed.
pub fn config(seed: u64, size: Size) -> ScaleConfig {
    let ranks = match size {
        Size::Full => 1024,
        Size::Smoke => 128,
    };
    let mut cfg = ScaleConfig::new(ranks, vec![ScaleOp::Alltoall { bytes: PAIR_BYTES }]);
    cfg.topo = Topology::FatTree {
        ranks_per_node: 8,
        radix: 4,
    };
    cfg.fault_plan = FaultPlan::default()
        .with_seed(0x50AC)
        .with_rule(Some(FaultOp::WireCopy), FaultKind::Transient, 0.01)
        .with_rule(
            Some(FaultOp::WireCopy),
            FaultKind::Degrade { factor: 1.25 },
            1.0,
        );
    cfg.seed = seed;
    cfg
}

/// The report fields that must not move from op to op, nor with the
/// shard count.
pub type Fingerprint = (u64, u64, u64, u64, u64);

pub fn fingerprint(r: &ScaleReport) -> Fingerprint {
    (r.executed, r.end_time.as_nanos(), r.msgs, r.bytes, r.digest)
}

fn phase<T>(sp: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = sp.begin(name);
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as f64;
    sp.end(span);
    (out, ns)
}

/// One soak on `shards` shards, with a span around each phase.
/// Returns the report and the wall ns of (build, run, finish).
pub fn soak_once(
    cfg: &ScaleConfig,
    shards: u32,
    record: bool,
    sp: &mut Spans,
) -> (ScaleReport, [f64; 3]) {
    let (sim, build_ns) = phase(sp, "mpirt.post", || {
        let mut sim = scale::build(cfg, shards);
        sim.set_recording(record);
        sim
    });
    let (run, run_ns) = phase(sp, "mpirt.drive", || sim.run());
    let (report, finish_ns) = phase(sp, "mpirt.scale.finish", || scale::finish(cfg, shards, run));
    (report, [build_ns, run_ns, finish_ns])
}

impl Soak {
    pub fn new(seed: u64, size: Size) -> Soak {
        Soak {
            cfg: config(seed, size),
            committed: seed == DEFAULT_SEED && size == Size::Full,
        }
    }
}

pub struct State {
    record: bool,
    /// The first op's fingerprint; every later op must reproduce it.
    first: Option<Fingerprint>,
    last: Option<Fingerprint>,
    totals: Counts,
}

impl Workload for Soak {
    type State = State;

    fn setup(&self, record: bool, _sp: &mut Spans) -> State {
        State {
            record,
            first: None,
            last: None,
            totals: Counts::default(),
        }
    }

    fn op(&self, st: &mut State, sp: &mut Spans) -> OpReport {
        let watch = Stopwatch::start();
        let (report, _) = soak_once(&self.cfg, 1, st.record, sp);
        let (wall_ns, cpu_s) = watch.stop();

        let fp = fingerprint(&report);
        st.last = Some(fp);
        let p = self.cfg.ranks as u64;
        let mut ok = *st.first.get_or_insert(fp) == fp && report.msgs >= p * (p - 1);
        if self.committed {
            ok &= report.digest == COMMITTED_DIGEST && report.msgs == COMMITTED_MSGS;
        }
        st.totals += Counts {
            events: report.executed,
            delivered_bytes: report.bytes,
            faults_injected: report.trace.counter(names::FAULT_INJECTED),
            retries: report.trace.counter(names::RETRY_ATTEMPTS),
            ..Counts::default()
        };
        OpReport {
            wall_ns,
            cpu_s,
            sim_ns: report.end_time.as_nanos(),
            ok,
        }
    }

    fn counts(&self, st: &mut State) -> Counts {
        st.totals
    }

    /// The soak moves no payload bytes to compare; its oracle is the
    /// digest, checked on every op. The segment's check is that the
    /// last op still reproduced the first.
    fn verify(&self, st: &mut State, corrupt: bool) -> bool {
        let mut want = st.first;
        if let (true, Some(fp)) = (corrupt, want.as_mut()) {
            fp.4 ^= 1;
        }
        want.is_some() && st.last == want
    }

    /// The soak has no datatype of its own; the datatype and devengine
    /// probes get the contiguous 1 KiB its messages stand for.
    fn probe_type(&self) -> DataType {
        DataType::contiguous(PAIR_BYTES / 8, &DataType::double())
            .expect("contiguous")
            .commit()
    }
}
