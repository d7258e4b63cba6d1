//! The session API: one place that owns world construction, trace-sink
//! configuration, and run finalization.
//!
//! A [`Session`] wraps `Sim<MpiWorld>`; build one with
//! [`Session::builder`], drive it exactly like the `Sim` it derefs to,
//! and call [`Session::finish`] to close the run, write the Chrome
//! trace (if a sink was configured) and get the [`Metrics`] derived
//! from the recorded events.
//!
//! ```
//! use mpirt::{Session, SendArgs, RecvArgs};
//! use datatype::DataType;
//! use gpusim::GpuWorld as _;
//!
//! let mut sess = Session::builder().two_ranks_ib().build();
//! let ty = DataType::contiguous(256, &DataType::double()).unwrap().commit();
//! let sbuf = sess.world.mem().alloc(memsim::MemSpace::Host, 2048).unwrap();
//! let rbuf = sess.world.mem().alloc(memsim::MemSpace::Host, 2048).unwrap();
//! let s = mpirt::isend(&mut sess, SendArgs::new(0, 1, sbuf, &ty, 1));
//! let r = mpirt::irecv(&mut sess, RecvArgs::new(1, 0, rbuf, &ty, 1));
//! mpirt::api::wait_all(&mut sess, &[s, r]).unwrap();
//! let metrics = sess.finish();
//! assert_eq!(metrics.counter(simcore::Counter::MpiDeliveredBytes), 2048);
//! ```

use crate::config::MpiConfig;
use crate::world::{MpiWorld, RankSpec, IB, ONE_GPU, TWO_GPUS};
use gpusim::{GpuArch, GpuWorld as _};
use simcore::trace::names;
use simcore::{Metrics, Sim, SpanId, Track};
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;

/// Configures and builds a [`Session`]. Obtained from
/// [`Session::builder`]; defaults to the paper's "2GPU" topology
/// (two ranks on one node, one GPU each) with the default [`MpiConfig`].
pub struct SessionBuilder {
    specs: Vec<RankSpec>,
    gpu_count: u32,
    /// Topology-driven rank count; when set, `build` derives the specs
    /// from `topo` instead of `specs`.
    nranks: Option<usize>,
    topo: netsim::Topology,
    arch: &'static GpuArch,
    config: MpiConfig,
    trace_path: Option<PathBuf>,
    record: bool,
    label: String,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder {
            specs: TWO_GPUS.to_vec(),
            gpu_count: 2,
            nranks: None,
            topo: netsim::Topology::default_for(2),
            arch: GpuArch::default_arch(),
            config: MpiConfig::default(),
            trace_path: None,
            record: false,
            label: "run".to_string(),
        }
    }
}

impl SessionBuilder {
    /// Two ranks on one node sharing a single GPU ("1GPU").
    pub fn two_ranks_one_gpu(mut self) -> SessionBuilder {
        self.specs = ONE_GPU.to_vec();
        self.gpu_count = 1;
        self
    }

    /// Two ranks on one node, each with its own GPU ("2GPU"). The
    /// default.
    pub fn two_ranks_two_gpus(mut self) -> SessionBuilder {
        self.specs = TWO_GPUS.to_vec();
        self.gpu_count = 2;
        self
    }

    /// Two ranks on different nodes connected by InfiniBand ("IB").
    pub fn two_ranks_ib(mut self) -> SessionBuilder {
        self.specs = IB.to_vec();
        self.gpu_count = 2;
        self
    }

    /// Arbitrary rank placement over `gpu_count` GPUs per node.
    pub fn rank_specs(mut self, specs: &[RankSpec], gpu_count: u32) -> SessionBuilder {
        self.specs = specs.to_vec();
        self.gpu_count = gpu_count;
        self.nranks = None;
        self
    }

    /// An `n`-rank job laid out by the builder's [`netsim::Topology`]
    /// (set with [`SessionBuilder::topology`]; defaults to a two-rank-
    /// per-node ring). Each rank gets its own GPU; placement is applied
    /// at `build`, so `ranks` and `topology` compose in either order.
    pub fn ranks(mut self, n: usize) -> SessionBuilder {
        assert!(n > 0, "need at least one rank");
        self.nranks = Some(n);
        self
    }

    /// Select the fabric used by [`SessionBuilder::ranks`].
    pub fn topology(mut self, topo: netsim::Topology) -> SessionBuilder {
        self.topo = topo;
        self
    }

    /// Select the GPU architecture for the whole job — a registry
    /// reference or a name (`.arch("v100")`). Composes uniformly with
    /// every topology preset; the default is the paper's K40.
    pub fn arch(mut self, arch: impl Into<&'static GpuArch>) -> SessionBuilder {
        self.arch = arch.into();
        self
    }

    /// Replace the runtime configuration.
    pub fn config(mut self, config: MpiConfig) -> SessionBuilder {
        self.config = config;
        self
    }

    /// Name the run: becomes the Chrome trace process label.
    pub fn label(mut self, label: impl Into<String>) -> SessionBuilder {
        self.label = label.into();
        self
    }

    /// Write a Chrome `trace_event` JSON file to `path` at
    /// [`Session::finish`]. Implies [`SessionBuilder::record`].
    pub fn trace(mut self, path: impl Into<PathBuf>) -> SessionBuilder {
        self.trace_path = Some(path.into());
        self.record = true;
        self
    }

    /// Record spans/instants in memory (for [`Session::metrics`])
    /// without writing a trace file. Counters are always on regardless.
    pub fn record(mut self) -> SessionBuilder {
        self.record = true;
        self
    }

    /// Conditional [`SessionBuilder::record`], for callers that decide
    /// at runtime (the bench runner's trace pass).
    pub fn record_if(mut self, on: bool) -> SessionBuilder {
        self.record |= on;
        self
    }

    /// Build the world and start the session.
    pub fn build(self) -> Session {
        let (specs, gpu_count) = match self.nranks {
            Some(n) => (RankSpec::laid_out(n, &self.topo), n as u32),
            None => (self.specs, self.gpu_count),
        };
        let world = MpiWorld::on_arch(self.arch, &specs, gpu_count, self.config);
        let mut sim = Sim::new(world);
        sim.trace.set_recording(self.record);
        // The run-level span: every recorded trace carries at least one
        // `mpirt` span covering the whole session, so figure traces
        // show the runtime layer even when they drive the engines
        // directly rather than through a protocol.
        let run_span = sim.trace.span_begin(
            sim.now(),
            names::CAT_MPIRT,
            names::SPAN_SESSION,
            Track::Session,
        );
        // Surface the copy-pool sizing decision (GPU_DDT_COPY_THREADS or
        // the default) in the trace, once per session, whether or not a
        // landing has started the pool yet.
        let threads = simcore::par::pool_info().threads as u64;
        sim.trace.count(names::PAR_POOL_THREADS, 0, 0, threads);
        Session {
            sim,
            label: self.label,
            trace_path: self.trace_path,
            run_span,
        }
    }
}

/// A running simulation plus its observability state. Derefs to
/// `Sim<MpiWorld>`, so everything that takes `&mut Sim<MpiWorld>`
/// (`isend`, `irecv`, `ping_pong`, the collectives) accepts a
/// `&mut Session` unchanged.
pub struct Session {
    sim: Sim<MpiWorld>,
    label: String,
    trace_path: Option<PathBuf>,
    run_span: SpanId,
}

impl Session {
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The run label configured at build time.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The GPU architecture the session's world was built on.
    pub fn arch(&self) -> &'static GpuArch {
        self.sim.world.cluster.gpu_system.arch
    }

    /// Metrics over everything recorded so far (the session is left
    /// running). Counters are always populated; timing fields need the
    /// builder's `record()` or `trace()`.
    pub fn metrics(&mut self) -> Metrics {
        self.sync_counters();
        let mut m = Metrics::from_trace(&self.sim.trace);
        m.arch = Some(self.arch().name);
        m
    }

    /// Raise the counters whose authoritative totals live outside the
    /// tracer. `memsim.bytes_moved` is the memory system's own tally of
    /// bytes written. Each rank's `DevCache` hit/miss/evict tallies: the
    /// engines bump `devengine.cache.*` as they go; raising to the
    /// cache's own (monotone) totals also covers plans built outside a
    /// `FragmentEngine` without ever double counting. The shape table's
    /// evictions only once there are any: a run that evicts no entry
    /// reports the counter set it always did.
    fn sync_counters(&mut self) {
        let moved = self.sim.world.mem().bytes_moved();
        self.sim
            .trace
            .count_to(names::MEMSIM_BYTES_MOVED, 0, 0, moved);
        let evicted = self.sim.world.mpi.shapes.entries().evictions();
        if evicted > 0 {
            (self.sim.trace).count_to(names::MPIRT_SHAPE_EVICTED, 0, 0, evicted);
        }
        for i in 0..self.sim.world.mpi.ranks.len() {
            let (hits, misses, evictions) = {
                let c = self.sim.world.mpi.ranks[i].dev_cache.borrow();
                (c.plans().hits(), c.plans().misses(), c.plans().evictions())
            };
            let r = i as u32;
            self.sim
                .trace
                .count_to(names::DEVENGINE_CACHE_HIT, r, 0, hits);
            self.sim
                .trace
                .count_to(names::DEVENGINE_CACHE_MISS, r, 0, misses);
            self.sim
                .trace
                .count_to(names::DEVENGINE_CACHE_EVICT, r, 0, evictions);
        }
    }

    /// End the run span and hand back the raw tracer, for callers that
    /// merge several runs into one trace document (the bench runner).
    pub fn into_trace(mut self) -> simcore::Tracer {
        self.sync_counters();
        let now = self.sim.now();
        self.sim.trace.span_end(now, self.run_span);
        std::mem::take(&mut self.sim.trace)
    }

    /// Close the run: end the session span, write the Chrome trace if a
    /// sink was configured, and return the run's metrics.
    pub fn finish(mut self) -> Metrics {
        self.sync_counters();
        let now = self.sim.now();
        self.sim.trace.span_end(now, self.run_span);
        let mut metrics = Metrics::from_trace(&self.sim.trace);
        metrics.arch = Some(self.arch().name);
        if let Some(path) = &self.trace_path {
            let json = self.sim.trace.chrome_json(&self.label);
            std::fs::write(path, json)
                .unwrap_or_else(|e| panic!("write trace {}: {e}", path.display()));
        }
        metrics
    }
}

impl Deref for Session {
    type Target = Sim<MpiWorld>;
    fn deref(&self) -> &Sim<MpiWorld> {
        &self.sim
    }
}

impl DerefMut for Session {
    fn deref_mut(&mut self) -> &mut Sim<MpiWorld> {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
    use datatype::DataType;
    use memsim::{GpuId, MemSpace};

    fn contig(bytes: u64) -> DataType {
        DataType::contiguous(bytes / 8, &DataType::double())
            .unwrap()
            .commit()
    }

    #[test]
    fn session_runs_a_transfer_and_counts_delivered_bytes() {
        let mut sess = Session::builder().two_ranks_ib().record().build();
        let ty = contig(40_000);
        let sbuf = sess.world.mem().alloc(MemSpace::Host, 40_000).unwrap();
        let rbuf = sess.world.mem().alloc(MemSpace::Host, 40_000).unwrap();
        let s = isend(&mut sess, SendArgs::new(0, 1, sbuf, &ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, rbuf, &ty, 1));
        wait_all(&mut sess, &[s, r]).unwrap();
        let metrics = sess.finish();
        assert_eq!(metrics.counter(names::MPI_DELIVERED_BYTES), 40_000);
        assert!(metrics.makespan > simcore::SimTime::ZERO);
    }

    #[test]
    fn finish_writes_chrome_trace_with_mpirt_spans() {
        let path = std::env::temp_dir().join("mpirt-session-test-trace.json");
        let mut sess = Session::builder()
            .two_ranks_two_gpus()
            .label("unit")
            .trace(&path)
            .build();
        let ty = contig(512);
        let sbuf = sess.world.mem().alloc(MemSpace::Host, 512).unwrap();
        let rbuf = sess.world.mem().alloc(MemSpace::Host, 512).unwrap();
        let s = isend(&mut sess, SendArgs::new(0, 1, sbuf, &ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, rbuf, &ty, 1));
        wait_all(&mut sess, &[s, r]).unwrap();
        sess.finish();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"cat\":\"mpirt\""));
        assert!(json.contains("\"name\":\"session\""));
    }

    #[test]
    fn devcache_counters_reach_session_metrics() {
        use datatype::DataType;
        let mut sess = Session::builder().two_ranks_two_gpus().build();
        // An irregular GPU-resident layout forces the generic DEV path
        // (and therefore the DevCache) on both sides; a second identical
        // transfer must hit the cache.
        let lens: Vec<u64> = (0..256).map(|i| 1 + (i % 7)).collect();
        let disps: Vec<i64> = (0..256).map(|i| i * 16).collect();
        let ty = DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit();
        let bytes = ty.extent() as u64;
        let b0 = sess
            .world
            .mem()
            .alloc(MemSpace::Device(GpuId(0)), bytes)
            .unwrap();
        let b1 = sess
            .world
            .mem()
            .alloc(MemSpace::Device(GpuId(1)), bytes)
            .unwrap();
        for _ in 0..2 {
            let s = isend(&mut sess, SendArgs::new(0, 1, b0, &ty, 1));
            let r = irecv(&mut sess, RecvArgs::new(1, 0, b1, &ty, 1));
            wait_all(&mut sess, &[s, r]).unwrap();
        }
        let m = sess.finish();
        assert!(
            m.counter(names::DEVENGINE_CACHE_MISS) >= 1,
            "first transfer must miss: {:?}",
            m.counters
        );
        assert!(
            m.counter(names::DEVENGINE_CACHE_HIT) >= 1,
            "repeat transfer must hit: {:?}",
            m.counters
        );
        let summary = m.summary();
        assert!(summary.contains("devengine.cache.hit"));
    }

    #[test]
    fn metrics_without_recording_still_has_counters() {
        let mut sess = Session::builder().two_ranks_ib().build();
        let ty = contig(512);
        let sbuf = sess.world.mem().alloc(MemSpace::Host, 512).unwrap();
        let rbuf = sess.world.mem().alloc(MemSpace::Host, 512).unwrap();
        let s = isend(&mut sess, SendArgs::new(0, 1, sbuf, &ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, rbuf, &ty, 1));
        wait_all(&mut sess, &[s, r]).unwrap();
        let m = sess.metrics();
        assert_eq!(m.counter(names::MPI_DELIVERED_BYTES), 512);
        assert_eq!(
            m.makespan,
            simcore::SimTime::ZERO,
            "no spans without record()"
        );
    }
}
