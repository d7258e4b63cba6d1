//! Virtual-time tracing: spans, instant events and monotonic counters
//! stamped with [`SimTime`], plus the per-run [`Metrics`] aggregate
//! derived from them.
//!
//! Every [`crate::Sim`] owns a [`Tracer`]. Models record *spans* for
//! work that occupies a resource over a virtual-time window (a kernel
//! on a stream, a fragment on a wire, DEV preparation on a CPU),
//! *instants* for point events (cache hit/miss), and *counters* for
//! byte totals. Counters are incremented inside the same events that
//! move the bytes — there is no parallel bookkeeping — so they double
//! as correctness checks: bytes packed must equal bytes delivered must
//! equal bytes unpacked for every protocol run.
//!
//! Span/instant recording is off by default (zero allocation on hot
//! paths). Counters are always on: a counter is a [`Counter`] variant,
//! a bump indexes a fixed array by `Counter as usize` and resolves the
//! `(a, b)` dimensions in a [`DetHashMap`] keyed by two integers — no
//! string is compared and no tree is walked on the event path. Ordering
//! is paid for where it is used: the listing sorts each counter's
//! dimensions when it is read.
//! The recorded form exports directly as Chrome `trace_event` JSON,
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::hash::DetHashMap;
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

pub use names::Counter;

/// Declares every counter once: its `names::CONST`, its [`Counter`]
/// variant and its display name, as `const CONST: Variant = "name";`.
///
/// Entries must stay in byte order of the display name. `Counter as
/// usize` is then name order, which is what lets the counter table
/// index by variant and still list `(name, a, b)`-sorted
/// (`counter_order_is_name_order` checks it).
macro_rules! counters {
    ($( $(#[$doc:meta])* const $konst:ident: $variant:ident = $name:literal; )+) => {
        /// A trace counter. Emit sites pass one to [`Tracer::count`];
        /// a name that is not a variant does not compile.
        ///
        /// [`Tracer::count`]: super::Tracer::count
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub enum Counter {
            $( $(#[$doc])* $variant, )+
        }

        impl Counter {
            /// Number of counters.
            pub(crate) const COUNT: usize = [$($name),+].len();

            /// Every counter, in `as usize` (= display-name) order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),+];

            /// The display name used in summaries and reports.
            pub const fn name(self) -> &'static str {
                match self {
                    $( Counter::$variant => $name, )+
                }
            }
        }

        $( $(#[$doc])* pub const $konst: Counter = Counter::$variant; )+
    };
}

/// Declares every span category and span / instant name once, as
/// `const CONST = "name";`: the [`Name`] constants emit sites use, and
/// [`Name::ALL`], the list a liveness check walks.
macro_rules! trace_names {
    ($( const $konst:ident = $name:literal; )+) => {
        $( pub const $konst: Name = Name($name); )+

        impl Name {
            /// Every span category and span / instant name, in
            /// declaration order.
            pub const ALL: &'static [Name] = &[$($konst),+];
        }
    };
}

/// The single registry of every trace counter, span category, and
/// span/instant name emitted anywhere in the workspace.
///
/// Counters are the [`Counter`] enum, declared here by one `counters!`
/// table; the `SCREAMING_CASE` constants are the spelling emit sites
/// use. Span categories and span/instant names are [`Name`]s, whose
/// field is private to this file: an emit site can only pass one of
/// these constants, never an inline string.
pub mod names {
    use super::Name;

    counters! {
        // ---- datatype engines ----
        const CPUPACK_PACK_BYTES: CpupackPackBytes = "cpupack.pack.bytes";
        const CPUPACK_UNPACK_BYTES: CpupackUnpackBytes = "cpupack.unpack.bytes";
        const DEVENGINE_CACHE_EVICT: DevengineCacheEvict = "devengine.cache.evict";
        const DEVENGINE_CACHE_HIT: DevengineCacheHit = "devengine.cache.hit";
        const DEVENGINE_CACHE_MISS: DevengineCacheMiss = "devengine.cache.miss";
        const DEVENGINE_PACK_BYTES: DevenginePackBytes = "devengine.pack.bytes";
        const DEVENGINE_SOURCE_CACHED: DevengineSourceCached = "devengine.source.cached";
        const DEVENGINE_SOURCE_FRESH: DevengineSourceFresh = "devengine.source.fresh";
        const DEVENGINE_SOURCE_STRIDED2D: DevengineSourceStrided2d = "devengine.source.strided2d";
        const DEVENGINE_SOURCE_VECTOR: DevengineSourceVector = "devengine.source.vector";
        const DEVENGINE_UNPACK_BYTES: DevengineUnpackBytes = "devengine.unpack.bytes";

        // ---- fault engine ----
        /// Protocol path renegotiations (SmIpc → CopyInOut, ZeroCopy → staged).
        const FALLBACK_EVENTS: FallbackEvents = "fallback.events";
        /// Injections fired, dimensioned by `FaultOp::index()`.
        const FAULT_INJECTED: FaultInjected = "fault.injected";

        // ---- GPU substrate ----
        const GPUSIM_IPC_OPEN_COUNT: GpusimIpcOpenCount = "gpusim.ipc_open.count";
        const GPUSIM_KERNEL_BYTES: GpusimKernelBytes = "gpusim.kernel.bytes";
        const GPUSIM_KERNEL_LAUNCHES: GpusimKernelLaunches = "gpusim.kernel.launches";
        const GPUSIM_KERNEL_UNITS: GpusimKernelUnits = "gpusim.kernel.units";
        const GPUSIM_MEMCPY_D2D_BYTES: GpusimMemcpyD2dBytes = "gpusim.memcpy.d2d.bytes";
        const GPUSIM_MEMCPY_D2H_BYTES: GpusimMemcpyD2hBytes = "gpusim.memcpy.d2h.bytes";
        const GPUSIM_MEMCPY_H2D_BYTES: GpusimMemcpyH2dBytes = "gpusim.memcpy.h2d.bytes";
        const GPUSIM_MEMCPY_H2H_BYTES: GpusimMemcpyH2hBytes = "gpusim.memcpy.h2h.bytes";
        const GPUSIM_MEMCPY_P2P_BYTES: GpusimMemcpyP2pBytes = "gpusim.memcpy.p2p.bytes";

        // ---- memory substrate ----
        /// Bytes the simulator itself wrote (`Memory::transfer_batch`):
        /// physical traffic, against `mpi.delivered.bytes` of payload.
        const MEMSIM_BYTES_MOVED: MemsimBytesMoved = "memsim.bytes_moved";

        // ---- protocol layer ----
        /// Bytes landed in a matched receive buffer (the end-to-end total).
        const MPI_DELIVERED_BYTES: MpiDeliveredBytes = "mpi.delivered.bytes";
        /// Whole shape-table entries evicted (`mpirt::shape`).
        const MPIRT_SHAPE_EVICTED: MpirtShapeEvicted = "mpirt.shape.evicted";
        /// Bytes that crossed the staged copy-in/copy-out wire hop.
        const MPIRT_WIRE_BYTES: MpirtWireBytes = "mpirt.wire.bytes";

        // ---- network substrate ----
        const NETSIM_AM_COUNT: NetsimAmCount = "netsim.am.count";
        const NETSIM_AM_PAYLOAD_BYTES: NetsimAmPayloadBytes = "netsim.am.payload.bytes";

        // ---- offload frontier (NIC executor + stream trigger) ----
        /// Payload bytes gathered/scattered by NIC-executed DEV programs.
        const OFFLOAD_NIC_BYTES: OffloadNicBytes = "offload.nic.bytes";
        /// NicOffload → GpuPack demotions (NIC handler install lost).
        const OFFLOAD_NIC_DEMOTIONS: OffloadNicDemotions = "offload.nic.demotions";
        /// DEV descriptor programs executed on a NIC packet processor.
        const OFFLOAD_NIC_PROGRAMS: OffloadNicPrograms = "offload.nic.programs";
        /// Stream-op graphs captured (once per persistent transfer shape).
        const OFFLOAD_STREAM_CAPTURES: OffloadStreamCaptures = "offload.stream.captures";
        /// StreamTriggered → CPU-driven demotions (doorbell lost).
        const OFFLOAD_STREAM_DEMOTIONS: OffloadStreamDemotions = "offload.stream.demotions";
        /// Captured stream-op graph replays (one per iteration re-issue).
        const OFFLOAD_STREAM_REPLAYS: OffloadStreamReplays = "offload.stream.replays";

        // ---- commit-time optimizer / tuner ----
        const OPTIMIZER_CHUNK_TUNED: OptimizerChunkTuned = "optimizer.chunk.tuned";
        const OPTIMIZER_FRAG_CACHE_HIT: OptimizerFragCacheHit = "optimizer.frag.cache.hit";
        const OPTIMIZER_FRAG_DEFAULT: OptimizerFragDefault = "optimizer.frag.default";
        const OPTIMIZER_FRAG_TUNED: OptimizerFragTuned = "optimizer.frag.tuned";
        const OPTIMIZER_UNIT_TUNED: OptimizerUnitTuned = "optimizer.unit.tuned";

        /// Retries provoked by transient faults (all layers).
        const RETRY_ATTEMPTS: RetryAttempts = "retry.attempts";

        // ---- message-level scale model ----
        /// Bytes delivered by the message-level scale model.
        const SCALE_DELIVERED_BYTES: ScaleDeliveredBytes = "scale.delivered.bytes";
        /// Messages delivered by the message-level scale model.
        const SCALE_MSGS: ScaleMsgs = "scale.msgs";

        // ---- infrastructure ----
        /// Copy-pool sizing decision, surfaced once per session.
        const PAR_POOL_THREADS: ParPoolThreads = "simcore.par.pool_threads";
    }

    trace_names! {
        // ---- span categories (one per emitting layer) ----
        const CAT_MPIRT = "mpirt";
        const CAT_NETSIM = "netsim";
        const CAT_GPUSIM = "gpusim";
        const CAT_DEVENGINE = "devengine";
        const CAT_CPUPACK = "cpupack";
        const CAT_SCALE = "scale";

        // ---- span / instant names: protocol layer ----
        const SPAN_SESSION = "session";
        const SPAN_EAGER = "eager";
        const SPAN_COPYIO = "copyio";
        const SPAN_WIRE = "wire";
        const SPAN_FRAG = "frag";
        const SPAN_SM_BOTH_DENSE = "sm-both-dense";
        const SPAN_SM_SENDER_DENSE = "sm-sender-dense";
        const SPAN_SM_RECEIVER_DENSE = "sm-receiver-dense";
        const SPAN_SM_PIPELINE = "sm-pipeline";

        // ---- span / instant names: substrates ----
        const SPAN_AM = "am";
        const SPAN_RDMA_REGISTER = "rdma-register";
        const SPAN_KERNEL = "kernel";
        const SPAN_MEMCPY = "memcpy";
        const SPAN_MEMCPY2D = "memcpy2d";
        const SPAN_IPC_OPEN = "ipc-open";
        const SPAN_PREP = "prep";
        const SPAN_DEV_CACHE_HIT = "dev-cache-hit";
        const SPAN_DEV_CACHE_MISS = "dev-cache-miss";
        const SPAN_CPU_PACK = "cpu-pack";
        const SPAN_CPU_UNPACK = "cpu-unpack";

        // ---- span / instant names: offload frontier ----
        const SPAN_NIC_PROGRAM = "nic-program";
        const SPAN_STREAM_CAPTURE = "stream-capture";
        const SPAN_STREAM_REPLAY = "stream-replay";

        // ---- span / instant names: message-level scale model ----
        const SPAN_SCALE_OP = "scale-op";
    }
}

/// A span category or span / instant name. The field is private to this
/// file, so the only values are the [`names`] constants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Name(&'static str);

impl Name {
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.0)
    }
}

/// Where a span ran: a stable, allocation-free identifier that maps to
/// one row ("thread") in the trace viewer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Track {
    /// A CUDA stream on a GPU.
    Stream { gpu: u32, index: u32 },
    /// A rank's host CPU.
    Cpu { rank: u32 },
    /// The control (active-message) half of a link.
    LinkCtrl { from: u32, to: u32 },
    /// The data (staged fragment) half of a link.
    LinkData { from: u32, to: u32 },
    /// The fragment ring of a connection.
    Ring { from: u32, to: u32 },
    /// Protocol-level state machine for a rank pair.
    Proto { from: u32, to: u32 },
    /// Session / run-level spans.
    Session,
}

impl std::fmt::Display for Track {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Track::Stream { gpu, index } => write!(f, "gpu{gpu}/stream{index}"),
            Track::Cpu { rank } => write!(f, "rank{rank}/cpu"),
            Track::LinkCtrl { from, to } => write!(f, "link {from}->{to} ctrl"),
            Track::LinkData { from, to } => write!(f, "link {from}->{to} data"),
            Track::Ring { from, to } => write!(f, "ring {from}->{to}"),
            Track::Proto { from, to } => write!(f, "proto {from}->{to}"),
            Track::Session => write!(f, "session"),
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A closed span: work occupying `track` over `[start, end]`.
    Span {
        cat: Name,
        name: Name,
        track: Track,
        start: SimTime,
        end: SimTime,
    },
    /// A point event.
    Instant {
        cat: Name,
        name: Name,
        track: Track,
        at: SimTime,
    },
}

/// Handle to a span opened with [`Tracer::span_begin`].
#[derive(Clone, Copy, Debug)]
#[must_use = "close the span with span_end"]
pub struct SpanId(usize);

const SPAN_DISABLED: usize = usize::MAX;

impl SpanId {
    /// An inert handle: [`Tracer::span_end`] on it is a no-op. Useful
    /// as a placeholder in state structs before a span is opened.
    pub const fn disabled() -> SpanId {
        SpanId(SPAN_DISABLED)
    }
}

struct OpenSpan {
    cat: Name,
    name: Name,
    track: Track,
    start: SimTime,
}

impl Counter {
    /// The counter with this display name, if any.
    pub fn from_name(name: &str) -> Option<Counter> {
        // `ALL` is in name order (see `counters!`).
        Counter::ALL
            .binary_search_by(|c| c.name().cmp(name))
            .ok()
            .map(|i| Counter::ALL[i])
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// Monotonic counter identity: a counter plus two small dimensions
/// (rank/GPU/link endpoints — 0 when unused). Orders as
/// `(name, a, b)`, because `Counter` orders by name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CounterKey {
    pub counter: Counter,
    pub a: u32,
    pub b: u32,
}

/// The `(a, b)` dimensions of one counter and their values. Allocates
/// nothing until the first touch.
type Dims = DetHashMap<(u32, u32), u64>;

/// The per-simulation trace recorder. Owned by [`crate::Sim`] as the
/// public `trace` field.
pub struct Tracer {
    recording: bool,
    events: Vec<TraceEvent>,
    open: Vec<Option<OpenSpan>>,
    /// Indexed by `Counter as usize`.
    counters: [Dims; Counter::COUNT],
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            recording: false,
            events: Vec::new(),
            open: Vec::new(),
            counters: std::array::from_fn(|_| Dims::default()),
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Turn span/instant recording on or off. Counters are unaffected
    /// (always on).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Record a span whose window is already known — the shape of every
    /// `FifoResource::reserve` call site, which learns `(start, end)` up
    /// front.
    pub fn span_at(&mut self, start: SimTime, end: SimTime, cat: Name, name: Name, track: Track) {
        if !self.recording {
            return;
        }
        debug_assert!(end >= start, "span {name} ends before it starts");
        self.events.push(TraceEvent::Span {
            cat,
            name,
            track,
            start,
            end,
        });
    }

    /// Open a span now; close it with [`Tracer::span_end`]. Used for
    /// protocol lifecycles whose end is not known at the start.
    pub fn span_begin(&mut self, now: SimTime, cat: Name, name: Name, track: Track) -> SpanId {
        if !self.recording {
            return SpanId(SPAN_DISABLED);
        }
        self.open.push(Some(OpenSpan {
            cat,
            name,
            track,
            start: now,
        }));
        SpanId(self.open.len() - 1)
    }

    /// Close a span opened with [`Tracer::span_begin`]. Panics if the
    /// span is closed twice or closes before it opened — spans must
    /// nest and close in virtual-time order.
    pub fn span_end(&mut self, now: SimTime, id: SpanId) {
        if id.0 == SPAN_DISABLED {
            return;
        }
        let open = self.open[id.0].take().expect("span closed twice");
        assert!(
            now >= open.start,
            "span {} closes at {now:?} before it opened at {:?}",
            open.name,
            open.start
        );
        self.events.push(TraceEvent::Span {
            cat: open.cat,
            name: open.name,
            track: open.track,
            start: open.start,
            end: now,
        });
    }

    /// Record a point event.
    pub fn instant(&mut self, at: SimTime, cat: Name, name: Name, track: Track) {
        if !self.recording {
            return;
        }
        self.events.push(TraceEvent::Instant {
            cat,
            name,
            track,
            at,
        });
    }

    /// Bump a counter. Always on; call this from the completion event
    /// of the operation it counts.
    pub fn count(&mut self, counter: Counter, a: u32, b: u32, delta: u64) {
        *self.counters[counter as usize].entry((a, b)).or_insert(0) += delta;
    }

    /// Raise a counter to an absolute total (monotone: never lowers).
    /// For reconciling externally-accumulated totals — e.g. the per-rank
    /// `DevCache` hit/miss/evict tallies — into the trace without double
    /// counting increments that were already `count`ed along the way.
    pub fn count_to(&mut self, counter: Counter, a: u32, b: u32, total: u64) {
        let e = self.counters[counter as usize].entry((a, b)).or_insert(0);
        if *e < total {
            *e = total;
        }
    }

    /// Total of a counter across all dimensions.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].values().sum()
    }

    /// One dimension of a counter.
    pub fn counter_at(&self, counter: Counter, a: u32, b: u32) -> u64 {
        self.counters[counter as usize]
            .get(&(a, b))
            .copied()
            .unwrap_or(0)
    }

    /// Every counter dimension touched so far (a bump by zero counts as
    /// a touch), sorted by `(name, a, b)`.
    pub fn counters(&self) -> Vec<(CounterKey, u64)> {
        let mut out = Vec::with_capacity(self.counters.iter().map(Dims::len).sum());
        for (&counter, dims) in Counter::ALL.iter().zip(&self.counters) {
            let from = out.len();
            out.extend(
                dims.iter()
                    .map(|(&(a, b), &v)| (CounterKey { counter, a, b }, v)),
            );
            out[from..].sort_unstable_by_key(|(k, _)| (k.a, k.b));
        }
        out
    }

    /// All recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The distinct tracks touched by recorded events, in stable order.
    pub fn tracks(&self) -> Vec<Track> {
        let mut set = BTreeSet::new();
        for e in &self.events {
            match e {
                TraceEvent::Span { track, .. } | TraceEvent::Instant { track, .. } => {
                    set.insert(*track);
                }
            }
        }
        set.into_iter().collect()
    }

    /// Append this trace's Chrome `trace_event` objects to `out`, one
    /// JSON object per element, under process id `pid` (named `label`).
    /// Timestamps are microseconds as the format requires.
    pub fn chrome_events(&self, pid: u32, label: &str, out: &mut Vec<String>) {
        out.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            json_escape(label)
        ));
        let tracks = self.tracks();
        let tid_of = |t: &Track| tracks.iter().position(|x| x == t).unwrap() as u32 + 1;
        for t in &tracks {
            out.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{},"args":{{"name":"{}"}}}}"#,
                tid_of(t),
                json_escape(&t.to_string())
            ));
        }
        for e in &self.events {
            match e {
                TraceEvent::Span {
                    cat,
                    name,
                    track,
                    start,
                    end,
                } => {
                    let ts = start.as_nanos() as f64 / 1000.0;
                    let dur = (end.as_nanos() - start.as_nanos()) as f64 / 1000.0;
                    out.push(format!(
                        r#"{{"name":"{name}","cat":"{cat}","ph":"X","ts":{ts},"dur":{dur},"pid":{pid},"tid":{}}}"#,
                        tid_of(track)
                    ));
                }
                TraceEvent::Instant {
                    cat,
                    name,
                    track,
                    at,
                } => {
                    let ts = at.as_nanos() as f64 / 1000.0;
                    out.push(format!(
                        r#"{{"name":"{name}","cat":"{cat}","ph":"i","ts":{ts},"s":"t","pid":{pid},"tid":{}}}"#,
                        tid_of(track)
                    ));
                }
            }
        }
    }

    /// The whole trace as a single-process Chrome JSON document.
    pub fn chrome_json(&self, label: &str) -> String {
        let mut events = Vec::new();
        self.chrome_events(1, label, &mut events);
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    /// Re-order recorded events by content — `(time, span before
    /// instant, track, category, name)` — instead of recording order.
    /// The message-level engine ([`crate::msgsim`]) ends every run with
    /// this, so a scale Chrome trace lists same-instant events by track
    /// rather than by which sender's message completed them.
    pub fn sort_by_content(&mut self) {
        self.events.sort_by_key(TraceEvent::sort_key);
    }
}

impl TraceEvent {
    /// Content-based order key for [`Tracer::sort_by_content`].
    fn sort_key(&self) -> (u64, u8, Track, Name, Name, u64) {
        match *self {
            TraceEvent::Span {
                cat,
                name,
                track,
                start,
                end,
            } => (start.as_nanos(), 0, track, cat, name, end.as_nanos()),
            TraceEvent::Instant {
                cat,
                name,
                track,
                at,
            } => (at.as_nanos(), 1, track, cat, name, 0),
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Coarse classification of spans into pipeline stages, used for the
/// overlap computation. The paper's pipeline hides `Prep` (CPU DEV
/// generation / host packing) and `Copy`/`Wire` behind `Kernel`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum WorkClass {
    /// CPU-side preparation: DEV generation, host pack/unpack.
    Prep,
    /// GPU pack/unpack kernels.
    Kernel,
    /// memcpy engines (H2D/D2H/D2D/P2P).
    Copy,
    /// Link occupancy: AMs and staged wire fragments.
    Wire,
}

impl WorkClass {
    /// Classify a span by its category/name; `None` for spans that are
    /// not pipeline work (protocol lifecycles, sync, session spans).
    pub fn of(cat: Name, name: Name) -> Option<WorkClass> {
        match cat {
            names::CAT_DEVENGINE | names::CAT_CPUPACK => Some(WorkClass::Prep),
            names::CAT_GPUSIM => match name {
                names::SPAN_KERNEL => Some(WorkClass::Kernel),
                n if n.as_str().starts_with(names::SPAN_MEMCPY.as_str()) => Some(WorkClass::Copy),
                _ => None,
            },
            names::CAT_NETSIM => Some(WorkClass::Wire),
            _ => None,
        }
    }
}

/// Per-run aggregate metrics, derived entirely from the recorded trace.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Virtual time spanned by classified work (first start → last end).
    pub makespan: SimTime,
    /// Busy time per work class (union of that class's spans).
    pub class_busy: BTreeMap<WorkClass, SimTime>,
    /// Union busy time across all classified work.
    pub union_busy: SimTime,
    /// Pipeline overlap: `100 * (Σ class busy − union busy) / union
    /// busy`. Zero when stages strictly serialize; positive when any
    /// two classes run concurrently.
    pub overlap_pct: f64,
    /// Fraction of the makespan with at least one kernel running.
    pub kernel_occupancy: f64,
    /// Average number of in-flight ring fragments (Σ fragment-span
    /// durations / makespan).
    pub ring_residency: f64,
    /// Final counter totals (bytes moved per link/space, AM counts...).
    pub counters: Vec<(CounterKey, u64)>,
    /// GPU architecture the run was simulated on, when the world above
    /// knows it (sessions stamp this so traces/CSVs are
    /// self-describing). `None` for bare tracer-derived metrics.
    pub arch: Option<&'static str>,
}

/// Union length of a set of intervals.
fn union_busy(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
                let _ = cs;
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

impl Metrics {
    /// Compute metrics from a recorded trace. Requires recording to
    /// have been on during the run (counters alone carry no timing).
    pub fn from_trace(trace: &Tracer) -> Metrics {
        let mut per_class: BTreeMap<WorkClass, Vec<(u64, u64)>> = BTreeMap::new();
        let mut all: Vec<(u64, u64)> = Vec::new();
        let mut kernel: Vec<(u64, u64)> = Vec::new();
        let mut frag_total = 0u64;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for e in trace.events() {
            let TraceEvent::Span {
                cat,
                name,
                start,
                end,
                track,
            } = e
            else {
                continue;
            };
            if *cat == names::CAT_MPIRT && *name == names::SPAN_FRAG {
                frag_total += end.as_nanos() - start.as_nanos();
            }
            let Some(class) = WorkClass::of(*cat, *name) else {
                let _ = track;
                continue;
            };
            let iv = (start.as_nanos(), end.as_nanos());
            lo = lo.min(iv.0);
            hi = hi.max(iv.1);
            per_class.entry(class).or_default().push(iv);
            all.push(iv);
            if class == WorkClass::Kernel {
                kernel.push(iv);
            }
        }
        if all.is_empty() {
            // No timing spans (recording off) — counters still apply.
            return Metrics {
                counters: trace.counters(),
                ..Metrics::default()
            };
        }
        let makespan = hi - lo;
        let union = union_busy(all);
        let mut class_busy = BTreeMap::new();
        let mut sum = 0u64;
        for (class, iv) in per_class {
            let busy = union_busy(iv);
            sum += busy;
            class_busy.insert(class, SimTime::from_nanos(busy));
        }
        let overlap_pct = if union > 0 {
            100.0 * (sum - union) as f64 / union as f64
        } else {
            0.0
        };
        let kernel_busy = union_busy(kernel);
        Metrics {
            makespan: SimTime::from_nanos(makespan),
            class_busy,
            union_busy: SimTime::from_nanos(union),
            overlap_pct,
            kernel_occupancy: if makespan > 0 {
                kernel_busy as f64 / makespan as f64
            } else {
                0.0
            },
            ring_residency: if makespan > 0 {
                frag_total as f64 / makespan as f64
            } else {
                0.0
            },
            counters: trace.counters(),
            arch: None,
        }
    }

    /// Final total of a named counter, summed across its dimensions.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.counter == counter)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if let Some(arch) = self.arch {
            let _ = writeln!(s, "arch              {arch}");
        }
        let _ = writeln!(s, "makespan          {}", self.makespan);
        for (class, busy) in &self.class_busy {
            let _ = writeln!(s, "busy[{class:?}]{:<8} {busy}", "");
        }
        let _ = writeln!(s, "busy[any]         {}", self.union_busy);
        let _ = writeln!(s, "overlap           {:.1}%", self.overlap_pct);
        let _ = writeln!(s, "kernel occupancy  {:.1}%", self.kernel_occupancy * 100.0);
        let _ = writeln!(
            s,
            "ring residency    {:.2} fragments in flight",
            self.ring_residency
        );
        for (k, v) in &self.counters {
            if k.a == 0 && k.b == 0 {
                let _ = writeln!(s, "{:<24} {v}", k.counter);
            } else {
                let _ = writeln!(s, "{:<24} {v}  [{}->{}]", k.counter, k.a, k.b);
            }
        }
        s
    }
}

#[cfg(test)]
impl Tracer {
    /// Number of spans still open. Zero after a well-formed run.
    fn open_spans(&self) -> usize {
        self.open.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    const T: Track = Track::Cpu { rank: 0 };

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn spans_record_only_when_recording() {
        let mut t = Tracer::new();
        t.span_at(ns(0), ns(10), names::CAT_GPUSIM, names::SPAN_KERNEL, T);
        assert!(t.events().is_empty());
        t.set_recording(true);
        t.span_at(ns(0), ns(10), names::CAT_GPUSIM, names::SPAN_KERNEL, T);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn counters_always_on() {
        let mut t = Tracer::new();
        t.count(names::NETSIM_AM_PAYLOAD_BYTES, 0, 1, 7);
        t.count(names::NETSIM_AM_PAYLOAD_BYTES, 0, 1, 5);
        t.count(names::NETSIM_AM_PAYLOAD_BYTES, 2, 3, 1);
        assert_eq!(t.counter_at(names::NETSIM_AM_PAYLOAD_BYTES, 0, 1), 12);
        assert_eq!(t.counter_at(names::NETSIM_AM_PAYLOAD_BYTES, 1, 0), 0);
        assert_eq!(t.counter(names::NETSIM_AM_PAYLOAD_BYTES), 13);
        assert_eq!(t.counter(names::NETSIM_AM_COUNT), 0);
    }

    #[test]
    fn counter_order_is_name_order() {
        // The listing guarantee: `as usize` order is the byte order of
        // the display names, so names are unique as well.
        for (i, w) in Counter::ALL.windows(2).enumerate() {
            assert!(w[0].name() < w[1].name(), "{} !< {}", w[0], w[1]);
            assert_eq!(w[0] as usize, i);
        }
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
            assert_eq!(format!("{c:<30}|"), format!("{:<30}|", c.name()));
        }
        assert_eq!(Counter::from_name("no.such.counter"), None);
        assert_eq!(names::SCALE_MSGS.name(), "scale.msgs");
    }

    /// The reference the counter table is checked against: the
    /// string-keyed sorted map it replaced.
    type RefMap = BTreeMap<(String, u32, u32), u64>;

    /// One random `count` / `count_to` on `t` and on the reference.
    fn random_bump(rng: &mut SimRng, t: &mut Tracer, r: &mut RefMap) {
        let a = if rng.chance(0.1) {
            u32::MAX - rng.range_u64(0, 3) as u32
        } else {
            rng.range_u64(0, 300) as u32
        };
        let c = *rng.choose(&Counter::ALL);
        let b = *rng.choose(&[0, 0, 1, 7, u32::MAX]);
        let e = r.entry((c.name().to_string(), a, b)).or_insert(0);
        if rng.chance(0.25) {
            let total = rng.range_u64(0, 2_000);
            let before = t.counter_at(c, a, b);
            t.count_to(c, a, b, total);
            assert_eq!(
                t.counter_at(c, a, b),
                before.max(total),
                "count_to is monotone"
            );
            *e = (*e).max(total);
        } else {
            // Zero deltas included: a touch lists the dimension.
            let delta = rng.range_u64(0, 50);
            t.count(c, a, b, delta);
            *e += delta;
        }
    }

    fn assert_matches(t: &Tracer, r: &RefMap) {
        let listed: Vec<((String, u32, u32), u64)> = t
            .counters()
            .into_iter()
            .map(|(k, v)| ((k.counter.name().to_string(), k.a, k.b), v))
            .collect();
        let expect: Vec<_> = r.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(listed, expect, "same dimensions, same (name, a, b) order");
        for c in Counter::ALL {
            let total: u64 = r
                .iter()
                .filter(|(k, _)| k.0 == c.name())
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(t.counter(c), total);
        }
        for ((name, a, b), v) in r {
            let c = Counter::from_name(name).unwrap();
            assert_eq!(t.counter_at(c, *a, *b), *v);
        }
        assert_eq!(Metrics::from_trace(t).counters, t.counters());
    }

    #[test]
    fn counter_table_matches_a_sorted_string_map() {
        for seed in 0..8 {
            let mut rng = SimRng::new(0xC0DE + seed);
            let mut t = Tracer::new();
            let mut r = RefMap::new();
            assert!(t.counters().is_empty());
            for step in 0..4_000 {
                if step % 500 == 499 {
                    assert_matches(&t, &r);
                }
                random_bump(&mut rng, &mut t, &mut r);
            }
            assert_matches(&t, &r);
        }
    }

    #[test]
    fn begin_end_spans_close_in_time_order() {
        let mut t = Tracer::new();
        t.set_recording(true);
        let outer = t.span_begin(ns(10), names::CAT_MPIRT, names::SPAN_SESSION, T);
        let inner = t.span_begin(ns(20), names::CAT_MPIRT, names::SPAN_FRAG, T);
        t.span_end(ns(30), inner);
        t.span_end(ns(50), outer);
        assert_eq!(t.open_spans(), 0);
        // Both spans recorded with their true windows.
        let spans: Vec<(u64, u64)> = t
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { start, end, .. } => Some((start.as_nanos(), end.as_nanos())),
                _ => None,
            })
            .collect();
        assert_eq!(spans, vec![(20, 30), (10, 50)]);
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn double_close_panics() {
        let mut t = Tracer::new();
        t.set_recording(true);
        let id = t.span_begin(ns(0), names::CAT_MPIRT, names::SPAN_SESSION, T);
        t.span_end(ns(1), id);
        t.span_end(ns(2), id);
    }

    #[test]
    #[should_panic(expected = "before it opened")]
    fn closing_before_opening_panics() {
        let mut t = Tracer::new();
        t.set_recording(true);
        let id = t.span_begin(ns(10), names::CAT_MPIRT, names::SPAN_SESSION, T);
        t.span_end(ns(5), id);
    }

    #[test]
    fn disabled_span_handles_are_inert() {
        let mut t = Tracer::new();
        let id = t.span_begin(ns(0), names::CAT_MPIRT, names::SPAN_SESSION, T);
        t.span_end(ns(5), id);
        assert!(t.events().is_empty());
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_busy(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_busy(vec![]), 0);
        assert_eq!(union_busy(vec![(3, 3)]), 0);
    }

    #[test]
    fn overlap_zero_when_serialized() {
        let mut t = Tracer::new();
        t.set_recording(true);
        t.span_at(ns(0), ns(10), names::CAT_DEVENGINE, names::SPAN_PREP, T);
        t.span_at(
            ns(10),
            ns(30),
            names::CAT_GPUSIM,
            names::SPAN_KERNEL,
            Track::Stream { gpu: 0, index: 0 },
        );
        let m = Metrics::from_trace(&t);
        assert_eq!(m.overlap_pct, 0.0);
        assert_eq!(m.makespan, ns(30));
        assert_eq!(m.union_busy, ns(30));
    }

    #[test]
    fn overlap_positive_when_pipelined() {
        let mut t = Tracer::new();
        t.set_recording(true);
        // Prep of fragment i+1 hides behind kernel of fragment i.
        t.span_at(ns(0), ns(10), names::CAT_DEVENGINE, names::SPAN_PREP, T);
        t.span_at(
            ns(10),
            ns(30),
            names::CAT_GPUSIM,
            names::SPAN_KERNEL,
            Track::Stream { gpu: 0, index: 0 },
        );
        t.span_at(ns(10), ns(20), names::CAT_DEVENGINE, names::SPAN_PREP, T);
        let m = Metrics::from_trace(&t);
        assert!(m.overlap_pct > 0.0, "overlap {}", m.overlap_pct);
        assert_eq!(m.kernel_occupancy, 20.0 / 30.0);
    }

    #[test]
    fn sort_by_content_ignores_recording_order() {
        // Same three events, two recording orders, one sorted trace:
        // by time, then span before instant, then track.
        let record = |which: &[u8]| {
            let mut t = Tracer::new();
            t.set_recording(true);
            for &w in which {
                match w {
                    0 => t.span_at(
                        ns(10),
                        ns(20),
                        names::CAT_SCALE,
                        names::SPAN_SCALE_OP,
                        Track::Cpu { rank: 1 },
                    ),
                    1 => t.instant(
                        ns(10),
                        names::CAT_SCALE,
                        names::SPAN_SCALE_OP,
                        Track::Cpu { rank: 0 },
                    ),
                    _ => t.instant(
                        ns(5),
                        names::CAT_SCALE,
                        names::SPAN_SCALE_OP,
                        Track::Cpu { rank: 2 },
                    ),
                }
            }
            t.sort_by_content();
            t
        };
        let (a, b) = (record(&[0, 1, 2]), record(&[1, 2, 0]));
        assert_eq!(a.chrome_json("x"), b.chrome_json("x"));
        let times: Vec<u64> = a.events().iter().map(|e| e.sort_key().0).collect();
        assert_eq!(times, [5, 10, 10]);
        assert!(matches!(a.events()[1], TraceEvent::Span { .. }));
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Tracer::new();
        t.set_recording(true);
        t.span_at(
            ns(1000),
            ns(2500),
            names::CAT_GPUSIM,
            names::SPAN_KERNEL,
            Track::Stream { gpu: 0, index: 1 },
        );
        t.instant(ns(1200), names::CAT_DEVENGINE, names::SPAN_DEV_CACHE_HIT, T);
        let json = t.chrome_json("test");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains("gpu0/stream1"));
        assert!(json.contains(r#""ts":1,"dur":1.5"#));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
