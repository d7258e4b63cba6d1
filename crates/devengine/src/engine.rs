//! The pack/unpack execution engine: CPU preparation pipelined with GPU
//! kernels, fragment by fragment.

use crate::cache::DevCache;
use crate::config::EngineConfig;
use crate::dev::{flip_units_in_place, runs, DevPlan, TrafficKey};
use crate::tune;
use datatype::{DataType, Strided2D, TypeError};
use gpusim::{
    charge_transfer_kernel, kernel_time, GpuSpec, GpuSystem, GpuWorld, KernelConfig, KernelTraffic,
    Rolled, StreamId,
};
use memsim::{GpuId, MemSpace, Move, Ptr};
use simcore::par::{strided_units, CopyOp, OpList, Segs, StridedWindow};
use simcore::scratch::{recycle_units_buf, take_units_buf};
use simcore::trace::names;
use simcore::{Counter, Sim, SimTime, Track};
use std::cell::RefCell;
use std::rc::Rc;

/// Whether the typed side is the source (pack) or destination (unpack).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    Pack,
    Unpack,
}

/// Where work units come from.
enum UnitSource {
    /// Streaming conversion on the CPU (charged preparation time).
    Fresh(Box<crate::dev::DevCursor>),
    /// A cached CUDA-DEV plan (no preparation cost); the engine's own
    /// position is the cursor.
    Cached(Rc<DevPlan>),
    /// Vector-shaped or doubly-strided type (e.g. a matrix transpose):
    /// units come from one or two nested strides computed arithmetically
    /// by the specialized kernel — no descriptor array, no per-unit CPU
    /// cost. A vector is one row of blocks that never ends. A fragment
    /// is a [`StridedWindow`], priced and moved without a list.
    Strided(Strided2D),
}

/// The arithmetic source an engine over `count` × `ty` takes instead
/// of a descriptor list, with the counter naming it: the specialized
/// vector kernel, or the doubly-strided one (transposes, submatrices
/// of vectors, 3-D halo faces).
fn strided_source(ty: &DataType, count: u64) -> Option<(Strided2D, Counter)> {
    let shape = ty.strided(count)?;
    let counter = if shape.inner == u64::MAX {
        names::DEVENGINE_SOURCE_VECTOR
    } else {
        names::DEVENGINE_SOURCE_STRIDED2D
    };
    Some((shape, counter))
}

/// What an engine over `count` × `ty` launches on its first `n` packed
/// bytes at (unit size, coalescing) `units`, converting in `dir` between
/// `typed` (its displacement-0 pointer) and a fragment at `frag` on
/// `gpu`: the launch's [`KernelTraffic`], exactly as the engine charges
/// it, and the window's contiguous runs ([`runs`]). A strided layout is
/// priced in closed form, any other on its walk ([`listed_window`]).
pub fn window_traffic(
    (ty, count): (&DataType, u64),
    units: (u64, bool),
    dir: Direction,
    (typed, frag): (Ptr, Ptr),
    (gpu, spec): (GpuId, &GpuSpec),
    n: u64,
) -> Result<(KernelTraffic, u64), TypeError> {
    let Some(shape) = ty.strided(count) else {
        return listed_window((ty, count), units, dir, (typed, frag), (gpu, spec), n);
    };
    let base_shift = ty.true_lb().min(0);
    let w = strided_window(shape, base_shift, 0, n, dir);
    let (src, dst) = kernel_ends(dir, typed.offset_by(base_shift), frag);
    let traffic = KernelTraffic::of_window(&w, src, dst, gpu, spec);
    Ok((traffic, window_runs(&w)))
}

/// [`window_traffic`] on the DEV walk of the window, whatever the
/// layout: [`KernelTraffic::of`] its units and their runs. A captured
/// graph's kernels run the walk even for a strided layout.
pub fn listed_window(
    (ty, count): (&DataType, u64),
    (unit_size, coalesce): (u64, bool),
    dir: Direction,
    (typed, frag): (Ptr, Ptr),
    (gpu, spec): (GpuId, &GpuSpec),
    n: u64,
) -> Result<(KernelTraffic, u64), TypeError> {
    let mut cur = crate::dev::DevCursor::with_coalesce(ty, count, unit_size, coalesce)?;
    let mut units = take_units_buf();
    cur.next_units_into(n, &mut units);
    let runs = runs(&units);
    if dir == Direction::Unpack {
        flip_units_in_place(&mut units);
    }
    let (src, dst) = kernel_ends(dir, typed.offset_by(cur.base_shift()), frag);
    let traffic = KernelTraffic::of(&units, src, dst, gpu, spec);
    recycle_units_buf(units);
    Ok((traffic, runs))
}

/// Contiguous runs of a strided window: its segments, less one wherever
/// a row's last block ends where the next row's first begins. Two blocks
/// of one row never touch — the recogniser grows the block instead.
fn window_runs(w: &StridedWindow) -> u64 {
    let (s, segments) = (&w.shape, w.segments());
    let touching = s.inner != u64::MAX
        && s.outer_stride == (s.inner as i64 - 1) * s.inner_stride + s.block_bytes as i64;
    if segments == 0 || !touching {
        return segments;
    }
    let bb = s.block_bytes;
    segments - ((w.to - 1) / bb / s.inner - w.from / bb / s.inner)
}

/// Drives one logical pack or unpack job fragment by fragment.
///
/// Each fragment covers the next contiguous window of the *packed
/// stream*. The CPU stage (DEV preparation) and the GPU stage (the
/// kernel) are separated so callers can start preparing fragment `i+1`
/// the moment fragment `i`'s preparation finishes — the paper's §3.2
/// pipeline — while kernels queue up on the CUDA stream.
pub struct FragmentEngine {
    source: UnitSource,
    dir: Direction,
    cfg: EngineConfig,
    rank: usize,
    stream: StreamId,
    typed: Ptr,
    base_shift: i64,
    total: u64,
    pos: u64,
    /// Auto-tuned pipeline chunk for streaming sources (None = use the
    /// configured default).
    chunk_hint: Option<u64>,
}

impl FragmentEngine {
    /// Build an engine for `count` instances of `ty` at `typed`
    /// (displacement-0 pointer into GPU or mapped-host memory).
    ///
    /// When `cache` is given, a miss materializes the full plan and
    /// charges its preparation once, up front; hits are free — exactly
    /// the paper's cached-CUDA-DEV behaviour.
    #[allow(clippy::too_many_arguments)] // mirrors the convertor-creation surface
    pub fn new<W: GpuWorld>(
        sim: &mut Sim<W>,
        rank: usize,
        stream: StreamId,
        ty: &DataType,
        count: u64,
        typed: Ptr,
        dir: Direction,
        cfg: EngineConfig,
        cache: Option<&Rc<RefCell<DevCache>>>,
    ) -> Result<FragmentEngine, TypeError> {
        let cfg = cfg.validated()?;
        let opt = cfg.optimizer;
        let total = ty.size() * count;
        let base_shift = ty.true_lb().min(0);

        // Specialized vector / strided-2D kernel path: no descriptor
        // array, no CPU preparation.
        if let Some((shape, counter)) = strided_source(ty, count) {
            sim.trace.count(counter, rank as u32, 0, 1);
            return Ok(FragmentEngine {
                source: UnitSource::Strided(shape),
                dir,
                cfg,
                rank,
                stream,
                typed,
                base_shift,
                total,
                pos: 0,
                chunk_hint: None,
            });
        }

        // The CPU preparation and the descriptor kernel of the first `n`
        // packed bytes at unit size `s`, on their exact launch against a
        // fragment at the start of the executing GPU's memory. The walk
        // needs a committed type.
        if !ty.is_committed() {
            return Err(TypeError::NotCommitted);
        }
        let frag = Ptr::start_of(MemSpace::Device(stream.gpu));
        let kcfg = KernelConfig {
            blocks: cfg.blocks,
            descriptor_stream: true,
        };
        let (src, dst) = kernel_ends(dir, typed, frag);
        let launch = |sys: &GpuSystem, s: u64, n: u64| {
            let g = sys.gpu(stream.gpu);
            let on = (stream.gpu, &g.spec);
            let walk = listed_window((ty, count), (s, opt.coalesce), dir, (typed, frag), on, n);
            let (traffic, _) = walk.expect("committed");
            let kernel = kernel_time(g, &sys.topo, (src.space, dst.space), kcfg, &traffic);
            (prep_time(traffic.units as usize), kernel)
        };

        // Work-unit size: with coalescing the plan no longer splits at S
        // so there is nothing to tune; otherwise price the whole job at
        // each of the paper's candidate sizes.
        let unit_size = if opt.autotune && !opt.coalesce {
            let sys = sim.world.gpus_ref();
            let picked = tune::pick_unit_size(cfg.unit_size, |s| {
                let (prep, kernel) = launch(sys, s, total);
                prep + kernel
            });
            if picked != cfg.unit_size {
                sim.trace
                    .count(names::OPTIMIZER_UNIT_TUNED, rank as u32, 0, 1);
            }
            picked
        } else {
            cfg.unit_size
        };

        let source = if let Some(cache) = cache {
            let (plan, hit, evicted) = {
                let mut c = cache.borrow_mut();
                let ev0 = c.plans().evictions();
                let (plan, hit) = c.get_or_build_opt(ty, count, unit_size, opt.coalesce)?;
                (plan, hit, c.plans().evictions() - ev0)
            };
            let now = sim.now();
            let cpu_track = Track::Cpu { rank: rank as u32 };
            if evicted > 0 {
                sim.trace
                    .count(names::DEVENGINE_CACHE_EVICT, rank as u32, 0, evicted);
            }
            if !hit {
                // First encounter: pay the one-time conversion.
                let prep = Rolled::setup(
                    prep_time(plan.units.len()),
                    "DEV preparation: a one-time plan conversion, not data movement",
                );
                let (s, e) = sim.world.cpu(rank).reserve(now, prep);
                sim.trace.instant(
                    now,
                    names::CAT_DEVENGINE,
                    names::SPAN_DEV_CACHE_MISS,
                    cpu_track,
                );
                sim.trace
                    .span_at(s, e, names::CAT_DEVENGINE, names::SPAN_PREP, cpu_track);
                sim.trace
                    .count(names::DEVENGINE_CACHE_MISS, rank as u32, 0, 1);
            } else {
                sim.trace.instant(
                    now,
                    names::CAT_DEVENGINE,
                    names::SPAN_DEV_CACHE_HIT,
                    cpu_track,
                );
                sim.trace
                    .count(names::DEVENGINE_CACHE_HIT, rank as u32, 0, 1);
            }
            sim.trace
                .count(names::DEVENGINE_SOURCE_CACHED, rank as u32, 0, 1);
            UnitSource::Cached(plan)
        } else {
            sim.trace
                .count(names::DEVENGINE_SOURCE_FRESH, rank as u32, 0, 1);
            UnitSource::Fresh(Box::new(crate::dev::DevCursor::with_coalesce(
                ty,
                count,
                unit_size,
                opt.coalesce,
            )?))
        };

        // Pipeline-granularity tuning for streaming sources: weigh the
        // CPU preparation that pipelining hides against the extra kernel
        // launches it costs, each priced by the function its charge
        // calls, on a chunk's exact launch.
        let mut chunk_hint = None;
        if opt.autotune && cfg.pipeline && total > 0 {
            if let UnitSource::Fresh(_) = source {
                let sys = sim.world.gpus_ref();
                let launch = tune::memo(|n| launch(sys, unit_size, n));
                let picked = tune::pick_pipeline_chunk(
                    total,
                    cfg.pipeline_chunk,
                    |n| launch(n).0,
                    |n| launch(n).1,
                );
                if picked != cfg.pipeline_chunk {
                    sim.trace
                        .count(names::OPTIMIZER_CHUNK_TUNED, rank as u32, 0, 1);
                    chunk_hint = Some(picked);
                }
            }
        }

        Ok(FragmentEngine {
            source,
            dir,
            cfg,
            rank,
            stream,
            typed,
            base_shift,
            total,
            pos: 0,
            chunk_hint,
        })
    }

    /// The auto-tuner's pipeline-chunk pick, if it deviated from the
    /// configured default.
    pub(crate) fn pipeline_chunk_hint(&self) -> Option<u64> {
        self.chunk_hint
    }

    /// Does this engine have a CPU preparation stage at all? Vector
    /// and cached sources are prep-free — the paper launches a single
    /// kernel for those instead of pipelining CPU chunks.
    pub(crate) fn cpu_stage_free(&self) -> bool {
        !matches!(self.source, UnitSource::Fresh(_))
    }

    /// Advance the unit source over the next `n` packed bytes and
    /// price the kernel that converts them between `ends`: the
    /// window's [`KernelTraffic`], and whether CPU prep is owed.
    ///
    /// The window's unit list (kernel orientation, packed offsets
    /// rebased to the fragment) is derived only when something reads
    /// it. Pricing does, for a fresh source and for a cached plan that
    /// has not launched this window between these places before (it
    /// remembers what it priced, per [`TrafficKey`]); a strided source
    /// prices its window in closed form. The caller reads the list when
    /// it lent `units` to get it back. A list only pricing read is built
    /// in a scratch buffer that returns to the shelf at once. Writing
    /// into a caller-supplied buffer keeps the steady-state fragment
    /// loop allocation-free — the buffers themselves cycle through
    /// [`simcore::scratch`].
    fn advance(
        &mut self,
        n: u64,
        ends: (Ptr, Ptr),
        spec: &GpuSpec,
        units: &mut Option<Vec<CopyOp>>,
    ) -> (KernelTraffic, bool) {
        let (unpack, gpu) = (self.dir == Direction::Unpack, self.stream.gpu);
        let (from, to) = (self.pos, self.pos + n);
        let wanted = units.is_some();
        let plan = match &mut self.source {
            UnitSource::Strided(shape) => {
                let w = strided_window(*shape, self.base_shift, from, to, self.dir);
                if let Some(list) = units {
                    strided_units(&w, list);
                }
                return (
                    KernelTraffic::of_window(&w, ends.0, ends.1, gpu, spec),
                    false,
                );
            }
            UnitSource::Fresh(cur) => {
                let list = units.get_or_insert_with(take_units_buf);
                cur.next_units_into(n, list);
                for u in list.iter_mut() {
                    u.dst_off -= from as usize;
                }
                None
            }
            UnitSource::Cached(plan) => Some(Rc::clone(plan)),
        };
        let charge_prep = plan.is_none();
        let memo = plan.map(|plan| (plan, TrafficKey::new((from, to), unpack, ends, gpu, spec)));
        let known = (memo.as_ref()).and_then(|(plan, key)| plan.known_traffic(key));
        if let (Some(traffic), false) = (known, wanted) {
            return (traffic, false);
        }
        let list = units.get_or_insert_with(take_units_buf);
        if let Some((plan, _)) = &memo {
            plan.slice_into(from, to, list);
        }
        if unpack {
            flip_units_in_place(list);
        }
        let traffic = known.unwrap_or_else(|| KernelTraffic::of(list, ends.0, ends.1, gpu, spec));
        if let (Some((plan, key)), None) = (memo, known) {
            plan.remember_traffic(key, traffic);
        }
        if !wanted {
            recycle_units_buf(units.take().unwrap_or_default());
        }
        (traffic, charge_prep)
    }

    /// The packed range `from..to` of a strided source as the window the
    /// specialized kernel converts, in its orientation; `None` for a
    /// source that lists its units. A fragment of a strided end whose
    /// other end is dense is this window: priced and moved with no list.
    pub fn window(&self, from: u64, to: u64) -> Option<StridedWindow> {
        match self.source {
            UnitSource::Strided(shape) => {
                Some(strided_window(shape, self.base_shift, from, to, self.dir))
            }
            _ => None,
        }
    }

    /// The pointer every typed-side unit offset is relative to.
    pub fn typed_base(&self) -> Ptr {
        self.typed.offset_by(self.base_shift)
    }

    /// Kernel source and destination for a fragment stored at `frag`.
    fn kernel_ends(&self, frag: Ptr) -> (Ptr, Ptr) {
        kernel_ends(self.dir, self.typed_base(), frag)
    }

    /// Process the next fragment: up to `cap` packed bytes moved
    /// between the typed buffer and `frag` (a pointer to the fragment's
    /// contiguous storage — GPU, peer-GPU or mapped-host memory):
    /// [`Self::charge_fragment`], then the bytes move at the kernel's
    /// completion instant.
    ///
    /// `on_prepped` fires when the CPU stage is done (the caller may
    /// immediately start the next fragment — that is the pipeline);
    /// `on_complete` fires when the kernel has moved the bytes, with the
    /// fragment's size. A strided source moves its window, unlisted.
    pub fn process_fragment<W: GpuWorld>(
        &mut self,
        sim: &mut Sim<W>,
        frag: Ptr,
        cap: u64,
        on_prepped: impl FnOnce(&mut Sim<W>) + 'static,
        on_complete: impl FnOnce(&mut Sim<W>, u64) + 'static,
    ) {
        let (ksrc, kdst) = self.kernel_ends(frag);
        let n = cap.min(self.total - self.pos);
        let window = self.window(self.pos, self.pos + n);
        // A listed source's unit buffers cycle through the scratch shelf
        // so steady-state streaming reuses a handful of Vecs.
        let units = window.is_none().then(take_units_buf);
        self.charge_fragment(sim, frag, cap, units, on_prepped, move |sim, n, units| {
            let entry = Move {
                src: ksrc,
                dst: kdst,
                segs: window.map_or_else(|| Segs::List(OpList::new(&units)), Segs::Strided),
                stream: false,
            };
            (sim.world.mem())
                .transfer_batch(&[entry])
                .expect("fragment transfer failed");
            recycle_units_buf(units);
            on_complete(sim, n);
        });
    }

    /// The charge half of [`Self::process_fragment`]: advance the unit
    /// source over the next fragment, charge its CPU preparation and
    /// its kernel, count its bytes — and move nothing. A caller that
    /// will read the fragment's unit list lends a buffer in `units`: the
    /// list is built there (cleared first; the caller decides how
    /// buffers are reused) and handed back when `on_complete` fires at
    /// the kernel's completion instant, with the fragment's size, in the
    /// kernel's orientation (`src_off` is the typed side for a pack, the
    /// fragment side for an unpack). With `None` no list comes back
    /// (`on_complete` gets an empty one), and a cached plan that knows
    /// the launch's traffic derives none at all.
    pub fn charge_fragment<W: GpuWorld>(
        &mut self,
        sim: &mut Sim<W>,
        frag: Ptr,
        cap: u64,
        mut units: Option<Vec<CopyOp>>,
        on_prepped: impl FnOnce(&mut Sim<W>) + 'static,
        on_complete: impl FnOnce(&mut Sim<W>, u64, Vec<CopyOp>) + 'static,
    ) {
        let n = cap.min(self.total - self.pos);
        if n == 0 {
            // Defer so callers never see their callbacks re-enter while
            // they still hold state borrows.
            let mut units = units.unwrap_or_default();
            units.clear();
            sim.schedule_now(move |sim| {
                on_prepped(sim);
                on_complete(sim, 0, units);
            });
            return;
        }
        let (ksrc, kdst) = self.kernel_ends(frag);
        let spec = &sim.world.gpus_ref().gpu(self.stream.gpu).spec;
        let (traffic, charge_prep) = self.advance(n, (ksrc, kdst), spec, &mut units);
        self.pos += n;
        debug_assert_eq!(traffic.payload, n);
        let units = units.unwrap_or_default();

        let kcfg = KernelConfig {
            blocks: self.cfg.blocks,
            descriptor_stream: !matches!(self.source, UnitSource::Strided(_)),
        };
        let stream = self.stream;
        let rank = self.rank as u32;
        let bytes_counter = match self.dir {
            Direction::Pack => names::DEVENGINE_PACK_BYTES,
            Direction::Unpack => names::DEVENGINE_UNPACK_BYTES,
        };
        let prep = prep_time(traffic.units as usize);
        let launch = move |sim: &mut Sim<W>| {
            charge_transfer_kernel(sim, stream, ksrc, kdst, traffic, kcfg, move |sim, _| {
                sim.trace.count(bytes_counter, rank, 0, n);
                on_complete(sim, n, units);
            });
        };

        if charge_prep {
            let now = sim.now();
            let prep = Rolled::setup(
                prep,
                "DEV preparation: a one-time plan conversion, not data movement",
            );
            let (s, prep_end) = sim.world.cpu(self.rank).reserve(now, prep);
            sim.trace.span_at(
                s,
                prep_end,
                names::CAT_DEVENGINE,
                names::SPAN_PREP,
                Track::Cpu { rank },
            );
            sim.schedule_at(prep_end, move |sim| {
                on_prepped(sim);
                launch(sim);
            });
        } else {
            // No CPU stage owed: the caller may continue at the same
            // virtual time, but deferred to the next event so callbacks
            // never re-enter the caller's borrows.
            sim.schedule_now(move |sim| on_prepped(sim));
            launch(sim);
        }
    }
}

/// Kernel source and destination in `dir` between a typed base and a
/// fragment.
fn kernel_ends(dir: Direction, typed_base: Ptr, frag: Ptr) -> (Ptr, Ptr) {
    match dir {
        Direction::Pack => (typed_base, frag),
        Direction::Unpack => (frag, typed_base),
    }
}

/// The packed range `from..to` of `shape`, typed offsets relative to
/// `base_shift`, in the orientation of `dir`.
fn strided_window(
    shape: Strided2D,
    base_shift: i64,
    from: u64,
    to: u64,
    dir: Direction,
) -> StridedWindow {
    StridedWindow {
        shape,
        base_shift,
        from,
        to,
        unpack: dir == Direction::Unpack,
    }
}

/// CPU cost per CUDA-DEV entry produced (datatype traversal,
/// splitting, filling `cuda_dev_dist` structs).
const PREP_PER_UNIT: SimTime = SimTime::from_nanos(12);
/// Fixed CPU cost per preparation batch (call overhead + copying the
/// descriptor array to the device).
const PREP_CALL: SimTime = SimTime::from_micros(1);

/// The price of preparing `units` CUDA-DEV units on the CPU: what a
/// fresh window or a cache miss charges the rank's CPU.
pub fn prep_time(units: usize) -> SimTime {
    SimTime::from_nanos(PREP_PER_UNIT.as_nanos() * units as u64) + PREP_CALL
}

/// Pack `count` instances of `ty` from `typed` into the contiguous
/// buffer at `packed`, then call `done` with the completion time.
///
/// With `cfg.pipeline` the conversion runs in `pipeline_chunk` windows
/// overlapped with kernel execution; without it the whole datatype is
/// converted first and a single kernel is launched (Figure 7's
/// non-pipelined baseline).
#[allow(clippy::too_many_arguments)]
pub fn pack_async<W: GpuWorld>(
    sim: &mut Sim<W>,
    rank: usize,
    stream: StreamId,
    ty: &DataType,
    count: u64,
    typed: Ptr,
    packed: Ptr,
    cfg: EngineConfig,
    cache: Option<&Rc<RefCell<DevCache>>>,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    run_async(
        sim,
        rank,
        stream,
        ty,
        count,
        typed,
        packed,
        Direction::Pack,
        cfg,
        cache,
        done,
    );
}

/// Unpack the contiguous buffer at `packed` into `count` instances of
/// `ty` at `typed`.
#[allow(clippy::too_many_arguments)]
pub fn unpack_async<W: GpuWorld>(
    sim: &mut Sim<W>,
    rank: usize,
    stream: StreamId,
    ty: &DataType,
    count: u64,
    typed: Ptr,
    packed: Ptr,
    cfg: EngineConfig,
    cache: Option<&Rc<RefCell<DevCache>>>,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    run_async(
        sim,
        rank,
        stream,
        ty,
        count,
        typed,
        packed,
        Direction::Unpack,
        cfg,
        cache,
        done,
    );
}

#[allow(clippy::too_many_arguments)]
fn run_async<W: GpuWorld>(
    sim: &mut Sim<W>,
    rank: usize,
    stream: StreamId,
    ty: &DataType,
    count: u64,
    typed: Ptr,
    packed: Ptr,
    dir: Direction,
    cfg: EngineConfig,
    cache: Option<&Rc<RefCell<DevCache>>>,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let pipeline_chunk = if cfg.pipeline {
        cfg.pipeline_chunk
    } else {
        u64::MAX
    };
    let engine = FragmentEngine::new(sim, rank, stream, ty, count, typed, dir, cfg, cache)
        .expect("datatype must be committed and valid");
    // The CPU pipeline only exists when there is CPU work to overlap;
    // prep-free sources launch one kernel for the whole datatype.
    let chunk = if engine.cpu_stage_free() {
        u64::MAX
    } else {
        engine.pipeline_chunk_hint().unwrap_or(pipeline_chunk)
    };
    let state = Rc::new(RefCell::new(Driver {
        engine: Some(engine),
        packed,
        launched: 0,
        total: ty.size() * count,
        chunk,
        inflight: 0,
        launched_all: false,
        done: Some(Box::new(done)),
    }));
    Driver::step(sim, state);
}

type DoneFn<W> = Box<dyn FnOnce(&mut Sim<W>, SimTime)>;

/// Whole-message driver: keeps the CPU converting ahead while kernels
/// drain on the stream.
struct Driver<W: GpuWorld> {
    engine: Option<FragmentEngine>,
    packed: Ptr,
    /// Packed bytes handed to the engine so far, of `total`.
    launched: u64,
    total: u64,
    chunk: u64,
    inflight: u32,
    launched_all: bool,
    done: Option<DoneFn<W>>,
}

impl<W: GpuWorld> Driver<W> {
    fn finish_if_idle(sim: &mut Sim<W>, state: &Rc<RefCell<Driver<W>>>) {
        let done = {
            let mut s = state.borrow_mut();
            if s.launched_all && s.inflight == 0 {
                s.done.take()
            } else {
                None
            }
        };
        if let Some(done) = done {
            done(sim, sim.now());
        }
    }

    fn step(sim: &mut Sim<W>, state: Rc<RefCell<Driver<W>>>) {
        let (frag, cap) = {
            let mut s = state.borrow_mut();
            if s.launched >= s.total {
                s.launched_all = true;
                drop(s);
                Driver::finish_if_idle(sim, &state);
                return;
            }
            let frag = s.packed.add(s.launched);
            s.launched += s.chunk.min(s.total - s.launched);
            s.inflight += 1;
            (frag, s.chunk)
        };
        // Take the engine out so its callbacks (which are deferred by
        // process_fragment) can re-enter this driver safely.
        let mut engine = state.borrow_mut().engine.take().expect("engine present");
        let st_prep = Rc::clone(&state);
        let st_done = Rc::clone(&state);
        engine.process_fragment(
            sim,
            frag,
            cap,
            move |sim| {
                // CPU free: convert the next fragment immediately.
                Driver::step(sim, st_prep);
            },
            move |sim, _bytes| {
                st_done.borrow_mut().inflight -= 1;
                Driver::finish_if_idle(sim, &st_done);
            },
        );
        state.borrow_mut().engine = Some(engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use gpusim::{GpuSpec, NodeWorld};
    use memsim::{GpuId, MemSpace};

    fn world() -> Sim<NodeWorld> {
        Sim::new(NodeWorld::new(2))
    }

    /// Allocate a device buffer holding `count` instances of `ty`,
    /// filled with the position pattern; returns (typed ptr at
    /// displacement 0, full buffer bytes, base index).
    fn setup_typed(
        sim: &mut Sim<NodeWorld>,
        ty: &DataType,
        count: u64,
        gpu: GpuId,
    ) -> (Ptr, Vec<u8>, i64) {
        let (base, len) = buffer_span(ty, count);
        let buf = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), len as u64)
            .unwrap();
        let bytes = pattern(len);
        sim.world.memory.write(buf, &bytes).unwrap();
        (buf.add(base as u64), bytes, base)
    }

    fn run_pack(
        ty: &DataType,
        count: u64,
        cfg: EngineConfig,
        cache: Option<&Rc<RefCell<DevCache>>>,
    ) -> (Vec<u8>, SimTime) {
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, bytes, base) = setup_typed(&mut sim, ty, count, gpu);
        let total = ty.size() * count;
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        pack_async(
            &mut sim,
            0,
            stream,
            ty,
            count,
            typed,
            packed,
            cfg,
            cache,
            |_, _| {},
        );
        let end = sim.run();
        let got = sim.world.memory.read_vec(packed, total).unwrap();
        let expect = reference_pack(ty, count, &bytes, base);
        assert_eq!(got, expect, "pack bytes for {ty}");
        (got, end)
    }

    fn triangular(n: u64) -> DataType {
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit()
    }

    fn submatrix(n: u64) -> DataType {
        // n columns of n doubles out of a (2n x n) leading dimension.
        DataType::vector(n, n, 2 * n as i64, &DataType::double())
            .unwrap()
            .commit()
    }

    #[test]
    fn vector_pack_is_correct() {
        run_pack(&submatrix(32), 1, EngineConfig::default(), None);
    }

    #[test]
    fn indexed_pack_is_correct_all_modes() {
        let t = triangular(24);
        run_pack(&t, 1, EngineConfig::default(), None);
        run_pack(
            &t,
            1,
            EngineConfig {
                pipeline: false,
                ..Default::default()
            },
            None,
        );
        let cache = Rc::new(RefCell::new(DevCache::default()));
        run_pack(&t, 1, EngineConfig::default(), Some(&cache));
        // Warm cache second run.
        run_pack(&t, 1, EngineConfig::default(), Some(&cache));
        assert!(cache.borrow().plans().hits() > 0);
    }

    #[test]
    fn multi_count_pack() {
        let v = DataType::vector(4, 2, 5, &DataType::double())
            .unwrap()
            .commit();
        run_pack(&v, 3, EngineConfig::default(), None);
    }

    #[test]
    fn struct_type_pack() {
        let s = DataType::structure(&[2, 3], &[0, 32], &[DataType::int(), DataType::double()])
            .unwrap()
            .commit();
        run_pack(&s, 2, EngineConfig::default(), None);
    }

    #[test]
    fn unpack_roundtrip_on_gpu() {
        let t = triangular(16);
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, bytes, base) = setup_typed(&mut sim, &t, 1, gpu);
        let total = t.size();
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        pack_async(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed,
            packed,
            EngineConfig::default(),
            None,
            |_, _| {},
        );
        sim.run();

        // Scatter into a second, zeroed buffer and compare segments.
        let (base2, len2) = buffer_span(&t, 1);
        assert_eq!(base, base2);
        let out = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), len2 as u64)
            .unwrap();
        let typed_out = out.add(base2 as u64);
        unpack_async(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed_out,
            packed,
            EngineConfig::default(),
            None,
            |_, _| {},
        );
        sim.run();
        let got = sim.world.memory.read_vec(out, len2 as u64).unwrap();
        for s in t.segments(1) {
            let r = (base + s.disp) as usize..(base + s.disp) as usize + s.len as usize;
            assert_eq!(&got[r.clone()], &bytes[r], "segment at {}", s.disp);
        }
    }

    #[test]
    fn pipeline_beats_no_pipeline_on_indexed() {
        // Pinned to the pre-optimizer engine: coalescing shrinks the CPU
        // prep below the per-fragment launch overhead, at which point
        // pipelining (correctly) stops paying — this test is about the
        // pipeline mechanics themselves.
        let base = EngineConfig {
            optimizer: OptimizerConfig::disabled(),
            ..Default::default()
        };
        let t = triangular(2048); // ~17 MB triangular matrix
        let (_, piped) = run_pack(&t, 1, base.clone(), None);
        let (_, serial) = run_pack(
            &t,
            1,
            EngineConfig {
                pipeline: false,
                ..base
            },
            None,
        );
        assert!(
            piped < serial,
            "pipelining should overlap prep with kernels: {piped} vs {serial}"
        );
    }

    #[test]
    fn optimizer_never_slower_and_bytes_identical_on_indexed() {
        let t = triangular(96);
        let on = EngineConfig {
            optimizer: OptimizerConfig::enabled(),
            ..Default::default()
        };
        let off = EngineConfig {
            optimizer: OptimizerConfig::disabled(),
            ..Default::default()
        };
        let (pa, ta) = run_pack(&t, 1, on, None);
        let (pb, tb) = run_pack(&t, 1, off, None);
        assert_eq!(pa, pb, "optimizations must not change packed bytes");
        assert!(ta <= tb, "optimized pack got slower: {ta} vs {tb}");
    }

    #[test]
    fn strided2d_dispatch_beats_descriptor_path_on_transpose() {
        // The fig12 shape: column-vector of a row-vector (a transpose),
        // against the same blocks listed one by one, which no stride
        // describes and so streams descriptors.
        let n = 128u64;
        let col = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
        let t = DataType::hvector(n, 1, 8, &col).unwrap().commit();
        assert!(t.strided(1).is_some_and(|s| s.inner == n && s.outer == n));
        let disps: Vec<i64> = t.segments(1).iter().map(|s| s.disp).collect();
        let listed = DataType::hindexed(&vec![1; disps.len()], &disps, &DataType::double())
            .unwrap()
            .commit();
        assert!(listed.strided(1).is_none());
        for optimizer in [OptimizerConfig::enabled(), OptimizerConfig::disabled()] {
            let cfg = EngineConfig {
                optimizer,
                ..Default::default()
            };
            let (pa, ta) = run_pack(&t, 1, cfg.clone(), None);
            let (pb, tb) = run_pack(&listed, 1, cfg, None);
            assert_eq!(pa, pb, "strided2d kernel must pack identical bytes");
            assert!(
                ta < tb,
                "arithmetic dispatch should beat descriptor streaming: {ta} vs {tb}"
            );
        }
    }

    #[test]
    fn strided2d_fragments_match_oneshot() {
        let n = 48u64;
        let col = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
        let t = DataType::hvector(n, 1, 8, &col).unwrap().commit();
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, bytes, base) = setup_typed(&mut sim, &t, 1, gpu);
        let total = t.size();
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        let mut eng = FragmentEngine::new(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed,
            Direction::Pack,
            EngineConfig {
                optimizer: OptimizerConfig::enabled(),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(eng.cpu_stage_free(), "strided2d source has no CPU stage");
        for at in (0..total).step_by(1000) {
            eng.process_fragment(&mut sim, packed.add(at), 1000, |_| {}, |_, _| {});
            sim.run();
        }
        let got = sim.world.memory.read_vec(packed, total).unwrap();
        assert_eq!(got, reference_pack(&t, 1, &bytes, base));
    }

    #[test]
    fn cached_beats_fresh_on_indexed() {
        let t = triangular(512);
        let cache = Rc::new(RefCell::new(DevCache::default()));
        // Warm it.
        run_pack(&t, 1, EngineConfig::default(), Some(&cache));
        let (_, warm) = run_pack(&t, 1, EngineConfig::default(), Some(&cache));
        let (_, fresh) = run_pack(&t, 1, EngineConfig::default(), None);
        assert!(
            warm < fresh,
            "cached CUDA-DEVs skip preparation: {warm} vs {fresh}"
        );
    }

    /// [`window_traffic`] is the first launch an engine charges, strided
    /// or listed, packing or unpacking, coalesced or split at the unit
    /// size; its runs are the listed walk's, strided or not.
    #[test]
    fn window_traffic_is_the_first_launch_an_engine_charges() {
        use datatype::testutil::arb_datatype;
        use simcore::rng::SimRng;
        let gpu = GpuId(0);
        let mut strided = 0;
        for seed in 0..120u64 {
            let ty = arb_datatype(&mut SimRng::new(0x3A7 ^ seed)).commit();
            for (count, coalesce) in [(1, true), (3, true), (3, false)] {
                let total = ty.size() * count;
                strided += u32::from(ty.strided(count).is_some());
                for dir in [Direction::Pack, Direction::Unpack] {
                    let mut sim = world();
                    let (typed, _, _) = setup_typed(&mut sim, &ty, count, gpu);
                    let frag = (sim.world.memory)
                        .alloc(MemSpace::Device(gpu), total.max(1))
                        .unwrap();
                    let stream = sim.world.gpu_system.default_stream(gpu);
                    let cfg = EngineConfig {
                        unit_size: 256,
                        optimizer: OptimizerConfig {
                            coalesce,
                            autotune: false,
                        },
                        ..Default::default()
                    };
                    let mut engine =
                        FragmentEngine::new(&mut sim, 0, stream, &ty, count, typed, dir, cfg, None)
                            .unwrap();
                    let spec = sim.world.gpu_system.gpu(gpu).spec.clone();
                    let n = total - total / 3;
                    let ends = engine.kernel_ends(frag);
                    let (charged, _) = engine.advance(n, ends, &spec, &mut None);
                    let at = (typed, frag);
                    let priced =
                        window_traffic((&ty, count), (256, coalesce), dir, at, (gpu, &spec), n);
                    let listed =
                        listed_window((&ty, count), (256, coalesce), dir, at, (gpu, &spec), n);
                    let (priced, listed) = (priced.unwrap(), listed.unwrap());
                    assert_eq!(priced.0, charged, "seed {seed} count {count} {dir:?}");
                    assert_eq!(priced.1, listed.1, "seed {seed} count {count}: runs");
                }
            }
        }
        assert!(strided >= 100, "only {strided} strided cases");
    }

    /// Uncoalesced, each candidate unit size is priced on the units it
    /// splits the layout into. Every column of `triangular(127)` is at
    /// most 1 016 bytes, so every candidate launches the same 127 units:
    /// the static 1 KiB stays, and the cache holds one plan at it.
    /// `triangular(512)`'s columns reach 4 KiB, where 4 KiB units are
    /// 512 instead of 1 280.
    #[test]
    fn unit_size_is_tuned_only_where_it_splits_fewer_units() {
        let cfg = EngineConfig {
            optimizer: OptimizerConfig {
                coalesce: false,
                autotune: true,
            },
            ..Default::default()
        };
        for (n, picked) in [(127, 1024), (512, 4096)] {
            let ty = triangular(n);
            let mut sim = world();
            let gpu = GpuId(0);
            let (typed, _, _) = setup_typed(&mut sim, &ty, 1, gpu);
            let stream = sim.world.gpu_system.default_stream(gpu);
            let cache = Rc::new(RefCell::new(DevCache::default()));
            let dir = Direction::Pack;
            FragmentEngine::new(
                &mut sim,
                0,
                stream,
                &ty,
                1,
                typed,
                dir,
                cfg.clone(),
                Some(&cache),
            )
            .unwrap();
            let tuned = sim.trace.counter(names::OPTIMIZER_UNIT_TUNED);
            assert_eq!(tuned, u64::from(picked != 1024), "triangular({n})");
            let mut cache = cache.borrow_mut();
            let (plan, hit) = cache.get_or_build_opt(&ty, 1, picked, false).unwrap();
            assert!(hit && cache.plans().len() == 1, "triangular({n}): one plan");
            assert_eq!(
                plan.units.len() as u64,
                n,
                "triangular({n}): a unit per column"
            );
        }
    }

    #[test]
    fn uniform_indexed_normalizes_to_vector_path() {
        // A uniform indexed layout is recognized as vector-shaped and
        // takes the specialized kernel: identical bytes, identical time.
        let n = 256u64;
        let v = submatrix(n);
        let lens: Vec<u64> = (0..n).map(|_| n).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * 2 * n as i64).collect();
        let idx = DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit();
        assert!(idx.strided(1).is_some());
        let (pv, tv) = run_pack(&v, 1, EngineConfig::default(), None);
        let (pi, ti) = run_pack(&idx, 1, EngineConfig::default(), None);
        assert_eq!(pv, pi, "identical layouts pack identically");
        assert_eq!(tv, ti, "both should take the vector kernel");
    }

    #[test]
    fn general_path_costs_more_than_vector_path() {
        // An irregular indexed type of the same total size must pay for
        // CPU preparation and descriptor streaming that the vector
        // kernel avoids.
        let n = 256u64;
        let v = submatrix(n);
        let lens: Vec<u64> = (0..n)
            .map(|c| if c % 2 == 0 { n - 1 } else { n + 1 })
            .collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * 2 * n as i64).collect();
        let idx = DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit();
        assert!(idx.strided(1).is_none());
        assert_eq!(idx.size(), v.size());
        let (_, tv) = run_pack(&v, 1, EngineConfig::default(), None);
        let (_, ti) = run_pack(&idx, 1, EngineConfig::default(), None);
        assert!(tv < ti, "vector path should win: {tv} vs {ti}");
    }

    #[test]
    fn fragments_match_oneshot() {
        let t = triangular(64);
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, bytes, base) = setup_typed(&mut sim, &t, 1, gpu);
        let total = t.size();
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        let mut eng = FragmentEngine::new(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed,
            Direction::Pack,
            EngineConfig::default(),
            None,
        )
        .unwrap();
        // Drive fragments of 1000 bytes manually.
        for at in (0..total).step_by(1000) {
            eng.process_fragment(&mut sim, packed.add(at), 1000, |_| {}, |_, _| {});
            sim.run();
        }
        let got = sim.world.memory.read_vec(packed, total).unwrap();
        assert_eq!(got, reference_pack(&t, 1, &bytes, base));
    }

    /// One plan window launched into two ring slots whose offsets sit
    /// at different phases of the 128-byte lines: the plan keeps two
    /// summaries, each equal to [`KernelTraffic::of`] computed fresh, and
    /// a launch priced from a kept summary takes exactly the virtual
    /// time the first one took.
    #[test]
    fn a_window_through_two_slot_phases_keeps_two_summaries_equal_to_fresh_ones() {
        let t = triangular(64);
        let total = t.size();
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, _, _) = setup_typed(&mut sim, &t, 1, gpu);
        let ring = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), 2 * total + 129)
            .unwrap();
        let slots = [ring, ring.add(total + 129)];
        assert_ne!(slots[0].offset % 128, slots[1].offset % 128);
        let stream = sim.world.gpu_system.default_stream(gpu);
        let cache = Rc::new(RefCell::new(DevCache::default()));
        let spec = GpuSpec::default();

        for dir in [Direction::Pack, Direction::Unpack] {
            let (mut took, mut kept) = (Vec::new(), Vec::new());
            for round in 0..2 {
                for slot in slots {
                    let mut eng = FragmentEngine::new(
                        &mut sim,
                        0,
                        stream,
                        &t,
                        1,
                        typed,
                        dir,
                        EngineConfig::default(),
                        Some(&cache),
                    )
                    .unwrap();
                    let (then, ends) = (sim.now(), eng.kernel_ends(slot));
                    let plan = match &eng.source {
                        UnitSource::Cached(plan) => Rc::clone(plan),
                        _ => panic!("an indexed type converts from a cached plan"),
                    };
                    let key =
                        TrafficKey::new((0, total), dir == Direction::Unpack, ends, gpu, &spec);
                    assert_eq!(plan.known_traffic(&key).is_some(), round == 1);
                    // Nobody reads the list: a warm launch derives none.
                    eng.charge_fragment(
                        &mut sim,
                        slot,
                        u64::MAX,
                        None,
                        |_| {},
                        move |_, n, units| assert_eq!((n, units.len()), (total, 0)),
                    );
                    sim.run();
                    took.push(sim.now() - then);

                    let mut fresh = plan.slice(0, total);
                    if dir == Direction::Unpack {
                        flip_units_in_place(&mut fresh);
                    }
                    let fresh = KernelTraffic::of(&fresh, ends.0, ends.1, gpu, &spec);
                    assert_eq!(
                        plan.known_traffic(&key),
                        Some(fresh),
                        "{dir:?} round {round}"
                    );
                    kept.push(fresh);
                }
            }
            assert_ne!(
                kept[0], kept[1],
                "{dir:?}: the slot's phase is part of the traffic"
            );
            assert_eq!(
                took[..2],
                took[2..],
                "{dir:?}: a kept summary moved a timestamp"
            );
        }
    }

    #[test]
    fn zero_copy_pack_to_host_is_pcie_bound() {
        let v = submatrix(512); // 2 MB payload
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, _, _) = setup_typed(&mut sim, &v, 1, gpu);
        let total = v.size();
        let host = sim.world.memory.alloc(MemSpace::Host, total).unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        pack_async(
            &mut sim,
            0,
            stream,
            &v,
            1,
            typed,
            host,
            EngineConfig::default(),
            None,
            |_, _| {},
        );
        let end = sim.run();
        let rate = total as f64 / end.as_secs_f64() / 1e9;
        // PCIe is 10 GB/s; the d2d pack of the same data is ~15x faster.
        assert!(
            rate < 10.5,
            "zero-copy pack cannot beat PCIe, got {rate} GB/s"
        );
        assert!(
            rate > 6.0,
            "pipeline should keep PCIe mostly busy, got {rate} GB/s"
        );
    }

    #[test]
    fn exactly_one_kernel_when_not_pipelined() {
        let t = triangular(128);
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, _, _) = setup_typed(&mut sim, &t, 1, gpu);
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), t.size())
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        pack_async(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed,
            packed,
            EngineConfig {
                pipeline: false,
                ..Default::default()
            },
            None,
            |_, _| {},
        );
        sim.run();
        assert_eq!(sim.world.gpu_system.stream(stream).op_count(), 1);
    }
}
