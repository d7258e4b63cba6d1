//! Host-side pack/unpack: the CPU convertor with a time model.
//!
//! When the data lives in host memory, Open MPI's ordinary convertor
//! does the packing. It walks the same DEV program as the GPU engine
//! (`DevCursor` over `datatype::Convertor`) to describe each
//! fragment, and charges the rank's CPU at a calibrated memcpy-bound
//! rate; it moves nothing — the caller lands the fragment's unit list.

use crate::dev::{flip_units_in_place, DevCursor};
use crate::engine::Direction;
use datatype::{DataType, TypeError};
use faultsim::FaultOp;
use gpusim::{fault, GpuWorld, Rolled};
use memsim::Ptr;
use simcore::par::CopyOp;
use simcore::scratch::{recycle_units_buf, take_units_buf};
use simcore::trace::names;
use simcore::{Bandwidth, Sim, SimTime, Track};

/// Fixed cost of one convertor pass: the call, and positioning the
/// cursor on the fragment.
const PER_CALL: SimTime = SimTime::from_nanos(500);

/// Effective bandwidth of the host CPU pack/unpack path in GB/s
/// (single threaded memcpy-bound traversal).
const GBPS: f64 = 5.0;

/// The price of one pass over `n` packed bytes on the CPU convertor:
/// what [`CpuEngine::charge_fragment`] charges before faults.
pub fn pass_time(n: u64) -> SimTime {
    Bandwidth::from_gbps(GBPS).time_for(n) + PER_CALL
}

/// Sequential CPU pack/unpack over a datatype, fragment by fragment.
pub struct CpuEngine {
    cursor: DevCursor,
    dir: Direction,
    typed: Ptr,
    rank: usize,
}

impl CpuEngine {
    pub fn new(
        ty: &DataType,
        count: u64,
        typed: Ptr,
        dir: Direction,
        rank: usize,
    ) -> Result<CpuEngine, TypeError> {
        assert!(typed.space.is_host(), "CpuEngine drives host memory only");
        Ok(CpuEngine {
            // Huge unit size: the CPU walks whole segments; no warp
            // balancing needed.
            cursor: DevCursor::new(ty, count, 1 << 30)?,
            dir,
            typed,
            rank,
        })
    }

    /// The pointer every typed-side unit offset is relative to.
    pub fn typed_base(&self) -> Ptr {
        self.typed.offset_by(self.cursor.base_shift())
    }

    /// Walk the next `cap` packed bytes, charge the pass on the rank's
    /// CPU, count its bytes — and move nothing (the caller moves them at
    /// the pass's completion instant). A caller that will read the unit
    /// list lends a buffer in `units`: the list is built there (cleared
    /// first) and handed back when `done` runs at completion, with the
    /// fragment size, in the pass's orientation (`src_off` is the typed
    /// side for a pack, the fragment side for an unpack). The convertor
    /// walks every segment to get anywhere, so with `None` the list is
    /// still built — in a scratch buffer that returns to the shelf as
    /// soon as the pass is priced — and `done` gets an empty one.
    ///
    /// Fault charge point (`FaultOp::CpuPack`), through the one retry
    /// driver (`gpusim::fault::charge`): the convertor is the fallback
    /// of last resort, so a transient fault backs off and re-walks the
    /// fragment on the CPU, and `done` runs only when a pass lands.
    pub fn charge_fragment<W: GpuWorld>(
        &mut self,
        sim: &mut Sim<W>,
        cap: u64,
        units: Option<Vec<CopyOp>>,
        done: impl FnOnce(&mut Sim<W>, u64, Vec<CopyOp>) + 'static,
    ) {
        let wanted = units.is_some();
        let mut units = units.unwrap_or_else(take_units_buf);
        let from = self.cursor.position();
        self.cursor.next_units_into(cap, &mut units);
        let n: u64 = units.iter().map(|u| u.len as u64).sum();
        if wanted {
            for u in &mut units {
                u.dst_off -= from as usize;
            }
            if self.dir == Direction::Unpack {
                flip_units_in_place(&mut units);
            }
        } else {
            recycle_units_buf(std::mem::take(&mut units));
        }
        if n == 0 {
            sim.schedule_now(move |sim| done(sim, 0, units));
            return;
        }
        let rank = self.rank;
        let (span_name, counter) = match self.dir {
            Direction::Pack => (names::SPAN_CPU_PACK, names::CPUPACK_PACK_BYTES),
            Direction::Unpack => (names::SPAN_CPU_UNPACK, names::CPUPACK_UNPACK_BYTES),
        };
        let reserve = move |sim: &mut Sim<W>, pass: Rolled| {
            let now = sim.now();
            let (start, end) = sim.world.cpu(rank).reserve(now, pass);
            let track = Track::Cpu { rank: rank as u32 };
            (sim.trace).span_at(start, end, names::CAT_CPUPACK, span_name, track);
            end
        };
        let landed = move |sim: &mut Sim<W>| {
            sim.trace.count(counter, rank as u32, 0, n);
            done(sim, n, units);
        };
        fault::charge(
            sim,
            FaultOp::CpuPack,
            move |_| pass_time(n),
            reserve,
            landed,
        );
    }
}

#[cfg(test)]
impl CpuEngine {
    fn position(&self) -> u64 {
        self.cursor.position()
    }

    fn total_bytes(&self) -> u64 {
        self.cursor.total_bytes()
    }

    fn finished(&self) -> bool {
        self.cursor.finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use faultsim::FaultPlan;
    use gpusim::NodeWorld;
    use memsim::MemSpace;

    /// Convert the next `cap` packed bytes between the typed buffer and
    /// `frag`, moving them when the pass lands.
    fn process(eng: &mut CpuEngine, sim: &mut Sim<NodeWorld>, frag: Ptr, cap: u64) {
        let (src, dst) = match eng.dir {
            Direction::Pack => (eng.typed_base(), frag),
            Direction::Unpack => (frag, eng.typed_base()),
        };
        eng.charge_fragment(sim, cap, Some(Vec::new()), move |sim, _, units| {
            sim.world.memory.transfer(src, dst, &units).unwrap();
        });
    }

    #[test]
    fn cpu_pack_matches_reference_and_charges_time() {
        let ty = DataType::vector(64, 2, 5, &DataType::double())
            .unwrap()
            .commit();
        let mut sim = Sim::new(NodeWorld::new(1));
        let (base, len) = buffer_span(&ty, 2);
        let typed = sim.world.memory.alloc(MemSpace::Host, len as u64).unwrap();
        let bytes = pattern(len);
        sim.world.memory.write(typed, &bytes).unwrap();
        let total = ty.size() * 2;
        let out = sim.world.memory.alloc(MemSpace::Host, total).unwrap();

        let mut eng = CpuEngine::new(&ty, 2, typed.add(base as u64), Direction::Pack, 0).unwrap();
        assert_eq!(eng.total_bytes(), total);
        // Two fragments.
        let half = total / 2;
        process(&mut eng, &mut sim, out, half);
        sim.run();
        assert_eq!(eng.position(), half);
        process(&mut eng, &mut sim, out.add(half), u64::MAX);
        let end = sim.run();
        assert!(eng.finished());
        assert_eq!(
            sim.world.memory.read_vec(out, total).unwrap(),
            reference_pack(&ty, 2, &bytes, base)
        );
        // ~2 KB at 5 GB/s plus two 0.5 us call overheads.
        assert!(end >= SimTime::from_micros(1));
    }

    #[test]
    fn cpu_unpack_roundtrip() {
        let ty = DataType::indexed(&[3, 1, 2], &[0, 4, 7], &DataType::double())
            .unwrap()
            .commit();
        let mut sim = Sim::new(NodeWorld::new(1));
        let (base, len) = buffer_span(&ty, 1);
        let src = sim.world.memory.alloc(MemSpace::Host, len as u64).unwrap();
        let bytes = pattern(len);
        sim.world.memory.write(src, &bytes).unwrap();
        let packed_bytes = reference_pack(&ty, 1, &bytes, base);
        let packed = sim.world.memory.alloc(MemSpace::Host, ty.size()).unwrap();
        sim.world.memory.write(packed, &packed_bytes).unwrap();

        let dst = sim.world.memory.alloc(MemSpace::Host, len as u64).unwrap();
        let mut eng = CpuEngine::new(&ty, 1, dst.add(base as u64), Direction::Unpack, 0).unwrap();
        process(&mut eng, &mut sim, packed, u64::MAX);
        sim.run();
        let got = sim.world.memory.read_vec(dst, len as u64).unwrap();
        for s in ty.segments(1) {
            let r = (base + s.disp) as usize..(base + s.disp) as usize + s.len as usize;
            assert_eq!(&got[r.clone()], &bytes[r]);
        }
    }

    #[test]
    fn transient_cpupack_fault_retries_and_inflates_time() {
        let ty = DataType::vector(64, 2, 5, &DataType::double())
            .unwrap()
            .commit();
        let run = |faulted: bool| {
            let mut sim = Sim::new(NodeWorld::new(1));
            if faulted {
                let mut plan = FaultPlan::empty().with_seed(11).with_rule(
                    Some(FaultOp::CpuPack),
                    faultsim::FaultKind::Transient,
                    1.0,
                );
                plan.rules[0].max_injections = Some(2);
                sim.world.faults = faultsim::FaultSim::from_plan(plan);
            }
            let (base, len) = buffer_span(&ty, 2);
            let typed = sim.world.memory.alloc(MemSpace::Host, len as u64).unwrap();
            let bytes = pattern(len);
            sim.world.memory.write(typed, &bytes).unwrap();
            let total = ty.size() * 2;
            let out = sim.world.memory.alloc(MemSpace::Host, total).unwrap();
            let mut eng =
                CpuEngine::new(&ty, 2, typed.add(base as u64), Direction::Pack, 0).unwrap();
            process(&mut eng, &mut sim, out, u64::MAX);
            let end = sim.run();
            (
                end,
                sim.world.memory.read_vec(out, total).unwrap(),
                reference_pack(&ty, 2, &bytes, base),
            )
        };
        let (clean_end, clean_out, reference) = run(false);
        let (fault_end, fault_out, _) = run(true);
        // Each retry backs off and re-walks the fragment, so the faulted
        // run is strictly slower — and byte-identical.
        assert!(fault_end > clean_end, "{fault_end:?} vs {clean_end:?}");
        assert_eq!(fault_out, reference);
        assert_eq!(clean_out, reference);
    }

    #[test]
    #[should_panic(expected = "host memory only")]
    fn rejects_device_buffers() {
        let ty = DataType::double().commit();
        let p = Ptr {
            space: MemSpace::Device(memsim::GpuId(0)),
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        let _ = CpuEngine::new(&ty, 1, p, Direction::Pack, 0);
    }
}
