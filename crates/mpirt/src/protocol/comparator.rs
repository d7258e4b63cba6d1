//! The paper's two comparators (§2.2) as plans. A comparator message is
//! the one fragment of a [`comparator_plan`] that the executor runs over
//! the message's own staging, so a comparator is charged, faulted,
//! traced, priced and moved the way our paths are (DESIGN.md §17).

use crate::protocol::exec::{self, Conn, Then, Transfer};
use crate::protocol::plan::{comparator_plan, vectorize, Comparator, End, Loc, VectorRun};
use crate::protocol::Side;
use crate::request::{MpiError, Request};
use crate::world::MpiWorld;
use datatype::{Signature, TypeError};
use devengine::Direction;
use gpusim::{charge_memcpy, charge_memcpy_2d, copy_time, memcpy_2d_time, GpuWorld as _};
use gpusim::{Copy2d, CopyDirection, StreamId};
use memsim::{MemSpace, Ptr};
use simcore::par::CopyOp;
use simcore::trace::names;
use simcore::{Sim, SimTime, SpanId};
use std::cell::RefCell;
use std::rc::Rc;

/// Start one comparator message `send → recv`. The request resolves with
/// the message size once the receiver holds every byte, or with a typed
/// error: a host buffer (the comparators move device data), a signature
/// mismatch, a failed staging allocation. The staging — a whole-message
/// host buffer on each end, and a device one for Jenkins-style, leased
/// from that end's rank — goes back to the leases either way.
pub fn comparator_transfer(
    sim: &mut Sim<MpiWorld>,
    which: Comparator,
    send: Side,
    recv: Side,
) -> Request {
    let req = Request::new();
    let staging = match stage(sim, which, &send, &recv) {
        Ok(staging) if !staging.is_empty() => staging,
        other => {
            req.complete(sim, other.map(|_| 0));
            return req;
        }
    };
    let (from, to, done) = (send.rank as u32, recv.rank as u32, req.clone());
    let (ranks, len) = ((send.rank, recv.rank), send.total());
    let staging = Rc::new(staging);
    let held = Rc::clone(&staging);
    let resolve = move |sim: &mut Sim<MpiWorld>, moved: Result<u64, MpiError>| {
        if let Ok(n) = moved {
            sim.trace.count(names::MPI_DELIVERED_BYTES, from, to, n);
        }
        let freed = release(sim, &held, ranks, len);
        done.complete(sim, moved.and_then(|n| freed.map(|()| n)));
    };
    let t = Transfer {
        plan: comparator_plan(which, &send, &recv),
        s: send,
        r: recv,
        span: SpanId::disabled(),
        done: Then(Some(resolve)),
    };
    exec::run(sim, t, Conn::Staged(staging));
    req
}

/// Check a message and lease its staging: none for an empty message.
fn stage(
    sim: &mut Sim<MpiWorld>,
    which: Comparator,
    s: &Side,
    r: &Side,
) -> Result<Vec<(Loc, Ptr)>, MpiError> {
    if let Some(host) = [s, r].into_iter().find(|side| !side.device()) {
        let rank = host.rank;
        let why = format!("comparators move device data; rank {rank}'s buffer is host memory");
        return Err(MpiError::Mem(why));
    }
    if !Signature::of(&s.ty, s.count).matches(&Signature::of(&r.ty, r.count)) {
        return Err(MpiError::Type(TypeError::SignatureMismatch));
    }
    if s.total() == 0 {
        return Ok(Vec::new());
    }
    let mut locs = vec![(Loc::Host(End::Send), s), (Loc::Host(End::Recv), r)];
    if which == Comparator::Jenkins {
        locs.extend([(Loc::Dev(End::Send), s), (Loc::Dev(End::Recv), r)]);
    }
    let mut staging = Vec::new();
    for (loc, side) in locs {
        let space = match loc {
            Loc::Dev(_) => MemSpace::Device(sim.world.rank(side.rank).gpu),
            _ => MemSpace::Host,
        };
        match sim.world.lease(side.rank, space, s.total()) {
            Ok(buf) => staging.push((loc, buf)),
            Err(e) => {
                // The allocation failure is the error to report.
                let _ = release(sim, &staging, (s.rank, r.rank), s.total());
                return Err(MpiError::Mem(e.to_string()));
            }
        }
    }
    Ok(staging)
}

/// Give the `len`-byte staging back to the leases of the two ranks
/// (send, receive) it was leased from; the first failure is reported.
fn release(
    sim: &mut Sim<MpiWorld>,
    staging: &[(Loc, Ptr)],
    (s_rank, r_rank): (usize, usize),
    len: u64,
) -> Result<(), MpiError> {
    let mut freed = Ok(());
    for &(loc, buf) in staging {
        let (Loc::User(end) | Loc::Dev(end) | Loc::Host(end)) = loc;
        let rank = match end {
            End::Send => s_rank,
            End::Recv => r_rank,
        };
        let one = sim.world.give_back(rank, buf, len);
        freed = freed.and(one.map_err(|e| MpiError::Mem(e.to_string())));
    }
    freed
}

/// Wang et al.'s conversion of one end (a [`StageOp::Memcpy2d`] stage):
/// one copy per vector run of the whole type, a `cudaMemcpy2D` — or a
/// plain `cudaMemcpy` for a run of one row — issued back to back on the
/// rank's copy stream.
///
/// [`StageOp::Memcpy2d`]: crate::protocol::plan::StageOp::Memcpy2d
pub(crate) struct RunEngine {
    stream: StreamId,
    dir: Direction,
    /// The displacement-0 pointer, and the type's lowest byte — where
    /// the unit offsets are relative to.
    buf: Ptr,
    typed: Ptr,
    runs: Vec<VectorRun>,
}

impl RunEngine {
    pub(crate) fn new(sim: &Sim<MpiWorld>, side: &Side, dir: Direction) -> RunEngine {
        RunEngine {
            stream: sim.world.rank(side.rank).copy_stream,
            dir,
            buf: side.buf,
            typed: side.buf.offset_by(side.ty.true_lb().min(0)),
            runs: vectorize(&side.ty, side.count),
        }
    }

    pub(crate) fn typed_base(&self) -> Ptr {
        self.typed
    }

    /// The copies converting the whole type against packed bytes at
    /// `frag`, in packed order: typed → packed for a pack, packed → typed
    /// for an unpack.
    fn copies(&self, frag: Ptr) -> impl Iterator<Item = Copy2d> + '_ {
        let mut at = frag;
        self.runs.iter().map(move |run| {
            let (typed, here, stride) = (self.buf.offset_by(run.first_disp), at, run.stride as u64);
            at = at.add(run.bytes());
            let (src, src_pitch, dst, dst_pitch) = match self.dir {
                Direction::Pack => (typed, stride, here, run.width),
                Direction::Unpack => (here, run.width, typed, stride),
            };
            Copy2d {
                src,
                src_pitch,
                dst,
                dst_pitch,
                width: run.width,
                height: run.height,
            }
        })
    }

    /// What [`Self::charge_fragment`] reserves before faults: each copy's
    /// price, in the stream's order.
    pub(crate) fn time(&self, sim: &Sim<MpiWorld>, frag: Ptr) -> SimTime {
        let (sys, gpu) = (sim.world.gpus_ref(), self.stream.gpu);
        let price = |c: Copy2d| match c.height {
            1 => copy_time(
                sys,
                gpu,
                CopyDirection::of(c.src.space, c.dst.space),
                c.width,
            ),
            _ => memcpy_2d_time(sys, gpu, &c),
        };
        self.copies(frag)
            .map(price)
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Issue every copy against the packed bytes at `frag`; `done` runs
    /// when the last one completes. A caller that lent `units` gets back
    /// the rows those copies move, as a GPU engine hands its list back:
    /// typed side in `src_off` for a pack, in `dst_off` for an unpack.
    pub(crate) fn charge_fragment(
        &self,
        sim: &mut Sim<MpiWorld>,
        frag: Ptr,
        mut units: Option<Vec<CopyOp>>,
        done: impl FnOnce(&mut Sim<MpiWorld>, Vec<CopyOp>) + 'static,
    ) {
        let copies: Vec<Copy2d> = self.copies(frag).collect();
        if let Some(list) = &mut units {
            let (src, dst) = match self.dir {
                Direction::Pack => (self.typed, frag),
                Direction::Unpack => (frag, self.typed),
            };
            list.clear();
            for c in &copies {
                let (s_off, d_off) = (c.src.offset - src.offset, c.dst.offset - dst.offset);
                list.extend(c.rows().map(|row| CopyOp {
                    src_off: s_off as usize + row.src_off,
                    dst_off: d_off as usize + row.dst_off,
                    len: row.len,
                }));
            }
        }
        // Copies left, and what runs when none is.
        let left = Rc::new(RefCell::new((copies.len(), Some(done), units)));
        for c in copies {
            let left = Rc::clone(&left);
            let landed = move |sim: &mut Sim<MpiWorld>, _| {
                let last = {
                    let mut left = left.borrow_mut();
                    left.0 -= 1;
                    (left.0 == 0).then(|| (left.1.take(), left.2.take()))
                };
                if let Some((Some(done), units)) = last {
                    done(sim, units.unwrap_or_default());
                }
            };
            if c.height == 1 {
                charge_memcpy(sim, self.stream, c.src, c.dst, c.width, landed);
            } else {
                charge_memcpy_2d(sim, self.stream, c, landed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{mean_round_trip, ping_pong, wait_all, PingPongSpec};
    use crate::config::MpiConfig;
    use datatype::testutil::{
        buffer_span, lower_triangular as tri, pattern, reference_pack, reference_unpack,
    };
    use datatype::DataType;
    use faultsim::{FaultKind, FaultPlan};
    use simcore::Counter;

    fn world(topo: &str, config: MpiConfig) -> Sim<MpiWorld> {
        Sim::new(match topo {
            "sm1" => MpiWorld::two_ranks_one_gpu(config),
            "sm2" => MpiWorld::two_ranks_two_gpus(config),
            _ => MpiWorld::two_ranks_ib(config),
        })
    }

    /// One end of a message: a buffer spanning `ty` on `rank`'s GPU (or
    /// host memory), holding the test pattern when `fill`, else `0xEE`
    /// throughout. Returns the side, the allocation's start, what was
    /// written, and the type's offset into the allocation.
    fn end(
        sim: &mut Sim<MpiWorld>,
        rank: usize,
        ty: &DataType,
        device: bool,
        fill: bool,
    ) -> (Side, Ptr, Vec<u8>, i64) {
        let (base, len) = buffer_span(ty, 1);
        let space = if device {
            MemSpace::Device(sim.world.mpi.ranks[rank].gpu)
        } else {
            MemSpace::Host
        };
        let alloc = sim.world.mem().alloc(space, len as u64).unwrap();
        let bytes = if fill { pattern(len) } else { vec![0xEE; len] };
        sim.world.mem().write(alloc, &bytes).unwrap();
        let side = Side {
            rank,
            ty: ty.clone(),
            count: 1,
            buf: alloc.add(base as u64),
        };
        (side, alloc, bytes, base)
    }

    fn submatrix(n: u64) -> DataType {
        DataType::vector(n, n, 2 * n as i64, &DataType::double())
            .unwrap()
            .commit()
    }

    /// Run `which` between a triangular, a submatrix and a transpose pair
    /// of layouts on each two-rank topology. Every message delivers the
    /// sender's packed bytes into the receive type and leaves each
    /// receive byte outside it untouched; a host-resident end fails the
    /// message with a typed error, not a panic.
    fn moves_correct_bytes(which: Comparator) {
        let n = 48;
        let dense = DataType::contiguous(n * n, &DataType::double())
            .unwrap()
            .commit();
        let row = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
        let transpose = DataType::hvector(n, 1, 8, &row).unwrap().commit();
        let pairs = [
            ("triangular", tri(n), tri(n)),
            ("submatrix", submatrix(n), submatrix(n)),
            ("transpose", dense, transpose),
        ];
        for topo in ["sm1", "sm2", "ib"] {
            for (name, s_ty, r_ty) in &pairs {
                let row = format!("{which:?} {topo} {name}");
                let mut sim = world(topo, MpiConfig::default());
                let (s, _, sent, s_base) = end(&mut sim, 0, s_ty, true, true);
                let (r, r_alloc, blank, r_base) = end(&mut sim, 1, r_ty, true, false);
                let packed = reference_pack(s_ty, 1, &sent, s_base);
                let mut expect = blank.clone();
                reference_unpack(r_ty, 1, &mut expect, r_base, &packed);
                let req = comparator_transfer(&mut sim, which, s, r);
                sim.run();
                assert_eq!(req.expect_bytes(), s_ty.size(), "{row}");
                let len = blank.len() as u64;
                let got = sim.world.mem().read_vec(r_alloc, len).unwrap();
                let delivered = reference_pack(r_ty, 1, &got, r_base);
                assert!(delivered == packed, "{row}: bytes");
                assert!(got == expect, "{row}: a byte outside the type moved");
            }
            let mut sim = world(topo, MpiConfig::default());
            let (dev, ..) = end(&mut sim, 0, &tri(n), true, true);
            let (host, ..) = end(&mut sim, 1, &tri(n), false, false);
            for (s, r) in [(dev.clone(), host.clone()), (host, dev)] {
                let req = comparator_transfer(&mut sim, which, s, r);
                sim.run();
                assert!(
                    matches!(req.result(), Some(Err(MpiError::Mem(_)))),
                    "{which:?} {topo}: a host end must fail with a typed error"
                );
            }
        }
    }

    #[test]
    fn baseline_moves_correct_bytes() {
        moves_correct_bytes(Comparator::Wang);
    }

    #[test]
    fn jenkins_moves_correct_bytes() {
        moves_correct_bytes(Comparator::Jenkins);
    }

    /// Both comparators complete with exact bytes under transient faults
    /// on every charge, with the staging given back to the leases: a
    /// second message leases the same blocks, so the pools stay where
    /// the first left them.
    #[test]
    fn comparators_deliver_exact_bytes_under_transient_faults() {
        let mut fault_plan =
            FaultPlan::empty()
                .with_seed(3)
                .with_rule(None, FaultKind::Transient, 0.3);
        fault_plan.rules[0].max_injections = Some(4);
        let t = tri(64);
        for which in [Comparator::Wang, Comparator::Jenkins] {
            let config = MpiConfig {
                fault_plan: fault_plan.clone(),
                ..MpiConfig::default()
            };
            let mut sim = world("ib", config);
            let (s, _, sent, s_base) = end(&mut sim, 0, &t, true, true);
            let (r, r_alloc, blank, r_base) = end(&mut sim, 1, &t, true, false);
            let used = |sim: &Sim<MpiWorld>| {
                let mem = sim.world.mem_ref();
                let gpus = (0..mem.gpu_count()).map(|g| MemSpace::Device(memsim::GpuId(g)));
                (gpus.chain([MemSpace::Host]))
                    .map(|space| mem.pool(space).used())
                    .sum::<u64>()
            };
            let req = comparator_transfer(&mut sim, which, s.clone(), r.clone());
            sim.run();
            assert_eq!(req.expect_bytes(), t.size(), "{which:?}");
            let got = sim
                .world
                .mem()
                .read_vec(r_alloc, blank.len() as u64)
                .unwrap();
            assert!(
                reference_pack(&t, 1, &got, r_base) == reference_pack(&t, 1, &sent, s_base),
                "{which:?}: bytes"
            );
            let injected: u64 = (sim.trace.counters().into_iter())
                .filter(|(k, _)| k.counter == Counter::FaultInjected)
                .map(|(_, v)| v)
                .sum();
            assert!(injected > 0, "{which:?}: no fault was injected");
            let after_first = used(&sim);
            let again = comparator_transfer(&mut sim, which, s, r);
            sim.run();
            assert_eq!(again.expect_bytes(), t.size(), "{which:?}");
            assert_eq!(used(&sim), after_first, "{which:?}: staging leaked");
        }
    }

    /// A comparator's mean round trip, on the shared round driver.
    fn rtt(sim: &mut Sim<MpiWorld>, which: Comparator, a: &Side, b: &Side, iters: u32) -> SimTime {
        mean_round_trip(sim, iters, |sim| {
            for (s, r) in [(a, b), (b, a)] {
                let req = comparator_transfer(sim, which, s.clone(), r.clone());
                wait_all(sim, &[req]).unwrap();
            }
        })
    }

    /// Our ping-pong and each comparator's, on a fresh two-GPU world per
    /// measurement.
    fn three_ways(ty: &DataType, iters: u32) -> (SimTime, SimTime, SimTime) {
        let mk = || {
            let mut sim = world("sm2", MpiConfig::default());
            let (a, ..) = end(&mut sim, 0, ty, true, true);
            let (b, ..) = end(&mut sim, 1, ty, true, false);
            (sim, a, b)
        };
        let ours = {
            let (mut sim, a, b) = mk();
            let spec = PingPongSpec {
                ty0: ty.clone(),
                count0: 1,
                buf0: a.buf,
                ty1: ty.clone(),
                count1: 1,
                buf1: b.buf,
                iters,
            };
            ping_pong(&mut sim, spec)
        };
        let [jenkins, wang] = [Comparator::Jenkins, Comparator::Wang].map(|which| {
            let (mut sim, a, b) = mk();
            rtt(&mut sim, which, &a, &b, iters)
        });
        (ours, jenkins, wang)
    }

    #[test]
    fn ordering_ours_beats_jenkins_beats_wang() {
        // The paper's implicit ordering: pipelined GPU kernels >
        // unpipelined GPU kernels > per-vector cudaMemcpy2D.
        let (ours, jenkins, wang) = three_ways(&tri(512), 2);
        assert!(ours < jenkins, "ours {ours} should beat jenkins {jenkins}");
        assert!(jenkins < wang, "jenkins {jenkins} should beat wang {wang}");
    }

    #[test]
    fn our_engine_beats_baseline_on_indexed() {
        // The paper's headline: for indexed datatypes the pipelined GPU
        // engine wins by a large factor.
        let (ours, _, wang) = three_ways(&tri(256), 3);
        assert!(
            ours.as_nanos() * 2 < wang.as_nanos(),
            "ours {ours} should be >2x faster than baseline {wang}"
        );
    }

    #[test]
    fn baseline_indexed_pays_per_column_latency() {
        // The per-call memcpy latency must show: N columns cost at
        // least N * latency even for tiny data.
        let n = 64u64;
        let mut sim = world("sm2", MpiConfig::default());
        let (s, ..) = end(&mut sim, 0, &tri(n), true, true);
        let (r, ..) = end(&mut sim, 1, &tri(n), true, false);
        let req = comparator_transfer(&mut sim, Comparator::Wang, s, r);
        sim.run();
        req.expect_bytes();
        let lat = gpusim::GpuSpec::default().memcpy_latency;
        assert!(
            sim.now().as_nanos() >= n * lat.as_nanos(),
            "expected >= {n} per-call latencies, took {}",
            sim.now()
        );
    }

    #[test]
    fn baseline_ping_pong_runs() {
        let v = DataType::vector(64, 8, 16, &DataType::double())
            .unwrap()
            .commit();
        let mut sim = world("sm2", MpiConfig::default());
        let (a, ..) = end(&mut sim, 0, &v, true, true);
        let (b, ..) = end(&mut sim, 1, &v, true, false);
        assert!(rtt(&mut sim, Comparator::Wang, &a, &b, 3) > SimTime::ZERO);
    }
}
