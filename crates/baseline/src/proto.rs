//! The baseline transfer path: per-vector `cudaMemcpy2D` through host
//! memory, strictly phase-by-phase (pack ▸ wire ▸ unpack).

use crate::vectorize::{vectorize, VectorRun};
use datatype::DataType;
use gpusim::{memcpy, memcpy_2d, GpuWorld as _};
use memsim::{MemSpace, Ptr};
use mpirt::{MpiWorld, Request};
use simcore::{Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One endpoint of a baseline transfer (device-resident only — the
/// baseline is a GPU-datatype comparator).
#[derive(Clone)]
pub struct BaselineSide {
    pub rank: usize,
    pub ty: DataType,
    pub count: u64,
    pub buf: Ptr,
}

/// Run one baseline message `s → r`. Completes the returned request
/// when the receiver has fully unpacked.
pub fn baseline_transfer(sim: &mut Sim<MpiWorld>, s: BaselineSide, r: BaselineSide) -> Request {
    assert!(
        s.buf.space.is_device() && r.buf.space.is_device(),
        "baseline models GPU data"
    );
    let req = Request::new();
    let total = s.ty.size() * s.count;
    if total == 0 {
        req.complete(sim, Ok(0));
        return req;
    }
    let s_runs = vectorize(&s.ty, s.count);
    let r_runs = vectorize(&r.ty, r.count);

    // Transient host staging buffers on both sides (the baseline always
    // transits host memory).
    let s_host = sim
        .world
        .mem()
        .alloc(MemSpace::Host, total)
        .expect("staging");
    let r_host = sim
        .world
        .mem()
        .alloc(MemSpace::Host, total)
        .expect("staging");

    let st = Rc::new(RefCell::new(State {
        s: s.clone(),
        r,
        req: req.clone(),
        s_host,
        r_host,
        total,
        remaining: 0,
        r_runs,
    }));

    // Phase 1: pack — one cudaMemcpy2D (D2H) per vector run, all
    // issued on the sender's copy stream; phase 2 starts only when the
    // last one finishes (no pipelining).
    let n_runs = s_runs.len();
    st.borrow_mut().remaining = n_runs;
    let s_base = s.buf.offset_by(s.ty.true_lb().min(0));
    let shift = s.ty.true_lb().min(0);
    let copy_stream = sim.world.mpi.ranks[s.rank].copy_stream;
    let mut host_pos = 0u64;
    for run in s_runs {
        let src = s_base.add((run.first_disp - shift) as u64);
        let dst = st.borrow().s_host.add(host_pos);
        host_pos += run.bytes();
        let stw = Rc::clone(&st);
        run_2d(sim, copy_stream, src, dst, run, true, move |sim| {
            let go = {
                let mut x = stw.borrow_mut();
                x.remaining -= 1;
                x.remaining == 0
            };
            if go {
                wire_phase(sim, stw);
            }
        });
    }
    req
}

struct State {
    s: BaselineSide,
    r: BaselineSide,
    req: Request,
    s_host: Ptr,
    r_host: Ptr,
    total: u64,
    remaining: usize,
    r_runs: Vec<VectorRun>,
}

/// Issue one cudaMemcpy2D for a run. `d2h` packs device→host; otherwise
/// host→device.
fn run_2d(
    sim: &mut Sim<MpiWorld>,
    stream: gpusim::StreamId,
    typed: Ptr,
    host: Ptr,
    run: VectorRun,
    d2h: bool,
    done: impl FnOnce(&mut Sim<MpiWorld>) + 'static,
) {
    if run.height == 1 {
        // Plain cudaMemcpy for single-row runs.
        let (src, dst) = if d2h { (typed, host) } else { (host, typed) };
        memcpy(sim, stream, src, dst, run.width, move |sim, _| done(sim));
        return;
    }
    let stride = run.stride as u64;
    if d2h {
        memcpy_2d(
            sim,
            stream,
            typed,
            stride,
            host,
            run.width,
            run.width,
            run.height,
            move |sim, _| done(sim),
        );
    } else {
        memcpy_2d(
            sim,
            stream,
            host,
            run.width,
            typed,
            stride,
            run.width,
            run.height,
            move |sim, _| done(sim),
        );
    }
}

/// Phase 2: ship the whole packed buffer over the channel in one go.
fn wire_phase(sim: &mut Sim<MpiWorld>, st: Rc<RefCell<State>>) {
    let (s_rank, r_rank, src, dst, total) = {
        let x = st.borrow();
        (x.s.rank, x.r.rank, x.s_host, x.r_host, x.total)
    };
    netsim::wire_send(sim, s_rank, r_rank, total, move |sim| {
        sim.world
            .mem()
            .copy(src, dst, total)
            .expect("baseline wire");
        unpack_phase(sim, st);
    })
    .expect("baseline ranks are connected");
}

/// Phase 3: one cudaMemcpy2D (H2D) per receiver-side vector run.
fn unpack_phase(sim: &mut Sim<MpiWorld>, st: Rc<RefCell<State>>) {
    let (runs, r_host, r_buf, shift, stream) = {
        let x = st.borrow();
        let shift = x.r.ty.true_lb().min(0);
        (
            x.r_runs.clone(),
            x.r_host,
            x.r.buf.offset_by(shift),
            shift,
            sim.world.mpi.ranks[x.r.rank].copy_stream,
        )
    };
    let n = runs.len();
    st.borrow_mut().remaining = n;
    let mut host_pos = 0u64;
    for run in runs {
        let typed = r_buf.add((run.first_disp - shift) as u64);
        let host = r_host.add(host_pos);
        host_pos += run.bytes();
        let stw = Rc::clone(&st);
        run_2d(sim, stream, typed, host, run, false, move |sim| {
            let finished = {
                let mut x = stw.borrow_mut();
                x.remaining -= 1;
                x.remaining == 0
            };
            if finished {
                let x = stw.borrow();
                x.req.complete(sim, Ok(x.total));
                let (sh, rh) = (x.s_host, x.r_host);
                drop(x);
                sim.world.mem().free(sh).expect("free staging");
                sim.world.mem().free(rh).expect("free staging");
            }
        });
    }
}

/// Baseline ping-pong analogous to `mpirt::ping_pong`: one warm-up
/// round, then the mean round-trip time over `iters` rounds.
pub fn baseline_ping_pong(
    sim: &mut Sim<MpiWorld>,
    a: BaselineSide,
    b: BaselineSide,
    iters: u32,
) -> SimTime {
    let round = |sim: &mut Sim<MpiWorld>| {
        let r1 = baseline_transfer(sim, a.clone(), b.clone());
        run_until_complete(sim, &r1);
        let r2 = baseline_transfer(sim, b.clone(), a.clone());
        run_until_complete(sim, &r2);
    };
    round(sim); // warm-up
    let start = sim.now();
    for _ in 0..iters {
        round(sim);
    }
    SimTime::from_nanos((sim.now() - start).as_nanos() / iters as u64)
}

fn run_until_complete(sim: &mut Sim<MpiWorld>, req: &Request) {
    while !req.is_complete() {
        assert!(sim.step(), "baseline transfer stalled");
    }
    req.result().unwrap().expect("baseline transfer failed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use mpirt::MpiConfig;

    fn setup(
        sim: &mut Sim<MpiWorld>,
        rank: usize,
        ty: &DataType,
        fill: bool,
    ) -> (Ptr, Vec<u8>, i64, u64) {
        let (base, len) = buffer_span(ty, 1);
        let gpu = sim.world.mpi.ranks[rank].gpu;
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(gpu), len as u64)
            .unwrap();
        let bytes = if fill { pattern(len) } else { vec![0u8; len] };
        sim.world.mem().write(buf, &bytes).unwrap();
        (buf.add(base as u64), bytes, base, len as u64)
    }

    fn tri(n: u64) -> DataType {
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit()
    }

    #[test]
    fn baseline_moves_correct_bytes() {
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let t = tri(64);
        let (sbuf, sbytes, sbase, _) = setup(&mut sim, 0, &t, true);
        let (rbuf, _, rbase, rlen) = setup(&mut sim, 1, &t, false);
        let req = baseline_transfer(
            &mut sim,
            BaselineSide {
                rank: 0,
                ty: t.clone(),
                count: 1,
                buf: sbuf,
            },
            BaselineSide {
                rank: 1,
                ty: t.clone(),
                count: 1,
                buf: rbuf,
            },
        );
        sim.run();
        assert_eq!(req.expect_bytes(), t.size());
        let got_buf = sim
            .world
            .mem()
            .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
            .unwrap();
        let got = reference_pack(&t, 1, &got_buf, rbase);
        assert_eq!(got, reference_pack(&t, 1, &sbytes, sbase));
    }

    #[test]
    fn baseline_indexed_pays_per_column_latency() {
        // The per-call memcpy latency must show: N columns cost at
        // least N * latency even for tiny data.
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let n = 64u64;
        let t = tri(n);
        let (sbuf, _, _, _) = setup(&mut sim, 0, &t, true);
        let (rbuf, _, _, _) = setup(&mut sim, 1, &t, false);
        let req = baseline_transfer(
            &mut sim,
            BaselineSide {
                rank: 0,
                ty: t.clone(),
                count: 1,
                buf: sbuf,
            },
            BaselineSide {
                rank: 1,
                ty: t,
                count: 1,
                buf: rbuf,
            },
        );
        sim.run();
        req.expect_bytes();
        let lat = gpusim::GpuSpec::default().memcpy_latency;
        assert!(
            sim.now().as_nanos() >= n * lat.as_nanos(),
            "expected >= {} per-call latencies, took {}",
            n,
            sim.now()
        );
    }

    #[test]
    fn baseline_ping_pong_runs() {
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let v = DataType::vector(64, 8, 16, &DataType::double())
            .unwrap()
            .commit();
        let (b0, _, _, _) = setup(&mut sim, 0, &v, true);
        let (b1, _, _, _) = setup(&mut sim, 1, &v, false);
        let per_iter = baseline_ping_pong(
            &mut sim,
            BaselineSide {
                rank: 0,
                ty: v.clone(),
                count: 1,
                buf: b0,
            },
            BaselineSide {
                rank: 1,
                ty: v,
                count: 1,
                buf: b1,
            },
            3,
        );
        assert!(per_iter > SimTime::ZERO);
    }

    #[test]
    fn our_engine_beats_baseline_on_indexed() {
        // The paper's headline: for indexed datatypes the pipelined GPU
        // engine wins by a large factor.
        let t = tri(256); // ~263 KB
        let ours = {
            let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
            let (b0, _, _, _) = setup(&mut sim, 0, &t, true);
            let (b1, _, _, _) = setup(&mut sim, 1, &t, false);
            mpirt::ping_pong(
                &mut sim,
                mpirt::api::PingPongSpec {
                    ty0: t.clone(),
                    count0: 1,
                    buf0: b0,
                    ty1: t.clone(),
                    count1: 1,
                    buf1: b1,
                    iters: 3,
                },
            )
        };
        let theirs = {
            let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
            let (b0, _, _, _) = setup(&mut sim, 0, &t, true);
            let (b1, _, _, _) = setup(&mut sim, 1, &t, false);
            baseline_ping_pong(
                &mut sim,
                BaselineSide {
                    rank: 0,
                    ty: t.clone(),
                    count: 1,
                    buf: b0,
                },
                BaselineSide {
                    rank: 1,
                    ty: t.clone(),
                    count: 1,
                    buf: b1,
                },
                3,
            )
        };
        assert!(
            ours.as_nanos() * 2 < theirs.as_nanos(),
            "ours {ours} should be >2x faster than baseline {theirs}"
        );
    }
}
