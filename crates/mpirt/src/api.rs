//! The user-facing point-to-point API (the PML surface).

use crate::matcher::{Envelope, RecvPosting};
use crate::protocol::{self, eager, Side};
use crate::request::{MpiError, Request};
use crate::world::MpiWorld;
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::Ptr;
use netsim::send_am;
use simcore::{Sim, SimTime};

/// Arguments of a nonblocking send.
#[derive(Clone)]
pub struct SendArgs {
    pub from: usize,
    pub to: usize,
    pub tag: u64,
    pub ty: DataType,
    pub count: u64,
    pub buf: Ptr,
}

impl SendArgs {
    /// A send of `count` elements of `ty` at `buf`, from rank `from` to
    /// rank `to`, with tag 0. Chain [`SendArgs::tag`] to override.
    pub fn new(from: usize, to: usize, buf: Ptr, ty: &DataType, count: u64) -> SendArgs {
        SendArgs {
            from,
            to,
            tag: 0,
            ty: ty.clone(),
            count,
            buf,
        }
    }

    pub fn tag(mut self, tag: u64) -> SendArgs {
        self.tag = tag;
        self
    }
}

/// Arguments of a nonblocking receive.
#[derive(Clone)]
pub struct RecvArgs {
    pub rank: usize,
    /// `None` = MPI_ANY_SOURCE.
    pub src: Option<usize>,
    /// `None` = MPI_ANY_TAG.
    pub tag: Option<u64>,
    pub ty: DataType,
    pub count: u64,
    pub buf: Ptr,
}

impl RecvArgs {
    /// A receive on `rank` of `count` elements of `ty` into `buf` from
    /// rank `src`, matching any tag. Chain [`RecvArgs::tag`] to match a
    /// specific tag.
    pub fn new(rank: usize, src: usize, buf: Ptr, ty: &DataType, count: u64) -> RecvArgs {
        RecvArgs {
            rank,
            src: Some(src),
            tag: None,
            ty: ty.clone(),
            count,
            buf,
        }
    }

    pub fn tag(mut self, tag: u64) -> RecvArgs {
        self.tag = Some(tag);
        self
    }
}

/// The first of `ranks` (argument name, value) that names no rank of
/// the job, as a typed error naming the argument — checked before
/// anything is charged, as `run_transfer` checks a degenerate
/// configuration.
pub(crate) fn bad_rank(
    sim: &Sim<MpiWorld>,
    ranks: impl IntoIterator<Item = (&'static str, usize)>,
) -> Option<MpiError> {
    let n = sim.world.mpi.ranks.len();
    let (what, r) = ranks.into_iter().find(|&(_, r)| r >= n)?;
    Some(MpiError::Faulted(format!(
        "{what} = {r} is not a rank of this {n}-rank job"
    )))
}

/// Nonblocking send (`MPI_Isend`). The transfer progresses as the
/// simulation runs; the returned request completes when the send buffer
/// is reusable.
pub fn isend(sim: &mut Sim<MpiWorld>, args: SendArgs) -> Request {
    let req = Request::new();
    if !args.ty.is_committed() {
        req.complete(sim, Err(MpiError::Type(datatype::TypeError::NotCommitted)));
        return req;
    }
    let ranks = [("SendArgs::from", args.from), ("SendArgs::to", args.to)];
    let bad = bad_rank(sim, ranks).or_else(|| {
        (args.from == args.to).then(|| {
            MpiError::Faulted(format!(
                "SendArgs::to = {}: self-sends are not modeled",
                args.to
            ))
        })
    });
    if let Some(err) = bad {
        req.complete(sim, Err(err));
        return req;
    }
    let side = Side {
        rank: args.from,
        ty: args.ty.clone(),
        count: args.count,
        buf: args.buf,
    };
    let bytes = side.total();
    if bytes <= sim.world.mpi.config.eager_limit {
        eager::send(sim, side, args.to, args.tag, req.clone());
        return req;
    }

    // Rendezvous: ship the match header; the matched receiver starts
    // the data protocol.
    let send_req = req.clone();
    let (from, to, tag) = (args.from, args.to, args.tag);
    let shipped = send_am(sim, from, to, 0, move |sim| {
        let env = Envelope {
            src: from,
            dst: to,
            tag,
            bytes,
            starter: Box::new(move |sim, posting| {
                protocol::start_rendezvous(sim, side, send_req, posting);
            }),
        };
        if let Some((posting, starter)) = sim.world.mpi.matcher.arrive(env) {
            starter(sim, posting);
        }
    });
    if let Err(e) = shipped {
        req.complete(sim, Err(MpiError::Net(e)));
    }
    req
}

/// Nonblocking receive (`MPI_Irecv`).
pub fn irecv(sim: &mut Sim<MpiWorld>, args: RecvArgs) -> Request {
    let req = Request::new();
    if !args.ty.is_committed() {
        req.complete(sim, Err(MpiError::Type(datatype::TypeError::NotCommitted)));
        return req;
    }
    let src = args.src.map(|s| ("RecvArgs::src", s));
    if let Some(err) = bad_rank(sim, [("RecvArgs::rank", args.rank)].into_iter().chain(src)) {
        req.complete(sim, Err(err));
        return req;
    }
    let posting = RecvPosting {
        rank: args.rank,
        src: args.src,
        tag: args.tag,
        ty: args.ty,
        count: args.count,
        buf: args.buf,
        request: req.clone(),
    };
    if let Some((posting, starter)) = sim.world.mpi.matcher.post(posting) {
        starter(sim, posting);
    }
    req
}

/// Drive a ping-pong between ranks 0 and 1 for `iters` round trips and
/// return the virtual time per round trip (excluding a warm-up round
/// that pays connection setup and populates the CUDA-DEV caches).
///
/// Rank 0 sends with `(ty0, count0, buf0)`; rank 1 receives into
/// `(ty1, count1, buf1)` and sends back from it — the classic
/// osu-latency-style loop generalized to asymmetric datatypes (the
/// paper's vector↔contiguous and transpose benchmarks).
#[allow(clippy::too_many_arguments)]
pub struct PingPongSpec {
    pub ty0: DataType,
    pub count0: u64,
    pub buf0: Ptr,
    pub ty1: DataType,
    pub count1: u64,
    pub buf1: Ptr,
    pub iters: u32,
}

pub fn ping_pong(sim: &mut Sim<MpiWorld>, spec: PingPongSpec) -> SimTime {
    mean_round_trip(sim, spec.iters, |sim| run_round(sim, &spec))
}

/// The round driver of every ping-pong — ours and the comparators': run
/// `round` once to warm up (connection establishment, IPC mapping, DEV
/// cache), then `iters` times, and return the mean virtual time of the
/// measured rounds.
pub fn mean_round_trip(
    sim: &mut Sim<MpiWorld>,
    iters: u32,
    mut round: impl FnMut(&mut Sim<MpiWorld>),
) -> SimTime {
    round(sim);
    let start = sim.now();
    for _ in 0..iters {
        round(sim);
    }
    let total = sim.now() - start;
    SimTime::from_nanos(total.as_nanos() / iters as u64)
}

/// One synchronous round trip: 0 → 1 then 1 → 0, run to completion.
fn run_round(sim: &mut Sim<MpiWorld>, spec: &PingPongSpec) {
    let tag = 99;
    let s1 = isend(
        sim,
        SendArgs {
            from: 0,
            to: 1,
            tag,
            ty: spec.ty0.clone(),
            count: spec.count0,
            buf: spec.buf0,
        },
    );
    let r1 = irecv(
        sim,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(tag),
            ty: spec.ty1.clone(),
            count: spec.count1,
            buf: spec.buf1,
        },
    );
    wait_all(sim, &[s1, r1]).expect("ping-pong round failed");
    let s2 = isend(
        sim,
        SendArgs {
            from: 1,
            to: 0,
            tag,
            ty: spec.ty1.clone(),
            count: spec.count1,
            buf: spec.buf1,
        },
    );
    let r2 = irecv(
        sim,
        RecvArgs {
            rank: 0,
            src: Some(1),
            tag: Some(tag),
            ty: spec.ty0.clone(),
            count: spec.count0,
            buf: spec.buf0,
        },
    );
    wait_all(sim, &[s2, r2]).expect("ping-pong round failed");
}

/// Run the simulation until the given requests complete (`MPI_Waitall`),
/// and the memory's copy lane until their bytes have landed.
///
/// Returns [`MpiError::Stalled`] when the event queue drains with
/// requests still incomplete (an unmatched rendezvous or a protocol
/// deadlock), and otherwise the first request error, if any — no panics
/// on the failure paths, so callers can react to injected faults.
pub fn wait_all(sim: &mut Sim<MpiWorld>, reqs: &[Request]) -> Result<(), MpiError> {
    loop {
        if reqs.iter().all(|r| r.is_complete()) {
            break;
        }
        if !sim.step() {
            return Err(MpiError::Stalled);
        }
    }
    // The bytes the requests delivered have landed when the wait
    // returns, not only by the time something reads them.
    sim.world.mem().drain();
    for r in reqs {
        if let Some(Err(e)) = r.result() {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use memsim::MemSpace;

    fn dbl() -> DataType {
        DataType::double()
    }

    /// Allocate + fill a typed buffer for `rank`'s GPU (or host).
    fn alloc_typed(
        sim: &mut Sim<MpiWorld>,
        rank: usize,
        ty: &DataType,
        count: u64,
        device: bool,
        fill: bool,
    ) -> (Ptr, Vec<u8>, i64, u64) {
        let (base, len) = buffer_span(ty, count);
        let space = if device {
            MemSpace::Device(sim.world.mpi.ranks[rank].gpu)
        } else {
            MemSpace::Host
        };
        let buf = sim.world.mem().alloc(space, len.max(1) as u64).unwrap();
        let bytes = if fill { pattern(len) } else { vec![0u8; len] };
        sim.world.mem().write(buf, &bytes).unwrap();
        (buf.add(base as u64), bytes, base, len as u64)
    }

    /// End-to-end correctness check for one world/type/count combo.
    fn check_transfer(
        mut sim: Sim<MpiWorld>,
        ty_s: &DataType,
        count_s: u64,
        ty_r: &DataType,
        count_r: u64,
        s_dev: bool,
        r_dev: bool,
    ) {
        let (sbuf, sbytes, sbase, _) = alloc_typed(&mut sim, 0, ty_s, count_s, s_dev, true);
        let (rbuf, _, rbase, rlen) = alloc_typed(&mut sim, 1, ty_r, count_r, r_dev, false);
        let s = isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag: 7,
                ty: ty_s.clone(),
                count: count_s,
                buf: sbuf,
            },
        );
        let r = irecv(
            &mut sim,
            RecvArgs {
                rank: 1,
                src: Some(0),
                tag: Some(7),
                ty: ty_r.clone(),
                count: count_r,
                buf: rbuf,
            },
        );
        wait_all(&mut sim, &[s.clone(), r.clone()]).expect("transfer failed");
        assert_eq!(s.expect_bytes(), ty_s.size() * count_s);
        assert_eq!(r.expect_bytes(), ty_s.size() * count_s);

        // The packed stream of the received data must equal the packed
        // stream of the sent data.
        let expect = reference_pack(ty_s, count_s, &sbytes, sbase);
        let got_buf = sim
            .world
            .mem()
            .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
            .unwrap();
        let got = reference_pack(ty_r, count_r, &got_buf, rbase);
        assert_eq!(got[..expect.len()], expect[..], "payload mismatch");
    }

    fn vec_ty(n: u64) -> DataType {
        DataType::vector(n, 4, 8, &dbl()).unwrap().commit()
    }

    fn tri_ty(n: u64) -> DataType {
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        DataType::indexed(&lens, &disps, &dbl()).unwrap().commit()
    }

    #[test]
    fn eager_host_to_host() {
        let sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let t = vec_ty(16); // 512 B
        check_transfer(sim, &t, 1, &t, 1, false, false);
    }

    #[test]
    fn eager_device_to_device_sm() {
        let sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let t = vec_ty(16);
        check_transfer(sim, &t, 1, &t, 1, true, true);
    }

    #[test]
    fn rendezvous_sm_both_noncontig() {
        let sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let t = tri_ty(192); // ~148 KB > eager limit
        check_transfer(sim, &t, 1, &t, 1, true, true);
    }

    #[test]
    fn rendezvous_sm_same_gpu() {
        let sim = Sim::new(MpiWorld::two_ranks_one_gpu(MpiConfig::default()));
        let t = tri_ty(192);
        check_transfer(sim, &t, 1, &t, 1, true, true);
    }

    #[test]
    fn rendezvous_sm_sender_contiguous() {
        let sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let c = DataType::contiguous(40_000, &dbl()).unwrap().commit();
        let v = DataType::vector(2_000, 20, 40, &dbl()).unwrap().commit();
        check_transfer(sim, &c, 1, &v, 1, true, true);
    }

    #[test]
    fn rendezvous_sm_receiver_contiguous() {
        let sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let c = DataType::contiguous(40_000, &dbl()).unwrap().commit();
        let v = DataType::vector(2_000, 20, 40, &dbl()).unwrap().commit();
        check_transfer(sim, &v, 1, &c, 1, true, true);
    }

    #[test]
    fn rendezvous_ib_device_both_noncontig() {
        let sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let t = tri_ty(192);
        check_transfer(sim, &t, 1, &t, 1, true, true);
    }

    #[test]
    fn rendezvous_ib_no_zero_copy() {
        let cfg = MpiConfig {
            zero_copy: false,
            ..Default::default()
        };
        let sim = Sim::new(MpiWorld::two_ranks_ib(cfg));
        let t = tri_ty(192);
        check_transfer(sim, &t, 1, &t, 1, true, true);
    }

    #[test]
    fn rendezvous_sm_ipc_disabled_falls_back() {
        let cfg = MpiConfig {
            use_ipc: false,
            ..Default::default()
        };
        let sim = Sim::new(MpiWorld::two_ranks_two_gpus(cfg));
        let t = tri_ty(192);
        check_transfer(sim, &t, 1, &t, 1, true, true);
    }

    #[test]
    fn rendezvous_host_to_host_large() {
        let sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let t = vec_ty(8_000); // 256 KB
        check_transfer(sim, &t, 1, &t, 1, false, false);
    }

    #[test]
    fn rendezvous_device_to_host_mixed() {
        let sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let t = tri_ty(192);
        check_transfer(sim, &t, 1, &t, 1, true, false);
    }

    #[test]
    fn rendezvous_host_to_device_mixed() {
        let sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let t = tri_ty(192);
        check_transfer(sim, &t, 1, &t, 1, false, true);
    }

    #[test]
    fn different_layouts_same_signature() {
        // Vector → contiguous reshape (the FFT case, Figure 11).
        let sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let v = DataType::vector(4_000, 10, 20, &dbl()).unwrap().commit();
        let c = DataType::contiguous(40_000, &dbl()).unwrap().commit();
        check_transfer(sim, &v, 1, &c, 1, true, true);
    }

    #[test]
    fn signature_mismatch_fails_both_requests() {
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let send_ty = DataType::contiguous(40_000, &dbl()).unwrap().commit();
        let recv_ty = DataType::contiguous(40_000, &DataType::int())
            .unwrap()
            .commit();
        let (sbuf, _, _, _) = alloc_typed(&mut sim, 0, &send_ty, 1, false, true);
        let (rbuf, _, _, _) = alloc_typed(&mut sim, 1, &recv_ty, 1, false, false);
        let s = isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag: 1,
                ty: send_ty,
                count: 1,
                buf: sbuf,
            },
        );
        let r = irecv(
            &mut sim,
            RecvArgs {
                rank: 1,
                src: Some(0),
                tag: Some(1),
                ty: recv_ty,
                count: 1,
                buf: rbuf,
            },
        );
        sim.run();
        assert!(matches!(s.result(), Some(Err(MpiError::Type(_)))));
        assert!(matches!(r.result(), Some(Err(MpiError::Type(_)))));
    }

    /// An engine configuration `FragmentEngine::new` refuses fails the
    /// transfer with the field's `TypeError`, on both requests.
    #[test]
    fn invalid_engine_config_fails_the_transfer() {
        let t = tri_ty(192);
        let bad = [
            devengine::EngineConfig {
                unit_size: 1000,
                ..Default::default()
            },
            devengine::EngineConfig {
                pipeline_chunk: 512,
                ..Default::default()
            },
        ];
        for (engine, field) in bad.into_iter().zip(["unit_size", "pipeline_chunk"]) {
            let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig {
                engine,
                ..Default::default()
            }));
            let (sbuf, _, _, _) = alloc_typed(&mut sim, 0, &t, 1, true, true);
            let (rbuf, _, _, _) = alloc_typed(&mut sim, 1, &t, 1, true, false);
            let s = isend(
                &mut sim,
                SendArgs {
                    from: 0,
                    to: 1,
                    tag: 1,
                    ty: t.clone(),
                    count: 1,
                    buf: sbuf,
                },
            );
            let r = irecv(
                &mut sim,
                RecvArgs {
                    rank: 1,
                    src: Some(0),
                    tag: Some(1),
                    ty: t.clone(),
                    count: 1,
                    buf: rbuf,
                },
            );
            sim.run();
            for req in [&s, &r] {
                match req.result() {
                    Some(Err(MpiError::Type(datatype::TypeError::InvalidArgument(what)))) => {
                        assert!(what.contains(field), "{field}: {what}")
                    }
                    other => panic!("{field}: expected InvalidArgument, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let big = DataType::contiguous(40_000, &dbl()).unwrap().commit();
        let small = DataType::contiguous(20_000, &dbl()).unwrap().commit();
        let (sbuf, _, _, _) = alloc_typed(&mut sim, 0, &big, 1, false, true);
        let (rbuf, _, _, _) = alloc_typed(&mut sim, 1, &small, 1, false, false);
        let s = isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag: 1,
                ty: big,
                count: 1,
                buf: sbuf,
            },
        );
        let r = irecv(
            &mut sim,
            RecvArgs {
                rank: 1,
                src: Some(0),
                tag: Some(1),
                ty: small,
                count: 1,
                buf: rbuf,
            },
        );
        sim.run();
        assert!(matches!(s.result(), Some(Err(_))));
        assert!(matches!(r.result(), Some(Err(_))));
    }

    #[test]
    fn uncommitted_type_fails_fast() {
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let t = DataType::vector(4, 1, 2, &dbl()).unwrap(); // no commit
        let buf = sim.world.mem().alloc(MemSpace::Host, 1024).unwrap();
        let s = isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag: 0,
                ty: t,
                count: 1,
                buf,
            },
        );
        assert!(matches!(s.result(), Some(Err(MpiError::Type(_)))));
    }

    #[test]
    fn ping_pong_runs_and_reports_time() {
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let t = tri_ty(128);
        let (b0, _, _, _) = alloc_typed(&mut sim, 0, &t, 1, true, true);
        let (b1, _, _, _) = alloc_typed(&mut sim, 1, &t, 1, true, false);
        let per_iter = ping_pong(
            &mut sim,
            PingPongSpec {
                ty0: t.clone(),
                count0: 1,
                buf0: b0,
                ty1: t,
                count1: 1,
                buf1: b1,
                iters: 3,
            },
        );
        assert!(per_iter > SimTime::ZERO);
        assert!(per_iter < SimTime::from_millis(10));
    }

    #[test]
    fn unexpected_message_handled() {
        // Send arrives before the receive is posted.
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let t = vec_ty(16);
        let (sbuf, sbytes, sbase, _) = alloc_typed(&mut sim, 0, &t, 1, false, true);
        let s = isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag: 5,
                ty: t.clone(),
                count: 1,
                buf: sbuf,
            },
        );
        sim.run(); // message fully arrives, sits in unexpected queue
        assert!(s.is_complete());
        assert_eq!(sim.world.mpi.matcher.pending(), 1);

        let (rbuf, _, rbase, rlen) = alloc_typed(&mut sim, 1, &t, 1, false, false);
        let r = irecv(
            &mut sim,
            RecvArgs {
                rank: 1,
                src: Some(0),
                tag: Some(5),
                ty: t.clone(),
                count: 1,
                buf: rbuf,
            },
        );
        sim.run();
        assert!(r.is_complete());
        let got_buf = sim
            .world
            .mem()
            .read_vec(Ptr { offset: 0, ..rbuf }, rlen)
            .unwrap();
        let got = reference_pack(&t, 1, &got_buf, rbase);
        assert_eq!(got, reference_pack(&t, 1, &sbytes, sbase));
    }

    #[test]
    fn wildcard_receive() {
        let mut sim = Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()));
        let t = vec_ty(16);
        let (sbuf, _, _, _) = alloc_typed(&mut sim, 0, &t, 1, false, true);
        let (rbuf, _, _, _) = alloc_typed(&mut sim, 1, &t, 1, false, false);
        let r = irecv(
            &mut sim,
            RecvArgs {
                rank: 1,
                src: None,
                tag: None,
                ty: t.clone(),
                count: 1,
                buf: rbuf,
            },
        );
        let s = isend(
            &mut sim,
            SendArgs {
                from: 0,
                to: 1,
                tag: 1234,
                ty: t,
                count: 1,
                buf: sbuf,
            },
        );
        wait_all(&mut sim, &[s, r]).unwrap();
    }
}
