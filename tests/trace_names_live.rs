//! Trace-name liveness: every [`Counter::ALL`] entry reaches a nonzero
//! total, and every span category and span / instant name in
//! [`Name::ALL`] is recorded, across one small fixed set of runs — each
//! path class on shared memory and InfiniBand, the offload classes and
//! their loss plans, a transient fault plan, an evicting DEV cache, an
//! evicting shape table, the comparators, and one `mpirt::scale` job. A registered name that no run emits fails here.

use datatype::testutil::lower_triangular as triangular;
use datatype::DataType;
use devengine::{pack_async, DevCache, EngineConfig};
use faultsim::{FaultKind, FaultOp, FaultPlan};
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::scale::{self, random_program, ScaleConfig};
use mpirt::shape::ShapeTable;
use mpirt::{
    alltoall, comparator_transfer, irecv, isend, wait_all, Comparator, MpiConfig, RecvArgs,
    SendArgs, Session, Side,
};
use simcore::trace::{Name, TraceEvent};
use simcore::{Counter, Tracer};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Everything the runs emitted: counter totals and recorded names.
#[derive(Default)]
struct Seen {
    totals: BTreeMap<Counter, u64>,
    names: BTreeSet<Name>,
}

impl Seen {
    fn absorb(&mut self, trace: &Tracer) {
        for c in Counter::ALL {
            *self.totals.entry(c).or_default() += trace.counter(c);
        }
        for e in trace.events() {
            let (TraceEvent::Span { cat, name, .. } | TraceEvent::Instant { cat, name, .. }) = e;
            self.names.extend([*cat, *name]);
        }
    }

    /// Build a recording session, drive it, and absorb what it emitted.
    fn run(&mut self, builder: mpirt::SessionBuilder, drive: impl FnOnce(&mut Session)) {
        let mut sess = builder.record().build();
        drive(&mut sess);
        self.absorb(&sess.into_trace());
    }
}

fn doubles(n: u64) -> DataType {
    DataType::contiguous(n, &DataType::double())
        .unwrap()
        .commit()
}

/// `count` blocks of `len` doubles, `gap` doubles apart.
fn blocks(count: usize, len: u64, gap: i64) -> DataType {
    let disps: Vec<i64> = (0..count as i64).map(|b| b * (len as i64 + gap)).collect();
    DataType::indexed(&vec![len; count], &disps, &DataType::double())
        .unwrap()
        .commit()
}

fn alloc(sess: &mut Session, rank: usize, ty: &DataType, dev: bool) -> Ptr {
    let space = match dev {
        true => MemSpace::Device(sess.world.mpi.ranks[rank].gpu),
        false => MemSpace::Host,
    };
    sess.world.mem().alloc(space, ty.extent() as u64).unwrap()
}

/// One `0 → 1` message, both ends on device or both on host.
fn transfer(sess: &mut Session, (s_ty, r_ty): (&DataType, &DataType), dev: bool) {
    let sbuf = alloc(sess, 0, s_ty, dev);
    let rbuf = alloc(sess, 1, r_ty, dev);
    let s = isend(sess, SendArgs::new(0, 1, sbuf, s_ty, 1));
    let r = irecv(sess, RecvArgs::new(1, 0, rbuf, r_ty, 1));
    wait_all(sess, &[s, r]).unwrap();
}

#[test]
fn every_registered_trace_name_is_emitted() {
    let mut seen = Seen::default();
    let sm = |cfg| Session::builder().config(cfg);
    let ib = |cfg| Session::builder().config(cfg).two_ranks_ib();

    let tri = triangular(128);
    let dense = doubles(128 * 129 / 2);
    let (square, small, big) = (doubles(128 * 128), doubles(64), triangular(512));
    let submatrix = DataType::vector(128, 128, 256, &DataType::double())
        .unwrap()
        .commit();
    let row = DataType::vector(128, 1, 128, &DataType::double()).unwrap();
    let transpose = DataType::hvector(128, 1, 8, &row).unwrap().commit();

    // Every path class on shared memory (two GPUs, one GPU, no IPC) and
    // InfiniBand (zero copy, staged): dense and irregular ends, the
    // vector and 2-D strided kernels, a repeat for the cache hits, an
    // eager message, one the tuner splits differently, and host ends.
    let staged = |use_ipc| MpiConfig {
        use_ipc,
        zero_copy: false,
        ..MpiConfig::default()
    };
    for builder in [
        sm(MpiConfig::default()),
        sm(MpiConfig::default()).two_ranks_one_gpu(),
        sm(staged(false)),
        ib(MpiConfig::default()),
        ib(staged(true)),
    ] {
        seen.run(builder, |sess| {
            for pair in [
                (&dense, &dense),
                (&dense, &tri),
                (&tri, &dense),
                (&tri, &tri),
                (&tri, &tri),
                (&submatrix, &square),
                (&square, &transpose),
                (&small, &small),
                (&big, &big),
            ] {
                transfer(sess, pair, true);
            }
            for ty in [&tri, &dense, &small] {
                transfer(sess, (ty, ty), false);
            }
        });
    }

    // NIC offload on a100 and stream trigger on p100, healthy and with
    // the handler / doorbell lost.
    let (coarse, medium) = (blocks(32, 384, 40), blocks(480, 32, 4));
    for (arch, ty, lost) in [
        ("a100", &coarse, FaultOp::NicHandler),
        ("p100", &medium, FaultOp::StreamDoorbell),
    ] {
        for plan in [
            FaultPlan::empty(),
            FaultPlan::empty()
                .with_seed(7)
                .with_rule(Some(lost), FaultKind::PermanentLoss, 1.0),
        ] {
            let cfg = MpiConfig {
                nic_offload: lost == FaultOp::NicHandler,
                stream_trigger: lost == FaultOp::StreamDoorbell,
                fault_plan: plan,
                ..MpiConfig::default()
            };
            seen.run(ib(cfg).arch(arch), |sess| {
                for _ in 0..2 {
                    transfer(sess, (ty, ty), true);
                }
            });
        }
    }

    // A transient plan: injections and retries.
    let mut fault_plan = FaultPlan::empty()
        .with_seed(3)
        .with_rule(None, FaultKind::Transient, 0.3);
    fault_plan.rules[0].max_injections = Some(4);
    let cfg = MpiConfig {
        fault_plan,
        ..MpiConfig::default()
    };
    seen.run(ib(cfg), |sess| transfer(sess, (&tri, &tri), true));

    // A one-entry DEV cache evicts; without coalescing the unit size is
    // tuned where a larger one splits fewer runs: `big`'s columns reach
    // 4 KiB.
    let mut cfg = MpiConfig::default();
    cfg.engine.optimizer.coalesce = false;
    seen.run(sm(cfg), |sess| {
        for rank in &mut sess.world.mpi.ranks {
            rank.dev_cache = Rc::new(RefCell::new(DevCache::with_limits(u64::MAX, 1)));
        }
        for ty in [&tri, &big, &tri] {
            transfer(sess, (ty, ty), true);
        }
    });

    // A one-entry shape table: each new shape evicts the last.
    seen.run(sm(MpiConfig::default()), |sess| {
        sess.world.mpi.shapes = ShapeTable::with_limits(u64::MAX, 1);
        for ty in [&tri, &big] {
            transfer(sess, (ty, ty), true);
        }
    });

    // A host alltoall: each rank's own block is a host-to-host copy.
    seen.run(sm(MpiConfig::default()).ranks(4), |sess| {
        let bufs: Vec<Ptr> = (0..8).map(|_| alloc(sess, 0, &square, false)).collect();
        let req = alltoall(sess, &small, 1, &bufs[..4], &bufs[4..], 0);
        wait_all(sess, &[req]).unwrap();
    });

    // The comparators: per-vector memcpy2D, and a whole-type kernel
    // with no DEV cache. Then the engine itself, uncached, with a
    // pipeline chunk worth tuning.
    seen.run(ib(MpiConfig::default()), |sess| {
        for (which, ty) in [(Comparator::Wang, &submatrix), (Comparator::Jenkins, &tri)] {
            let mut side = |rank| Side {
                rank,
                ty: ty.clone(),
                count: 1,
                buf: alloc(sess, rank, ty, true),
            };
            let (s, r) = (side(0), side(1));
            let req = comparator_transfer(sess, which, s, r);
            wait_all(sess, &[req]).unwrap();
        }
        let (typed, packed) = (alloc(sess, 0, &tri, true), alloc(sess, 0, &dense, true));
        let stream = sess.world.mpi.ranks[0].kernel_stream;
        let cfg = EngineConfig {
            pipeline_chunk: 16 << 10,
            ..EngineConfig::default()
        };
        pack_async(
            sess,
            0,
            stream,
            &tri,
            1,
            typed,
            packed,
            cfg,
            None,
            |_, _| {},
        );
        sess.run();
    });

    // The message-level scale model.
    let cfg = ScaleConfig::new(8, random_program(1, 8, 4));
    seen.absorb(&scale::run(&cfg, true).trace);

    let dead: Vec<&str> = Counter::ALL
        .iter()
        .filter(|c| seen.totals[c] == 0)
        .map(|c| c.name())
        .collect();
    let unrecorded: Vec<&str> = Name::ALL
        .iter()
        .filter(|n| !seen.names.contains(n))
        .map(|n| n.as_str())
        .collect();
    assert!(
        dead.is_empty() && unrecorded.is_empty(),
        "counters no run emits: {dead:?}; names no run records: {unrecorded:?}"
    );
}
