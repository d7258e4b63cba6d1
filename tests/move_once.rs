//! Charge per stage, move per fragment (DESIGN.md §17): ring-hazard and
//! fault guard.
//!
//! The executor charges every stage of a rendezvous against the ranks'
//! rings and moves each fragment once, typed source
//! → typed destination, when its last stage completes. These tests pin
//! what that must not change — the bytes, clean and under the
//! `chaos_soak` fault plans, and fault-free the virtual completion time
//! and every counter, on rings shallow enough that every slot is reused
//! dozens of times — and what it must: no ring, staging or host slot is
//! ever written, and `Memory` writes each delivered byte exactly once.
//!
//! A repeated transfer reuses what the first one derived (DESIGN.md §17
//! "what a repeated transfer reuses"); every cell therefore runs cold
//! and warm, and nothing observable may tell the two apart.
//!
//! Queue per fragment, move per transfer: a landed fragment's move
//! waits in its transfer's queue and the queue moves as one batch — with
//! the last fragment, on failure, or when it holds too many units. The
//! queue must be invisible: the cells above see the same bytes, clock
//! and counters, and the tests at the end pin what a failed, a long and
//! an interfered-with transfer leave behind.

use datatype::convertor::{pack_all, unpack_all};
use datatype::testutil::{buffer_span, lower_triangular, pattern, transposed_triangular};
use datatype::DataType;
use devengine::{EngineConfig, OptimizerConfig};
use faultsim::{counters, FaultKind, FaultPlan};
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::shape::ShapeTable;
use mpirt::{irecv, isend, wait_all, MpiConfig, MpiError, RecvArgs, SendArgs, Session};
use simcore::Counter;

const FRAG: u64 = 4 << 10;

#[derive(Clone, Copy, Debug)]
enum Path {
    SmIpc,
    CopyInOut,
    ZeroCopy,
}

fn session(path: Path, depth: usize, plan: FaultPlan) -> Session {
    let config = MpiConfig {
        eager_limit: 2 << 10,
        frag_size: FRAG,
        pipeline_depth: depth,
        zero_copy: matches!(path, Path::ZeroCopy),
        nic_offload: false,
        stream_trigger: false,
        fault_plan: plan,
        // A fixed shape: the tuner would trade fragments for depth.
        engine: EngineConfig {
            optimizer: OptimizerConfig {
                autotune: false,
                ..OptimizerConfig::enabled()
            },
            ..EngineConfig::default()
        },
        ..MpiConfig::default()
    };
    let b = Session::builder().config(config);
    match path {
        Path::SmIpc => b.two_ranks_two_gpus(),
        Path::CopyInOut | Path::ZeroCopy => b.two_ranks_ib(),
    }
    .build()
}

/// `chaos_soak`'s plan shape: every charge point, transient, at `rate` %.
fn chaos(rate: u64, seed: u64) -> FaultPlan {
    FaultPlan::empty()
        .with_seed(seed)
        .with_rule(None, FaultKind::Transient, rate as f64 / 100.0)
}

/// A device buffer for `count × ty` on `rank`'s GPU: (displacement-0
/// pointer, allocation, length, base index).
fn alloc_typed(
    sess: &mut Session,
    rank: usize,
    ty: &DataType,
    count: u64,
) -> (Ptr, Ptr, usize, i64) {
    let (base, len) = buffer_span(ty, count);
    let space = MemSpace::Device(sess.world.mpi.ranks[rank].gpu);
    let alloc = sess.world.mem().alloc(space, len as u64).unwrap();
    (alloc.add(base as u64), alloc, len, base)
}

/// Send `s_ty` from rank 0 into `r_ty` on rank 1 and check the receive
/// buffer against the convertor oracle.
fn transfer(sess: &mut Session, s_ty: &DataType, r_ty: &DataType) {
    transfer_between(sess, (0, s_ty), (1, r_ty));
}

fn transfer_between(sess: &mut Session, (from, s_ty): (usize, &DataType), to: (usize, &DataType)) {
    let (to, r_ty) = to;
    let (s_buf, s_alloc, s_len, s_base) = alloc_typed(sess, from, s_ty, 1);
    let (r_buf, r_alloc, r_len, r_base) = alloc_typed(sess, to, r_ty, 1);
    let sent = pattern(s_len);
    sess.world.mem().write(s_alloc, &sent).unwrap();
    let mut expect = vec![0u8; r_len];
    unpack_all(
        r_ty,
        1,
        &mut expect,
        r_base,
        &pack_all(s_ty, 1, &sent, s_base),
    );
    let s = isend(sess, SendArgs::new(from, to, s_buf, s_ty, 1));
    let r = irecv(sess, RecvArgs::new(to, from, r_buf, r_ty, 1));
    wait_all(sess, &[s, r]).expect("transfer failed");
    let got = sess.world.mem().read_vec(r_alloc, r_len as u64).unwrap();
    assert!(got == expect, "received bytes differ from the oracle");
}

/// Every slot of every ring the session's ranks hold.
fn ring_slots(sess: &Session) -> Vec<Ptr> {
    (sess.world.mpi.ranks.iter())
        .flat_map(|r| r.rings.values().flatten().copied())
        .collect()
}

/// FNV-1a over the virtual clock and every counter dimension, in name
/// order. Three facts of the host or of the cache are left out:
/// `memsim.bytes_moved` counts the simulator's own traffic, which is
/// the one thing meant to differ from the parent;
/// `simcore.par.pool_threads`, the copy pool's size, which every
/// session reports and `GPU_DDT_COPY_THREADS` sets; and
/// `mpirt.shape.evicted`, which a bounded shape table is meant to move
/// and the tests below count on their own.
fn fingerprint(sess: &mut Session) -> (u64, u64) {
    const HOST: [Counter; 3] = [
        Counter::MemsimBytesMoved,
        Counter::ParPoolThreads,
        Counter::MpirtShapeEvicted,
    ];
    let now = sess.now().as_nanos();
    let mut text = format!("{now}");
    for (k, v) in sess.metrics().counters {
        if !HOST.contains(&k.counter) {
            text.push_str(&format!(";{}[{},{}]={v}", k.counter, k.a, k.b));
        }
    }
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (now, digest)
}

/// (virtual completion ns, counter digest) of the fault-free cells
/// below at the parent commit, where every stage still copied its
/// fragment through the rings: path-major, then depth 2 / 4. The
/// faulted cells have no parent to match: there a retried stage let
/// later fragments overtake, the strictly-forward conversion engines
/// converted the wrong windows, and all twelve delivered wrong bytes.
const PARENT_CLEAN: [(u64, u64); 6] = [
    (1437570, 9140669974722719842),
    (989445, 17694973059724053294),
    (2015940, 882312489581171398),
    (1072531, 9737139821557014546),
    (1448563, 7746749522214352765),
    (1231388, 17184521853125953714),
];

#[test]
fn rings_are_charged_never_written_and_the_model_does_not_move() {
    let (s_ty, r_ty) = (lower_triangular(368), transposed_triangular(368));
    let payload = s_ty.size();
    let nfrags = payload.div_ceil(FRAG);
    assert!(nfrags >= 100, "not a ring-reuse workload");
    let mut cells = PARENT_CLEAN.iter();
    for path in [Path::SmIpc, Path::CopyInOut, Path::ZeroCopy] {
        for depth in [2usize, 4] {
            let clean = *cells.next().expect("one pin per (path, depth)");
            for rate in [0u64, 5, 20] {
                let chaotic = || match rate {
                    0 => FaultPlan::empty(),
                    _ => chaos(rate, 1000 + 100 * depth as u64 + rate),
                };
                // Three fresh sessions, the shape table of each (here
                // only move lists) handed to the next: cold under the
                // cell's fault plan — every lookup misses, and retries,
                // parked fragments and demotion re-opens meet the merge
                // — then warm and fault-free, then warm under the cell's
                // plan again, where they meet pinned hits instead.
                let mut lists = None;
                let mut cold = None;
                for (iter, plan) in [
                    ("cold", chaotic()),
                    ("warm", FaultPlan::empty()),
                    ("warm again", chaotic()),
                ] {
                    let note = format!("{path:?} depth {depth} faults {rate}%, {iter}");
                    let faulted = !plan.rules.is_empty();
                    let mut sess = session(path, depth, plan);
                    if let Some(lists) = lists.take() {
                        sess.world.mpi.shapes = lists;
                    }
                    let hits = sess.world.mpi.shapes.list_hits;
                    transfer(&mut sess, &s_ty, &r_ty);

                    // Fault-free, cold or warm, is the parent's run to
                    // the nanosecond and the counter; under faults a
                    // warm run is the cold one over again.
                    let got = fingerprint(&mut sess);
                    if !faulted {
                        assert_eq!(got, clean, "{note}: virtual time or counters moved");
                    } else {
                        assert!(got.0 > clean.0, "{note}: retries cost no virtual time");
                        let cold = *cold.get_or_insert(got);
                        assert_eq!(got, cold, "{note}: a warm run differs from the cold one");
                    }
                    let m = sess.metrics();
                    assert_eq!(m.counter(Counter::MpiDeliveredBytes), payload, "{note}");
                    assert_eq!(
                        m.counter(Counter::MemsimBytesMoved),
                        payload,
                        "{note}: retries re-charge, they never re-move"
                    );
                    assert_eq!(m.counter(counters::FAULT_INJECTED) > 0, faulted, "{note}");

                    let slots = ring_slots(&sess);
                    assert!(slots.len() >= depth, "{note}: no ring was established");
                    for slot in slots {
                        let bytes = sess.world.mem().read_vec(slot, FRAG).unwrap();
                        assert!(bytes.iter().all(|&b| b == 0), "{note}: a slot was written");
                    }

                    let known = &sess.world.mpi.shapes;
                    let held: usize = known.entries().iter().map(|(_, e)| e.moves.len()).sum();
                    assert_eq!(held as u64, nfrags, "{note}: one list per fragment");
                    let warm = if iter == "cold" { 0 } else { nfrags };
                    assert_eq!(known.list_hits - hits, warm, "{note}: move-list hits");
                    lists = Some(std::mem::take(&mut sess.world.mpi.shapes));
                }
            }
        }
    }
}

/// What the shape table holds is bounded, and the bound is invisible
/// where it drops only move lists: with room for one entry — each
/// direction's shape evicts the other's, no lookup ever hits — a
/// ping-pong between two irregular layouts reads the same clock,
/// counters and bytes after every transfer as with the default bounds,
/// where the second round trip is all hits.
#[test]
fn a_cache_with_room_for_one_entry_changes_nothing_but_its_evictions() {
    let (a_ty, b_ty) = (lower_triangular(200), transposed_triangular(200));
    let nfrags = a_ty.size().div_ceil(FRAG);
    let run = |one_entry: bool| {
        let mut sess = session(Path::ZeroCopy, 4, FaultPlan::empty());
        if one_entry {
            sess.world.mpi.shapes = ShapeTable::with_limits(u64::MAX, 1);
        }
        let mut seen = Vec::new();
        for _ in 0..2 {
            transfer(&mut sess, &a_ty, &b_ty);
            seen.push(fingerprint(&mut sess));
            transfer_between(&mut sess, (1, &b_ty), (0, &a_ty));
            seen.push(fingerprint(&mut sess));
        }
        let lists = &sess.world.mpi.shapes;
        (seen, lists.list_hits, lists.entries().evictions())
    };
    let (default, hits, evictions) = run(false);
    assert_eq!((hits, evictions), (2 * nfrags, 0), "second round trip hits");
    let (one, hits, evictions) = run(true);
    assert_eq!((hits, evictions), (0, 3), "every other transfer evicts");
    assert_eq!(
        one, default,
        "the bound showed in virtual time or a counter"
    );
}

/// A receive posted longer than the message: the receiver's engine
/// covers more packed bytes than arrive, the merge stops at the
/// sender's last byte, and what lies past it keeps its bytes — on a
/// miss and on a hit.
#[test]
fn a_receive_longer_than_the_message_matches_the_oracle_cold_and_warm() {
    let (s_ty, r_ty) = (lower_triangular(96), transposed_triangular(96));
    let mut sess = session(Path::SmIpc, 2, FaultPlan::empty());
    let nfrags = s_ty.size().div_ceil(FRAG);
    for iter in 0..2 {
        let (s_buf, s_alloc, s_len, s_base) = alloc_typed(&mut sess, 0, &s_ty, 1);
        let (r_buf, r_alloc, r_len, r_base) = alloc_typed(&mut sess, 1, &r_ty, 3);
        let (sent, before) = (pattern(s_len), vec![0xA5u8; r_len]);
        sess.world.mem().write(s_alloc, &sent).unwrap();
        sess.world.mem().write(r_alloc, &before).unwrap();
        let mut expect = before;
        let packed = pack_all(&s_ty, 1, &sent, s_base);
        unpack_all(&r_ty, 3, &mut expect, r_base, &packed);

        let s = isend(&mut sess, SendArgs::new(0, 1, s_buf, &s_ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, r_buf, &r_ty, 3));
        wait_all(&mut sess, &[s, r]).expect("transfer failed");
        let got = sess.world.mem().read_vec(r_alloc, r_len as u64).unwrap();
        assert!(
            got == expect,
            "iteration {iter}: bytes differ from the oracle"
        );
        assert_eq!(sess.world.mpi.shapes.list_hits, iter * nfrags);
    }
}

/// A triangular matrix sent into its transpose inside the *same*
/// allocation, between two ranks of one GPU (a rank cannot send to
/// itself here; two ranks sharing a buffer is the modeled form of a
/// self-send). The ring used to stand between the two regions; now
/// `Memory::transfer` gathers before it scatters — through a freshly
/// merged move list the first time, a remembered one the second.
#[test]
fn self_send_inside_one_allocation_matches_the_oracle() {
    let n = 160u64;
    let (s_ty, r_ty) = (lower_triangular(n), transposed_triangular(n));
    let matrix = n * n * 8;
    let config = MpiConfig {
        frag_size: 16 << 10,
        ..MpiConfig::default()
    };
    assert!(s_ty.size() > config.eager_limit, "rendezvous-sized");
    let nfrags = s_ty.size().div_ceil(config.frag_size);
    let mut sess = Session::builder()
        .config(config)
        .two_ranks_one_gpu()
        .build();
    let space = MemSpace::Device(sess.world.mpi.ranks[0].gpu);
    let alloc = sess.world.mem().alloc(space, 2 * matrix).unwrap();
    let before = pattern(2 * matrix as usize);
    let mut expect = before.clone();
    unpack_all(
        &r_ty,
        1,
        &mut expect,
        matrix as i64,
        &pack_all(&s_ty, 1, &before, 0),
    );

    for iter in 0..2 {
        sess.world.mem().write(alloc, &before).unwrap();
        let s = isend(&mut sess, SendArgs::new(0, 1, alloc, &s_ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, alloc.add(matrix), &r_ty, 1));
        wait_all(&mut sess, &[s, r]).expect("self-send failed");
        let got = sess.world.mem().read_vec(alloc, 2 * matrix).unwrap();
        assert!(
            got == expect,
            "iteration {iter}: bytes differ from the oracle"
        );
        assert_eq!(sess.world.mem().bytes_moved(), (iter + 1) * s_ty.size());
        assert_eq!(sess.world.mpi.shapes.list_hits, iter * nfrags);
    }
}

/// Eager keeps the moving primitives: one pack into the bounce buffer,
/// one unpack out of it.
#[test]
fn eager_writes_each_delivered_byte_twice() {
    let ty = DataType::vector(64, 2, 5, &DataType::double())
        .unwrap()
        .commit();
    let mut sess = Session::builder().two_ranks_two_gpus().build();
    assert!(ty.size() <= sess.world.mpi.config.eager_limit);
    transfer(&mut sess, &ty, &ty);
    let m = sess.metrics();
    assert_eq!(m.counter(Counter::MpiDeliveredBytes), ty.size());
    assert_eq!(m.counter(Counter::MemsimBytesMoved), 2 * ty.size());
}

/// `bytes` of doubles, dense.
fn dense(bytes: u64) -> DataType {
    DataType::contiguous(bytes / 8, &DataType::double())
        .unwrap()
        .commit()
}

/// A transfer made to fail when fragment `k` of `n` lands — the receive
/// allocation ends inside that fragment's window — leaves exactly the
/// `k` fragments that landed before it in the receive buffer, moved by
/// the flush on the failure path, and resolves both requests `Err`,
/// once: a second resolution would panic in `Request::complete`.
#[test]
fn a_transfer_failing_after_k_fragments_shows_exactly_those_k() {
    let s_ty = lower_triangular(368);
    let payload = s_ty.size();
    let r_ty = dense(payload);
    let (k, tail) = (37u64, 100u64);
    assert!((k + 1) * FRAG < payload);
    for path in [Path::SmIpc, Path::CopyInOut, Path::ZeroCopy] {
        let mut sess = session(path, 2, FaultPlan::empty());
        let (s_buf, s_alloc, s_len, s_base) = alloc_typed(&mut sess, 0, &s_ty, 1);
        let sent = pattern(s_len);
        sess.world.mem().write(s_alloc, &sent).unwrap();
        let packed = pack_all(&s_ty, 1, &sent, s_base);
        let space = MemSpace::Device(sess.world.mpi.ranks[1].gpu);
        let short = k * FRAG + tail;
        let r_buf = sess.world.mem().alloc(space, short).unwrap();
        sess.world
            .mem()
            .write(r_buf, &vec![0xA5u8; short as usize])
            .unwrap();

        let s = isend(&mut sess, SendArgs::new(0, 1, s_buf, &s_ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, r_buf, &r_ty, 1));
        let failed = wait_all(&mut sess, &[s.clone(), r.clone()]);
        assert!(
            matches!(failed, Err(MpiError::Mem(_))),
            "{path:?}: {failed:?}"
        );
        // Stragglers land (and fail) after the requests resolved.
        while sess.step() {}
        for req in [&s, &r] {
            assert!(
                matches!(req.result(), Some(Err(MpiError::Mem(_)))),
                "{path:?}"
            );
        }
        let got = sess.world.mem().read_vec(r_buf, short).unwrap();
        let landed = (k * FRAG) as usize;
        assert!(got[..landed] == packed[..landed], "{path:?}: landed bytes");
        assert!(
            got[landed..].iter().all(|&b| b == 0xA5),
            "{path:?}: the rest"
        );
        let m = sess.metrics();
        assert_eq!(m.counter(Counter::MpiDeliveredBytes), k * FRAG, "{path:?}");
        assert_eq!(m.counter(Counter::MemsimBytesMoved), k * FRAG, "{path:?}");
    }
}

/// Single doubles at irregular gaps of one to three doubles: no stride
/// describes them, so the kernel converts them from a unit list.
fn scattered_doubles(blocks: u64) -> DataType {
    let mut rng = simcore::rng::rng(blocks);
    let mut at = 0i64;
    let disps: Vec<i64> = (0..blocks)
        .map(|_| {
            at += 2 + rng.range_u64(0, 3) as i64;
            at
        })
        .collect();
    let lens = vec![1; blocks as usize];
    DataType::indexed(&lens, &disps, &DataType::double())
        .unwrap()
        .commit()
}

/// A lone typed end queues its own unit lists, and the queue moves
/// early once it holds too many units: single doubles at irregular gaps
/// — 512 units per fragment, thousands of fragments — are moved in
/// batches of dozens of fragments, not one batch and not one per
/// fragment, equal the reference, and take no more fresh unit buffers
/// when they are twice as long.
#[test]
fn a_long_fine_transfer_flushes_by_unit_budget_and_reuses_its_buffers() {
    let mut fresh = Vec::new();
    for blocks in [600u64 << 10, 1200 << 10] {
        let s_ty = scattered_doubles(blocks);
        let nfrags = s_ty.size().div_ceil(FRAG);
        let r_ty = dense(s_ty.size());
        let mut sess = session(Path::SmIpc, 4, FaultPlan::empty());
        let (s_buf, s_alloc, s_len, s_base) = alloc_typed(&mut sess, 0, &s_ty, 1);
        let (r_buf, r_alloc, r_len, _) = alloc_typed(&mut sess, 1, &r_ty, 1);
        let sent = pattern(s_len);
        sess.world.mem().write(s_alloc, &sent).unwrap();
        simcore::scratch::reset_stats();
        let s = isend(&mut sess, SendArgs::new(0, 1, s_buf, &s_ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, r_buf, &r_ty, 1));
        // Watch `Memory`'s traffic counter step: once per flush.
        let (mut flushes, mut moved) = (0u64, 0u64);
        while !(s.is_complete() && r.is_complete()) {
            assert!(sess.step(), "stalled");
            let now = sess.world.mem().bytes_moved();
            flushes += (now != moved) as u64;
            moved = now;
        }
        assert_eq!(moved, s_ty.size());
        assert!(
            flushes > 1 && flushes < nfrags / 10,
            "{flushes} flushes for {nfrags} fragments"
        );
        let got = sess.world.mem().read_vec(r_alloc, r_len as u64).unwrap();
        assert!(got == pack_all(&s_ty, 1, &sent, s_base), "bytes differ");
        fresh.push(simcore::scratch::stats().fresh);
        assert!(fresh[0] < nfrags / 4, "a buffer per fragment: {fresh:?}");
    }
    assert!(fresh[1] <= fresh[0], "buffers grew with length: {fresh:?}");
}

/// Freeing a buffer while its transfer has fragments queued: the next
/// landing's range check fails the transfer with a typed error, the
/// flush on the failure path meets the freed allocation and moves
/// nothing, and nothing panics — whichever end was freed.
#[test]
fn freeing_a_buffer_under_a_queued_transfer_is_a_typed_error() {
    let (s_ty, r_ty) = (lower_triangular(368), transposed_triangular(368));
    for free_recv in [false, true] {
        let mut sess = session(Path::CopyInOut, 4, FaultPlan::empty());
        let (s_buf, s_alloc, s_len, _) = alloc_typed(&mut sess, 0, &s_ty, 1);
        let (r_buf, r_alloc, _, _) = alloc_typed(&mut sess, 1, &r_ty, 1);
        sess.world.mem().write(s_alloc, &pattern(s_len)).unwrap();
        let s = isend(&mut sess, SendArgs::new(0, 1, s_buf, &s_ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, r_buf, &r_ty, 1));
        while sess.trace.counter(Counter::MpiDeliveredBytes) < 10 * FRAG {
            assert!(sess.step(), "stalled");
        }
        assert_eq!(sess.world.mem().bytes_moved(), 0, "landed, not yet moved");
        let freed = if free_recv { r_alloc } else { s_alloc };
        sess.world.mem().free(freed).unwrap();
        let failed = wait_all(&mut sess, &[s, r]);
        assert!(matches!(failed, Err(MpiError::Mem(_))), "{failed:?}");
        while sess.step() {}
        assert_eq!(
            sess.world.mem().bytes_moved(),
            0,
            "a failed batch is no traffic"
        );
    }
}

/// A seeded irregular layout: `blocks` runs of 1–8 doubles, 1–8
/// doubles apart — `pp_irregular`'s shape, scaled down. `seeds` draw
/// the run lengths and the gaps, so two layouts that share the first
/// seed carry the same doubles.
fn irregular(blocks: u64, seeds: (u64, u64)) -> DataType {
    let (mut lens, mut gaps) = (simcore::rng::rng(seeds.0), simcore::rng::rng(seeds.1));
    let mut at = 0i64;
    let (blocklens, disps): (Vec<u64>, Vec<i64>) = (0..blocks)
        .map(|_| {
            let (len, disp) = (lens.range_u64(1, 9), at);
            at += (len + gaps.range_u64(1, 9)) as i64;
            (len, disp)
        })
        .unzip();
    DataType::indexed(&blocklens, &disps, &DataType::double())
        .unwrap()
        .commit()
}

/// A seeded irregular cell, indexed ↔ indexed over InfiniBand: cold,
/// then warm twice through the cached move lists, whose reach the copy
/// layer trusts without scanning them again. Every run lands the
/// oracle's bytes — every gap byte of the receive buffer keeps its
/// value — and writes each delivered byte exactly once.
#[test]
fn a_seeded_irregular_cell_matches_the_oracle_cold_and_warm() {
    let (s_ty, r_ty) = (irregular(4096, (7, 11)), irregular(4096, (7, 13)));
    assert_eq!(s_ty.size(), r_ty.size());
    let nfrags = s_ty.size().div_ceil(FRAG);
    let mut sess = session(Path::CopyInOut, 2, FaultPlan::empty());
    let (s_buf, s_alloc, s_len, s_base) = alloc_typed(&mut sess, 0, &s_ty, 1);
    let (r_buf, r_alloc, r_len, r_base) = alloc_typed(&mut sess, 1, &r_ty, 1);
    let sent = pattern(s_len);
    sess.world.mem().write(s_alloc, &sent).unwrap();
    let before = vec![0xA5u8; r_len];
    let mut expect = before.clone();
    let packed = pack_all(&s_ty, 1, &sent, s_base);
    unpack_all(&r_ty, 1, &mut expect, r_base, &packed);
    assert!(r_len as u64 > r_ty.size(), "the layout has gaps");
    for run in 0..3 {
        sess.world.mem().write(r_alloc, &before).unwrap();
        let moved = sess.world.mem().bytes_moved();
        let delivered = sess.metrics().counter(Counter::MpiDeliveredBytes);
        let s = isend(&mut sess, SendArgs::new(0, 1, s_buf, &s_ty, 1));
        let r = irecv(&mut sess, RecvArgs::new(1, 0, r_buf, &r_ty, 1));
        wait_all(&mut sess, &[s, r]).expect("transfer failed");
        let got = sess.world.mem().read_vec(r_alloc, r_len as u64).unwrap();
        assert!(got == expect, "run {run}: bytes differ from the oracle");
        let delivered = sess.metrics().counter(Counter::MpiDeliveredBytes) - delivered;
        assert_eq!(delivered, s_ty.size(), "run {run}: delivered");
        let moved = sess.world.mem().bytes_moved() - moved;
        assert_eq!(
            moved, delivered,
            "run {run}: bytes moved per byte delivered"
        );
        let hits = sess.world.mpi.shapes.list_hits;
        assert_eq!(
            hits,
            run * nfrags,
            "run {run}: warm runs take the cached lists"
        );
    }
}
