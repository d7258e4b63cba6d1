//! Property test: a fragment moved once, typed → typed. Both engines
//! charge each fragment (moving nothing), the two unit lists merge
//! ([`merge_units`]) and land in one `Memory::transfer`; the receive
//! buffer must equal the convertor oracle's pack → unpack, on every
//! unit source, optimizer setting and fragment size. (That the unit
//! sources themselves agree is `devengine::dev`'s `unit_sources_prop`,
//! beside the crate-private cursor.)

use datatype::convertor::{pack_all, unpack_all};
use datatype::testutil::{
    arb_datatype, buffer_span, lower_triangular, pattern, transposed_triangular,
};
use datatype::DataType;
use devengine::{
    build_plan, flip_units_in_place, merge_units, DevCache, Direction, EngineConfig,
    FragmentEngine, MergeError, OptimizerConfig,
};
use gpusim::NodeWorld;
use memsim::{GpuId, MemSpace, Ptr};
use simcore::par::CopyOp;
use simcore::rng::SimRng;
use simcore::trace::names;
use simcore::Sim;
use std::cell::RefCell;
use std::rc::Rc;

/// `count` elements of `ty` laid out another way: the same type
/// signature, a different byte layout.
fn relayout(rng: &mut SimRng, ty: &DataType, count: u64) -> (DataType, u64) {
    let gap = rng.range_u64(0, 3) as i64;
    let (t, c) = match rng.range(0, 4) {
        0 => (DataType::contiguous(count, ty).unwrap(), 1),
        1 => (DataType::vector(count, 1, 1 + gap, ty).unwrap(), 1),
        2 => {
            let span = (ty.true_ub() - ty.true_lb().min(0)).max(1);
            let wide = DataType::resized(ty, ty.lb().min(0), span + 8 * gap).unwrap();
            (wide, count)
        }
        _ => (ty.clone(), count),
    };
    (t.commit(), c)
}

/// A typed device buffer for `count × ty`: the displacement-0 pointer,
/// the whole allocation, and the bytes it holds.
fn typed_buffer(
    sim: &mut Sim<NodeWorld>,
    ty: &DataType,
    count: u64,
    fill: bool,
) -> (Ptr, Ptr, Vec<u8>, i64) {
    let (base, len) = buffer_span(ty, count);
    let alloc = sim
        .world
        .memory
        .alloc(MemSpace::Device(GpuId(0)), len.max(1) as u64)
        .unwrap();
    let bytes = if fill { pattern(len) } else { vec![0u8; len] };
    sim.world.memory.write(alloc, &bytes).unwrap();
    (alloc.add(base as u64), alloc, bytes, base)
}

/// The next fragment's unit list in pack orientation, the way the
/// rendezvous executor obtains it: charge the conversion (which moves
/// nothing), take the list handed back, flip an unpack's.
fn charged_units(
    sim: &mut Sim<NodeWorld>,
    eng: &mut FragmentEngine,
    dir: Direction,
    ring: Ptr,
    cap: u64,
) -> (u64, Vec<CopyOp>) {
    let got = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&got);
    eng.charge_fragment(
        sim,
        ring,
        cap,
        Some(Vec::new()),
        |_| {},
        move |_, n, units| *sink.borrow_mut() = Some((n, units)),
    );
    sim.run();
    let (n, mut units) = got.borrow_mut().take().expect("charge completed");
    if dir == Direction::Unpack {
        flip_units_in_place(&mut units);
    }
    (n, units)
}

/// Send `s_count × s_ty` into `r_count × r_ty` fragment by fragment —
/// both engines charged, each fragment's two lists merged and applied
/// in one `Memory::transfer` — and compare the receive buffer with the
/// convertor oracle `unpack_all(pack_all(src))`. Returns how many
/// engines each unit source kind served.
fn check_merge(
    (s_ty, s_count): (&DataType, u64),
    (r_ty, r_count): (&DataType, u64),
    frag: u64,
    optimizer: OptimizerConfig,
    cached: bool,
    note: &str,
) -> [u64; 4] {
    let mut sim = Sim::new(NodeWorld::new(1));
    let total = s_ty.size() * s_count;
    assert!(total <= r_ty.size() * r_count, "{note}: receive too small");
    let (s_typed, _, s_bytes, s_base) = typed_buffer(&mut sim, s_ty, s_count, true);
    let (r_typed, r_alloc, r_bytes, r_base) = typed_buffer(&mut sim, r_ty, r_count, false);
    let mut expect = r_bytes;
    unpack_all(
        r_ty,
        r_count,
        &mut expect,
        r_base,
        &pack_all(s_ty, s_count, &s_bytes, s_base),
    );
    // The fragment slot the kernels are priced against; never written.
    let ring = sim
        .world
        .memory
        .alloc(MemSpace::Device(GpuId(0)), frag.min(total).max(1))
        .unwrap();

    let cfg = EngineConfig {
        optimizer,
        ..EngineConfig::default()
    };
    let cache = cached.then(|| Rc::new(RefCell::new(DevCache::default())));
    let stream = sim.world.gpu_system.default_stream(GpuId(0));
    let engine = |sim: &mut Sim<NodeWorld>, ty, count, typed, dir| {
        let cfg = cfg.clone();
        FragmentEngine::new(sim, 0, stream, ty, count, typed, dir, cfg, cache.as_ref()).unwrap()
    };
    let mut s_eng = engine(&mut sim, s_ty, s_count, s_typed, Direction::Pack);
    let mut r_eng = engine(&mut sim, r_ty, r_count, r_typed, Direction::Unpack);

    let mut merged = Vec::new();
    let mut moved = 0u64;
    while moved < total {
        let cap = frag.min(total - moved);
        let (n, s_units) = charged_units(&mut sim, &mut s_eng, Direction::Pack, ring, cap);
        let (m, r_units) = charged_units(&mut sim, &mut r_eng, Direction::Unpack, ring, cap);
        assert_eq!((n, m), (cap, cap), "{note}: fragment sizes");
        merge_units(&s_units, &r_units, n as usize, &mut merged)
            .unwrap_or_else(|e| panic!("{note}: frag {frag} at {moved}: {e}"));
        assert_eq!(merged.iter().map(|u| u.len as u64).sum::<u64>(), n);
        sim.world
            .memory
            .transfer(s_eng.typed_base(), r_eng.typed_base(), &merged)
            .unwrap();
        moved += n;
    }
    let got = sim
        .world
        .memory
        .read_vec(r_alloc, expect.len() as u64)
        .unwrap();
    assert!(
        got == expect,
        "{note}: frag {frag} opt {optimizer:?} cached {cached}: bytes differ from the oracle"
    );
    assert_eq!(sim.world.memory.bytes_moved(), total, "{note}: moved once");
    let slot = sim
        .world
        .memory
        .read_vec(ring, frag.min(total).max(1))
        .unwrap();
    assert!(slot.iter().all(|&b| b == 0), "{note}: the slot was written");
    [
        names::DEVENGINE_SOURCE_FRESH,
        names::DEVENGINE_SOURCE_CACHED,
        names::DEVENGINE_SOURCE_VECTOR,
        names::DEVENGINE_SOURCE_STRIDED2D,
    ]
    .map(|c| sim.trace.counter(c))
}

#[test]
fn merged_fragments_equal_pack_then_unpack() {
    let unit = EngineConfig::default().unit_size;
    let mut sources = [0u64; 4];
    let mut run = |s: (&DataType, u64), r: (&DataType, u64), note: &str| {
        let total = s.0.size() * s.1;
        if total == 0 {
            return;
        }
        // Around the unit size, the protocol's 512 KiB, the whole
        // message — and two sizes small enough to cut the generator's
        // tiny types mid-block.
        for frag in [7, 64, unit - 1, unit, 512 << 10, total] {
            for optimizer in [OptimizerConfig::enabled(), OptimizerConfig::disabled()] {
                for cached in [false, true] {
                    let by_kind = check_merge(s, r, frag, optimizer, cached, note);
                    for (sum, n) in sources.iter_mut().zip(by_kind) {
                        *sum += n;
                    }
                }
            }
        }
    };
    for seed in 0..40u64 {
        let mut rng = SimRng::new(0x3E26E ^ seed);
        let ty = arb_datatype(&mut rng).commit();
        let count = rng.range_u64(1, 4);
        let (other, other_count) = relayout(&mut rng, &ty, count);
        let note = format!("seed {seed}");
        run((&ty, count), (&other, other_count), &note);
        run((&other, other_count), (&ty, count), &note);
    }
    // The paper's shapes, big enough for many fragments: a long run on
    // one side against 8-byte units on the other, a vector, a transpose,
    // and a receive posted longer than the message.
    let (tri, tri_t) = (lower_triangular(40), transposed_triangular(40));
    run((&tri, 1), (&tri_t, 1), "triangular -> transposed");
    run((&tri_t, 1), (&tri, 1), "transposed -> triangular");
    let sub = DataType::vector(24, 24, 48, &DataType::double())
        .unwrap()
        .commit();
    let dense = DataType::contiguous(24 * 24, &DataType::double())
        .unwrap()
        .commit();
    run((&sub, 1), (&dense, 1), "submatrix -> dense");
    let col = DataType::vector(24, 1, 24, &DataType::double()).unwrap();
    let transpose = DataType::hvector(24, 1, 8, &col).unwrap().commit();
    run((&dense, 1), (&transpose, 1), "dense -> transpose");
    run((&sub, 1), (&transpose, 2), "submatrix -> longer receive");
    assert!(
        sources.iter().all(|&n| n > 0),
        "a unit source kind was never exercised (fresh, cached, vector, strided2d): {sources:?}"
    );
}

#[test]
fn a_misaligned_or_short_list_is_a_typed_error() {
    let tri = lower_triangular(24);
    let send = build_plan(&tri, 1, 256).unwrap().units;
    let recv = build_plan(&transposed_triangular(24), 1, 256)
        .unwrap()
        .units;
    let window = tri.size() as usize;
    let mut out = Vec::new();
    assert_eq!(merge_units(&send, &recv, window, &mut out), Ok(()));

    // What a list holds past the window is not looked at (a receive
    // posted longer than the message); a window past a list is short.
    assert_eq!(merge_units(&send, &recv, window - 100, &mut out), Ok(()));
    assert_eq!(out.iter().map(|u| u.len).sum::<usize>(), window - 100);
    let short = MergeError::Short {
        covered: window,
        window: window + 1,
    };
    assert_eq!(merge_units(&send, &recv, window + 1, &mut out), Err(short));

    let mut rng = SimRng::new(0xBAD);
    for _ in 0..200 {
        let (mut s, mut r) = (send.clone(), recv.clone());
        let list = if rng.range(0, 2) == 0 { &mut s } else { &mut r };
        let at = rng.range(0, list.len() - 1);
        let want_short = match rng.range(0, 4) {
            // Drop the tail: the list ends before the window does.
            0 => {
                list.truncate(at);
                true
            }
            // A hole, an overlap, a swapped pair, a dropped unit: some
            // unit no longer starts where its predecessor ended.
            1 => {
                list[at].dst_off += 8;
                false
            }
            2 => {
                list[at + 1].dst_off -= 8;
                false
            }
            _ => {
                list.remove(at);
                false
            }
        };
        match merge_units(&s, &r, window, &mut out) {
            Err(MergeError::Short { covered, .. }) => {
                assert!(want_short && covered < window)
            }
            Err(MergeError::Misaligned { unit_at, expected }) => {
                assert!(!want_short && unit_at != expected)
            }
            Ok(()) => panic!("a corrupted list merged silently"),
        }
    }
}
