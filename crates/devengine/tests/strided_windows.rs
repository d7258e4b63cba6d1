//! Property test: a strided window is checked, priced and moved by
//! closed forms that equal the list forms over its
//! [`strided_units`] — the oracle — exactly.
//!
//! Over seeded random shapes ([`arb_strided`]: negative strides, the
//! vector form, blocks of any byte length) and windows cut anywhere,
//! mid-block included, in both directions:
//!
//! * a window's closed-form [`Segs::reach`] is its list's scanned one;
//! * [`KernelTraffic::of_window`] is [`KernelTraffic::of`] the list, on
//!   every registry arch, with the typed end local, on a peer GPU or in
//!   mapped host memory, at every phase of the line;
//! * the bounds verdict is the per-segment one: a window into buffers
//!   that hold it exactly moves, and one byte past either buffer — or
//!   below the typed base — fails, listed or not, before a byte moves;
//! * a window that moves lands the list's bytes and no others, in
//!   separate allocations and in one (aliased) allocation, with and
//!   without streaming stores.

use datatype::testutil::arb_strided;
use gpusim::{GpuArch, KernelTraffic};
use memsim::{AllocId, GpuId, MemError, MemSpace, Memory, Move, Ptr};
use simcore::par::{strided_units, CopyOp, OpList, Segs, Strided2D, StridedWindow};
use simcore::rng::SimRng;

const CASES: usize = 300;

/// Cuts of a `total`-byte stream: random ones, one inside the first
/// block, its end, and the end of the first row.
fn cuts(rng: &mut SimRng, s: &Strided2D, total: u64) -> Vec<u64> {
    let row = s.block_bytes * s.inner.min(total / s.block_bytes);
    let mut cuts = vec![0, total, s.block_bytes / 2, s.block_bytes, row];
    cuts.extend((0..5).map(|_| rng.range_u64(0, total + 1)));
    cuts.retain(|&c| c <= total);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Every window of `cuts`, and the whole stream, both directions, with
/// typed offsets `slack` bytes above the lowest block.
fn windows(rng: &mut SimRng) -> Vec<StridedWindow> {
    let (shape, lo, total) = arb_strided(rng);
    let cuts = cuts(rng, &shape, total);
    let spans = cuts.windows(2).map(|c| (c[0], c[1])).chain([(0, total)]);
    let slack = rng.range_u64(0, 300) as i64;
    spans
        .flat_map(|(from, to)| {
            [false, true].map(|unpack| StridedWindow {
                shape,
                base_shift: lo - slack,
                from,
                to,
                unpack,
            })
        })
        .collect()
}

fn listed(w: &StridedWindow) -> Vec<CopyOp> {
    let mut units = Vec::new();
    strided_units(w, &mut units);
    units
}

#[test]
fn extent_and_traffic_in_closed_form_equal_the_list_forms() {
    let mut rng = simcore::rng::rng(0x5171_dead);
    let gpu = GpuId(0);
    let (local, peer, host) = (
        MemSpace::Device(gpu),
        MemSpace::Device(GpuId(1)),
        MemSpace::Host,
    );
    // (typed end, packed end): the kernel's GPU holds at least one.
    let placements = [
        (local, local),
        (local, host),
        (local, peer),
        (peer, local),
        (host, local),
    ];
    let mut priced = 0;
    for _ in 0..CASES {
        for w in windows(&mut rng) {
            let units = listed(&w);
            assert_eq!(w.segments(), units.len() as u64, "{w:?}");
            assert_eq!(
                Segs::Strided(w).reach(),
                OpList::new(&units).reach(),
                "{w:?}"
            );
            for arch in GpuArch::registry() {
                let spec = arch.spec();
                for (typed, packed) in placements {
                    let at = |space, rng: &mut SimRng| Ptr {
                        space,
                        alloc: AllocId(0),
                        offset: rng.range_u64(0, 4096),
                    };
                    let (t, p) = (at(typed, &mut rng), at(packed, &mut rng));
                    let (src, dst) = if w.unpack { (p, t) } else { (t, p) };
                    assert_eq!(
                        KernelTraffic::of_window(&w, src, dst, gpu, &spec),
                        KernelTraffic::of(&units, src, dst, gpu, &spec),
                        "{} {w:?} {src} -> {dst}",
                        arch.name
                    );
                    priced += 1;
                }
            }
        }
    }
    assert!(priced > 50_000, "{priced} windows priced");
}

/// The one window of the transpose cells — 65 536 8-byte blocks in one
/// 512 KiB fragment — and a vector with a stride of an odd byte count,
/// whose phases never repeat before a whole line: the long runs the
/// closed form folds by period.
#[test]
fn long_windows_price_exactly() {
    let n = 256u64;
    let transpose = Strided2D {
        outer: n,
        inner: n,
        block_bytes: 8,
        inner_stride: 8 * n as i64,
        outer_stride: 8,
        first_disp: 0,
    };
    let odd_vector = Strided2D {
        outer: 1,
        inner: u64::MAX,
        block_bytes: 100,
        inner_stride: -301,
        outer_stride: 0,
        first_disp: 0,
    };
    let gpu = GpuId(0);
    for (shape, base_shift, total) in [
        (transpose, 0, n * n * 8),
        (odd_vector, -301 * 4000, 400_000),
    ] {
        for (from, to) in [(0, total), (3, total - 5), (total / 3, total / 2)] {
            for unpack in [false, true] {
                let w = StridedWindow {
                    shape,
                    base_shift,
                    from,
                    to,
                    unpack,
                };
                let units = listed(&w);
                for arch in GpuArch::registry() {
                    let spec = arch.spec();
                    let (t, p) = (
                        Ptr {
                            space: MemSpace::Device(gpu),
                            alloc: AllocId(0),
                            offset: 40,
                        },
                        Ptr {
                            space: MemSpace::Device(gpu),
                            alloc: AllocId(1),
                            offset: 72,
                        },
                    );
                    let (src, dst) = if unpack { (p, t) } else { (t, p) };
                    assert_eq!(
                        KernelTraffic::of_window(&w, src, dst, gpu, &spec),
                        KernelTraffic::of(&units, src, dst, gpu, &spec),
                        "{} {w:?}",
                        arch.name
                    );
                }
            }
        }
    }
}

/// A memory with a typed buffer of `typed_len` bytes and a packed one
/// of `packed_len`, both filled with distinct patterns.
fn buffers(typed_len: u64, packed_len: u64) -> (Memory, Ptr, Ptr) {
    let mut m = Memory::new(2, 64 << 20);
    let typed = m.alloc(MemSpace::Device(GpuId(0)), typed_len).unwrap();
    let packed = m.alloc(MemSpace::Host, packed_len).unwrap();
    let fill = |len: u64, k: u64| {
        (0..len)
            .map(|i| (i * k % 251) as u8 + 1)
            .collect::<Vec<_>>()
    };
    m.write(typed, &fill(typed_len, 7)).unwrap();
    m.write(packed, &fill(packed_len, 13)).unwrap();
    (m, typed, packed)
}

/// Move `w` between `typed` and `packed`, as a window and — in a twin
/// memory — as its list: the two verdicts, and on success the two
/// memories' bytes, must agree.
fn land_both_ways(
    w: &StridedWindow,
    typed_len: u64,
    packed_len: u64,
    shift: (u64, u64),
    stream: bool,
) -> Result<(), MemError> {
    let units = listed(w);
    let mut results = Vec::new();
    let mut landed = Vec::new();
    for as_window in [true, false] {
        let (mut m, typed, packed) = buffers(typed_len, packed_len);
        let (t, p) = (typed.add(shift.0), packed.add(shift.1));
        let (src, dst) = if w.unpack { (p, t) } else { (t, p) };
        let segs = if as_window {
            Segs::Strided(*w)
        } else {
            Segs::List(OpList::new(&units))
        };
        let entry = Move {
            src,
            dst,
            segs,
            stream,
        };
        results.push(m.transfer_batch(&[entry]));
        landed.push((
            m.read_vec(typed, typed_len).unwrap(),
            m.read_vec(packed, packed_len).unwrap(),
            m.bytes_moved(),
        ));
    }
    assert_eq!(results[0], results[1], "verdicts differ: {w:?}");
    assert!(
        landed[0] == landed[1],
        "bytes differ: {w:?} stream {stream}"
    );
    results.pop().unwrap_or(Ok(()))
}

#[test]
fn the_bounds_verdict_and_the_bytes_are_the_lists() {
    let mut rng = simcore::rng::rng(0xb0_0d5);
    let (mut moved, mut refused) = (0, 0);
    for case in 0..CASES {
        let stream = case % 2 == 0;
        for w in windows(&mut rng) {
            let n = w.bytes();
            let need = Segs::Strided(w).reach();
            let typed_need = if w.unpack {
                need.dst_need
            } else {
                need.src_need
            };
            if n == 0 {
                continue;
            }
            // Exactly enough: moves, and leaves every other byte alone.
            land_both_ways(&w, typed_need, n, (0, 0), stream).expect("a window that fits moves");
            // Room to spare, at a shifted base.
            land_both_ways(&w, typed_need + 9, n + 5, (9, 5), stream).unwrap();
            moved += 2;
            // One byte short on either side, or one byte past either
            // base: refused before a byte moves.
            for (typed_len, packed_len, shift) in [
                (typed_need - 1, n, (0, 0)),
                (typed_need, n - 1, (0, 0)),
                (typed_need, n, (1, 0)),
                (typed_need, n, (0, 1)),
            ] {
                let err = land_both_ways(&w, typed_len, packed_len, shift, stream);
                assert!(
                    matches!(err, Err(MemError::OutOfBounds { .. })),
                    "{w:?}: {err:?}"
                );
                refused += 1;
            }
            // A base one byte above the lowest block: that block would
            // start below it, which no allocation holds.
            let below = StridedWindow {
                base_shift: w.base_shift + typed_need as i64,
                ..w
            };
            let err = land_both_ways(&below, 2 * typed_need, n, (typed_need, 0), stream);
            let lowest = listed(&below)
                .iter()
                .map(|u| if w.unpack { u.dst_off } else { u.src_off })
                .min();
            if lowest.is_some_and(|off| off as i64 >= 0) {
                assert!(err.is_ok(), "{below:?}");
            } else {
                assert!(
                    matches!(err, Err(MemError::OutOfBounds { .. })),
                    "{below:?}: {err:?}"
                );
                refused += 1;
            }
        }
    }
    assert!(
        moved > 1000 && refused > 2000,
        "{moved} moved, {refused} refused"
    );
}

/// Typed and packed ends in one allocation: a strided move inside one
/// buffer gathers every source segment before it writes, as a listed
/// one does — whether the packed region lies apart from the typed
/// blocks or over them.
#[test]
fn an_aliased_window_lands_the_lists_bytes() {
    let mut rng = simcore::rng::rng(0xa11a5);
    for case in 0..CASES {
        for w in windows(&mut rng) {
            let units = listed(&w);
            let need = Segs::Strided(w).reach();
            let typed_need = if w.unpack {
                need.dst_need
            } else {
                need.src_need
            };
            let n = w.bytes();
            // The packed region past the typed blocks, or over them.
            let packed_at = if case % 2 == 0 {
                typed_need
            } else {
                rng.range_u64(0, typed_need + 1)
            };
            let len = typed_need.max(packed_at + n);
            let mut landed = Vec::new();
            for as_window in [true, false] {
                let mut m = Memory::new(1, 1 << 20);
                let buf = m.alloc(MemSpace::Device(GpuId(0)), len).unwrap();
                m.write(buf, &(0..len).map(|i| (i % 253) as u8).collect::<Vec<_>>())
                    .unwrap();
                let (t, p) = (buf, buf.add(packed_at));
                let (src, dst) = if w.unpack { (p, t) } else { (t, p) };
                let (segs, stream) = if as_window {
                    (Segs::Strided(w), case % 3 == 0)
                } else {
                    (Segs::List(OpList::new(&units)), false)
                };
                let entry = Move {
                    src,
                    dst,
                    segs,
                    stream,
                };
                m.transfer_batch(&[entry]).unwrap();
                landed.push(m.read_vec(buf, len).unwrap());
            }
            assert!(landed[0] == landed[1], "{w:?}");
        }
    }
}
