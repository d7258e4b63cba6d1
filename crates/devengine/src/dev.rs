//! DEV generation: datatype → segment stream → CUDA-DEV work units.
//!
//! Work units are emitted in *packed-stream order*: for a pack, a unit's
//! `dst_off` equals its byte position in the packed stream (and
//! symmetrically `src_off` for an unpack). This ordering is what lets a
//! fragment of the packed stream be described by a contiguous run of
//! units, which both the fragment engine and the cache slicing rely on.
//!
//! `DevCursor` walks a descriptor program directly. It is
//! crate-private: the fragment engine and the CPU convertor drive it,
//! and every other crate builds on the wrapped walks ([`whole_units`],
//! [`flip_units`]) or an engine, so each executor charges time and
//! faults at one layer.

use crate::cache::Lru;
use datatype::{Convertor, DataType, PackKind, TypeError};
use gpusim::{GpuSpec, KernelTraffic, Pow2};
use memsim::{GpuId, MemSpace, Ptr};
use simcore::par::CopyOp;
use std::cell::RefCell;

/// A borrowed view of the units covering one packed range: at most one
/// boundary-trimmed unit on each side plus an untouched middle run of
/// the plan's own units. All offsets are the plan's *absolute* packed
/// offsets — see [`DevPlan::slice_into`] for the rebased form a fragment
/// buffer needs.
#[derive(Debug)]
pub struct SliceParts<'a> {
    /// First unit, trimmed, when the range starts mid-unit.
    pub head: Option<CopyOp>,
    /// Units fully inside the range, borrowed from the plan.
    pub middle: &'a [CopyOp],
    /// Last unit, trimmed, when the range ends mid-unit.
    pub tail: Option<CopyOp>,
}

/// Everything [`KernelTraffic::of`] reads, for one window of one plan:
/// the exact inputs of the summary a plan keeps per launch it has seen.
/// Placement is part of it — each side's offset sets the phase of every
/// unit against the DRAM lines, and its space decides DRAM or PCIe — so
/// the same window through two ring slots is two keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct TrafficKey {
    /// Packed window `[from, to)` of the plan.
    window: (u64, u64),
    /// Kernel orientation: is the typed side the destination?
    unpack: bool,
    src: (MemSpace, u64),
    dst: (MemSpace, u64),
    exec_gpu: GpuId,
    /// The spec's access geometry (transaction, warp chunk).
    geometry: (Pow2, Pow2),
}

impl TrafficKey {
    pub(crate) fn new(
        window: (u64, u64),
        unpack: bool,
        (src, dst): (Ptr, Ptr),
        exec_gpu: GpuId,
        spec: &GpuSpec,
    ) -> TrafficKey {
        TrafficKey {
            window,
            unpack,
            src: (src.space, src.offset),
            dst: (dst.space, dst.offset),
            exec_gpu,
            geometry: (spec.transaction_bytes, spec.warp_chunk()),
        }
    }
}

/// Bound on the traffic summaries one plan keeps (a ping-pong uses
/// fragments × ring slots × 2 directions of them; each is ~100 bytes).
const MAX_TRAFFIC_MEMOS: usize = 1024;

/// A fully materialized CUDA-DEV plan for `count` instances of a type,
/// in **pack orientation** (src = typed memory, dst = packed stream).
#[derive(Clone, Debug)]
pub struct DevPlan {
    /// Work units in packed-stream order.
    pub units: Vec<CopyOp>,
    /// Displacement subtracted from every typed-side offset so that all
    /// offsets are non-negative (`min(0, true_lb)`); the kernel's typed
    /// base pointer must be shifted by this amount.
    pub base_shift: i64,
    /// Total packed bytes.
    pub total_bytes: u64,
    /// Unit size the plan was built with.
    pub unit_size: u64,
    /// Kernel traffic of the windows of this plan launched so far,
    /// least recently used first out. It lives in the plan, so it goes
    /// when the plan's cache entry does.
    traffic: RefCell<Lru<TrafficKey, KernelTraffic>>,
}

impl DevPlan {
    /// The traffic of a launch this plan has priced before.
    pub(crate) fn known_traffic(&self, key: &TrafficKey) -> Option<KernelTraffic> {
        self.traffic.borrow_mut().get(key).copied()
    }

    /// Keep `traffic` — [`KernelTraffic::of`] the window's units between
    /// the key's places — for the next launch under the same key.
    pub(crate) fn remember_traffic(&self, key: TrafficKey, traffic: KernelTraffic) {
        self.traffic.borrow_mut().insert(key, traffic, 0);
    }

    /// Approximate device memory the cached descriptor array occupies
    /// (the paper's "a few MBs of GPU memory to cache the CUDA DEVs").
    pub fn descriptor_bytes(&self) -> u64 {
        self.units.len() as u64 * 32
    }

    /// The units covering packed range `[from, to)` as a borrowed view:
    /// the interior units come straight from the plan (no copy), with at
    /// most two boundary-split ops materialized for ranges that start or
    /// end mid-unit. Offsets stay absolute.
    pub(crate) fn slice_parts(&self, from: u64, to: u64) -> SliceParts<'_> {
        debug_assert!(from <= to && to <= self.total_bytes);
        // Units are sorted by dst_off; binary search both boundaries.
        let start = self
            .units
            .partition_point(|u| (u.dst_off + u.len) as u64 <= from);
        let end = self.units.partition_point(|u| (u.dst_off as u64) < to);
        let mut middle = &self.units[start..end];
        let mut head = None;
        let mut tail = None;
        if let Some(first) = middle.first() {
            let u_start = first.dst_off as u64;
            let u_end = u_start + first.len as u64;
            let lo = from.max(u_start);
            let hi = to.min(u_end);
            if hi <= lo {
                // Empty window (from == to) landing inside a unit.
                middle = &middle[..0];
            } else if lo > u_start || hi < u_end {
                head = Some(CopyOp {
                    src_off: first.src_off + (lo - u_start) as usize,
                    dst_off: lo as usize,
                    len: (hi - lo) as usize,
                });
                middle = &middle[1..];
            }
        }
        if let Some(last) = middle.last() {
            let u_start = last.dst_off as u64;
            let u_end = u_start + last.len as u64;
            let hi = to.min(u_end);
            if hi < u_end {
                tail = Some(CopyOp {
                    src_off: last.src_off,
                    dst_off: last.dst_off,
                    len: (hi - u_start) as usize,
                });
                middle = &middle[..middle.len() - 1];
            }
        }
        SliceParts { head, middle, tail }
    }

    /// Fill `out` (cleared first) with the units covering packed range
    /// `[from, to)`, rebased so the packed-side offset is relative to
    /// `from` (a fragment buffer). Units straddling the boundary are
    /// trimmed. Allocation-free once `out` has warmed up.
    pub fn slice_into(&self, from: u64, to: u64, out: &mut Vec<CopyOp>) {
        out.clear();
        let parts = self.slice_parts(from, to);
        let rebase = |u: &CopyOp| CopyOp {
            src_off: u.src_off,
            dst_off: u.dst_off - from as usize,
            len: u.len,
        };
        if let Some(h) = &parts.head {
            out.push(rebase(h));
        }
        out.extend(parts.middle.iter().map(rebase));
        if let Some(t) = &parts.tail {
            out.push(rebase(t));
        }
    }

    /// Allocating convenience wrapper over [`Self::slice_into`].
    pub fn slice(&self, from: u64, to: u64) -> Vec<CopyOp> {
        let mut out = Vec::new();
        self.slice_into(from, to, &mut out);
        out
    }
}

/// Swap pack orientation into unpack orientation (packed stream becomes
/// the source, typed memory the destination).
pub fn flip_units(units: &[CopyOp]) -> Vec<CopyOp> {
    units
        .iter()
        .map(|u| CopyOp {
            src_off: u.dst_off,
            dst_off: u.src_off,
            len: u.len,
        })
        .collect()
}

/// In-place variant of [`flip_units`] for the allocation-free unpack
/// path (the unit buffer is scratch anyway).
pub fn flip_units_in_place(units: &mut [CopyOp]) {
    for u in units {
        std::mem::swap(&mut u.src_off, &mut u.dst_off);
    }
}

/// Contiguous runs of a unit list, as the coalescing walk would emit
/// them: a unit starts a run unless it starts where the previous one
/// ended on both sides.
pub fn runs(units: &[CopyOp]) -> u64 {
    let (mut runs, mut end) = (0, None);
    for u in units {
        runs += u64::from(end != Some((u.src_off, u.dst_off)));
        end = Some((u.src_off + u.len, u.dst_off + u.len));
    }
    runs
}

/// Why two unit lists could not be merged over a packed window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergeError {
    /// A unit does not start where its predecessor ended in the packed
    /// stream: the list is not ascending and gap-free from offset 0.
    Misaligned { unit_at: usize, expected: usize },
    /// A list ran out before the window was covered.
    Short { covered: usize, window: usize },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MergeError::Misaligned { unit_at, expected } => write!(
                f,
                "unit list misaligned: unit at packed offset {unit_at}, expected {expected}"
            ),
            MergeError::Short { covered, window } => write!(
                f,
                "unit list covers {covered} of a {window}-byte packed window"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merge the sender's and the receiver's unit lists over the packed
/// window `[0, window)` into direct typed → typed moves, appended to
/// `out` (cleared first): the packed stream is the merge index, never
/// memory. Both lists are in **pack orientation** (`src_off` typed,
/// `dst_off` packed) and must be ascending and gap-free in packed
/// offset from 0 — what every unit source yields — which is checked
/// unit by unit; whatever a list holds past `window` is ignored. In the
/// result `src_off` is relative to the sender's typed base and
/// `dst_off` to the receiver's.
pub fn merge_units(
    send: &[CopyOp],
    recv: &[CopyOp],
    window: usize,
    out: &mut Vec<CopyOp>,
) -> Result<(), MergeError> {
    // The unit of `list` the merge stands in, `used` bytes into it.
    let unit_at = |list: &[CopyOp], idx: usize, used: usize, pos: usize| {
        let u = *list.get(idx).ok_or(MergeError::Short {
            covered: pos,
            window,
        })?;
        if u.dst_off + used != pos {
            return Err(MergeError::Misaligned {
                unit_at: u.dst_off,
                expected: pos - used,
            });
        }
        Ok(u)
    };
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    let (mut si, mut rj) = (0usize, 0usize);
    let mut pos = 0usize;
    while pos < window {
        let s = unit_at(send, i, si, pos)?;
        let r = unit_at(recv, j, rj, pos)?;
        let take = (s.len - si).min(r.len - rj).min(window - pos);
        if take > 0 {
            out.push(CopyOp {
                src_off: s.src_off + si,
                dst_off: r.src_off + rj,
                len: take,
            });
        }
        si += take;
        rj += take;
        pos += take;
        if si == s.len {
            i += 1;
            si = 0;
        }
        if rj == r.len {
            j += 1;
            rj = 0;
        }
    }
    Ok(())
}

/// One-shot DEV walk: the full unit list for `count` elements of `ty`
/// in pack orientation (`src_off` typed, `dst_off` packed from 0),
/// plus the typed-side `base_shift`. Whole-message consumers — the
/// stream-triggered capture bakes its graph kernels from this — get
/// their program without driving a cursor fragment by fragment.
pub fn whole_units(
    ty: &DataType,
    count: u64,
    unit_size: u64,
    coalesce: bool,
) -> Result<(Vec<CopyOp>, i64), TypeError> {
    let mut cur = DevCursor::with_coalesce(ty, count, unit_size, coalesce)?;
    let shift = cur.base_shift();
    let mut units = Vec::new();
    cur.next_units_into(u64::MAX, &mut units);
    Ok((units, shift))
}

/// Streaming DEV generator: wraps the stack-based convertor and splits
/// segments into `unit_size` work units on demand — the CPU half of the
/// paper's pipeline.
pub(crate) struct DevCursor {
    cv: Convertor,
    unit_size: u64,
    /// Coalesce mode: one work unit per contiguous run instead of
    /// splitting runs at `unit_size` boundaries (the optimizer's DEV
    /// coalescing pass — fewer, larger units for the cost model).
    coalesce: bool,
    base_shift: i64,
}

impl DevCursor {
    pub fn new(ty: &DataType, count: u64, unit_size: u64) -> Result<DevCursor, TypeError> {
        DevCursor::with_coalesce(ty, count, unit_size, false)
    }

    /// Like [`DevCursor::new`] with an explicit coalescing mode.
    pub fn with_coalesce(
        ty: &DataType,
        count: u64,
        unit_size: u64,
        coalesce: bool,
    ) -> Result<DevCursor, TypeError> {
        Ok(DevCursor {
            cv: Convertor::new(ty, count, PackKind::Pack)?,
            unit_size,
            coalesce,
            base_shift: ty.true_lb().min(0),
        })
    }

    pub fn base_shift(&self) -> i64 {
        self.base_shift
    }

    pub fn position(&self) -> u64 {
        self.cv.position()
    }

    /// Clear `out` and fill it with the units covering the next
    /// `max_packed` bytes of the packed stream (pack orientation,
    /// absolute packed offsets), straight from the convertor's segments.
    pub fn next_units_into(&mut self, max_packed: u64, out: &mut Vec<CopyOp>) {
        out.clear();
        let (coalesce, unit_size, shift) = (self.coalesce, self.unit_size, self.base_shift);
        self.cv.for_next_segments(max_packed, |seg, packed_pos| {
            if coalesce {
                push_coalesced(seg.disp - shift, packed_pos, seg.len, out);
            } else {
                split_segment(seg.disp - shift, packed_pos, seg.len, unit_size, out);
            }
        });
    }
}

/// Append one coalesced work unit, merging with the previous unit when
/// the two are adjacent on both the typed and the packed side (a run the
/// convertor clipped at a batch boundary).
fn push_coalesced(src_disp: i64, packed_pos: u64, len: u64, out: &mut Vec<CopyOp>) {
    debug_assert!(
        src_disp >= 0,
        "segment displacement not normalized: {src_disp}"
    );
    if let Some(last) = out.last_mut() {
        if last.src_off + last.len == src_disp as usize
            && last.dst_off + last.len == packed_pos as usize
        {
            last.len += len as usize;
            return;
        }
    }
    out.push(CopyOp {
        src_off: src_disp as usize,
        dst_off: packed_pos as usize,
        len: len as usize,
    });
}

/// Split one DEV (a contiguous segment) into CUDA-DEV units of at most
/// `unit_size` bytes. The residue stays a smaller unit, treated like any
/// other (the paper found delegating residues to a second stream not
/// worth the extra launch).
fn split_segment(src_disp: i64, packed_pos: u64, len: u64, unit_size: u64, out: &mut Vec<CopyOp>) {
    debug_assert!(
        src_disp >= 0,
        "segment displacement not normalized: {src_disp}"
    );
    let mut off = 0u64;
    while off < len {
        let l = (len - off).min(unit_size);
        out.push(CopyOp {
            src_off: (src_disp as u64 + off) as usize,
            dst_off: (packed_pos + off) as usize,
            len: l as usize,
        });
        off += l;
    }
}

/// Materialize the complete plan for `count` instances (what the cache
/// stores).
pub fn build_plan(ty: &DataType, count: u64, unit_size: u64) -> Result<DevPlan, TypeError> {
    build_plan_opt(ty, count, unit_size, false)
}

/// [`build_plan`] with an explicit coalescing mode: with `coalesce` each
/// maximal contiguous run becomes one work unit regardless of
/// `unit_size` (the recorded `unit_size` still names the configuration
/// the plan was built for, i.e. the cache key).
pub fn build_plan_opt(
    ty: &DataType,
    count: u64,
    unit_size: u64,
    coalesce: bool,
) -> Result<DevPlan, TypeError> {
    let (units, base_shift) = whole_units(ty, count, unit_size, coalesce)?;
    Ok(DevPlan {
        units,
        base_shift,
        total_bytes: ty.size() * count,
        unit_size,
        traffic: RefCell::new(Lru::with_limits(u64::MAX, MAX_TRAFFIC_MEMOS)),
    })
}

#[cfg(test)]
impl DevCursor {
    pub fn total_bytes(&self) -> u64 {
        self.cv.total_bytes()
    }

    pub fn finished(&self) -> bool {
        self.cv.finished()
    }

    /// The units covering the next `max_packed` bytes of the packed
    /// stream, in a new list.
    pub fn next_units(&mut self, max_packed: u64) -> Vec<CopyOp> {
        let mut units = Vec::new();
        self.next_units_into(max_packed, &mut units);
        units
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatype::DataType;

    fn dbl() -> DataType {
        DataType::double()
    }

    #[test]
    fn plan_conserves_bytes_and_order() {
        let v = DataType::vector(8, 4, 7, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 2, 1024).unwrap();
        assert_eq!(plan.total_bytes, v.size() * 2);
        let sum: usize = plan.units.iter().map(|u| u.len).sum();
        assert_eq!(sum as u64, plan.total_bytes);
        // dst offsets are the packed stream: strictly increasing and
        // gapless.
        let mut pos = 0usize;
        for u in &plan.units {
            assert_eq!(u.dst_off, pos);
            pos += u.len;
        }
    }

    #[test]
    fn large_blocks_split_into_units() {
        // One 10 KB contiguous block with S = 1 KB -> 10 units.
        let c = DataType::contiguous(1280, &dbl()).unwrap().commit();
        let plan = build_plan(&c, 1, 1024).unwrap();
        assert_eq!(plan.units.len(), 10);
        assert!(plan.units.iter().all(|u| u.len == 1024));
    }

    #[test]
    fn residue_units_are_kept_inline() {
        // 1.5 KB blocks -> one 1 KB unit + one 512 B residue each.
        let v = DataType::vector(4, 192, 300, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 1, 1024).unwrap();
        assert_eq!(plan.units.len(), 8);
        assert_eq!(plan.units[0].len, 1024);
        assert_eq!(plan.units[1].len, 512);
        // Residue is followed immediately by the next block's first unit.
        assert_eq!(plan.units[2].dst_off, 1536);
    }

    #[test]
    fn cursor_chunks_agree_with_full_plan() {
        let n = 16u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap().commit();
        let plan = build_plan(&t, 1, 256).unwrap();

        let mut cur = DevCursor::new(&t, 1, 256).unwrap();
        let mut units = Vec::new();
        while !cur.finished() {
            units.extend(cur.next_units(300)); // awkward chunk size
        }
        // Chunked generation may split units at chunk boundaries; the
        // byte coverage must be identical though.
        let cover = |us: &[CopyOp]| -> Vec<(usize, usize, usize)> {
            let mut v: Vec<(usize, usize, usize)> =
                us.iter().map(|u| (u.dst_off, u.src_off, u.len)).collect();
            v.sort_unstable();
            // Merge adjacent spans that are contiguous in both spaces.
            let mut m: Vec<(usize, usize, usize)> = Vec::new();
            for (d, s, l) in v {
                match m.last_mut() {
                    Some((md, ms, ml)) if *md + *ml == d && *ms + *ml == s => *ml += l,
                    _ => m.push((d, s, l)),
                }
            }
            m
        };
        assert_eq!(cover(&units), cover(&plan.units));
    }

    #[test]
    fn coalesced_plan_is_one_unit_per_run() {
        // One 10 KB contiguous block: 10 units at S=1 KB, 1 coalesced.
        let c = DataType::contiguous(1280, &dbl()).unwrap().commit();
        let plan = build_plan_opt(&c, 1, 1024, true).unwrap();
        assert_eq!(plan.units.len(), 1);
        assert_eq!(plan.units[0].len as u64, plan.total_bytes);
        // Strided rows stay one unit per row.
        let v = DataType::vector(4, 192, 300, &dbl()).unwrap().commit();
        let plan = build_plan_opt(&v, 1, 1024, true).unwrap();
        assert_eq!(plan.units.len(), 4);
        assert!(plan.units.iter().all(|u| u.len == 1536));
    }

    #[test]
    fn coalesced_plan_covers_same_bytes() {
        let n = 16u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap().commit();
        let plain = build_plan(&t, 2, 256).unwrap();
        let coal = build_plan_opt(&t, 2, 256, true).unwrap();
        assert_eq!(coal.total_bytes, plain.total_bytes);
        assert_eq!(coal.base_shift, plain.base_shift);
        assert!(coal.units.len() <= plain.units.len());
        // Normalized (merged) coverage must be identical.
        let cover = |us: &[CopyOp]| -> Vec<(usize, usize, usize)> {
            let mut m: Vec<(usize, usize, usize)> = Vec::new();
            for u in us {
                match m.last_mut() {
                    Some((md, ms, ml)) if *md + *ml == u.dst_off && *ms + *ml == u.src_off => {
                        *ml += u.len
                    }
                    _ => m.push((u.dst_off, u.src_off, u.len)),
                }
            }
            m
        };
        assert_eq!(cover(&coal.units), cover(&plain.units));
        // Coalesced units are maximal: no two adjacent in both spaces.
        assert_eq!(cover(&coal.units).len(), coal.units.len());
    }

    #[test]
    fn coalesced_cursor_merges_across_batch_clips() {
        // A 4 KB contiguous run streamed in 1000-byte batches: the
        // cursor cannot merge across calls (different fragments), but
        // each call's units must be internally maximal.
        let c = DataType::contiguous(512, &dbl()).unwrap().commit();
        let mut cur = DevCursor::with_coalesce(&c, 1, 256, true).unwrap();
        let mut calls = 0;
        while !cur.finished() {
            let units = cur.next_units(1000);
            assert_eq!(units.len(), 1, "one maximal unit per batch");
            calls += 1;
        }
        assert_eq!(calls, 5);
    }

    #[test]
    fn negative_lb_is_normalized() {
        let r = DataType::resized(&dbl(), -8, 16).unwrap();
        let t = DataType::hindexed(&[1, 1], &[-16, 0], &r).unwrap().commit();
        let plan = build_plan(&t, 1, 1024).unwrap();
        assert_eq!(plan.base_shift, -16);
        assert!(plan.units.iter().all(|u| u.src_off as i64 >= 0));
        assert_eq!(plan.units[0].src_off, 0); // disp -16 shifted by +16
    }

    #[test]
    fn slice_trims_and_rebases() {
        let c = DataType::contiguous(512, &dbl()).unwrap().commit(); // 4 KB
        let plan = build_plan(&c, 1, 1024).unwrap();
        assert_eq!(plan.units.len(), 4);
        // Take bytes 1500..2600: should touch units 1 and 2, trimmed.
        let s = plan.slice(1500, 2600);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s[0],
            CopyOp {
                src_off: 1500,
                dst_off: 0,
                len: 548
            }
        );
        assert_eq!(
            s[1],
            CopyOp {
                src_off: 2048,
                dst_off: 548,
                len: 552
            }
        );
        let total: usize = s.iter().map(|u| u.len).sum();
        assert_eq!(total, 1100);
    }

    #[test]
    fn slice_whole_range_is_identity_coverage() {
        let v = DataType::vector(6, 2, 5, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 3, 256).unwrap();
        let s = plan.slice(0, plan.total_bytes);
        assert_eq!(s.len(), plan.units.len());
        assert_eq!(s, plan.units);
    }

    #[test]
    fn slice_empty_range_is_empty() {
        let c = DataType::contiguous(512, &dbl()).unwrap().commit();
        let plan = build_plan(&c, 1, 1024).unwrap();
        assert!(plan.slice(100, 100).is_empty());
        assert!(plan.slice(plan.total_bytes, plan.total_bytes).is_empty());
    }

    #[test]
    fn slice_parts_borrows_interior_units() {
        let c = DataType::contiguous(512, &dbl()).unwrap().commit(); // 4 KB
        let plan = build_plan(&c, 1, 1024).unwrap();
        // 1500..3500 crosses units 1..3: trimmed head + trimmed tail,
        // one untouched unit borrowed in between.
        let p = plan.slice_parts(1500, 3500);
        assert_eq!(
            p.head,
            Some(CopyOp {
                src_off: 1500,
                dst_off: 1500,
                len: 548
            })
        );
        assert_eq!(p.middle.len(), 1);
        assert!(
            std::ptr::eq(&p.middle[0], &plan.units[2]),
            "middle is borrowed"
        );
        assert_eq!(
            p.tail,
            Some(CopyOp {
                src_off: 3072,
                dst_off: 3072,
                len: 428
            })
        );
        // Unit-aligned range: pure borrow, no boundary splits.
        let p = plan.slice_parts(1024, 3072);
        assert!(p.head.is_none() && p.tail.is_none());
        assert_eq!(p.middle, &plan.units[1..3]);
        // Range inside a single unit: head only.
        let p = plan.slice_parts(100, 200);
        assert_eq!(
            p.head,
            Some(CopyOp {
                src_off: 100,
                dst_off: 100,
                len: 100
            })
        );
        assert!(p.middle.is_empty() && p.tail.is_none());
    }

    #[test]
    fn slice_into_matches_slice_and_reuses_buffer() {
        let v = DataType::vector(9, 3, 7, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 2, 64).unwrap();
        let mut buf = Vec::new();
        let mut from = 0u64;
        while from < plan.total_bytes {
            let to = (from + 100).min(plan.total_bytes);
            plan.slice_into(from, to, &mut buf);
            assert_eq!(buf, plan.slice(from, to), "window {from}..{to}");
            from = to;
        }
    }

    #[test]
    fn next_units_into_matches_next_units() {
        let n = 12u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap().commit();
        let mut a = DevCursor::new(&t, 2, 96).unwrap();
        let mut b = DevCursor::new(&t, 2, 96).unwrap();
        let mut buf = Vec::new();
        while !a.finished() {
            b.next_units_into(250, &mut buf);
            assert_eq!(a.next_units(250), buf);
        }
        assert!(b.finished());
    }

    #[test]
    fn flip_in_place_matches_flip() {
        let v = DataType::vector(5, 2, 6, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 1, 64).unwrap();
        let mut inplace = plan.units.clone();
        flip_units_in_place(&mut inplace);
        assert_eq!(inplace, flip_units(&plan.units));
    }

    #[test]
    fn descriptor_bytes_track_units() {
        let v = DataType::vector(7, 1, 3, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 1, 1024).unwrap();
        assert_eq!(plan.descriptor_bytes(), plan.units.len() as u64 * 32);
    }

    #[test]
    fn cursor_handles_unit_exact_boundaries() {
        // Segments exactly equal to the unit size: no residues.
        let c = DataType::contiguous(128, &dbl()).unwrap(); // 1 KB
        let v = DataType::vector(4, 1, 2, &c).unwrap().commit();
        let plan = build_plan(&v, 1, 1024).unwrap();
        assert_eq!(plan.units.len(), 4);
        assert!(plan.units.iter().all(|u| u.len == 1024));
    }

    #[test]
    fn flip_swaps_roles() {
        let v = DataType::vector(2, 1, 3, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 1, 1024).unwrap();
        let f = flip_units(&plan.units);
        for (a, b) in plan.units.iter().zip(&f) {
            assert_eq!(a.src_off, b.dst_off);
            assert_eq!(a.dst_off, b.src_off);
            assert_eq!(a.len, b.len);
        }
    }
}

/// The three unit sources — streaming conversion (`Fresh`, the cursor
/// walked fragment by fragment), cached-plan slicing (`Cached`) and
/// arithmetic generation for vector-shaped types (`Vector`) — describe
/// the *same byte movement* for any committed datatype at any fragment
/// size. The fragment engine picks between them purely on cost grounds;
/// this pins down that the choice can never change what gets copied.
///
/// Units differ per source (unit-size splits, fragment-boundary splits,
/// whole-block vector ops), so coverage is compared as the multiset of
/// `(src_off, dst_off, len)` after merging ops that are adjacent on
/// both sides — the normalized form is the canonical byte mapping.
#[cfg(test)]
mod unit_sources_prop {
    use super::*;
    use datatype::testutil::{arb_datatype, lower_triangular};
    use simcore::rng::SimRng;

    /// Canonical byte mapping: sort by packed offset, drop empties, merge
    /// runs contiguous on both the typed and the packed side.
    fn normalize(mut ops: Vec<CopyOp>) -> Vec<(usize, usize, usize)> {
        ops.sort_by_key(|u| u.dst_off);
        let mut out: Vec<(usize, usize, usize)> = Vec::new();
        for u in ops {
            if u.len == 0 {
                continue;
            }
            if let Some(last) = out.last_mut() {
                if last.0 + last.2 == u.src_off && last.1 + last.2 == u.dst_off {
                    last.2 += u.len;
                    continue;
                }
            }
            out.push((u.src_off, u.dst_off, u.len));
        }
        out
    }

    /// `Fresh`: stream units fragment by fragment through the convertor.
    fn fresh_units(ty: &DataType, count: u64, unit_size: u64, frag: u64) -> Vec<CopyOp> {
        let mut cur = DevCursor::new(ty, count, unit_size).unwrap();
        let mut ops = Vec::new();
        while !cur.finished() {
            ops.extend(cur.next_units(frag));
        }
        ops
    }

    /// `Cached`: materialize the plan once, then slice the same fragment
    /// windows through the production `slice_into` path (which rebases
    /// packed offsets per fragment — undo that to compare absolutes).
    fn cached_units(ty: &DataType, count: u64, unit_size: u64, frag: u64) -> Vec<CopyOp> {
        let plan = build_plan(ty, count, unit_size).unwrap();
        let mut ops = Vec::new();
        let mut buf = Vec::new();
        let mut pos = 0u64;
        while pos < plan.total_bytes {
            let to = (pos + frag).min(plan.total_bytes);
            plan.slice_into(pos, to, &mut buf);
            for u in &buf {
                ops.push(CopyOp {
                    src_off: u.src_off,
                    dst_off: u.dst_off + pos as usize,
                    len: u.len,
                });
            }
            pos = to;
        }
        ops
    }

    /// `Strided`: arithmetic unit generation, exactly as the fragment
    /// engine's specialized kernel computes it (no descriptors at all).
    /// A vector is one row of blocks that never ends.
    fn strided_units(ty: &DataType, count: u64, frag: u64) -> Option<Vec<CopyOp>> {
        let shape = ty.strided(count)?;
        let base_shift = ty.true_lb().min(0);
        let total = ty.size() * count;
        let mut ops = Vec::new();
        let mut pos = 0u64;
        while pos < total {
            let to = (pos + frag).min(total);
            let mut p = pos;
            while p < to {
                let block = p / shape.block_bytes;
                let intra = p % shape.block_bytes;
                let take = (shape.block_bytes - intra).min(to - p);
                let i = (block / shape.inner) as i64;
                let j = (block % shape.inner) as i64;
                let disp = shape.first_disp
                    + i * shape.outer_stride
                    + j * shape.inner_stride
                    + intra as i64;
                ops.push(CopyOp {
                    src_off: (disp - base_shift) as usize,
                    dst_off: p as usize,
                    len: take as usize,
                });
                p += take;
            }
            pos = to;
        }
        Some(ops)
    }

    /// Coalesced or split plan, sliced fragment by fragment like the
    /// cached source does.
    fn optimized_units(
        ty: &DataType,
        count: u64,
        unit_size: u64,
        frag: u64,
        coalesce: bool,
    ) -> Vec<CopyOp> {
        let plan = build_plan_opt(ty, count, unit_size, coalesce).unwrap();
        let mut ops = Vec::new();
        let mut buf = Vec::new();
        let mut pos = 0u64;
        while pos < plan.total_bytes {
            let to = (pos + frag).min(plan.total_bytes);
            plan.slice_into(pos, to, &mut buf);
            for u in &buf {
                ops.push(CopyOp {
                    src_off: u.src_off,
                    dst_off: u.dst_off + pos as usize,
                    len: u.len,
                });
            }
            pos = to;
        }
        ops
    }

    fn check(ty: &DataType, count: u64, seed_note: &str) {
        let total = ty.size() * count;
        for unit_size in [8u64, 64, 1024] {
            // Fragment sizes straddle unit, block and total boundaries.
            for frag in [1u64, 7, 64, total.max(1).div_ceil(3), u64::MAX] {
                let fresh = normalize(fresh_units(ty, count, unit_size, frag));
                let cached = normalize(cached_units(ty, count, unit_size, frag));
                assert_eq!(
                    fresh, cached,
                    "{seed_note}: fresh vs cached, count={count} unit={unit_size} frag={frag}"
                );
                if let Some(ops) = strided_units(ty, count, frag) {
                    assert_eq!(
                        fresh,
                        normalize(ops),
                        "{seed_note}: fresh vs strided, count={count} frag={frag}"
                    );
                }
                let covered: usize = fresh.iter().map(|&(_, _, l)| l).sum();
                assert_eq!(covered as u64, total, "{seed_note}: bytes covered");

                // Coalesced or not, the plan describes the same byte
                // mapping as the unoptimized one: the pass reshapes units
                // (fewer descriptors, merged runs), never the bytes.
                for coalesce in [false, true] {
                    let opt = normalize(optimized_units(ty, count, unit_size, frag, coalesce));
                    assert_eq!(
                        fresh, opt,
                        "{seed_note}: fresh vs optimized(coalesce={coalesce}), \
                         count={count} unit={unit_size} frag={frag}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_sources_agree_on_arbitrary_types() {
        // The (seed, count) cases a tree-rewriting pass used to put in
        // reach of the strided kernel: count-1 vectors, `contig(n,
        // vector)` and `hindexed(1 block)`. Recognising the raw tree
        // must take them too.
        const MUST: [(u64, u64); 13] = [
            (8, 1),
            (8, 2),
            (22, 2),
            (27, 1),
            (27, 2),
            (32, 1),
            (32, 2),
            (59, 1),
            (59, 2),
            (107, 1),
            (107, 2),
            (111, 1),
            (111, 2),
        ];
        let mut strided = 0u32;
        for seed in 0..120u64 {
            let mut rng = SimRng::new(0xDD7 ^ seed);
            let ty = arb_datatype(&mut rng).commit();
            for count in [1u64, 2] {
                let shape = ty.strided(count);
                strided += u32::from(shape.is_some());
                assert!(
                    shape.is_some() || !MUST.contains(&(seed, count)),
                    "seed {seed} count {count}: {ty} must take the strided kernel"
                );
                check(&ty, count, &format!("seed {seed}"));
            }
        }
        // The generator must actually exercise the specialized path, not
        // just the descriptor-based sources: every case the tree
        // rewrites reached (142) and five more.
        assert!(strided >= 147, "only {strided} of 240 cases strided");
    }

    #[test]
    fn sources_agree_on_the_paper_workloads() {
        // Triangular (indexed) and submatrix (vector) shapes from the
        // figures, small enough for the exhaustive fragment sweep.
        check(&lower_triangular(24), 1, "triangular");
        let sub = DataType::vector(16, 16, 32, &DataType::double())
            .unwrap()
            .commit();
        check(&sub, 1, "submatrix");
        check(&sub, 2, "submatrix x2");
        // Matrix transpose (fig12): a doubly-strided tree that must hit the
        // arithmetic Strided2D source, not just agree on descriptors.
        let n = 24u64;
        let col = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
        let transpose = DataType::hvector(n, 1, 8, &col).unwrap().commit();
        assert!(
            transpose.strided(1).is_some_and(|s| s.inner == n),
            "transpose must be strided2d-shaped"
        );
        check(&transpose, 1, "transpose");
    }
}
