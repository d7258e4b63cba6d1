//! Shared test helpers: buffer sizing for arbitrary datatypes, the
//! reference pack, and seeded generators for random datatype trees.
//!
//! This module is part of the public API (not `cfg(test)`) because the
//! GPU engine, runtime and integration tests all reuse the same
//! generators to cross-validate their pack/unpack paths against the CPU
//! convertor.

use crate::convertor::pack_all;
use crate::typ::DataType;
use simcore::par::Strided2D;
use simcore::rng::SimRng;

/// The slice geometry needed to hold `count` instances of `ty`:
/// `(base, len)` such that every data byte lands inside `0..len` when
/// displacement 0 maps to index `base`.
pub fn buffer_span(ty: &DataType, count: u64) -> (i64, usize) {
    if count == 0 || ty.size() == 0 {
        return (0, 0);
    }
    let ext = ty.extent();
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for i in [0, count - 1] {
        let b = i as i64 * ext;
        lo = lo.min(b + ty.true_lb());
        hi = hi.max(b + ty.true_ub());
    }
    // Negative extents cannot occur (ub >= lb by construction), but
    // guard anyway.
    let base = if lo < 0 { -lo } else { 0 };
    (base, (base + hi) as usize)
}

/// Reference pack: materialize segments and copy — the simplest possible
/// correct implementation, used as the oracle for every other engine.
pub fn reference_pack(ty: &DataType, count: u64, typed: &[u8], base: i64) -> Vec<u8> {
    let mut out = Vec::with_capacity((ty.size() * count) as usize);
    for s in ty.segments(count) {
        let idx = (base + s.disp) as usize;
        out.extend_from_slice(&typed[idx..idx + s.len as usize]);
    }
    out
}

/// Reference unpack (scatter) into `typed`.
pub fn reference_unpack(ty: &DataType, count: u64, typed: &mut [u8], base: i64, packed: &[u8]) {
    let mut pos = 0usize;
    for s in ty.segments(count) {
        let idx = (base + s.disp) as usize;
        typed[idx..idx + s.len as usize].copy_from_slice(&packed[pos..pos + s.len as usize]);
        pos += s.len as usize;
    }
    assert_eq!(pos, packed.len());
}

/// Fill a buffer with a position-encoding non-zero pattern.
pub fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 131 + 17) % 255 + 1) as u8).collect()
}

/// Verify that `ty` survives a CPU pack→unpack round trip; panics with
/// context on failure. Returns the packed bytes for further checks.
pub fn assert_roundtrip(ty: &DataType, count: u64) -> Vec<u8> {
    let ty = ty.clone().commit();
    let (base, len) = buffer_span(&ty, count);
    let typed = pattern(len);
    let packed = pack_all(&ty, count, &typed, base);
    assert_eq!(
        packed.len() as u64,
        ty.size() * count,
        "packed size for {ty}"
    );
    assert_eq!(
        packed,
        reference_pack(&ty, count, &typed, base),
        "pack order for {ty}"
    );

    let mut out = vec![0u8; len];
    crate::convertor::unpack_all(&ty, count, &mut out, base, &packed);
    for s in ty.segments(count) {
        let r = (base + s.disp) as usize..(base + s.disp) as usize + s.len as usize;
        assert_eq!(&out[r.clone()], &typed[r], "roundtrip bytes for {ty}");
    }
    packed
}

/// Lower-triangular `n × n` matrix of doubles, column-major: column `c`
/// holds rows `c..n` (the paper's **T** workload).
pub fn lower_triangular(n: u64) -> DataType {
    let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
    DataType::indexed(&lens, &disps, &DataType::double())
        .expect("triangular")
        .commit()
}

/// The transpose of [`lower_triangular`] in the same column-major
/// storage: what was column `c` lands in row `c`, one double every `n`.
/// Same type signature (`n(n+1)/2` doubles, in the same order), a very
/// different layout — a long run on one side meets 8-byte units on the
/// other.
pub fn transposed_triangular(n: u64) -> DataType {
    let rows: Vec<DataType> = (0..n)
        .map(|c| DataType::vector(n - c, 1, n as i64, &DataType::double()).expect("row"))
        .collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| (c * n as i64 + c) * 8).collect();
    DataType::structure(&vec![1; n as usize], &disps, &rows)
        .expect("transposed triangular")
        .commit()
}

/// Seeded generator: a random doubly-strided shape as the specialized
/// kernel runs it, with the byte length of its packed stream and the
/// lowest displacement any of its blocks starts at. Blocks are 1 to 600
/// bytes, so they meet the 128-byte lines and the 256-byte warp chunks
/// at every phase. Every fourth shape is a vector (one endless row);
/// the others hold up to six rows of up to nine blocks, either side by
/// side or interleaved the way a transpose's are. Inner and outer
/// strides take either sign. No two blocks overlap, so an unpack of any
/// window writes each typed byte at most once.
pub fn arb_strided(r: &mut SimRng) -> (Strided2D, i64, u64) {
    let vector = r.range(0, 4) == 0;
    let block_bytes = match r.range(0, 3) {
        0 => r.range_u64(1, 17),
        1 => 8 * r.range_u64(1, 9),
        _ => r.range_u64(1, 601),
    };
    let (rows, cols) = if vector {
        (1, r.range_u64(1, 41))
    } else {
        (r.range_u64(1, 7), r.range_u64(1, 10))
    };
    let sign = |r: &mut SimRng, v: u64| {
        if r.range(0, 3) == 0 {
            -(v as i64)
        } else {
            v as i64
        }
    };
    let interleaved = r.range(0, 2) == 0;
    // Interleaved: row `i` sits `i · pitch` into every column's slot,
    // and a slot holds all rows. Side by side: a row's span, then a gap.
    let pitch = block_bytes + r.range_u64(0, 9);
    let inner = if interleaved {
        rows * pitch + r.range_u64(0, 64)
    } else {
        block_bytes + r.range_u64(0, 300)
    };
    let inner_stride = sign(r, inner);
    let outer = if interleaved {
        pitch
    } else {
        (cols - 1) * inner + block_bytes + r.range_u64(0, 300)
    };
    let shape = Strided2D {
        outer: rows,
        inner: if vector { u64::MAX } else { cols },
        block_bytes,
        inner_stride,
        outer_stride: sign(r, outer),
        first_disp: r.range_u64(0, 1000) as i64 - 500,
    };
    let reach = |n: u64, stride: i64| (n as i64 - 1) * stride;
    let lo = shape.first_disp
        + reach(rows, shape.outer_stride).min(0)
        + reach(cols, shape.inner_stride).min(0);
    (shape, lo, rows * cols * block_bytes)
}

/// Seeded generator: a random primitive.
pub(crate) fn arb_primitive(r: &mut SimRng) -> crate::Primitive {
    *r.choose(&crate::Primitive::ALL)
}

/// Seeded generator: a random datatype tree of bounded depth. Sizes are
/// kept small enough that exhaustive byte-level checking stays fast.
/// Deterministic in the generator state, so failures reproduce from the
/// loop seed.
pub fn arb_datatype(r: &mut SimRng) -> DataType {
    arb_datatype_depth(r, 3)
}

fn arb_datatype_depth(r: &mut SimRng, depth: u32) -> DataType {
    if depth == 0 || r.range(0, 4) == 0 {
        return DataType::primitive(arb_primitive(r));
    }
    match r.range(0, 6) {
        // contiguous
        0 => {
            let n = r.range_u64(1, 5);
            let t = arb_datatype_depth(r, depth - 1);
            DataType::contiguous(n, &t).unwrap()
        }
        // vector (element stride, possibly overlapping-free gap)
        1 => {
            let c = r.range_u64(1, 4);
            let b = r.range_u64(1, 4);
            let gap = r.range_u64(0, 4) as i64;
            let t = arb_datatype_depth(r, depth - 1);
            DataType::vector(c, b, b as i64 + gap, &t).unwrap()
        }
        // hvector with byte stride rounded up past the block span
        2 => {
            let c = r.range_u64(1, 4);
            let b = r.range_u64(1, 3);
            let gap = r.range_u64(0, 32) as i64;
            let t = arb_datatype_depth(r, depth - 1);
            let span = b as i64 * t.extent().max(1);
            DataType::hvector(c, b, span + gap, &t).unwrap()
        }
        // indexed with increasing displacements
        3 => {
            let nblocks = r.range(1, 4);
            let blocks: Vec<(u64, i64)> = (0..nblocks)
                .map(|_| (r.range_u64(1, 3), r.range_u64(0, 4) as i64))
                .collect();
            let t = arb_datatype_depth(r, depth - 1);
            let mut disp = 0i64;
            let mut lens = Vec::new();
            let mut disps = Vec::new();
            for (l, gap) in blocks {
                lens.push(l);
                disps.push(disp);
                disp += l as i64 + gap;
            }
            DataType::indexed(&lens, &disps, &t).unwrap()
        }
        // struct of two fields laid out back to back with a gap
        4 => {
            let gap = r.range_u64(0, 16) as i64;
            let a = arb_datatype_depth(r, depth - 1);
            let b = arb_datatype_depth(r, depth - 1);
            let d1 = a.ub().max(a.true_ub()) + gap;
            DataType::structure(&[1, 1], &[0, d1 - b.lb().min(0)], &[a, b]).unwrap()
        }
        // resized (extent >= span so repetitions do not overlap)
        _ => {
            let pad = r.range_u64(0, 16) as i64;
            let t = arb_datatype_depth(r, depth - 1);
            let span = (t.true_ub() - t.true_lb().min(0)).max(1);
            DataType::resized(&t, t.lb().min(0), span + pad).unwrap()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_span_covers_segments() {
        let v = DataType::vector(3, 2, 4, &DataType::double()).unwrap();
        let (base, len) = buffer_span(&v, 2);
        for s in v.segments(2) {
            assert!(base + s.disp >= 0);
            assert!((base + s.end()) as usize <= len);
        }
    }

    #[test]
    fn buffer_span_handles_negative_lb() {
        let r = DataType::resized(&DataType::double(), -8, 16).unwrap();
        let t = DataType::hindexed(&[1, 1], &[-24, 0], &r).unwrap();
        let (base, len) = buffer_span(&t, 1);
        assert!(base >= 24);
        for s in t.segments(1) {
            assert!(base + s.disp >= 0);
            assert!((base + s.end()) as usize <= len);
        }
    }

    #[test]
    fn roundtrip_smoke() {
        let t = DataType::indexed(&[3, 1], &[0, 5], &DataType::double()).unwrap();
        assert_roundtrip(&t, 3);
    }

    #[test]
    fn random_types_roundtrip() {
        let mut r = SimRng::new(0x5eed_0001);
        for _ in 0..128 {
            let ty = arb_datatype(&mut r);
            let count = r.range_u64(1, 4);
            assert_roundtrip(&ty, count);
        }
    }

    #[test]
    fn random_types_signature_reflexive() {
        let mut r = SimRng::new(0x5eed_0002);
        for _ in 0..128 {
            let ty = arb_datatype(&mut r);
            let count = r.range_u64(1, 4);
            let s = crate::Signature::of(&ty, count);
            assert!(s.matches(&crate::Signature::of(&ty, count)));
            assert_eq!(s.byte_count(), ty.size() * count);
        }
    }

    #[test]
    fn random_types_segments_conserve_bytes() {
        let mut r = SimRng::new(0x5eed_0003);
        for _ in 0..128 {
            let ty = arb_datatype(&mut r);
            let count = r.range_u64(1, 4);
            let total: u64 = ty.segments(count).iter().map(|s| s.len).sum();
            assert_eq!(total, ty.size() * count);
        }
    }

    #[test]
    fn random_types_segments_do_not_overlap() {
        let mut r = SimRng::new(0x5eed_0004);
        for _ in 0..128 {
            let ty = arb_datatype(&mut r);
            let count = r.range_u64(1, 3);
            let mut segs = ty.segments(count);
            segs.sort_by_key(|s| s.disp);
            for w in segs.windows(2) {
                assert!(
                    w[0].end() <= w[1].disp,
                    "overlap between {:?} and {:?} in {}",
                    w[0],
                    w[1],
                    ty
                );
            }
        }
    }
}
