//! The paper's workload datatypes and buffer setup helpers.

use datatype::testutil::buffer_span;
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::MpiWorld;
use simcore::rng::position_pattern;
use simcore::Sim;

/// Sub-matrix of `n` columns × `n` doubles inside a matrix with leading
/// dimension `2n` (column-major) — the paper's vector workload **V**.
pub fn submatrix(n: u64) -> DataType {
    DataType::vector(n, n, 2 * n as i64, &DataType::double())
        .expect("submatrix")
        .commit()
}

/// Lower-triangular `n×n` matrix of doubles, column-major: column `c`
/// holds `n-c` elements starting at element `c·n + c` — the paper's
/// indexed workload **T**.
pub fn triangular(n: u64) -> DataType {
    let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
    DataType::indexed(&lens, &disps, &DataType::double())
        .expect("triangular")
        .commit()
}

/// Stair-shaped triangular matrix (Figure 5): column lengths rounded up
/// to a multiple of `nb` elements so no CUDA thread idles and block
/// starts stay aligned — the paper's **T-stair**.
pub fn stair_triangular(n: u64, nb: u64) -> DataType {
    let lens: Vec<u64> = (0..n).map(|c| ((n - c).div_ceil(nb) * nb).min(n)).collect();
    let disps: Vec<i64> = (0..n as i64)
        .map(|c| {
            let len = lens[c as usize] as i64;
            c * n as i64 + (n as i64 - len)
        })
        .collect();
    DataType::indexed(&lens, &disps, &DataType::double())
        .expect("stair")
        .commit()
}

/// Contiguous block of `n·n` doubles — the paper's **C** reference.
pub fn contiguous_matrix(n: u64) -> DataType {
    DataType::contiguous(n * n, &DataType::double())
        .expect("contiguous")
        .commit()
}

/// The receive side of a column-major `n×n` matrix transpose: column
/// `j` of the result gathers row `j` of the source — `n` interleaved
/// vectors of blocklength one (§5.2.3).
pub fn transpose_type(n: u64) -> DataType {
    let row = DataType::vector(n, 1, n as i64, &DataType::double()).expect("row");
    // Rows j = 0..n start 8 bytes apart.
    DataType::hvector(n, 1, 8, &row)
        .expect("transpose")
        .commit()
}

/// `offload_frontier`'s coarse-strided panel: `blocks` × 32 KiB blocks
/// with 32 KiB gaps.
pub fn offload_coarse(blocks: u64) -> DataType {
    DataType::vector(blocks, 4096, 8192, &DataType::double())
        .expect("coarse")
        .commit()
}

/// `offload_frontier`'s latency-bound panel: `blocks` × 256 B blocks
/// with 256 B gaps.
pub fn offload_medium(blocks: u64) -> DataType {
    DataType::vector(blocks, 32, 64, &DataType::double())
        .expect("medium")
        .commit()
}

/// A plain vector with explicit block size in bytes (Figure 8 sweeps).
pub fn raw_vector(block_count: u64, block_bytes: u64, gap_bytes: u64) -> DataType {
    DataType::hvector(
        block_count,
        block_bytes,
        (block_bytes + gap_bytes) as i64,
        &DataType::byte(),
    )
    .expect("raw vector")
    .commit()
}

/// Allocate a typed buffer for `count` instances of `ty` on `rank`'s
/// GPU (or host), filled with the position pattern when `fill`.
/// Returns the displacement-0 pointer.
pub fn alloc_typed(
    sim: &mut Sim<MpiWorld>,
    rank: usize,
    ty: &DataType,
    count: u64,
    device: bool,
    fill: bool,
) -> Ptr {
    let (base, len) = buffer_span(ty, count);
    let space = if device {
        MemSpace::Device(sim.world.mpi.ranks[rank].gpu)
    } else {
        MemSpace::Host
    };
    let buf = sim
        .world
        .mem()
        .alloc(space, len.max(1) as u64)
        .expect("typed buffer");
    if fill {
        let mut bytes = vec![0u8; len];
        position_pattern(&mut bytes);
        sim.world.mem().write(buf, &bytes).expect("fill");
    }
    buf.add(base as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes() {
        let n = 64u64;
        assert_eq!(submatrix(n).size(), 8 * n * n);
        assert_eq!(triangular(n).size(), 8 * n * (n + 1) / 2);
        assert_eq!(contiguous_matrix(n).size(), 8 * n * n);
        assert_eq!(transpose_type(n).size(), 8 * n * n);
    }

    #[test]
    fn stair_covers_triangle_and_is_aligned() {
        let n = 64u64;
        let nb = 16u64;
        let t = stair_triangular(n, nb);
        // Stair holds at least the triangle and at most triangle + n*nb.
        let tri = triangular(n).size();
        assert!(t.size() >= tri);
        assert!(t.size() <= tri + 8 * n * nb);
        // Every column length is a multiple of nb elements (except the
        // clamp at n).
        for s in t.segments(1) {
            assert!(s.len % (8 * nb) == 0 || s.len == 8 * n);
        }
    }

    #[test]
    fn transpose_signature_matches_contiguous() {
        let n = 32u64;
        let a = datatype::Signature::of(&transpose_type(n), 1);
        let b = datatype::Signature::of(&contiguous_matrix(n), 1);
        assert!(a.matches(&b));
    }

    #[test]
    fn transpose_scatters_rows_to_columns() {
        let n = 4u64;
        let t = transpose_type(n);
        let segs = t.segments(1);
        assert_eq!(segs.len(), (n * n) as usize);
        // First n segments: row 0 = elements 0, n, 2n, ... in bytes.
        for (k, s) in segs.iter().take(n as usize).enumerate() {
            assert_eq!(s.disp, (k as i64) * n as i64 * 8);
            assert_eq!(s.len, 8);
        }
    }

    #[test]
    fn submatrix_is_vector_shaped_but_triangular_is_not() {
        assert!(submatrix(32)
            .strided(1)
            .is_some_and(|s| s.inner == u64::MAX));
        assert!(triangular(32).strided(1).is_none());
    }
}
