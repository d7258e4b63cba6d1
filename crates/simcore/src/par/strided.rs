//! Strided windows: a packed range of a doubly-strided layout, named by
//! its shape instead of listed block by block.
//!
//! The specialized vector / 2-D kernel computes every block's offset
//! from `(blocklength, stride, count)`; a [`StridedWindow`] is the
//! host-side form of one such launch. Its segments come from
//! [`StridedWindow::segments_from`], which steps the block and its
//! displacement by addition, and its extremes and block count are
//! closed forms, so the copy layer checks and moves a window without a
//! list. [`strided_units`] is the list expansion, for callers that need
//! one (two typed ends merging, a move inside one allocation) and for
//! the tests, which use it as the oracle.

use super::CopyOp;

/// Two-level strided description: `outer` groups, each of `inner`
/// equal blocks — the shape of a matrix transpose or a
/// contiguous-of-vector tree. A vector is one group of blocks that
/// never ends (`inner = u64::MAX`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Strided2D {
    pub outer: u64,
    pub inner: u64,
    pub block_bytes: u64,
    pub inner_stride: i64,
    pub outer_stride: i64,
    pub first_disp: i64,
}

impl Strided2D {
    /// Displacement of block `b` (row `b / inner`, column `b % inner`)
    /// relative to `base_shift`.
    fn disp(&self, b: u64, base_shift: i64) -> i64 {
        let (i, j) = (b / self.inner, b % self.inner);
        self.first_disp + i as i64 * self.outer_stride + j as i64 * self.inner_stride - base_shift
    }
}

/// The packed window `[from, to)` of a [`Strided2D`] layout as one move
/// between its typed buffer and a dense one. Typed offsets are relative
/// to displacement `base_shift`, packed offsets to `from`. A pack reads
/// the typed side (`src_off`) and writes the packed one (`dst_off`); an
/// unpack (`unpack`) the other way round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StridedWindow {
    pub shape: Strided2D,
    pub base_shift: i64,
    pub from: u64,
    pub to: u64,
    pub unpack: bool,
}

/// A rectangle of a window's segments, all `len` bytes: `rows` × `cols`
/// of them, the one at `(r, c)` at typed offset `typed + r·row_stride +
/// c·col_stride` and packed offset `packed + (r·cols + c)·len`.
/// [`StridedWindow::grids`] splits a window into at most five.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    pub typed: i64,
    pub packed: u64,
    pub len: u64,
    pub rows: u64,
    pub cols: u64,
    pub row_stride: i64,
    pub col_stride: i64,
}

impl Grid {
    fn cell(typed: i64, packed: u64, len: u64) -> Grid {
        Grid {
            typed,
            packed,
            len,
            rows: 1,
            cols: 1,
            row_stride: 0,
            col_stride: 0,
        }
    }

    /// The lowest typed start and the highest typed end of its
    /// segments: the extremes of a linear form lie on its corners.
    fn typed_span(&self) -> (i64, i64) {
        let reach = |n: u64, stride: i64| (n as i64 - 1) * stride;
        let (r, c) = (
            reach(self.rows, self.row_stride),
            reach(self.cols, self.col_stride),
        );
        let lo = self.typed + r.min(0) + c.min(0);
        let hi = self.typed + r.max(0) + c.max(0) + self.len as i64;
        (lo, hi)
    }
}

impl StridedWindow {
    /// Payload bytes.
    pub fn bytes(&self) -> u64 {
        self.to.saturating_sub(self.from)
    }

    /// Segments: the blocks the window touches, whole or cut.
    pub fn segments(&self) -> u64 {
        if self.to <= self.from {
            return 0;
        }
        let bb = self.shape.block_bytes;
        (self.to - 1) / bb - self.from / bb + 1
    }

    /// The window's segments from the `k`th on, in its orientation. The
    /// first one's block is found by division, once; every later block
    /// steps its column, row and displacement by addition.
    pub(crate) fn segments_from(&self, k: u64) -> Segments {
        let bb = self.shape.block_bytes;
        let block = self.from / bb + k;
        let (p, intra) = if k == 0 {
            (self.from, self.from % bb)
        } else {
            (block * bb, 0)
        };
        let (i, j) = (block / self.shape.inner, block % self.shape.inner);
        let row = self.shape.first_disp + i as i64 * self.shape.outer_stride - self.base_shift;
        Segments {
            shape: self.shape,
            unpack: self.unpack,
            from: self.from,
            to: self.to,
            p,
            intra,
            j,
            row,
            disp: row + j as i64 * self.shape.inner_stride,
        }
    }

    /// The window as at most five [`Grid`]s: the first and the last
    /// segment alone (either may be a cut block), and the whole blocks
    /// between them as the rest of the first row, the full rows, and
    /// the start of the last row.
    pub fn grids(&self) -> impl Iterator<Item = Grid> {
        let mut out = [None; 5];
        let (s, bb) = (&self.shape, self.shape.block_bytes);
        let n = self.bytes();
        if n > 0 {
            let (b0, b1) = (self.from / bb, (self.to - 1) / bb);
            let intra = self.from % bb;
            let at = |b: u64| s.disp(b, self.base_shift);
            let packed = |b: u64| b * bb - self.from;
            if b0 == b1 {
                out[0] = Some(Grid::cell(at(b0) + intra as i64, 0, n));
            } else {
                out[0] = Some(Grid::cell(at(b0) + intra as i64, 0, bb - intra));
                out[4] = Some(Grid::cell(at(b1), packed(b1), self.to - b1 * bb));
            }
            if b1 > b0 + 1 {
                let (ba, bz) = (b0 + 1, b1 - 1);
                let (ia, ja, iz, jz) = (ba / s.inner, ba % s.inner, bz / s.inner, bz % s.inner);
                let row = |b: u64, cols: u64| Grid {
                    cols,
                    col_stride: s.inner_stride,
                    ..Grid::cell(at(b), packed(b), bb)
                };
                if ia == iz {
                    out[1] = Some(row(ba, jz - ja + 1));
                } else {
                    out[1] = Some(row(ba, s.inner - ja));
                    if iz > ia + 1 {
                        out[2] = Some(Grid {
                            rows: iz - ia - 1,
                            row_stride: s.outer_stride,
                            ..row((ia + 1) * s.inner, s.inner)
                        });
                    }
                    out[3] = Some(row(iz * s.inner, jz + 1));
                }
            }
        }
        out.into_iter().flatten()
    }

    /// What the window needs of its (source, destination) past their
    /// base pointers, closed form: the typed side up to its highest
    /// segment end, the packed side up to [`Self::bytes`]. A typed
    /// segment that would start below the typed base needs `u64::MAX`,
    /// more than any buffer holds, as the list's wrapped offset does.
    pub fn needs(&self) -> (u64, u64) {
        let spans = self.grids().map(|g| g.typed_span());
        let (lo, hi) = spans.fold((i64::MAX, 0), |(lo, hi), (l, h)| (lo.min(l), hi.max(h)));
        let typed = if lo < 0 { u64::MAX } else { hi as u64 };
        let packed = self.bytes();
        if self.unpack {
            (packed, typed)
        } else {
            (typed, packed)
        }
    }
}

/// The segments of a [`StridedWindow`], in order: what
/// [`strided_units`] lists.
#[derive(Clone, Debug)]
pub struct Segments {
    shape: Strided2D,
    unpack: bool,
    from: u64,
    to: u64,
    /// Packed position of the next segment, and how far into its block
    /// it starts.
    p: u64,
    intra: u64,
    /// Column of the next block, and the displacements of its row's
    /// first block and of itself, relative to the base shift.
    j: u64,
    row: i64,
    disp: i64,
}

impl Iterator for Segments {
    type Item = CopyOp;

    #[inline]
    fn next(&mut self) -> Option<CopyOp> {
        if self.p >= self.to {
            return None;
        }
        let s = &self.shape;
        let take = (s.block_bytes - self.intra).min(self.to - self.p);
        let (typed, packed) = (
            (self.disp + self.intra as i64) as usize,
            (self.p - self.from) as usize,
        );
        let (src_off, dst_off) = if self.unpack {
            (packed, typed)
        } else {
            (typed, packed)
        };
        self.p += take;
        self.intra = 0;
        self.j += 1;
        self.disp += s.inner_stride;
        if self.j == s.inner {
            self.j = 0;
            self.row += s.outer_stride;
            self.disp = self.row;
        }
        Some(CopyOp {
            src_off,
            dst_off,
            len: take as usize,
        })
    }

    /// The 2-D loop: the cut first and last blocks through
    /// [`Self::next`], every whole block between them a row at a time —
    /// its typed offset one stride on, its packed offset one block on,
    /// with no cut or row-end test per block. The copy loops drive
    /// their segments through here.
    #[inline]
    fn fold<B, F: FnMut(B, CopyOp) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        let s = self.shape;
        let bb = s.block_bytes;
        if self.intra != 0 {
            match self.next() {
                Some(op) => acc = f(acc, op),
                None => return acc,
            }
        }
        while self.p < self.to && self.to - self.p >= bb {
            let run = ((self.to - self.p) / bb).min(s.inner - self.j);
            let (mut typed, mut packed) = (self.disp, (self.p - self.from) as usize);
            let len = bb as usize;
            for _ in 0..run {
                let (src_off, dst_off) = if self.unpack {
                    (packed, typed as usize)
                } else {
                    (typed as usize, packed)
                };
                acc = f(
                    acc,
                    CopyOp {
                        src_off,
                        dst_off,
                        len,
                    },
                );
                typed += s.inner_stride;
                packed += len;
            }
            self.p += run * bb;
            self.j += run;
            self.disp = typed;
            if self.j == s.inner {
                self.j = 0;
                self.row += s.outer_stride;
                self.disp = self.row;
            }
        }
        match self.next() {
            Some(op) => f(acc, op),
            None => acc,
        }
    }
}

/// Fill `units` (cleared first) with the window's segments: the list a
/// strided window stands for.
pub fn strided_units(w: &StridedWindow, units: &mut Vec<CopyOp>) {
    units.clear();
    units.extend(w.segments_from(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The division form the stepping [`Segments`] replaced: block, row
    /// and column of every unit recomputed from its packed position.
    fn strided_units_by_division(w: &StridedWindow) -> Vec<CopyOp> {
        let s = &w.shape;
        let mut units = Vec::new();
        let mut p = w.from;
        while p < w.to {
            let (block, intra) = (p / s.block_bytes, p % s.block_bytes);
            let take = (s.block_bytes - intra).min(w.to - p);
            let (i, j) = ((block / s.inner) as i64, (block % s.inner) as i64);
            let disp = s.first_disp + i * s.outer_stride + j * s.inner_stride + intra as i64;
            let (typed, packed) = ((disp - w.base_shift) as usize, (p - w.from) as usize);
            let (src_off, dst_off) = if w.unpack {
                (packed, typed)
            } else {
                (typed, packed)
            };
            units.push(CopyOp {
                src_off,
                dst_off,
                len: take as usize,
            });
            p += take;
        }
        units
    }

    /// A random shape — every fourth a vector (one endless row), every
    /// third with a negative inner stride, outer strides of either sign
    /// — with its stream length and the lowest displacement a block
    /// starts at. Blocks are whole doubles.
    fn arb_shape(rng: &mut SimRng, case: u64) -> (Strided2D, i64, u64) {
        let unit = 8;
        let inner = match case % 4 {
            0 => u64::MAX,
            _ => rng.range_u64(1, 9),
        };
        let rows = if inner == u64::MAX {
            1
        } else {
            rng.range_u64(1, 7)
        };
        let block_bytes = unit * rng.range_u64(1, 6);
        let inner_stride = block_bytes as i64 + (unit * rng.range_u64(0, 5)) as i64;
        let shape = Strided2D {
            outer: rows,
            inner,
            block_bytes,
            inner_stride: if case.is_multiple_of(3) {
                -inner_stride
            } else {
                inner_stride
            },
            outer_stride: (unit * rng.range_u64(0, 400)) as i64 - 100 * unit as i64,
            first_disp: (unit * rng.range_u64(0, 50)) as i64,
        };
        let cols = inner.min(11);
        let total = block_bytes * cols * rows;
        // The lowest displacement any block reaches.
        let lo = (0..rows)
            .flat_map(|i| [0, cols - 1].map(|j| shape.disp(i * inner + j, 0)))
            .min()
            .unwrap_or(0);
        (shape, lo, total)
    }

    /// Cuts of `0..total`: random ones, plus one inside a block, one at
    /// a block end and one at a row end.
    fn cuts(rng: &mut SimRng, s: &Strided2D, total: u64) -> Vec<u64> {
        let row_bytes = s.block_bytes * s.inner.min(11);
        let mut cuts = vec![0, total, s.block_bytes / 2, s.block_bytes, row_bytes];
        cuts.extend((0..6).map(|_| rng.range_u64(0, total + 1)));
        cuts.retain(|&c| c <= total);
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }

    #[test]
    fn stepping_segments_equal_the_division_form_over_random_shapes_and_window_cuts() {
        let mut rng = crate::rng::rng(0x57e9);
        let mut units = Vec::new();
        for case in 0..400 {
            let (shape, lo, total) = arb_shape(&mut rng, case);
            for unpack in [false, true] {
                let window = |from, to| StridedWindow {
                    shape,
                    base_shift: lo - (1 << 20),
                    from,
                    to,
                    unpack,
                };
                let cuts = cuts(&mut rng, &shape, total);
                for w in cuts
                    .windows(2)
                    .map(|c| window(c[0], c[1]))
                    .chain([window(0, total)])
                {
                    strided_units(&w, &mut units);
                    assert_eq!(units, strided_units_by_division(&w), "{w:?}");
                    assert_eq!(units.len() as u64, w.segments(), "{w:?}");
                    assert_eq!(units.iter().map(|u| u.len as u64).sum::<u64>(), w.bytes());
                    // Resuming at any segment continues the same list,
                    // through the 2-D loop (`fold`) and block by block.
                    for k in [0, 1, units.len() / 2, units.len()] {
                        let rest: Vec<CopyOp> = w.segments_from(k as u64).collect();
                        assert_eq!(rest, units[k.min(units.len())..], "{w:?} from {k}");
                        let mut it = w.segments_from(k as u64);
                        let stepped: Vec<CopyOp> = std::iter::from_fn(|| it.next()).collect();
                        assert_eq!(stepped, rest, "{w:?} from {k}, stepped");
                    }
                    // The grids hold exactly the list, in packed order.
                    let mut by_grid = Vec::new();
                    for g in w.grids() {
                        for r in 0..g.rows {
                            for c in 0..g.cols {
                                let typed =
                                    g.typed + r as i64 * g.row_stride + c as i64 * g.col_stride;
                                let packed = g.packed + (r * g.cols + c) * g.len;
                                by_grid.push((packed, typed as usize, g.len as usize));
                            }
                        }
                    }
                    by_grid.sort_unstable();
                    let listed = units.iter().map(|u| {
                        let (typed, packed) = if unpack {
                            (u.dst_off, u.src_off)
                        } else {
                            (u.src_off, u.dst_off)
                        };
                        (packed as u64, typed, u.len)
                    });
                    assert_eq!(by_grid, listed.collect::<Vec<_>>(), "{w:?}");
                }
            }
        }
    }

    #[test]
    fn an_empty_window_has_no_segments_and_needs_nothing() {
        let shape = Strided2D {
            outer: 2,
            inner: 3,
            block_bytes: 8,
            inner_stride: 16,
            outer_stride: 64,
            first_disp: 0,
        };
        for at in [0, 5, 8, 48] {
            let w = StridedWindow {
                shape,
                base_shift: 0,
                from: at,
                to: at,
                unpack: false,
            };
            assert_eq!((w.segments(), w.bytes(), w.needs()), (0, 0, (0, 0)));
            assert_eq!(w.segments_from(0).next(), None);
            assert_eq!(w.grids().count(), 0);
        }
    }
}
