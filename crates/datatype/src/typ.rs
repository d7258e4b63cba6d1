//! Datatype construction and the size/extent algebra.
//!
//! A [`DataType`] is an immutable tree of combiners over primitives,
//! mirroring the MPI constructors (`MPI_Type_contiguous`,
//! `MPI_Type_vector`, `MPI_Type_create_hvector`, `MPI_Type_indexed`,
//! `MPI_Type_create_hindexed`, `MPI_Type_create_indexed_block`,
//! `MPI_Type_create_struct`, `MPI_Type_create_subarray`,
//! `MPI_Type_create_resized`, `MPI_Type_dup`). All derived quantities —
//! size, extent, lower/upper bound, true bounds, contiguity — are
//! computed eagerly at construction, so committed types are free to
//! query on the hot path.

use crate::error::TypeError;
use crate::primitive::Primitive;
use crate::segment::{Segment, SegmentSink};
use simcore::par::Strided2D;
use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

/// A (blocklength, displacement) pair used by the indexed constructors.
type Block = (u64, i64);

/// FNV-1a, 64-bit. Used for [`DataType::layout_fingerprint`]; chosen for
/// being tiny, dependency-free and stable across platforms (the std
/// `Hasher`s are explicitly not stable between releases).
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    // Word-at-a-time FNV-1a variant: one multiply per u64 keeps the
    // fingerprint cheap on wide Indexed/Struct block lists (it sits on
    // the cache-hit path). Weaker per-byte diffusion than classic FNV
    // is fine here — cache keys pair the fingerprint with the type's
    // exact size and true bounds.
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
pub(crate) enum Kind {
    Primitive(Primitive),
    Contiguous {
        count: u64,
        child: DataType,
    },
    /// Stride is stored in **bytes** internally; the element-stride
    /// constructor converts. Covers both vector and hvector.
    Vector {
        count: u64,
        blocklen: u64,
        stride_bytes: i64,
        child: DataType,
    },
    /// Blocks of (blocklength, displacement-in-bytes). Covers indexed,
    /// hindexed and indexed_block (which lower to this form).
    Indexed {
        blocks: Rc<[Block]>,
        child: DataType,
    },
    Struct {
        /// (blocklength, displacement-in-bytes, field type)
        fields: Rc<[(u64, i64, DataType)]>,
    },
    Resized {
        lb: i64,
        extent: i64,
        child: DataType,
    },
}

/// Memoized result of [`DataType::canonical`]. `Same` (rather than a
/// self-referencing `DataType`) avoids an `Rc` cycle through the node.
#[derive(Debug)]
enum CanonMemo {
    Same,
    Other(DataType),
}

#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) kind: Kind,
    size: u64,
    lb: i64,
    ub: i64,
    true_lb: i64,
    true_ub: i64,
    gapless: bool,
    /// Upper bound on the number of (unmerged) contiguous segments in
    /// one instance — used for planning, not correctness.
    segment_estimate: u64,
    depth: u32,
    /// Lazily computed canonical form (commit-time normalization).
    canon: OnceCell<CanonMemo>,
    /// Lazily computed [`DataType::layout_fingerprint`]. The node is
    /// immutable behind its `Rc`, so the hash of its tree never changes.
    fingerprint: OnceCell<u64>,
    /// Lazily computed [`DataType::signature_runs`], shared by every
    /// `dup` / `commit` of the type the same way.
    signature_runs: OnceCell<Rc<[(Primitive, u64)]>>,
}

/// An MPI derived datatype. Cheap to clone (shared tree).
#[derive(Clone, Debug)]
pub struct DataType {
    node: Rc<Node>,
    committed: bool,
}

impl DataType {
    // ----- constructors: primitives -----

    fn leaf(p: Primitive) -> DataType {
        let size = p.size();
        DataType {
            node: Rc::new(Node {
                kind: Kind::Primitive(p),
                size,
                lb: 0,
                ub: size as i64,
                true_lb: 0,
                true_ub: size as i64,
                gapless: true,
                segment_estimate: 1,
                depth: 0,
                canon: OnceCell::new(),
                fingerprint: OnceCell::new(),
                signature_runs: OnceCell::new(),
            }),
            committed: false,
        }
    }

    pub fn primitive(p: Primitive) -> DataType {
        Self::leaf(p)
    }

    pub fn byte() -> DataType {
        Self::leaf(Primitive::Byte)
    }

    pub fn int() -> DataType {
        Self::leaf(Primitive::Int32)
    }

    pub fn long() -> DataType {
        Self::leaf(Primitive::Int64)
    }

    pub fn float() -> DataType {
        Self::leaf(Primitive::Float32)
    }

    pub fn double() -> DataType {
        Self::leaf(Primitive::Float64)
    }

    // ----- constructors: combiners -----

    /// `MPI_Type_contiguous(count, child)`.
    pub fn contiguous(count: u64, child: &DataType) -> Result<DataType, TypeError> {
        if count == 0 {
            return Err(TypeError::InvalidArgument("contiguous count must be > 0"));
        }
        let c = child.node.as_ref();
        let size = c.size * count;
        let ext = child.extent();
        let (lb, ub) = (c.lb, c.ub + (count as i64 - 1) * ext);
        let (true_lb, true_ub) = if c.size == 0 {
            (0, 0)
        } else {
            (c.true_lb, c.true_ub + (count as i64 - 1) * ext)
        };
        let gapless = c.size == 0 || (c.gapless && (count == 1 || child.dense()));
        Ok(DataType {
            node: Rc::new(Node {
                kind: Kind::Contiguous {
                    count,
                    child: child.clone(),
                },
                size,
                lb,
                ub,
                true_lb,
                true_ub,
                gapless,
                segment_estimate: if gapless {
                    1
                } else {
                    count.saturating_mul(c.segment_estimate)
                },
                depth: c.depth + 1,
                canon: OnceCell::new(),
                fingerprint: OnceCell::new(),
                signature_runs: OnceCell::new(),
            }),
            committed: false,
        })
    }

    /// `MPI_Type_vector(count, blocklen, stride, child)` — stride in
    /// *elements* of `child`.
    pub fn vector(
        count: u64,
        blocklen: u64,
        stride: i64,
        child: &DataType,
    ) -> Result<DataType, TypeError> {
        let stride_bytes = stride * child.extent();
        Self::hvector(count, blocklen, stride_bytes, child)
    }

    /// `MPI_Type_create_hvector(count, blocklen, stride, child)` —
    /// stride in *bytes*.
    pub fn hvector(
        count: u64,
        blocklen: u64,
        stride_bytes: i64,
        child: &DataType,
    ) -> Result<DataType, TypeError> {
        if count == 0 || blocklen == 0 {
            return Err(TypeError::InvalidArgument(
                "vector count/blocklen must be > 0",
            ));
        }
        let c = child.node.as_ref();
        let ext = child.extent();
        let size = c.size * blocklen * count;

        let first = 0i64;
        let last = (count as i64 - 1) * stride_bytes;
        let block_span_ub = (blocklen as i64 - 1) * ext;
        let lb = first.min(last) + c.lb;
        let ub = first.max(last) + block_span_ub + c.ub;
        let (true_lb, true_ub) = if c.size == 0 {
            (0, 0)
        } else {
            (
                first.min(last) + c.true_lb,
                first.max(last) + block_span_ub + c.true_ub,
            )
        };

        let block_contig = child.dense() || (blocklen == 1 && c.gapless);
        let block_data_len = (blocklen * c.size) as i64;
        let gapless =
            c.size == 0 || (block_contig && (count == 1 || stride_bytes == block_data_len));

        Ok(DataType {
            node: Rc::new(Node {
                kind: Kind::Vector {
                    count,
                    blocklen,
                    stride_bytes,
                    child: child.clone(),
                },
                size,
                lb,
                ub,
                true_lb,
                true_ub,
                gapless,
                segment_estimate: if gapless {
                    1
                } else {
                    count.saturating_mul(if block_contig {
                        1
                    } else {
                        blocklen.saturating_mul(c.segment_estimate)
                    })
                },
                depth: c.depth + 1,
                canon: OnceCell::new(),
                fingerprint: OnceCell::new(),
                signature_runs: OnceCell::new(),
            }),
            committed: false,
        })
    }

    /// `MPI_Type_indexed(blocklens, displacements, child)` —
    /// displacements in *elements* of `child`.
    pub fn indexed(
        blocklens: &[u64],
        displs: &[i64],
        child: &DataType,
    ) -> Result<DataType, TypeError> {
        if blocklens.len() != displs.len() {
            return Err(TypeError::LengthMismatch {
                lengths: blocklens.len(),
                displacements: displs.len(),
            });
        }
        let ext = child.extent();
        let blocks: Vec<Block> = blocklens
            .iter()
            .zip(displs)
            .map(|(&l, &d)| (l, d * ext))
            .collect();
        Self::hindexed_blocks(blocks, child)
    }

    /// `MPI_Type_create_hindexed` — displacements in *bytes*.
    pub fn hindexed(
        blocklens: &[u64],
        byte_displs: &[i64],
        child: &DataType,
    ) -> Result<DataType, TypeError> {
        if blocklens.len() != byte_displs.len() {
            return Err(TypeError::LengthMismatch {
                lengths: blocklens.len(),
                displacements: byte_displs.len(),
            });
        }
        let blocks: Vec<Block> = blocklens
            .iter()
            .zip(byte_displs)
            .map(|(&l, &d)| (l, d))
            .collect();
        Self::hindexed_blocks(blocks, child)
    }

    /// `MPI_Type_create_indexed_block(blocklen, displacements, child)`.
    pub fn indexed_block(
        blocklen: u64,
        displs: &[i64],
        child: &DataType,
    ) -> Result<DataType, TypeError> {
        let ext = child.extent();
        let blocks: Vec<Block> = displs.iter().map(|&d| (blocklen, d * ext)).collect();
        Self::hindexed_blocks(blocks, child)
    }

    fn hindexed_blocks(blocks: Vec<Block>, child: &DataType) -> Result<DataType, TypeError> {
        if blocks.is_empty() {
            return Err(TypeError::InvalidArgument(
                "indexed type needs at least one block",
            ));
        }
        let c = child.node.as_ref();
        let ext = child.extent();
        let size: u64 = blocks.iter().map(|(l, _)| l * c.size).sum();

        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        let mut true_lb = i64::MAX;
        let mut true_ub = i64::MIN;
        for &(l, d) in &blocks {
            // Zero-length blocks still contribute to lb/ub in MPI; we
            // follow the simpler convention of ignoring them entirely.
            if l == 0 {
                continue;
            }
            lb = lb.min(d + c.lb);
            ub = ub.max(d + (l as i64 - 1) * ext + c.ub);
            if c.size > 0 {
                true_lb = true_lb.min(d + c.true_lb);
                true_ub = true_ub.max(d + (l as i64 - 1) * ext + c.true_ub);
            }
        }
        if lb == i64::MAX {
            // All blocks empty.
            lb = 0;
            ub = 0;
        }
        if true_lb == i64::MAX {
            true_lb = 0;
            true_ub = 0;
        }

        // Gapless iff every block's data is itself contiguous and the
        // blocks' data spans tile an interval exactly.
        let gapless = if c.size == 0 {
            true
        } else {
            let block_contig = child.dense() || c.gapless;
            let per_block_ok = blocks.iter().all(|&(l, _)| l <= 1 || child.dense());
            if block_contig && per_block_ok {
                let mut spans: Vec<(i64, i64)> = blocks
                    .iter()
                    .filter(|&&(l, _)| l > 0)
                    .map(|&(l, d)| {
                        let start = d + c.true_lb;
                        (start, start + (l * c.size) as i64)
                    })
                    .collect();
                spans.sort_unstable();
                spans.windows(2).all(|w| w[0].1 == w[1].0)
            } else {
                false
            }
        };

        let segment_estimate = blocks
            .iter()
            .map(|&(l, _)| {
                if child.dense() {
                    1
                } else {
                    l.saturating_mul(c.segment_estimate)
                }
            })
            .sum::<u64>()
            .max(1);

        Ok(DataType {
            node: Rc::new(Node {
                kind: Kind::Indexed {
                    blocks: blocks.into(),
                    child: child.clone(),
                },
                size,
                lb,
                ub,
                true_lb,
                true_ub,
                gapless,
                segment_estimate: if gapless { 1 } else { segment_estimate },
                depth: c.depth + 1,
                canon: OnceCell::new(),
                fingerprint: OnceCell::new(),
                signature_runs: OnceCell::new(),
            }),
            committed: false,
        })
    }

    /// `MPI_Type_create_struct(blocklens, byte displacements, types)`.
    pub fn structure(
        blocklens: &[u64],
        byte_displs: &[i64],
        types: &[DataType],
    ) -> Result<DataType, TypeError> {
        if blocklens.len() != byte_displs.len() || blocklens.len() != types.len() {
            return Err(TypeError::LengthMismatch {
                lengths: blocklens.len(),
                displacements: byte_displs.len(),
            });
        }
        if blocklens.is_empty() {
            return Err(TypeError::InvalidArgument(
                "struct needs at least one field",
            ));
        }
        let fields: Vec<(u64, i64, DataType)> = blocklens
            .iter()
            .zip(byte_displs)
            .zip(types)
            .map(|((&l, &d), t)| (l, d, t.clone()))
            .collect();

        let mut size = 0u64;
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        let mut true_lb = i64::MAX;
        let mut true_ub = i64::MIN;
        let mut depth = 0;
        let mut seg = 0u64;
        for (l, d, t) in &fields {
            let n = t.node.as_ref();
            depth = depth.max(n.depth);
            if *l == 0 || n.size == 0 {
                continue;
            }
            size += l * n.size;
            let ext = t.extent();
            lb = lb.min(d + n.lb);
            ub = ub.max(d + (*l as i64 - 1) * ext + n.ub);
            true_lb = true_lb.min(d + n.true_lb);
            true_ub = true_ub.max(d + (*l as i64 - 1) * ext + n.true_ub);
            seg = seg.saturating_add(if t.dense() {
                1
            } else {
                l.saturating_mul(n.segment_estimate)
            });
        }
        if lb == i64::MAX {
            lb = 0;
            ub = 0;
            true_lb = 0;
            true_ub = 0;
        }

        let gapless = {
            let mut spans: Vec<(i64, i64)> = Vec::new();
            let mut simple = true;
            for (l, d, t) in &fields {
                let n = t.node.as_ref();
                if *l == 0 || n.size == 0 {
                    continue;
                }
                if (*l > 1 && !t.dense()) || !n.gapless {
                    simple = false;
                    break;
                }
                let start = d + n.true_lb;
                spans.push((start, start + (*l * n.size) as i64));
            }
            if simple {
                spans.sort_unstable();
                spans.windows(2).all(|w| w[0].1 == w[1].0)
            } else {
                false
            }
        };

        Ok(DataType {
            node: Rc::new(Node {
                kind: Kind::Struct {
                    fields: fields.into(),
                },
                size,
                lb,
                ub,
                true_lb,
                true_ub,
                gapless,
                segment_estimate: if gapless { 1 } else { seg.max(1) },
                depth: depth + 1,
                canon: OnceCell::new(),
                fingerprint: OnceCell::new(),
                signature_runs: OnceCell::new(),
            }),
            committed: false,
        })
    }

    /// `MPI_Type_create_resized(child, lb, extent)`.
    pub fn resized(child: &DataType, lb: i64, extent: i64) -> Result<DataType, TypeError> {
        if extent <= 0 {
            return Err(TypeError::InvalidArgument(
                "resized extent must be positive",
            ));
        }
        let c = child.node.as_ref();
        Ok(DataType {
            node: Rc::new(Node {
                kind: Kind::Resized {
                    lb,
                    extent,
                    child: child.clone(),
                },
                size: c.size,
                lb,
                ub: lb + extent,
                true_lb: c.true_lb,
                true_ub: c.true_ub,
                gapless: c.gapless,
                segment_estimate: c.segment_estimate,
                depth: c.depth + 1,
                canon: OnceCell::new(),
                fingerprint: OnceCell::new(),
                signature_runs: OnceCell::new(),
            }),
            committed: false,
        })
    }

    /// `MPI_Type_create_subarray` for a row/column-major array.
    ///
    /// `sizes` is the full array shape, `subsizes` the selected region,
    /// `starts` the region origin (all in elements, slowest-varying
    /// dimension first, i.e. C order).
    pub fn subarray(
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        child: &DataType,
    ) -> Result<DataType, TypeError> {
        if sizes.len() != subsizes.len() || sizes.len() != starts.len() || sizes.is_empty() {
            return Err(TypeError::InvalidArgument(
                "subarray shape arrays must match and be non-empty",
            ));
        }
        for d in 0..sizes.len() {
            if subsizes[d] == 0 || starts[d] + subsizes[d] > sizes[d] {
                return Err(TypeError::InvalidArgument("subarray region out of bounds"));
            }
        }
        // Build innermost-out: contiguous run of the last dimension,
        // then an hvector per outer dimension; finally shift by the
        // start offsets with a resized-hindexed wrapper.
        let elem = child.extent();
        let mut t = DataType::contiguous(subsizes[sizes.len() - 1], child)?;
        let mut row_bytes = elem * sizes[sizes.len() - 1] as i64;
        for d in (0..sizes.len() - 1).rev() {
            t = DataType::hvector(subsizes[d], 1, row_bytes, &t)?;
            row_bytes *= sizes[d] as i64;
        }
        // Displacement of the region origin.
        let mut disp = 0i64;
        let mut stride = elem;
        for d in (0..sizes.len()).rev() {
            disp += starts[d] as i64 * stride;
            stride *= sizes[d] as i64;
        }
        let total_bytes = sizes.iter().product::<u64>() as i64 * elem;
        let shifted = DataType::hindexed(&[1], &[disp], &t)?;
        // The subarray's extent is the whole array, so consecutive
        // counts index consecutive full arrays.
        DataType::resized(&shifted, 0, total_bytes)
    }

    /// `MPI_Type_dup`.
    pub fn dup(&self) -> DataType {
        self.clone()
    }

    /// `MPI_Type_commit`. Construction already computed every cached
    /// property, so commit only flips the usability flag (and is the
    /// natural place future normalization passes would hang).
    pub fn commit(mut self) -> DataType {
        self.committed = true;
        self
    }

    // ----- queries -----

    pub fn is_committed(&self) -> bool {
        self.committed
    }

    /// Number of bytes of actual data in one instance (`MPI_Type_size`).
    pub fn size(&self) -> u64 {
        self.node.size
    }

    /// `MPI_Type_get_extent`: (lb, extent).
    pub fn extent(&self) -> i64 {
        self.node.ub - self.node.lb
    }

    pub fn lb(&self) -> i64 {
        self.node.lb
    }

    pub fn ub(&self) -> i64 {
        self.node.ub
    }

    /// `MPI_Type_get_true_extent`: bounds of the actual data.
    pub fn true_lb(&self) -> i64 {
        self.node.true_lb
    }

    pub fn true_ub(&self) -> i64 {
        self.node.true_ub
    }

    pub fn true_extent(&self) -> i64 {
        self.node.true_ub - self.node.true_lb
    }

    /// Is one instance's data a single contiguous run (no internal
    /// gaps)? Note this says nothing about repetition: see [`Self::dense`].
    pub(crate) fn is_gapless(&self) -> bool {
        self.node.gapless
    }

    /// Gapless *and* tiling: `count` consecutive instances form one
    /// contiguous run. This is the property the protocols' contiguous
    /// fast paths key on.
    pub fn dense(&self) -> bool {
        self.node.gapless && self.extent() == self.node.size as i64 && self.node.size > 0
    }

    /// Is a send/recv of `count` instances fully contiguous in memory?
    pub fn is_contiguous(&self, count: u64) -> bool {
        self.node.size > 0
            && self.node.gapless
            && (count <= 1 || self.extent() == self.node.size as i64)
    }

    /// Upper bound on contiguous segments in one instance.
    pub fn segment_estimate(&self) -> u64 {
        self.node.segment_estimate
    }

    /// Tree depth (primitives are 0).
    pub fn depth(&self) -> u32 {
        self.node.depth
    }

    pub(crate) fn kind(&self) -> &Kind {
        &self.node.kind
    }

    /// Flatten `count` instances into merged contiguous segments.
    /// Displacements are relative to the buffer origin; instance `i`
    /// starts at `i * extent`.
    pub fn segments(&self, count: u64) -> Vec<Segment> {
        let mut sink = SegmentSink::new();
        self.for_each_segment(count, |d, l| sink.push(d, l));
        sink.finish()
    }

    /// Stream the (unmerged-at-instance-granularity, merged within
    /// dense runs) segments of `count` instances in datatype order.
    pub fn for_each_segment(&self, count: u64, mut f: impl FnMut(i64, u64)) {
        let ext = self.extent();
        for i in 0..count {
            self.walk(i as i64 * ext, &mut f);
        }
    }

    fn walk(&self, base: i64, f: &mut impl FnMut(i64, u64)) {
        let n = self.node.as_ref();
        if n.size == 0 {
            return;
        }
        if n.gapless {
            f(base + n.true_lb, n.size);
            return;
        }
        match &n.kind {
            Kind::Primitive(p) => f(base, p.size()),
            Kind::Contiguous { count, child } => {
                let ext = child.extent();
                for i in 0..*count {
                    child.walk(base + i as i64 * ext, f);
                }
            }
            Kind::Vector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => {
                let ext = child.extent();
                let dense = child.dense();
                for i in 0..*count {
                    let b = base + i as i64 * stride_bytes;
                    if dense {
                        f(b + child.true_lb(), blocklen * child.size());
                    } else {
                        for j in 0..*blocklen {
                            child.walk(b + j as i64 * ext, f);
                        }
                    }
                }
            }
            Kind::Indexed { blocks, child } => {
                let ext = child.extent();
                let dense = child.dense();
                for &(l, d) in blocks.iter() {
                    if l == 0 {
                        continue;
                    }
                    let b = base + d;
                    if dense {
                        f(b + child.true_lb(), l * child.size());
                    } else {
                        for j in 0..l {
                            child.walk(b + j as i64 * ext, f);
                        }
                    }
                }
            }
            Kind::Struct { fields } => {
                for (l, d, t) in fields.iter() {
                    if *l == 0 || t.size() == 0 {
                        continue;
                    }
                    let ext = t.extent();
                    for j in 0..*l {
                        t.walk(base + d + j as i64 * ext, f);
                    }
                }
            }
            Kind::Resized { child, .. } => child.walk(base, f),
        }
    }

    /// Visit every primitive leaf in datatype order (for signatures).
    pub(crate) fn for_each_primitive(&self, mut f: impl FnMut(Primitive, u64)) {
        self.visit_prims(&mut f);
    }

    /// The primitive leaves of one instance as run-length-encoded
    /// `(primitive, count)` runs, adjacent equal primitives merged: what
    /// [`crate::Signature`] holds per instance. The walk visits every
    /// block of an indexed type, so it runs once per type tree and the
    /// node keeps the result.
    pub(crate) fn signature_runs(&self) -> Rc<[(Primitive, u64)]> {
        Rc::clone(self.node.signature_runs.get_or_init(|| {
            let mut runs: Vec<(Primitive, u64)> = Vec::new();
            self.for_each_primitive(|p, n| {
                if n == 0 {
                    return;
                }
                match runs.last_mut() {
                    Some((lp, ln)) if *lp == p => *ln += n,
                    _ => runs.push((p, n)),
                }
            });
            runs.into()
        }))
    }

    fn visit_prims(&self, f: &mut impl FnMut(Primitive, u64)) {
        match &self.node.kind {
            Kind::Primitive(p) => f(*p, 1),
            Kind::Contiguous { count, child } => {
                if child.is_homogeneous().is_some() {
                    // All leaves identical: emit one run.
                    let p = child.is_homogeneous().unwrap();
                    f(p, count * child.size() / p.size());
                } else {
                    for _ in 0..*count {
                        child.visit_prims(f);
                    }
                }
            }
            Kind::Vector {
                count,
                blocklen,
                child,
                ..
            } => {
                if let Some(p) = child.is_homogeneous() {
                    f(p, count * blocklen * child.size() / p.size());
                } else {
                    for _ in 0..count * blocklen {
                        child.visit_prims(f);
                    }
                }
            }
            Kind::Indexed { blocks, child } => {
                let total: u64 = blocks.iter().map(|(l, _)| *l).sum();
                if let Some(p) = child.is_homogeneous() {
                    f(p, total * child.size() / p.size());
                } else {
                    for _ in 0..total {
                        child.visit_prims(f);
                    }
                }
            }
            Kind::Struct { fields } => {
                for (l, _, t) in fields.iter() {
                    for _ in 0..*l {
                        t.visit_prims(f);
                    }
                }
            }
            Kind::Resized { child, .. } => child.visit_prims(f),
        }
    }

    /// Stable identity of the underlying (shared) type tree. Equal ids
    /// imply identical layout; used as a cache key by the GPU engine
    /// (the paper caches CUDA-DEV lists per datatype).
    pub fn id(&self) -> usize {
        Rc::as_ptr(&self.node) as usize
    }

    /// Structural fingerprint of the type tree: an FNV-1a hash over the
    /// normalized constructor tree (element-unit constructors in their
    /// byte-displacement form). Two types built through identical
    /// constructor calls — even in different Sessions — hash equal, so
    /// caches keyed on the fingerprint survive type re-construction,
    /// which identity keys ([`Self::id`]) never do.
    ///
    /// Unlike [`crate::Signature`] (the *primitive-sequence* equivalence
    /// MPI matching uses), the fingerprint distinguishes *layouts*:
    /// `vector(8, 8, 16, BYTE)` and `contiguous(64, BYTE)` carry the
    /// same signature but hash differently, which is what a cache of
    /// layout-dependent descriptors needs. Equal fingerprints imply
    /// identical layout up to hash collisions; cache keys should pair
    /// the fingerprint with cheap exact invariants (size, true bounds)
    /// to make collisions harmless in practice.
    ///
    /// The tree is walked once per node; later calls (every warm cache
    /// lookup makes one) read the stored hash.
    pub fn layout_fingerprint(&self) -> u64 {
        *self.node.fingerprint.get_or_init(|| {
            let mut h = Fnv1a::new();
            self.fingerprint_into(&mut h);
            h.finish()
        })
    }

    fn fingerprint_into(&self, h: &mut Fnv1a) {
        match &self.node.kind {
            Kind::Primitive(p) => {
                h.write_u64(1);
                h.write_u64(p.code());
            }
            Kind::Contiguous { count, child } => {
                h.write_u64(2);
                h.write_u64(*count);
                child.fingerprint_into(h);
            }
            Kind::Vector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => {
                h.write_u64(3);
                h.write_u64(*count);
                h.write_u64(*blocklen);
                h.write_i64(*stride_bytes);
                child.fingerprint_into(h);
            }
            Kind::Indexed { blocks, child } => {
                h.write_u64(4);
                h.write_u64(blocks.len() as u64);
                for (len, disp) in blocks.iter() {
                    h.write_u64(*len);
                    h.write_i64(*disp);
                }
                child.fingerprint_into(h);
            }
            Kind::Struct { fields } => {
                h.write_u64(5);
                h.write_u64(fields.len() as u64);
                for (len, disp, ty) in fields.iter() {
                    h.write_u64(*len);
                    h.write_i64(*disp);
                    ty.fingerprint_into(h);
                }
            }
            Kind::Resized { lb, extent, child } => {
                h.write_u64(6);
                h.write_i64(*lb);
                h.write_i64(*extent);
                child.fingerprint_into(h);
            }
        }
    }

    /// If this type is expressible as uniformly strided equal blocks —
    /// the shape the paper's specialized vector kernel handles — return
    /// `(block_count, block_bytes, stride_bytes, first_disp)`.
    ///
    /// Wrappers that do not change the data layout (`resized`,
    /// single-count `contiguous`) are looked through.
    pub fn vector_shape(&self) -> Option<(u64, u64, i64, i64)> {
        if self.node.size == 0 {
            return None;
        }
        if self.node.gapless {
            return Some((1, self.node.size, self.node.size as i64, self.node.true_lb));
        }
        match &self.node.kind {
            // Each block must be one contiguous run: either the child
            // tiles (dense) or there is a single gapless child per
            // block. The latter covers negative-stride hvectors over
            // gapless-but-not-dense children, which previously fell
            // back to the generic path.
            Kind::Vector {
                count,
                blocklen,
                stride_bytes,
                child,
            } if child.dense() || (*blocklen == 1 && child.is_gapless()) => Some((
                *count,
                blocklen * child.size(),
                *stride_bytes,
                child.true_lb(),
            )),
            Kind::Contiguous { count: 1, child } => child.vector_shape(),
            Kind::Contiguous { count, child } => {
                // contiguous(n, vector) is a vector with n*count blocks
                // only if the pattern continues across instances.
                let (c, b, s, d) = child.vector_shape()?;
                if child.extent() == (c as i64) * s {
                    Some((count * c, b, s, d))
                } else {
                    None
                }
            }
            Kind::Resized { child, .. } => child.vector_shape(),
            Kind::Indexed { blocks, child } if child.dense() || child.is_gapless() => {
                // Uniform indexed blocks with constant stride. A
                // gapless-but-not-dense child only yields contiguous
                // blocks when each block holds a single instance.
                let mut it = blocks.iter().filter(|(l, _)| *l > 0);
                let &(l0, d0) = it.next()?;
                if l0 > 1 && !child.dense() {
                    return None;
                }
                let mut prev = d0;
                let mut stride: Option<i64> = None;
                let mut n = 1u64;
                for &(l, d) in it {
                    if l != l0 {
                        return None;
                    }
                    match stride {
                        None => stride = Some(d - prev),
                        Some(s) if d - prev == s => {}
                        _ => return None,
                    }
                    prev = d;
                    n += 1;
                }
                let block_bytes = l0 * child.size();
                let s = stride.unwrap_or(block_bytes as i64);
                Some((n, block_bytes, s, d0 + child.true_lb()))
            }
            _ => None,
        }
    }

    /// If this type is a two-level uniformly strided pattern — `outer`
    /// repetitions, each of `inner` equal blocks — return the
    /// [`Strided2D`] description. This is the shape of a matrix
    /// transpose (hvector over vector) or a contiguous-of-vector tree;
    /// the GPU engine can generate work units for it arithmetically,
    /// with no descriptor list at all.
    ///
    /// Shapes already expressible by [`Self::vector_shape`] are not
    /// reported (callers try the cheaper one-level form first).
    pub fn strided2d_shape(&self) -> Option<Strided2D> {
        if self.node.size == 0 || self.vector_shape().is_some() {
            return None;
        }
        match &self.node.kind {
            Kind::Resized { child, .. } => child.strided2d_shape(),
            Kind::Contiguous { count: 1, child } => child.strided2d_shape(),
            // One strided row of blocks per child instance.
            Kind::Contiguous { count, child } => {
                let (c, b, s, d) = child.vector_shape()?;
                Some(Strided2D {
                    outer: *count,
                    inner: c,
                    block_bytes: b,
                    inner_stride: s,
                    outer_stride: child.extent(),
                    first_disp: d,
                })
            }
            // Outer stride over a strided row; blocklen 1 keeps each
            // outer step a single row.
            Kind::Vector {
                count,
                blocklen: 1,
                stride_bytes,
                child,
            } => {
                let (c, b, s, d) = child.vector_shape()?;
                Some(Strided2D {
                    outer: *count,
                    inner: c,
                    block_bytes: b,
                    inner_stride: s,
                    outer_stride: *stride_bytes,
                    first_disp: d,
                })
            }
            _ => None,
        }
    }

    // ----- canonicalization -----

    /// Commit-time canonical form of the constructor tree.
    ///
    /// Collapses degenerate wrappers (count-1 contiguous, extent-neutral
    /// resized, count-1 vectors), folds contiguous children into their
    /// parents, merges data-order-adjacent indexed blocks and rewrites
    /// uniform constant-stride block lists as hvectors — the
    /// normalization TEMPI applies to CUDA-aware datatypes. The result
    /// describes the *same byte walk*: identical segment stream, size,
    /// bounds and extent, so pack/unpack semantics are unchanged. The
    /// canonical tree is what the GPU engine fingerprints, letting
    /// differently constructed but layout-identical types share cached
    /// DEV plans and hit the specialized strided kernels.
    ///
    /// Memoized per node; cheap after the first call.
    pub fn canonical(&self) -> DataType {
        let memo = self.node.canon.get_or_init(|| {
            let cand = self.canon_build();
            // The rewrite rules preserve the byte walk by construction;
            // the data-derived invariants double-check them (gapless
            // governs the walk's merged-run fast path, so it must not
            // drift either). Keep the original tree if a rule ever
            // misbehaves.
            let ok = cand.size() == self.size()
                && cand.true_lb() == self.true_lb()
                && cand.true_ub() == self.true_ub()
                && cand.is_gapless() == self.is_gapless();
            debug_assert!(ok, "canonicalization changed data layout: {self} -> {cand}");
            if !ok || Rc::ptr_eq(&cand.node, &self.node) {
                return CanonMemo::Same;
            }
            // Layout is identical; restore lb/extent when a collapsed
            // wrapper carried different (artificial) bounds.
            let cand = if cand.lb() == self.lb() && cand.ub() == self.ub() {
                cand
            } else {
                match DataType::resized(&cand, self.lb(), self.extent()) {
                    Ok(r) => r,
                    Err(_) => return CanonMemo::Same,
                }
            };
            CanonMemo::Other(cand)
        });
        match memo {
            CanonMemo::Same => self.clone(),
            CanonMemo::Other(t) => DataType {
                node: Rc::clone(&t.node),
                committed: self.committed,
            },
        }
    }

    /// Canonicalize children (memoized), then apply top-level rewrites
    /// to a fixpoint. Returns `self`'s own node when nothing applies.
    fn canon_build(&self) -> DataType {
        let mut t = self.with_canonical_children();
        let mut fuel = 64u32; // each rewrite shrinks the tree; this is a backstop
        while let Some(next) = t.rewrite_top() {
            t = next;
            fuel -= 1;
            if fuel == 0 {
                debug_assert!(false, "canonicalization did not converge: {self}");
                return self.clone();
            }
        }
        t
    }

    fn with_canonical_children(&self) -> DataType {
        fn same(a: &DataType, b: &DataType) -> bool {
            Rc::ptr_eq(&a.node, &b.node)
        }
        match &self.node.kind {
            Kind::Primitive(_) => self.clone(),
            Kind::Contiguous { count, child } => {
                let c = child.canonical();
                if same(&c, child) {
                    self.clone()
                } else {
                    DataType::contiguous(*count, &c).unwrap_or_else(|_| self.clone())
                }
            }
            Kind::Vector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => {
                let c = child.canonical();
                if same(&c, child) {
                    self.clone()
                } else {
                    DataType::hvector(*count, *blocklen, *stride_bytes, &c)
                        .unwrap_or_else(|_| self.clone())
                }
            }
            Kind::Indexed { blocks, child } => {
                let c = child.canonical();
                if same(&c, child) {
                    self.clone()
                } else {
                    let lens: Vec<u64> = blocks.iter().map(|&(l, _)| l).collect();
                    let disps: Vec<i64> = blocks.iter().map(|&(_, d)| d).collect();
                    DataType::hindexed(&lens, &disps, &c).unwrap_or_else(|_| self.clone())
                }
            }
            Kind::Struct { fields } => {
                let canon: Vec<DataType> = fields.iter().map(|(_, _, t)| t.canonical()).collect();
                if fields.iter().zip(&canon).all(|((_, _, t), c)| same(c, t)) {
                    self.clone()
                } else {
                    let lens: Vec<u64> = fields.iter().map(|(l, _, _)| *l).collect();
                    let disps: Vec<i64> = fields.iter().map(|(_, d, _)| *d).collect();
                    DataType::structure(&lens, &disps, &canon).unwrap_or_else(|_| self.clone())
                }
            }
            Kind::Resized { lb, extent, child } => {
                let c = child.canonical();
                if same(&c, child) {
                    self.clone()
                } else {
                    DataType::resized(&c, *lb, *extent).unwrap_or_else(|_| self.clone())
                }
            }
        }
    }

    /// One top-level rewrite, children already canonical. Every rule
    /// preserves the segment stream (walk order), size, true bounds
    /// and — checked here, since the walk's merged-run fast path keys
    /// on it — the gapless flag. lb/ub drift is fixed by the caller
    /// with a `resized` wrapper.
    fn rewrite_top(&self) -> Option<DataType> {
        let cand = self.rewrite_top_rule()?;
        if cand.size() == self.size()
            && cand.true_lb() == self.true_lb()
            && cand.true_ub() == self.true_ub()
            && cand.is_gapless() == self.is_gapless()
        {
            Some(cand)
        } else {
            None
        }
    }

    fn rewrite_top_rule(&self) -> Option<DataType> {
        match &self.node.kind {
            Kind::Primitive(_) => None,
            Kind::Resized { lb, extent, child } => {
                // Nested resized: only the outermost bounds survive.
                if let Kind::Resized { child: inner, .. } = child.kind() {
                    return DataType::resized(inner, *lb, *extent).ok();
                }
                // Extent-neutral wrapper.
                if *lb == child.lb() && *lb + *extent == child.ub() {
                    return Some(child.clone());
                }
                None
            }
            Kind::Contiguous { count: 1, child } => Some(child.clone()),
            Kind::Contiguous { count, child } => match child.kind() {
                Kind::Contiguous { count: m, child: x } => DataType::contiguous(count * m, x).ok(),
                // contiguous(n, vector) extends the vector when the
                // block pattern tiles across instances.
                Kind::Vector {
                    count: vc,
                    blocklen,
                    stride_bytes,
                    child: x,
                } if child.extent() == (*vc as i64) * *stride_bytes => {
                    DataType::hvector(count * vc, *blocklen, *stride_bytes, x).ok()
                }
                _ => None,
            },
            Kind::Vector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => {
                if *count == 1 {
                    return DataType::contiguous(*blocklen, child).ok();
                }
                // Blocks tile the stride exactly: one contiguous run.
                if child.dense() && *stride_bytes == (*blocklen * child.size()) as i64 {
                    return DataType::contiguous(count * blocklen, child).ok();
                }
                match child.kind() {
                    // vector-of-contiguous: widen the blocks.
                    Kind::Contiguous { count: m, child: x } => {
                        DataType::hvector(*count, blocklen * m, *stride_bytes, x).ok()
                    }
                    // vector-of-vector whose outer stride steps exactly
                    // one inner pattern: flatten (negative strides
                    // included — positions are i*m*s2 + k*s2 either way).
                    Kind::Vector {
                        count: m,
                        blocklen: bl2,
                        stride_bytes: s2,
                        child: x,
                    } if *blocklen == 1 && *stride_bytes == (*m as i64) * *s2 => {
                        DataType::hvector(count * m, *bl2, *s2, x).ok()
                    }
                    _ => None,
                }
            }
            Kind::Indexed { blocks, child } => {
                let ex = child.extent();
                // Drop empty blocks; merge blocks adjacent in data
                // order (walking l1+l2 instances from d1 is the same
                // instance sequence, whatever the child).
                let mut merged: Vec<Block> = Vec::with_capacity(blocks.len());
                for &(l, d) in blocks.iter().filter(|&&(l, _)| l > 0) {
                    if let Some(last) = merged.last_mut() {
                        if d == last.1 + last.0 as i64 * ex {
                            last.0 += l;
                            continue;
                        }
                    }
                    merged.push((l, d));
                }
                if merged.is_empty() {
                    return None; // zero-size type: leave as built
                }
                if merged.len() == 1 && merged[0].1 == 0 {
                    let l = merged[0].0;
                    return if l == 1 {
                        Some(child.clone())
                    } else {
                        DataType::contiguous(l, child).ok()
                    };
                }
                // Uniform blocks at constant stride from displacement
                // zero: an hvector (identical block positions, so
                // identical walk and bounds).
                let (l0, d0) = merged[0];
                if d0 == 0 && merged.len() > 1 && merged.iter().all(|&(l, _)| l == l0) {
                    let s = merged[1].1;
                    if s != 0
                        && merged
                            .iter()
                            .enumerate()
                            .all(|(i, &(_, d))| d == i as i64 * s)
                    {
                        if let Ok(v) = DataType::hvector(merged.len() as u64, l0, s, child) {
                            return Some(v);
                        }
                    }
                }
                if merged.len() != blocks.len() {
                    let lens: Vec<u64> = merged.iter().map(|&(l, _)| l).collect();
                    let disps: Vec<i64> = merged.iter().map(|&(_, d)| d).collect();
                    return DataType::hindexed(&lens, &disps, child).ok();
                }
                None
            }
            Kind::Struct { fields } => {
                let live: Vec<&(u64, i64, DataType)> = fields
                    .iter()
                    .filter(|(l, _, t)| *l > 0 && t.size() > 0)
                    .collect();
                if live.is_empty() {
                    return None; // zero-size type: leave as built
                }
                // Homogeneous field types (one shared tree) are an
                // hindexed list — which the Indexed rules then merge.
                let first_ty = &live[0].2;
                if live
                    .iter()
                    .all(|(_, _, t)| Rc::ptr_eq(&t.node, &first_ty.node))
                {
                    let lens: Vec<u64> = live.iter().map(|(l, _, _)| *l).collect();
                    let disps: Vec<i64> = live.iter().map(|(_, d, _)| *d).collect();
                    return DataType::hindexed(&lens, &disps, first_ty).ok();
                }
                if live.len() != fields.len() {
                    let lens: Vec<u64> = live.iter().map(|(l, _, _)| *l).collect();
                    let disps: Vec<i64> = live.iter().map(|(_, d, _)| *d).collect();
                    let types: Vec<DataType> = live.iter().map(|(_, _, t)| t.clone()).collect();
                    return DataType::structure(&lens, &disps, &types).ok();
                }
                None
            }
        }
    }

    /// If every leaf of this type is the same primitive, return it.
    pub(crate) fn is_homogeneous(&self) -> Option<Primitive> {
        match &self.node.kind {
            Kind::Primitive(p) => Some(*p),
            Kind::Contiguous { child, .. }
            | Kind::Vector { child, .. }
            | Kind::Indexed { child, .. }
            | Kind::Resized { child, .. } => child.is_homogeneous(),
            Kind::Struct { fields } => {
                let mut it = fields.iter().filter(|(l, _, t)| *l > 0 && t.size() > 0);
                let first = it.next()?.2.is_homogeneous()?;
                for (_, _, t) in it {
                    if t.is_homogeneous() != Some(first) {
                        return None;
                    }
                }
                Some(first)
            }
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.node.kind {
            Kind::Primitive(p) => write!(f, "{p}"),
            Kind::Contiguous { count, child } => write!(f, "contig({count}, {child})"),
            Kind::Vector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => {
                write!(f, "hvector({count}, {blocklen}, {stride_bytes}B, {child})")
            }
            Kind::Indexed { blocks, child } => {
                write!(f, "hindexed({} blocks, {child})", blocks.len())
            }
            Kind::Struct { fields } => write!(f, "struct({} fields)", fields.len()),
            Kind::Resized { lb, extent, child } => {
                write!(f, "resized(lb={lb}, extent={extent}, {child})")
            }
        }
    }
}

/// Decoded construction of a datatype (`MPI_Type_get_envelope` +
/// `MPI_Type_get_contents`), as far as the tests read it. Element-unit
/// constructors (`vector`, `indexed`, `indexed_block`, `subarray`) are
/// reported in their canonical byte-displacement form, mirroring how
/// Open MPI normalizes on commit.
#[cfg(test)]
#[derive(Debug)]
enum Combiner {
    Named(Primitive),
    Contiguous,
    HVector {
        count: u64,
        blocklen: u64,
        stride_bytes: i64,
        child: DataType,
    },
    HIndexed {
        blocks: Vec<(u64, i64)>,
    },
    Struct {
        fields: Vec<(u64, i64, DataType)>,
    },
    Resized {
        lb: i64,
        extent: i64,
    },
}

#[cfg(test)]
impl DataType {
    /// How this type was constructed.
    fn combiner(&self) -> Combiner {
        match &self.node.kind {
            Kind::Primitive(p) => Combiner::Named(*p),
            Kind::Contiguous { .. } => Combiner::Contiguous,
            Kind::Vector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => Combiner::HVector {
                count: *count,
                blocklen: *blocklen,
                stride_bytes: *stride_bytes,
                child: child.clone(),
            },
            Kind::Indexed { blocks, .. } => Combiner::HIndexed {
                blocks: blocks.to_vec(),
            },
            Kind::Struct { fields } => Combiner::Struct {
                fields: fields.iter().map(|(l, d, t)| (*l, *d, t.clone())).collect(),
            },
            Kind::Resized { lb, extent, .. } => Combiner::Resized {
                lb: *lb,
                extent: *extent,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dbl() -> DataType {
        DataType::double()
    }

    #[test]
    fn primitive_properties() {
        let d = dbl();
        assert_eq!(d.size(), 8);
        assert_eq!(d.extent(), 8);
        assert!(d.is_gapless());
        assert!(d.dense());
        assert!(d.is_contiguous(100));
    }

    /// `layout_fingerprint` as it was computed before the node stored
    /// it: a fresh walk of the whole tree.
    fn fresh_fingerprint(ty: &DataType) -> u64 {
        let mut h = Fnv1a::new();
        ty.fingerprint_into(&mut h);
        h.finish()
    }

    /// The stored hash equals a fresh walk, on the first call and on
    /// later ones, for every handle that shares or derives from `ty`.
    fn assert_fingerprint_memo(ty: &DataType) {
        for t in [ty.clone(), ty.dup(), ty.clone().commit(), ty.canonical()] {
            let fresh = fresh_fingerprint(&t);
            assert_eq!(t.layout_fingerprint(), fresh, "first call for {t}");
            assert_eq!(t.layout_fingerprint(), fresh, "stored hash for {t}");
            assert_eq!(t.node.fingerprint.get(), Some(&fresh));
        }
    }

    #[test]
    fn layout_fingerprint_matches_across_separate_builds() {
        let build = || {
            let v = DataType::vector(4, 2, 5, &dbl()).unwrap();
            DataType::indexed(&[3, 1], &[0, 10], &v).unwrap().commit()
        };
        let a = build();
        let b = build();
        assert_ne!(a.id(), b.id(), "separately built trees have distinct ids");
        assert_eq!(a.layout_fingerprint(), b.layout_fingerprint());
        assert_fingerprint_memo(&a);
    }

    #[test]
    fn layout_fingerprint_distinguishes_layouts() {
        // Same primitive signature (64 bytes), different layouts: a
        // dense vector whose blocks tile vs a plain contiguous run.
        let byte = DataType::byte();
        let vec = DataType::vector(8, 8, 16, &byte).unwrap();
        let cont = DataType::contiguous(64, &byte).unwrap();
        assert_ne!(vec.layout_fingerprint(), cont.layout_fingerprint());

        // Differing counts/strides/displacements all shift the hash.
        let v1 = DataType::vector(3, 2, 4, &dbl()).unwrap();
        let v2 = DataType::vector(3, 2, 5, &dbl()).unwrap();
        assert_ne!(v1.layout_fingerprint(), v2.layout_fingerprint());
        let r1 = DataType::resized(&v1, 0, 256).unwrap();
        let r2 = DataType::resized(&v1, 8, 256).unwrap();
        assert_ne!(r1.layout_fingerprint(), r2.layout_fingerprint());
        assert_ne!(v1.layout_fingerprint(), r1.layout_fingerprint());
        for t in [&vec, &cont, &v1, &v2, &r1, &r2] {
            assert_fingerprint_memo(t);
        }
    }

    #[test]
    fn layout_fingerprint_survives_dup_and_commit() {
        let t = DataType::vector(4, 1, 3, &dbl()).unwrap();
        let fp = t.layout_fingerprint();
        assert_eq!(t.dup().layout_fingerprint(), fp);
        assert_fingerprint_memo(&t);
        assert_eq!(t.commit().layout_fingerprint(), fp);
    }

    #[test]
    fn contiguous_algebra() {
        let t = DataType::contiguous(10, &dbl()).unwrap();
        assert_eq!(t.size(), 80);
        assert_eq!(t.extent(), 80);
        assert!(t.dense());
        assert_eq!(t.segments(1), vec![Segment::new(0, 80)]);
        // Two counts merge into one segment.
        assert_eq!(t.segments(2), vec![Segment::new(0, 160)]);
    }

    #[test]
    fn vector_algebra() {
        // 3 blocks of 2 doubles, stride 4 doubles.
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap();
        assert_eq!(v.size(), 48);
        assert_eq!(v.extent(), (2 * 4 + 2) * 8); // last block start + blocklen
        assert!(!v.is_gapless());
        assert_eq!(
            v.segments(1),
            vec![
                Segment::new(0, 16),
                Segment::new(32, 16),
                Segment::new(64, 16)
            ]
        );
    }

    #[test]
    fn vector_with_touching_blocks_is_contiguous() {
        let v = DataType::vector(4, 3, 3, &dbl()).unwrap();
        assert!(v.is_gapless());
        assert!(v.dense());
        assert_eq!(v.segments(2), vec![Segment::new(0, 192)]);
    }

    #[test]
    fn hvector_stride_in_bytes() {
        let v = DataType::hvector(2, 1, 100, &dbl()).unwrap();
        assert_eq!(
            v.segments(1),
            vec![Segment::new(0, 8), Segment::new(100, 8)]
        );
        assert_eq!(v.extent(), 108);
    }

    #[test]
    fn indexed_lower_triangle() {
        // Lower-triangular 4x4 of doubles, column-major: column c has
        // 4-c elements starting at (c*4 + c).
        let n = 4u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap();
        assert_eq!(t.size(), 8 * (4 + 3 + 2 + 1));
        assert!(!t.is_gapless());
        let segs = t.segments(1);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0], Segment::new(0, 32));
        assert_eq!(segs[1], Segment::new(40, 24));
        assert_eq!(segs[2], Segment::new(80, 16));
        assert_eq!(segs[3], Segment::new(120, 8));
    }

    #[test]
    fn indexed_adjacent_blocks_are_gapless() {
        let t = DataType::indexed(&[2, 2], &[0, 2], &dbl()).unwrap();
        assert!(t.is_gapless());
        assert_eq!(t.segments(1), vec![Segment::new(0, 32)]);
    }

    #[test]
    fn indexed_out_of_order_blocks() {
        let t = DataType::indexed(&[1, 1], &[4, 0], &dbl()).unwrap();
        // Data order follows the datatype (block 0 first), so the
        // segment at disp 32 comes first in pack order.
        assert_eq!(t.segments(1), vec![Segment::new(32, 8), Segment::new(0, 8)]);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), 40);
    }

    #[test]
    fn struct_mixed_types() {
        // struct { int32 a; double b[2]; } with C layout (b at offset 8).
        let t = DataType::structure(&[1, 2], &[0, 8], &[DataType::int(), dbl()]).unwrap();
        assert_eq!(t.size(), 4 + 16);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), 24);
        assert!(!t.is_gapless()); // 4-byte hole after the int
        assert_eq!(t.segments(1), vec![Segment::new(0, 4), Segment::new(8, 16)]);
        assert!(t.is_homogeneous().is_none());
    }

    #[test]
    fn resized_changes_extent_not_data() {
        let v = DataType::vector(2, 1, 2, &dbl()).unwrap();
        assert_eq!(v.extent(), 24);
        let r = DataType::resized(&v, 0, 32).unwrap();
        assert_eq!(r.extent(), 32);
        assert_eq!(r.size(), 16);
        assert_eq!(r.true_ub(), 24);
        // Second instance starts at the resized extent.
        assert_eq!(
            r.segments(2),
            vec![
                Segment::new(0, 8),
                Segment::new(16, 8),
                Segment::new(32, 8),
                Segment::new(48, 8)
            ]
        );
    }

    #[test]
    fn negative_lb_via_resized() {
        let r = DataType::resized(&dbl(), -8, 24).unwrap();
        assert_eq!(r.lb(), -8);
        assert_eq!(r.ub(), 16);
        assert_eq!(r.true_lb(), 0);
    }

    #[test]
    fn subarray_2d_column_block() {
        // 4x4 doubles (C order), take the 4x2 block starting at column 1:
        // rows 0..4, cols 1..3.
        let t = DataType::subarray(&[4, 4], &[4, 2], &[0, 1], &dbl()).unwrap();
        assert_eq!(t.size(), 4 * 2 * 8);
        assert_eq!(t.extent(), 4 * 4 * 8);
        let segs = t.segments(1);
        assert_eq!(segs.len(), 4);
        for (r, s) in segs.iter().enumerate() {
            assert_eq!(*s, Segment::new((r as i64 * 4 + 1) * 8, 16), "row {r}");
        }
    }

    #[test]
    fn subarray_full_region_is_contiguous_run() {
        let t = DataType::subarray(&[3, 5], &[3, 5], &[0, 0], &dbl()).unwrap();
        let segs = t.segments(1);
        assert_eq!(segs, vec![Segment::new(0, 120)]);
    }

    #[test]
    fn nested_vector_of_vector() {
        // vector of vectors: inner = 2 blocks of 1 double stride 2
        // (16-byte pattern in 24-byte extent), outer strides it.
        let inner = DataType::vector(2, 1, 2, &dbl()).unwrap();
        let outer = DataType::hvector(2, 1, 48, &inner).unwrap();
        assert_eq!(outer.size(), 32);
        assert_eq!(
            outer.segments(1),
            vec![
                Segment::new(0, 8),
                Segment::new(16, 8),
                Segment::new(48, 8),
                Segment::new(64, 8)
            ]
        );
    }

    #[test]
    fn validation_errors() {
        assert!(DataType::contiguous(0, &dbl()).is_err());
        assert!(DataType::vector(0, 1, 1, &dbl()).is_err());
        assert!(DataType::indexed(&[1, 2], &[0], &dbl()).is_err());
        assert!(DataType::structure(&[1], &[0, 8], &[dbl()]).is_err());
        assert!(DataType::resized(&dbl(), 0, 0).is_err());
        assert!(DataType::subarray(&[4], &[5], &[0], &dbl()).is_err());
        assert!(DataType::subarray(&[4], &[2], &[3], &dbl()).is_err());
    }

    #[test]
    fn commit_flag() {
        let t = DataType::vector(2, 1, 2, &dbl()).unwrap();
        assert!(!t.is_committed());
        let t = t.commit();
        assert!(t.is_committed());
        // dup of a committed type stays committed.
        assert!(t.dup().is_committed());
    }

    #[test]
    fn homogeneous_detection() {
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap();
        assert_eq!(v.is_homogeneous(), Some(Primitive::Float64));
        let s = DataType::structure(&[1, 1], &[0, 8], &[dbl(), dbl()]).unwrap();
        assert_eq!(s.is_homogeneous(), Some(Primitive::Float64));
    }

    #[test]
    fn segment_estimate_sane() {
        let v = DataType::vector(100, 2, 4, &dbl()).unwrap();
        assert_eq!(v.segment_estimate(), 100);
        let c = DataType::contiguous(10, &dbl()).unwrap();
        assert_eq!(c.segment_estimate(), 1);
    }

    #[test]
    fn negative_stride_hvector() {
        // Blocks walk backwards through memory (legal in MPI).
        let v = DataType::hvector(3, 1, -16, &dbl()).unwrap();
        assert_eq!(v.lb(), -32);
        assert_eq!(v.ub(), 8);
        assert_eq!(v.size(), 24);
        // Data order follows the datatype: 0, -16, -32.
        assert_eq!(
            v.segments(1),
            vec![
                Segment::new(0, 8),
                Segment::new(-16, 8),
                Segment::new(-32, 8)
            ]
        );
    }

    #[test]
    fn subarray_3d() {
        // 4x4x4 doubles, take the 2x2x2 corner at (1,1,1), C order.
        let t = DataType::subarray(&[4, 4, 4], &[2, 2, 2], &[1, 1, 1], &dbl()).unwrap();
        assert_eq!(t.size(), 8 * 8);
        assert_eq!(t.extent(), 4 * 4 * 4 * 8);
        let segs = t.segments(1);
        assert_eq!(segs.len(), 4); // 2x2 rows of 2 contiguous elements
                                   // Element (i,j,k) lives at ((i*4)+j)*4+k; first = (1,1,1) = 21.
        assert_eq!(segs[0], Segment::new(21 * 8, 16));
        assert_eq!(segs[1], Segment::new(25 * 8, 16));
        assert_eq!(segs[2], Segment::new(37 * 8, 16));
        assert_eq!(segs[3], Segment::new(41 * 8, 16));
    }

    #[test]
    fn combiner_decodes_construction() {
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap();
        match v.combiner() {
            Combiner::HVector {
                count: 3,
                blocklen: 2,
                stride_bytes: 32,
                child,
            } => {
                assert!(matches!(
                    child.combiner(),
                    Combiner::Named(Primitive::Float64)
                ));
            }
            other => panic!("unexpected combiner {other:?}"),
        }
        let s = DataType::structure(&[1, 2], &[0, 8], &[DataType::int(), dbl()]).unwrap();
        match s.combiner() {
            Combiner::Struct { fields } => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[1].0, 2);
                assert_eq!(fields[1].1, 8);
            }
            other => panic!("unexpected combiner {other:?}"),
        }
        let r = DataType::resized(&dbl(), -8, 24).unwrap();
        assert!(matches!(
            r.combiner(),
            Combiner::Resized {
                lb: -8,
                extent: 24,
                ..
            }
        ));
        let i = DataType::indexed(&[1, 2], &[0, 4], &dbl()).unwrap();
        match i.combiner() {
            Combiner::HIndexed { blocks, .. } => assert_eq!(blocks, vec![(1, 0), (2, 32)]),
            other => panic!("unexpected combiner {other:?}"),
        }
    }

    #[test]
    fn vector_shape_analysis() {
        // Dense -> single block.
        let c = DataType::contiguous(10, &dbl()).unwrap();
        assert_eq!(c.vector_shape(), Some((1, 80, 80, 0)));
        // Plain vector with dense child.
        let v = DataType::vector(4, 2, 5, &dbl()).unwrap();
        assert_eq!(v.vector_shape(), Some((4, 16, 40, 0)));
        // Uniform indexed normalizes.
        let u = DataType::indexed(&[2, 2, 2], &[0, 5, 10], &dbl()).unwrap();
        assert_eq!(u.vector_shape(), Some((3, 16, 40, 0)));
        // Irregular indexed does not.
        let t = DataType::indexed(&[2, 3], &[0, 5], &dbl()).unwrap();
        assert_eq!(t.vector_shape(), None);
        // Resized wrapper is looked through.
        let r = DataType::resized(&v, 0, 256).unwrap();
        assert_eq!(r.vector_shape(), Some((4, 16, 40, 0)));
        // contiguous(n, vector) extends when the pattern tiles.
        let tiled = DataType::vector(4, 2, 2, &dbl()).unwrap(); // dense, extent 64
        let cc = DataType::contiguous(3, &tiled).unwrap();
        assert!(cc.vector_shape().is_some());
    }

    #[test]
    fn zero_length_indexed_blocks_are_skipped() {
        let t = DataType::indexed(&[2, 0, 2], &[0, 100, 2], &dbl()).unwrap();
        assert_eq!(t.size(), 32);
        assert_eq!(t.segments(1), vec![Segment::new(0, 32)]);
        assert!(t.is_gapless());
    }

    #[test]
    fn vector_shape_negative_stride() {
        // Blocks walking backwards are still a uniform strided pattern.
        let v = DataType::hvector(3, 1, -16, &dbl()).unwrap();
        assert_eq!(v.vector_shape(), Some((3, 8, -16, 0)));
        // Negative-stride uniform indexed too.
        let i = DataType::hindexed(&[1, 1, 1], &[0, -16, -32], &dbl()).unwrap();
        assert_eq!(i.vector_shape(), Some((3, 8, -16, 0)));
    }

    #[test]
    fn vector_shape_gapless_nondense_child() {
        // A gapless child with a padded extent is one run per block
        // when blocklen is 1 — previously fell back to the generic
        // path because the child is not dense.
        let padded = DataType::resized(&dbl(), 0, 16).unwrap();
        let v = DataType::hvector(4, 1, 64, &padded).unwrap();
        assert_eq!(v.vector_shape(), Some((4, 8, 64, 0)));
        // With blocklen > 1 the gaps inside each block are real.
        let v2 = DataType::hvector(4, 2, 64, &padded).unwrap();
        assert_eq!(v2.vector_shape(), None);
        // Same for indexed over the padded child.
        let i = DataType::hindexed(&[1, 1], &[0, 40], &padded).unwrap();
        assert_eq!(i.vector_shape(), Some((2, 8, 40, 0)));
        let i2 = DataType::hindexed(&[2, 2], &[0, 40], &padded).unwrap();
        assert_eq!(i2.vector_shape(), None);
    }

    #[test]
    fn vector_shape_single_block() {
        // One indexed block away from the origin.
        let t = DataType::hindexed(&[4], &[24], &dbl()).unwrap();
        assert_eq!(t.vector_shape(), Some((1, 32, 32, 24)));
    }

    #[test]
    fn strided2d_shape_transpose() {
        // The fig12 matrix-transpose tree: hvector(n, 1, 8, vector(n, 1, n, double)).
        let n = 16u64;
        let col = DataType::vector(n, 1, n as i64, &dbl()).unwrap();
        let t = DataType::hvector(n, 1, 8, &col).unwrap();
        assert_eq!(t.vector_shape(), None);
        assert_eq!(
            t.strided2d_shape(),
            Some(Strided2D {
                outer: n,
                inner: n,
                block_bytes: 8,
                inner_stride: n as i64 * 8,
                outer_stride: 8,
                first_disp: 0,
            })
        );
    }

    #[test]
    fn strided2d_shape_contiguous_of_vector() {
        // contiguous(4, vector) whose pattern does not tile: one
        // strided row per instance, outer stride = instance extent.
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap(); // extent 80, 3 blocks of 16 at stride 32
        let t = DataType::contiguous(4, &v).unwrap();
        assert_eq!(t.vector_shape(), None);
        assert_eq!(
            t.strided2d_shape(),
            Some(Strided2D {
                outer: 4,
                inner: 3,
                block_bytes: 16,
                inner_stride: 32,
                outer_stride: 80,
                first_disp: 0,
            })
        );
        // A 1-D vector shape is never reported as 2-D.
        let plain = DataType::vector(4, 2, 5, &dbl()).unwrap();
        assert_eq!(plain.strided2d_shape(), None);
    }

    /// Every canonicalization claim in one helper: identical merged
    /// segment stream (pack order), size, bounds, extent and gapless
    /// flag, and a stable (idempotent) canonical form.
    fn assert_canon_equiv(ty: &DataType) {
        let c = ty.canonical();
        assert_eq!(c.size(), ty.size(), "size for {ty}");
        assert_eq!(c.lb(), ty.lb(), "lb for {ty}");
        assert_eq!(c.ub(), ty.ub(), "ub for {ty}");
        assert_eq!(c.true_lb(), ty.true_lb(), "true_lb for {ty}");
        assert_eq!(c.true_ub(), ty.true_ub(), "true_ub for {ty}");
        assert_eq!(c.is_gapless(), ty.is_gapless(), "gapless for {ty}");
        for count in [1u64, 2, 3] {
            assert_eq!(
                c.segments(count),
                ty.segments(count),
                "segment stream for {ty} count={count}"
            );
        }
        let cc = c.canonical();
        assert_eq!(
            cc.layout_fingerprint(),
            c.layout_fingerprint(),
            "canonical not idempotent for {ty}"
        );
        assert_fingerprint_memo(ty);
    }

    #[test]
    fn canonical_collapses_degenerate_wrappers() {
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap();
        let fp = v.canonical().layout_fingerprint();

        // contiguous(1, v), vector(1, 1, s, v) and an extent-neutral
        // resized all canonicalize to v itself.
        let c1 = DataType::contiguous(1, &v).unwrap();
        assert_eq!(c1.canonical().layout_fingerprint(), fp);
        let v1 = DataType::hvector(1, 1, 999, &v).unwrap();
        assert_eq!(v1.canonical().layout_fingerprint(), fp);
        let r = DataType::resized(&v, v.lb(), v.extent()).unwrap();
        assert_eq!(r.canonical().layout_fingerprint(), fp);
        // Nested neutral wrappers collapse all the way down.
        let wrapped = DataType::contiguous(1, &DataType::contiguous(1, &c1).unwrap()).unwrap();
        assert_eq!(wrapped.canonical().layout_fingerprint(), fp);
        for t in [&c1, &v1, &r, &wrapped] {
            assert_canon_equiv(t);
        }
    }

    #[test]
    fn canonical_folds_contiguous_nests() {
        let a = DataType::contiguous(3, &DataType::contiguous(4, &dbl()).unwrap()).unwrap();
        let b = DataType::contiguous(12, &dbl()).unwrap();
        assert_eq!(
            a.canonical().layout_fingerprint(),
            b.canonical().layout_fingerprint()
        );
        assert_canon_equiv(&a);
    }

    #[test]
    fn canonical_merges_vector_trees() {
        // vector-of-contiguous widens blocks.
        let voc = DataType::hvector(4, 2, 100, &DataType::contiguous(3, &dbl()).unwrap()).unwrap();
        let flat = DataType::hvector(4, 6, 100, &dbl()).unwrap();
        assert_eq!(
            voc.canonical().layout_fingerprint(),
            flat.canonical().layout_fingerprint()
        );
        assert_canon_equiv(&voc);

        // vector-of-vector with an outer stride of exactly one inner
        // pattern flattens (also with negative strides).
        let inner = DataType::hvector(4, 1, 32, &dbl()).unwrap();
        let outer = DataType::hvector(3, 1, 128, &inner).unwrap();
        let merged = DataType::hvector(12, 1, 32, &dbl()).unwrap();
        assert_eq!(
            outer.canonical().layout_fingerprint(),
            merged.canonical().layout_fingerprint()
        );
        assert_canon_equiv(&outer);

        let ninner = DataType::hvector(4, 1, -32, &dbl()).unwrap();
        let nouter = DataType::hvector(3, 1, -128, &ninner).unwrap();
        let nmerged = DataType::hvector(12, 1, -32, &dbl()).unwrap();
        assert_eq!(
            nouter.canonical().layout_fingerprint(),
            nmerged.canonical().layout_fingerprint()
        );
        assert_canon_equiv(&nouter);

        // contiguous(n, vector) whose pattern tiles extends the vector.
        let tiled = DataType::vector(4, 2, 2, &dbl()).unwrap();
        let cov = DataType::contiguous(3, &tiled).unwrap();
        assert_canon_equiv(&cov);
        assert!(cov.canonical().vector_shape().is_some());
    }

    #[test]
    fn canonical_merges_indexed_blocks() {
        // Adjacent blocks merge; uniform constant-stride lists become
        // hvectors, so layout-identical constructions share one form.
        let idx = DataType::indexed(&[2, 2, 2], &[0, 5, 10], &dbl()).unwrap();
        let vec = DataType::vector(3, 2, 5, &dbl()).unwrap();
        assert_eq!(
            idx.canonical().layout_fingerprint(),
            vec.canonical().layout_fingerprint()
        );
        assert_canon_equiv(&idx);

        let touching = DataType::indexed(&[2, 3, 1], &[0, 2, 5], &dbl()).unwrap();
        assert_canon_equiv(&touching);
        assert!(touching.canonical().is_gapless());

        // Merging must never reorder blocks (pack order is data order).
        let out_of_order = DataType::indexed(&[1, 1], &[4, 0], &dbl()).unwrap();
        assert_canon_equiv(&out_of_order);
    }

    #[test]
    fn canonical_unwraps_structs() {
        // Single-field struct at displacement zero is the field.
        let s = DataType::structure(&[3], &[0], &[dbl()]).unwrap();
        let c = DataType::contiguous(3, &dbl()).unwrap();
        assert_eq!(
            s.canonical().layout_fingerprint(),
            c.canonical().layout_fingerprint()
        );
        assert_canon_equiv(&s);

        // Homogeneous struct fields (shared tree) become an indexed
        // list, which then merges/uniformizes.
        let t = dbl();
        let hs = DataType::structure(&[2, 2], &[0, 40], &[t.clone(), t]).unwrap();
        let idx = DataType::hindexed(&[2, 2], &[0, 40], &dbl()).unwrap();
        assert_eq!(
            hs.canonical().layout_fingerprint(),
            idx.canonical().layout_fingerprint()
        );
        assert_canon_equiv(&hs);

        // Mixed structs keep their shape (children still canonical).
        let mixed = DataType::structure(&[1, 2], &[0, 8], &[DataType::int(), dbl()]).unwrap();
        assert_canon_equiv(&mixed);
    }

    #[test]
    fn canonical_is_memoized_and_preserves_commit() {
        let idx = DataType::indexed(&[2, 2], &[0, 5], &dbl())
            .unwrap()
            .commit();
        let a = idx.canonical();
        let b = idx.canonical();
        assert_eq!(a.id(), b.id(), "memoized canonical shares one node");
        assert!(a.is_committed(), "canonical of committed stays committed");
        let plain = DataType::contiguous(2, &dbl()).unwrap();
        assert!(!plain.canonical().is_committed());
    }

    #[test]
    fn canonical_preserves_arbitrary_trees() {
        use crate::testutil::arb_datatype;
        use simcore::rng::SimRng;
        let mut collapsed = 0u32;
        for seed in 0..200u64 {
            let mut rng = SimRng::new(0xCA40 ^ seed);
            let ty = arb_datatype(&mut rng);
            assert_canon_equiv(&ty);
            if ty.canonical().id() != ty.id() {
                collapsed += 1;
            }
        }
        // The generator produces plenty of degenerate wrappers; the
        // pass must actually fire, not just echo its input.
        assert!(collapsed >= 40, "only {collapsed}/200 trees changed");
    }
}
