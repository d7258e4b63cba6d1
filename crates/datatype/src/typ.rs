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

/// One contiguous block repeated over at most two strided dims: the
/// count-free form [`DataType::strided`] grows, innermost out. A dim of
/// count 1 is no dim.
#[derive(Clone, Copy, Debug)]
struct Blocks {
    bytes: u64,
    first: i64,
    /// `(count, stride)`, innermost first.
    dims: [(u64, i64); 2],
}

impl Blocks {
    fn block(bytes: u64, first: i64) -> Blocks {
        Blocks {
            bytes,
            first,
            dims: [(1, 0); 2],
        }
    }

    /// `n` copies of the pattern, `stride` bytes apart: the block grows
    /// when the copies touch it, the outermost dim lengthens when the
    /// stride continues it, and otherwise a dim is added. `None` for no
    /// copies (nothing to move) and past two dims.
    fn repeat(mut self, n: u64, stride: i64) -> Option<Blocks> {
        if n == 0 {
            return None;
        }
        if n == 1 {
            return Some(self);
        }
        let depth = self.dims.iter().filter(|&&(m, _)| m > 1).count();
        if depth == 0 && i64::try_from(self.bytes) == Ok(stride) {
            self.bytes = self.bytes.checked_mul(n)?;
            return Some(self);
        }
        if let Some((m, s)) = depth.checked_sub(1).map(|top| &mut self.dims[top]) {
            if i64::try_from(*m).ok()?.checked_mul(*s) == Some(stride) {
                *m = m.checked_mul(n)?;
                return Some(self);
            }
        }
        *self.dims.get_mut(depth)? = (n, stride);
        Some(self)
    }

    /// The kernel's form: two dims as rows × columns, fewer as a vector,
    /// one row of blocks that never ends.
    fn shape(self) -> Strided2D {
        let [(inner, inner_stride), (outer, outer_stride)] = self.dims;
        let (outer, inner, inner_stride, outer_stride) = match (outer, inner) {
            (1, 1) => (1, u64::MAX, self.bytes as i64, 0),
            (1, _) => (1, u64::MAX, inner_stride, 0),
            _ => (outer, inner, inner_stride, outer_stride),
        };
        Strided2D {
            outer,
            inner,
            block_bytes: self.bytes,
            inner_stride,
            outer_stride,
            first_disp: self.first,
        }
    }
}

/// Whether `(start, bytes)` spans follow one another in order, each
/// starting where the one before it ends.
fn tiles(mut spans: impl Iterator<Item = (i64, u64)>) -> bool {
    let mut end = None;
    spans.all(|(start, bytes)| {
        let follows = end.is_none_or(|e| e == start);
        end = Some(start + bytes as i64);
        follows
    })
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
    depth: u32,
    /// Lazily computed count-free [`DataType::strided`] shape.
    blocks: OnceCell<Option<Blocks>>,
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
                depth: 0,
                blocks: OnceCell::new(),
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
                depth: c.depth + 1,
                blocks: OnceCell::new(),
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
                depth: c.depth + 1,
                blocks: OnceCell::new(),
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
        // blocks tile an interval in declaration order, the order they
        // pack in.
        let live = blocks.iter().filter(|&&(l, _)| l > 0);
        let gapless = c.size == 0
            || ((child.dense() || c.gapless)
                && live.clone().all(|&(l, _)| l == 1 || child.dense())
                && tiles(live.map(|&(l, d)| (d + c.true_lb, l * c.size))));

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
                depth: c.depth + 1,
                blocks: OnceCell::new(),
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
        }
        if lb == i64::MAX {
            lb = 0;
            ub = 0;
            true_lb = 0;
            true_ub = 0;
        }

        // Likewise over the fields that hold data.
        let live = fields.iter().filter(|(l, _, t)| *l > 0 && t.node.size > 0);
        let gapless = live
            .clone()
            .all(|(l, _, t)| (*l == 1 || t.dense()) && t.node.gapless)
            && tiles(live.map(|(l, d, t)| (d + t.node.true_lb, l * t.node.size)));

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
                depth: depth + 1,
                blocks: OnceCell::new(),
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
                depth: c.depth + 1,
                blocks: OnceCell::new(),
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
            let end = starts[d].checked_add(subsizes[d]);
            if subsizes[d] == 0 || end.is_none_or(|end| end > sizes[d]) {
                return Err(TypeError::InvalidArgument("subarray region out of bounds"));
            }
        }
        // Byte stride of each dimension (innermost is the element's
        // extent) and, last, of the whole array.
        let overflow = || TypeError::InvalidArgument("subarray array size overflows");
        let last = sizes.len() - 1;
        let mut strides = vec![0i64; sizes.len()];
        let mut stride = child.extent();
        for d in (0..sizes.len()).rev() {
            strides[d] = stride;
            stride = i64::try_from(sizes[d])
                .ok()
                .and_then(|n| stride.checked_mul(n))
                .ok_or_else(overflow)?;
        }
        // Build innermost-out: contiguous run of the last dimension,
        // then an hvector per outer dimension; finally shift by the
        // start offsets with a resized-hindexed wrapper.
        let mut t = DataType::contiguous(subsizes[last], child)?;
        for d in (0..last).rev() {
            t = DataType::hvector(subsizes[d], 1, strides[d], &t)?;
        }
        // Displacement of the region origin.
        let disp = starts
            .iter()
            .zip(&strides)
            .try_fold(0i64, |disp, (&start, &stride)| {
                i64::try_from(start)
                    .ok()?
                    .checked_mul(stride)?
                    .checked_add(disp)
            })
            .ok_or_else(overflow)?;
        let shifted = DataType::hindexed(&[1], &[disp], &t)?;
        // The subarray's extent is the whole array, so consecutive
        // counts index consecutive full arrays.
        DataType::resized(&shifted, 0, stride)
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

    /// `count` instances as the specialized kernel computes their
    /// offsets (§3): one contiguous block repeated over at most two
    /// `(count, stride)` dims — TEMPI's strided block. `None` for an
    /// empty type, a zero count, irregular blocks or a third dim.
    ///
    /// The raw tree is read once, innermost out, so equivalent
    /// constructions — a count-1 vector, a `contiguous(n, vector)` that
    /// tiles, a vector of vectors, an `hindexed` of one block, a
    /// `subarray` with non-zero starts — give one shape. The count-free
    /// shape is kept on the node.
    pub fn strided(&self, count: u64) -> Option<Strided2D> {
        let blocks = (*self.blocks())?.repeat(count, self.extent())?;
        Some(blocks.shape())
    }

    fn blocks(&self) -> &Option<Blocks> {
        self.node.blocks.get_or_init(|| {
            let n = self.node.as_ref();
            if n.size == 0 {
                return None;
            }
            if n.gapless {
                return Some(Blocks::block(n.size, n.true_lb));
            }
            match &n.kind {
                Kind::Primitive(_) => None,
                Kind::Contiguous { count, child } => {
                    (*child.blocks())?.repeat(*count, child.extent())
                }
                Kind::Vector {
                    count,
                    blocklen,
                    stride_bytes,
                    child,
                } => (*child.blocks())?
                    .repeat(*blocklen, child.extent())?
                    .repeat(*count, *stride_bytes),
                Kind::Indexed { blocks, child } => Self::uniform(child, blocks.iter().copied()),
                Kind::Struct { fields } => {
                    let live = || fields.iter().filter(|(l, _, t)| *l > 0 && t.size() > 0);
                    let (_, _, ty) = live().next()?;
                    if !live().all(|(_, _, t)| Rc::ptr_eq(&t.node, &ty.node)) {
                        return None;
                    }
                    Self::uniform(ty, live().map(|(l, d, _)| (*l, *d)))
                }
                Kind::Resized { child, .. } => *child.blocks(),
            }
        })
    }

    /// `child` placed by `list`: live blocks of one length at one
    /// constant stride, shifted to the first displacement.
    fn uniform(child: &DataType, list: impl Iterator<Item = Block>) -> Option<Blocks> {
        let mut live = list.filter(|&(l, _)| l > 0);
        let (len, first) = live.next()?;
        let (mut n, mut stride, mut prev) = (1u64, 0i64, first);
        for (l, d) in live {
            let step = d.checked_sub(prev)?;
            if l != len || (n > 1 && step != stride) {
                return None;
            }
            (n, stride, prev) = (n + 1, step, d);
        }
        let mut blocks = (*child.blocks())?.repeat(len, child.extent())?;
        blocks.first = blocks.first.checked_add(first)?;
        blocks.repeat(n, stride)
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
        for t in [ty.clone(), ty.dup(), ty.clone().commit()] {
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
    fn touching_blocks_out_of_order_pack_in_declaration_order() {
        // The blocks tile 0..16, but the list names 8..16 first: not one
        // segment, and MPI packs 8..16 then 0..8.
        let typed: Vec<u8> = (0..16).collect();
        let expect: Vec<u8> = (8..16).chain(0..8).collect();
        let idx = DataType::indexed(&[1, 1], &[1, 0], &dbl())
            .unwrap()
            .commit();
        let fields = DataType::structure(&[1, 1], &[8, 0], &[dbl(), dbl()])
            .unwrap()
            .commit();
        for t in [idx, fields] {
            assert!(!t.is_gapless(), "{t}");
            assert_eq!(t.segments(1), vec![Segment::new(8, 8), Segment::new(0, 8)]);
            assert_eq!(crate::convertor::pack_all(&t, 1, &typed, 0), expect, "{t}");
        }
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
    fn subarray_rejects_overflowing_arguments() {
        let bad = |r: Result<DataType, TypeError>| {
            assert!(
                matches!(r, Err(TypeError::InvalidArgument(_))),
                "expected InvalidArgument, got {r:?}"
            );
        };
        // `start + subsize` wraps: in range only once wrapped.
        bad(DataType::subarray(&[4], &[2], &[u64::MAX], &dbl()));
        bad(DataType::subarray(
            &[4, 4],
            &[1, 2],
            &[0, u64::MAX - 1],
            &dbl(),
        ));
        // The array's byte size does not fit, in one dimension or in
        // their product.
        bad(DataType::subarray(&[u64::MAX], &[1], &[0], &dbl()));
        bad(DataType::subarray(
            &[1 << 32, 1 << 32],
            &[1, 1],
            &[0, 0],
            &dbl(),
        ));
        // The largest array that fits still builds.
        let n = (i64::MAX / 8) as u64;
        let t = DataType::subarray(&[n], &[1], &[n - 1], &dbl()).unwrap();
        assert_eq!(t.true_lb(), (n as i64 - 1) * 8);
        assert_eq!(t.extent(), n as i64 * 8);
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

    /// The blocks a strided shape names, merged like [`DataType::segments`].
    fn expand(shape: Strided2D, total: u64) -> Vec<Segment> {
        let mut sink = SegmentSink::new();
        for b in 0..total / shape.block_bytes {
            let (i, j) = ((b / shape.inner) as i64, (b % shape.inner) as i64);
            let disp = shape.first_disp + i * shape.outer_stride + j * shape.inner_stride;
            sink.push(disp, shape.block_bytes);
        }
        sink.finish()
    }

    /// `ty.strided(count)`, its blocks checked against the walk; the
    /// stored fingerprint of `ty` is checked on the way.
    fn shape_of(ty: &DataType, count: u64) -> Option<Strided2D> {
        assert_fingerprint_memo(ty);
        let shape = ty.strided(count)?;
        let total = ty.size() * count;
        assert_eq!(total % shape.block_bytes, 0, "{ty} x{count}: whole blocks");
        assert_eq!(expand(shape, total), ty.segments(count), "{ty} x{count}");
        Some(shape)
    }

    /// One row of `block`-byte blocks `stride` apart that never ends.
    fn vector(block_bytes: u64, inner_stride: i64, first_disp: i64) -> Option<Strided2D> {
        Some(Strided2D {
            outer: 1,
            inner: u64::MAX,
            block_bytes,
            inner_stride,
            outer_stride: 0,
            first_disp,
        })
    }

    /// `outer` rows of `inner` blocks.
    fn grid(inner: (u64, i64), outer: (u64, i64), block_bytes: u64) -> Option<Strided2D> {
        Some(Strided2D {
            outer: outer.0,
            inner: inner.0,
            block_bytes,
            inner_stride: inner.1,
            outer_stride: outer.1,
            first_disp: 0,
        })
    }

    #[test]
    fn vector_shape_analysis() {
        // Dense -> single block.
        let c = DataType::contiguous(10, &dbl()).unwrap();
        assert_eq!(shape_of(&c, 1), vector(80, 80, 0));
        assert_eq!(shape_of(&c, 3), vector(240, 240, 0));
        // Plain vector with dense child.
        let v = DataType::vector(4, 2, 5, &dbl()).unwrap();
        assert_eq!(shape_of(&v, 1), vector(16, 40, 0));
        // Uniform indexed is the same vector.
        let u = DataType::indexed(&[2, 2, 2], &[0, 5, 10], &dbl()).unwrap();
        assert_eq!(shape_of(&u, 1), vector(16, 40, 0));
        // Irregular indexed is not.
        let t = DataType::indexed(&[2, 3], &[0, 5], &dbl()).unwrap();
        assert_eq!(shape_of(&t, 1), None);
        // Resized wrapper is looked through; its extent steps the count.
        let r = DataType::resized(&v, 0, 256).unwrap();
        assert_eq!(shape_of(&r, 1), vector(16, 40, 0));
        assert_eq!(shape_of(&r, 2), grid((4, 40), (2, 256), 16));
        // contiguous(n, vector) extends when the pattern tiles.
        let tiled = DataType::vector(4, 2, 2, &dbl()).unwrap(); // dense, extent 64
        let cc = DataType::contiguous(3, &tiled).unwrap();
        assert_eq!(shape_of(&cc, 1), vector(192, 192, 0));
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
        assert_eq!(shape_of(&v, 1), vector(8, -16, 0));
        // Negative-stride uniform indexed too.
        let i = DataType::hindexed(&[1, 1, 1], &[0, -16, -32], &dbl()).unwrap();
        assert_eq!(shape_of(&i, 1), vector(8, -16, 0));
    }

    #[test]
    fn vector_shape_gapless_nondense_child() {
        // A gapless child with a padded extent is one run per block
        // when blocklen is 1.
        let padded = DataType::resized(&dbl(), 0, 16).unwrap();
        let v = DataType::hvector(4, 1, 64, &padded).unwrap();
        assert_eq!(shape_of(&v, 1), vector(8, 64, 0));
        // With blocklen > 1 the gaps inside each block are a second dim.
        let v2 = DataType::hvector(4, 2, 64, &padded).unwrap();
        assert_eq!(shape_of(&v2, 1), grid((2, 16), (4, 64), 8));
        // Same for indexed over the padded child.
        let i = DataType::hindexed(&[1, 1], &[0, 40], &padded).unwrap();
        assert_eq!(shape_of(&i, 1), vector(8, 40, 0));
        let i2 = DataType::hindexed(&[2, 2], &[0, 40], &padded).unwrap();
        assert_eq!(shape_of(&i2, 1), grid((2, 16), (2, 40), 8));
        // A third dim is past the kernel.
        assert_eq!(shape_of(&v2, 2), None);
    }

    #[test]
    fn vector_shape_single_block() {
        // One indexed block away from the origin shifts the block.
        let t = DataType::hindexed(&[4], &[24], &dbl()).unwrap();
        assert_eq!(shape_of(&t, 1), vector(32, 32, 24));
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap();
        let shifted = DataType::hindexed(&[1], &[24], &v).unwrap();
        assert_eq!(shape_of(&shifted, 1), vector(16, 32, 24));
    }

    #[test]
    fn strided2d_shape_transpose() {
        // The fig12 matrix-transpose tree: hvector(n, 1, 8, vector(n, 1, n, double)).
        let n = 16u64;
        let col = DataType::vector(n, 1, n as i64, &dbl()).unwrap();
        let t = DataType::hvector(n, 1, 8, &col).unwrap();
        assert_eq!(shape_of(&t, 1), grid((n, n as i64 * 8), (n, 8), 8));
        assert_eq!(shape_of(&t, 2), None);
    }

    #[test]
    fn strided2d_shape_contiguous_of_vector() {
        // contiguous(4, vector) whose pattern does not tile: one
        // strided row per instance, outer stride = instance extent.
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap(); // extent 80, 3 blocks of 16 at stride 32
        let t = DataType::contiguous(4, &v).unwrap();
        let rows = grid((3, 32), (4, 80), 16);
        assert_eq!(shape_of(&t, 1), rows);
        // The count folds in the same way.
        assert_eq!(shape_of(&v, 4), rows);
        // A 1-D vector shape is a vector, not one row of a grid.
        let plain = DataType::vector(4, 2, 5, &dbl()).unwrap();
        assert_eq!(shape_of(&plain, 1), vector(16, 40, 0));
    }

    #[test]
    fn subarray_halo_faces_are_two_dims() {
        // A 64³ array of doubles: the subarray's innermost dimension is
        // the block, so every face and box is 2-D in blocks, whatever
        // its start.
        let (n, d) = (64u64, dbl());
        let at = |sub: [u64; 3], start: [u64; 3]| {
            let ty = DataType::subarray(&[n; 3], &sub, &start, &d).unwrap();
            let shape = shape_of(&ty, 1).unwrap_or_else(|| panic!("{sub:?} at {start:?}"));
            let first = ((start[0] * n + start[1]) * n + start[2]) as i64 * 8;
            assert_eq!(shape.first_disp, first, "{sub:?} at {start:?}");
            Strided2D {
                first_disp: 0,
                ..shape
            }
        };
        let (row, plane) = (512i64, 32768i64);
        assert_eq!(
            Some(at([60, 60, 2], [2, 2, 2])),
            grid((60, row), (60, plane), 16)
        );
        assert_eq!(
            Some(at([60, 60, 1], [2, 2, 62])),
            grid((60, row), (60, plane), 8)
        );
        assert_eq!(
            Some(at([60, 2, 60], [2, 1, 2])),
            grid((2, row), (60, plane), 480)
        );
        assert_eq!(Some(at([60, 1, 60], [2, 0, 2])), vector(480, plane, 0));
        assert_eq!(
            Some(at([2, 60, 60], [62, 2, 2])),
            grid((60, row), (2, plane), 480)
        );
        assert_eq!(
            Some(at([32, 32, 32], [16, 16, 16])),
            grid((32, row), (32, plane), 256)
        );
    }

    #[test]
    fn canonical_collapses_degenerate_wrappers() {
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap();
        let shape = shape_of(&v, 1);
        assert_eq!(shape, vector(16, 32, 0));

        // contiguous(1, v), vector(1, 1, s, v) and an extent-neutral
        // resized all take v's shape.
        let c1 = DataType::contiguous(1, &v).unwrap();
        let v1 = DataType::hvector(1, 1, 999, &v).unwrap();
        let r = DataType::resized(&v, v.lb(), v.extent()).unwrap();
        // Nested neutral wrappers collapse all the way down.
        let wrapped = DataType::contiguous(1, &DataType::contiguous(1, &c1).unwrap()).unwrap();
        for t in [&c1, &v1, &r, &wrapped] {
            assert_eq!(shape_of(t, 1), shape, "{t}");
            assert_eq!(shape_of(t, 2), shape_of(&v, 2), "{t}");
        }
    }

    #[test]
    fn canonical_folds_contiguous_nests() {
        let a = DataType::contiguous(3, &DataType::contiguous(4, &dbl()).unwrap()).unwrap();
        let b = DataType::contiguous(12, &dbl()).unwrap();
        for count in [1, 2] {
            assert_eq!(shape_of(&a, count), shape_of(&b, count));
        }
        assert_eq!(shape_of(&a, 1), vector(96, 96, 0));
        // Zero instances are no shape: a gapless type's block would
        // otherwise grow to zero bytes.
        assert_eq!(shape_of(&b, 0), None);
        assert_eq!(shape_of(&dbl(), 0), None);
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap();
        assert_eq!(shape_of(&v, 0), None);
    }

    #[test]
    fn canonical_merges_vector_trees() {
        // vector-of-contiguous widens blocks.
        let voc = DataType::hvector(4, 2, 100, &DataType::contiguous(3, &dbl()).unwrap()).unwrap();
        let flat = DataType::hvector(4, 6, 100, &dbl()).unwrap();
        assert_eq!(shape_of(&voc, 1), shape_of(&flat, 1));
        assert_eq!(shape_of(&voc, 1), vector(48, 100, 0));

        // vector-of-vector with an outer stride of exactly one inner
        // pattern flattens (also with negative strides).
        let inner = DataType::hvector(4, 1, 32, &dbl()).unwrap();
        let outer = DataType::hvector(3, 1, 128, &inner).unwrap();
        let merged = DataType::hvector(12, 1, 32, &dbl()).unwrap();
        assert_eq!(shape_of(&outer, 1), shape_of(&merged, 1));
        assert_eq!(shape_of(&outer, 1), vector(8, 32, 0));

        let ninner = DataType::hvector(4, 1, -32, &dbl()).unwrap();
        let nouter = DataType::hvector(3, 1, -128, &ninner).unwrap();
        let nmerged = DataType::hvector(12, 1, -32, &dbl()).unwrap();
        assert_eq!(shape_of(&nouter, 1), shape_of(&nmerged, 1));
        assert_eq!(shape_of(&nouter, 1), vector(8, -32, 0));

        // contiguous(n, vector) whose pattern tiles extends the vector.
        let tiling = DataType::resized(&inner, 0, 128).unwrap();
        let cov = DataType::contiguous(3, &tiling).unwrap();
        assert_eq!(shape_of(&cov, 1), shape_of(&merged, 1));
        assert_eq!(shape_of(&tiling, 3), shape_of(&merged, 1));
    }

    #[test]
    fn canonical_merges_indexed_blocks() {
        // Uniform constant-stride block lists are the vector with the
        // same blocks.
        let idx = DataType::indexed(&[2, 2, 2], &[0, 5, 10], &dbl()).unwrap();
        let vec = DataType::vector(3, 2, 5, &dbl()).unwrap();
        assert_eq!(shape_of(&idx, 1), shape_of(&vec, 1));

        // Blocks adjacent in data order are one block.
        let touching = DataType::indexed(&[2, 3, 1], &[0, 2, 5], &dbl()).unwrap();
        assert_eq!(shape_of(&touching, 1), vector(48, 48, 0));

        // Pack order is data order: a list that walks backwards is a
        // negative stride from its first block.
        let out_of_order = DataType::indexed(&[1, 1], &[4, 0], &dbl()).unwrap();
        assert_eq!(shape_of(&out_of_order, 1), vector(8, -32, 32));
    }

    #[test]
    fn canonical_unwraps_structs() {
        // Single-field struct at displacement zero is the field, and at
        // another displacement the field shifted.
        let s = DataType::structure(&[3], &[0], &[dbl()]).unwrap();
        let c = DataType::contiguous(3, &dbl()).unwrap();
        assert_eq!(shape_of(&s, 1), shape_of(&c, 1));
        let v = DataType::vector(3, 2, 4, &dbl()).unwrap();
        let sv = DataType::structure(&[1], &[24], std::slice::from_ref(&v)).unwrap();
        let hv = DataType::hindexed(&[1], &[24], &v).unwrap();
        assert_eq!(shape_of(&sv, 1), shape_of(&hv, 1));

        // Fields that share one type are an indexed list.
        let t = dbl();
        let hs = DataType::structure(&[2, 2], &[0, 40], &[t.clone(), t]).unwrap();
        let idx = DataType::hindexed(&[2, 2], &[0, 40], &dbl()).unwrap();
        assert_eq!(shape_of(&hs, 1), shape_of(&idx, 1));
        assert_eq!(shape_of(&hs, 1), vector(16, 40, 0));

        // Mixed structs are no strided block.
        let mixed = DataType::structure(&[1, 2], &[0, 8], &[DataType::int(), dbl()]).unwrap();
        assert_eq!(shape_of(&mixed, 1), None);
    }

    #[test]
    fn canonical_is_memoized_and_preserves_commit() {
        let idx = DataType::indexed(&[2, 2], &[0, 5], &dbl()).unwrap();
        assert!(idx.node.blocks.get().is_none());
        let shape = idx.strided(1);
        assert!(shape.is_some());
        // Every handle on the tree reads the one stored walk.
        let committed = idx.clone().commit();
        assert!(committed.node.blocks.get().is_some());
        assert_eq!(committed.strided(1), shape);
        assert_eq!(idx.dup().strided(1), shape);
        // An irregular type stores its `None` too.
        let t = DataType::indexed(&[2, 3], &[0, 5], &dbl()).unwrap();
        assert_eq!(t.strided(1), None);
        assert!(matches!(t.node.blocks.get(), Some(None)));
    }

    #[test]
    fn canonical_preserves_arbitrary_trees() {
        use crate::testutil::arb_datatype;
        use simcore::rng::SimRng;
        let mut recognised = 0u32;
        for seed in 0..200u64 {
            let mut rng = SimRng::new(0xCA40 ^ seed);
            let ty = arb_datatype(&mut rng);
            for count in [1u64, 2, 3] {
                recognised += u32::from(shape_of(&ty, count).is_some());
            }
        }
        // The generator produces plenty of strided trees; the recogniser
        // must actually fire, not just say `None`.
        assert!(recognised >= 372, "only {recognised}/600 shapes");
    }
}
