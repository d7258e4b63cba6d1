//! Transfer plans: the one description of a transfer pipeline.
//!
//! The paper's two protocols (§4.1 pipelined RDMA over CUDA IPC, §4.2
//! pipelined copy-in/copy-out), the two offload classes and both halves
//! of an eager message are the same machine: fragments flow through a
//! short list of stages over a bounded ring of slots, and a credit comes
//! back per fragment. So are the paper's two comparators (§2.2), as one
//! fragment each. A [`TransferPlan`] writes that machine down once.
//! [`plan_for`], [`eager_half`] and [`comparator_plan`] are the only
//! places that decide which stages a path has; the executor
//! (`crate::protocol::exec`) walks the plan and the tuner
//! ([`crate::tuner`]) prices the very same [`StageOp`]s, so the model
//! cannot drift from what runs (DESIGN.md §17).

use crate::connection::Capability;
use crate::protocol::Side;
use crate::tuner::PathClass;
use crate::world::MpiWorld;
use datatype::DataType;
use simcore::trace::{names, Name};
use simcore::Sim;

/// One endpoint of a transfer: the rank a stage runs on, or whose
/// buffer / ring a location names.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum End {
    Send,
    Recv,
}

impl End {
    pub fn other(self) -> End {
        match self {
            End::Send => End::Recv,
            End::Recv => End::Send,
        }
    }
}

/// Where a fragment's packed bytes sit between two stages. A ring
/// location names one of the end's rank's own rings
/// (`RankState::rings`), shared by all of that rank's connections; the
/// fragment's slot in it is a plain index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Loc {
    /// Window `data_ptr() + seq·frag` of that end's dense user buffer.
    User(End),
    /// The fragment's slot in that end's device ring: the sender's is
    /// IPC-exported to its SM peers; the receiver's stages SM fragments
    /// locally and copy-in/out fragments on their way to or from host.
    Dev(End),
    /// The fragment's slot in that end's pinned host ring, registered
    /// with the NIC (copy-in/out).
    Host(End),
}

/// One charge site of a pipeline. Each variant has exactly one `run`
/// arm in the executor and one `price` arm in the tuner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageOp {
    /// GPU pack (`end == Send`) or unpack kernel between the end's
    /// typed buffer and the fragment at `frag`: in the executing GPU's
    /// own DRAM, a peer GPU's through the IPC mapping, or zero-copy
    /// mapped host memory.
    Kernel { end: End, frag: Loc },
    /// Host CPU convertor pass between typed buffer and `frag`.
    CpuConvert { end: End, frag: Loc },
    /// `cudaMemcpy` on `stream_of`'s copy stream.
    Copy { stream_of: End, from: Loc, to: Loc },
    /// The data-link hop; lands the bytes at `to`.
    Wire { from: Loc, to: Loc },
    /// 16-byte active message telling `to` the fragment is ready.
    Notify { to: End },
    /// Event hop of a dense host endpoint (no data motion of its own:
    /// the wire reads / lands the user buffer directly).
    Direct,
    /// The NIC packet processor runs the merged gather/scatter program.
    NicProgram,
    /// Re-arm → graph kernel → wire → graph kernel of a captured graph.
    GraphReplay,
    /// Wang et al.'s conversion between the end's typed buffer and the
    /// fragment at `frag`: one `cudaMemcpy2D` per [`vectorize`] run — a
    /// plain `cudaMemcpy` for a run of one row — on the end's copy
    /// stream.
    Memcpy2d { end: End, frag: Loc },
}

/// The most stages a plan has: a strided device end on each side of a
/// staged copy-in/out wire (kernel, copy, wire, copy, kernel).
pub const MAX_STAGES: usize = 5;

/// A plan's per-fragment stages, in execution order, held inline: a
/// plan costs no allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Stages([Option<StageOp>; MAX_STAGES]);

impl Stages {
    pub fn iter(&self) -> impl Iterator<Item = &StageOp> {
        self.0.iter().flatten()
    }

    pub fn get(&self, idx: usize) -> Option<StageOp> {
        self.0.get(idx).copied().flatten()
    }

    /// Append `op`; no path has more than [`MAX_STAGES`] stages.
    fn push(&mut self, op: StageOp) {
        let free = self.0.iter_mut().find(|slot| slot.is_none());
        debug_assert!(free.is_some(), "a plan has at most {MAX_STAGES} stages");
        if let Some(slot) = free {
            *slot = Some(op);
        }
    }
}

/// Payload of every per-fragment control message — a [`StageOp::Notify`]
/// and a slot ack — and of a transfer's closing notification.
pub const CONTROL_BYTES: u64 = 16;

/// The paper's two comparators (§2.2), each a one-fragment plan through
/// host memory with no overlap between its stages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Comparator {
    /// Wang et al. (MVAPICH2-GDR): the type vectorized, one
    /// `cudaMemcpy2D` per vector.
    Wang,
    /// Jenkins et al. (MPICH): one kernel per whole type, staged.
    Jenkins,
}

/// How a slot's credit returns and how the requests complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Credit {
    /// The slot frees when its last stage completes; that end's request
    /// completes with the last fragment and `far` gets one active
    /// message per *transfer* (the sm fast paths).
    Local { far: End },
    /// The receiver active-messages every slot back; the last ack
    /// completes the send request (full sm pipeline, copy-in/out).
    Ack,
    /// Both ends resolve when the single fragment's last stage
    /// completes, with no control traffic: hardware completion (the
    /// offload classes), or a local pass (an eager half).
    Fused,
}

/// The executable, priceable description of one transfer.
#[derive(Clone, Debug)]
pub struct TransferPlan {
    pub class: PathClass,
    /// Per-fragment stages, in execution order.
    pub stages: Stages,
    /// Pipeline shape: the configured one from [`plan_for`]; the
    /// executor re-tunes it against the ring actually allocated.
    pub frag: u64,
    pub depth: usize,
    /// Fragments cycle through a connection's slot ring (and get a
    /// `frag` span each). `false` for the one-fragment plans.
    pub ring: bool,
    pub credit: Credit,
    /// Protocol span name; the offload classes and the eager halves
    /// have none.
    pub span: Option<Name>,
    /// The executor lands the plan's bytes with streaming stores
    /// ([`memsim::Move::stream`]), as a GPU unpack kernel writes whole
    /// transactions without reading them first. Only the eager delivery
    /// half streams: its landing is at most one eager message, and
    /// nothing re-reads it the way a ping-pong re-reads a landing still
    /// in cache.
    pub stream: bool,
    /// A comparator's plan converts the comparator's way: a GPU end
    /// converts the whole type fresh — no DEV cache, no CPU/GPU
    /// chunking, as Jenkins et al. regenerate the flattened type per
    /// operation — and a [`StageOp::Memcpy2d`] end walks its vector
    /// runs. `None` for every plan of ours.
    pub comparator: Option<Comparator>,
}

impl TransferPlan {
    /// Does `end` run a conversion engine in this plan?
    pub fn converts(&self, end: End) -> bool {
        self.stages.iter().any(|op| match *op {
            StageOp::Kernel { end: e, .. }
            | StageOp::CpuConvert { end: e, .. }
            | StageOp::Memcpy2d { end: e, .. } => e == end,
            _ => false,
        })
    }
}

/// What [`plan_for`] needs to know beyond the two sides.
#[derive(Clone, Copy, Debug)]
pub struct Facts {
    /// Both ranks are bound to the same GPU.
    pub same_gpu: bool,
    pub recv_local_staging: bool,
    /// The runtime offers zero copy: configured and not lost.
    pub zero_copy: bool,
    /// Configured pipeline shape.
    pub frag_size: u64,
    pub depth: usize,
}

impl Facts {
    pub fn of(sim: &Sim<MpiWorld>, s_rank: usize, r_rank: usize) -> Facts {
        let mpi = &sim.world.mpi;
        Facts {
            same_gpu: sim.world.rank(s_rank).gpu == sim.world.rank(r_rank).gpu,
            recv_local_staging: mpi.config.recv_local_staging,
            zero_copy: mpi.offers(Capability::ZeroCopy),
            frag_size: mpi.config.frag_size,
            depth: mpi.config.pipeline_depth,
        }
    }

    /// The copy-in/out flavour a transfer takes right now — also what
    /// every demotion substitutes: zero copy while healthy, explicitly
    /// staged once a permanent pinned-registration loss flipped it off.
    pub fn copy_class(&self) -> PathClass {
        if self.zero_copy {
            PathClass::ZeroCopy
        } else {
            PathClass::CopyInOut
        }
    }
}

/// Push the conversion stages of one copy-in/out endpoint between its
/// typed buffer and its host fragment; return the wire-side location. Dense
/// sides skip conversion; zero copy folds the staging hop into the
/// kernel. The receiver is the sender's mirror image: it stages first
/// and converts last.
fn host_side(end: End, side: &Side, zero: bool, stages: &mut Stages) -> Loc {
    let (user, dev, host) = (Loc::User(end), Loc::Dev(end), Loc::Host(end));
    let kernel = |frag| Some(StageOp::Kernel { end, frag });
    // A staging copy between a typed-side and a wire-side location, in
    // the direction the data flows on this end.
    let hop = |typed_side, wire_side| {
        let (from, to) = match end {
            End::Send => (typed_side, wire_side),
            End::Recv => (wire_side, typed_side),
        };
        Some(StageOp::Copy {
            stream_of: end,
            from,
            to,
        })
    };
    let (mut ops, wire_loc) = match (side.dense(), side.device()) {
        (false, true) if zero => ([kernel(host), None], host),
        (false, true) => ([kernel(dev), hop(dev, host)], host),
        (false, false) => ([Some(StageOp::CpuConvert { end, frag: host }), None], host),
        (true, true) => ([hop(user, host), None], host),
        // Registered host data is wired from / landed in place.
        (true, false) => ([Some(StageOp::Direct), None], user),
    };
    if end == End::Recv {
        ops.reverse();
    }
    ops.into_iter().flatten().for_each(|op| stages.push(op));
    wire_loc
}

/// Build the plan one transfer takes down `class`: which stages it has
/// given each side's density and placement, whether the ranks share a
/// GPU, receiver-local staging and zero-copy health.
pub fn plan_for(facts: &Facts, s: &Side, r: &Side, class: PathClass) -> TransferPlan {
    use Credit::Local as L;
    use End::{Recv, Send};
    let mut stages = Stages::default();
    let (credit, span, ring) = match class {
        PathClass::SmIpc => {
            let (s_dense, r_dense) = (s.dense(), r.dense());
            let staged = facts.recv_local_staging && !facts.same_gpu;
            // Where the receiver finds a packed fragment: a window of a
            // dense sender's mapped user buffer (no pack at all), else
            // the ring slot the sender's pack kernel filled.
            let packed = if s_dense {
                Loc::User(Send)
            } else {
                stages.push(StageOp::Kernel {
                    end: Send,
                    frag: Loc::Dev(Send),
                });
                Loc::Dev(Send)
            };
            if r_dense {
                // No unpack at all: one bulk copy to the final window at
                // P2P rate — a GET by the receiver when both sides are
                // dense, a PUT by the packing sender otherwise.
                stages.push(StageOp::Copy {
                    stream_of: if s_dense { Recv } else { Send },
                    from: packed,
                    to: Loc::User(Recv),
                });
            } else {
                if !s_dense {
                    stages.push(StageOp::Notify { to: Recv });
                }
                // GET the fragment into local staging when present, then
                // unpack — out of local memory if it was staged or the
                // peers share a GPU, through the IPC mapping otherwise.
                let frag = if staged {
                    stages.push(StageOp::Copy {
                        stream_of: Recv,
                        from: packed,
                        to: Loc::Dev(Recv),
                    });
                    Loc::Dev(Recv)
                } else {
                    packed
                };
                stages.push(StageOp::Kernel { end: Recv, frag });
            }
            // Only the full Figure 4 pipeline acks every slot; the fast
            // paths recycle locally and notify the idle side once.
            match (s_dense, r_dense) {
                (true, true) => (L { far: Send }, Some(names::SPAN_SM_BOTH_DENSE), false),
                (true, false) => (L { far: Send }, Some(names::SPAN_SM_SENDER_DENSE), true),
                (false, true) => (L { far: Recv }, Some(names::SPAN_SM_RECEIVER_DENSE), true),
                (false, false) => (Credit::Ack, Some(names::SPAN_SM_PIPELINE), true),
            }
        }
        PathClass::CopyInOut | PathClass::ZeroCopy => {
            let zero = class == PathClass::ZeroCopy;
            let from = host_side(Send, s, zero, &mut stages);
            let mut recv_ops = Stages::default();
            let to = host_side(Recv, r, zero, &mut recv_ops);
            stages.push(StageOp::Wire { from, to });
            recv_ops.iter().for_each(|&op| stages.push(op));
            (Credit::Ack, Some(names::SPAN_COPYIO), true)
        }
        PathClass::NicOffload => {
            stages.push(StageOp::NicProgram);
            (Credit::Fused, None, false)
        }
        PathClass::StreamTriggered => {
            stages.push(StageOp::GraphReplay);
            (Credit::Fused, None, false)
        }
    };
    let (frag, depth) = if ring {
        (facts.frag_size, facts.depth)
    } else {
        (s.total().max(1), 1)
    };
    TransferPlan {
        class,
        stages,
        frag,
        depth,
        ring,
        credit,
        span,
        stream: false,
        comparator: None,
    }
}

/// One half of an eager message of `n` bytes: a single pass between
/// `end`'s typed user buffer and the host bounce buffer at the other
/// end, which is a dense [`Loc::User`] — a kernel for device data, the
/// CPU convertor for host data. The sender's half packs (`end ==
/// Send`), the receiver's unpacks at match; a receive posted larger
/// than the message converts exactly its `n` bytes. Unlike a
/// copy-in/out endpoint, a dense user side keeps its conversion pass.
/// One fragment, no ring, no span: [`Credit::Fused`] resolves the half
/// when its pass lands. Its class is the copy-in/out one, which only
/// tunes ring shapes. The receiver's half streams its landing
/// ([`TransferPlan::stream`]).
pub fn eager_half(end: End, typed: &Side, n: u64) -> TransferPlan {
    let frag = Loc::User(end.other());
    let mut stages = Stages::default();
    stages.push(if typed.device() {
        StageOp::Kernel { end, frag }
    } else {
        StageOp::CpuConvert { end, frag }
    });
    TransferPlan {
        class: PathClass::CopyInOut,
        stages,
        frag: n.max(1),
        depth: 1,
        ring: false,
        credit: Credit::Fused,
        span: None,
        stream: end == End::Recv,
        comparator: None,
    }
}

/// The plan of one comparator message `s → r`: one fragment of the whole
/// message through host staging, every stage waiting for the one before.
/// Jenkins-style takes [`plan_for`]'s staged copy-in/out stage list of
/// two device ends — for strided ones pack kernel, D2H copy, wire, H2D
/// copy, unpack kernel; Wang-style copies its vector runs to and from
/// host staging.
/// Like an eager half it has no ring and no span; its copy-in/out class
/// only tunes ring shapes, so the plan is never re-tuned.
pub fn comparator_plan(which: Comparator, s: &Side, r: &Side) -> TransferPlan {
    let (from, to) = (Loc::Host(End::Send), Loc::Host(End::Recv));
    let mut stages = Stages::default();
    match which {
        Comparator::Jenkins => {
            host_side(End::Send, s, false, &mut stages);
            stages.push(StageOp::Wire { from, to });
            host_side(End::Recv, r, false, &mut stages);
        }
        Comparator::Wang => {
            let copy = |end, frag| StageOp::Memcpy2d { end, frag };
            let ops = [
                copy(End::Send, from),
                StageOp::Wire { from, to },
                copy(End::Recv, to),
            ];
            ops.into_iter().for_each(|op| stages.push(op));
        }
    }
    TransferPlan {
        class: PathClass::CopyInOut,
        stages,
        frag: s.total().max(1),
        depth: 1,
        ring: false,
        credit: Credit::Fused,
        span: None,
        stream: false,
        comparator: Some(which),
    }
}

/// A uniform strided run: `height` rows of `width` bytes, `stride`
/// bytes apart, starting at `first_disp` — exactly what one
/// `cudaMemcpy2D` call can move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VectorRun {
    pub first_disp: i64,
    pub width: u64,
    pub stride: i64,
    pub height: u64,
}

impl VectorRun {
    pub fn bytes(&self) -> u64 {
        self.width * self.height
    }
}

/// Wang et al.'s vectorization, the source of a [`StageOp::Memcpy2d`]
/// stage's copies: `count` instances of a datatype as a minimal set of
/// vector runs, in packed order. Consecutive equal-length,
/// equally-spaced segments fold into one run; everything else
/// degenerates to single-row runs — the behaviour the paper criticizes
/// for indexed types, where "each contiguous block ... is considered as
/// a single vector type and packed/unpacked separately".
pub fn vectorize(ty: &DataType, count: u64) -> Vec<VectorRun> {
    let mut runs: Vec<VectorRun> = Vec::new();
    for s in ty.segments(count) {
        if let Some(last) = runs.last_mut().filter(|last| last.width == s.len) {
            // From the start of the run's last row: a second row fixes
            // the stride, and every later one must keep it.
            let gap = s.disp - (last.first_disp + last.stride * (last.height as i64 - 1));
            if (last.height == 1 && gap >= s.len as i64) || (last.height > 1 && gap == last.stride)
            {
                last.stride = gap;
                last.height += 1;
                continue;
            }
        }
        runs.push(VectorRun {
            first_disp: s.disp,
            width: s.len,
            stride: s.len as i64,
            height: 1,
        });
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AllocId, GpuId, MemSpace, Ptr};

    /// Only the eager delivery half streams its landing: every other
    /// plan — the eager pack half, every class [`plan_for`] builds over
    /// every side and fact combination, and both comparators — lands
    /// with plain stores.
    #[test]
    fn only_the_eager_delivery_half_streams() {
        use PathClass::*;
        let classes = [SmIpc, CopyInOut, ZeroCopy, NicOffload, StreamTriggered];
        // A new class fails to compile here until it joins the table.
        for class in classes {
            match class {
                SmIpc | CopyInOut | ZeroCopy | NicOffload | StreamTriggered => {}
            }
        }
        let dense = DataType::contiguous(512, &DataType::double())
            .unwrap()
            .commit();
        let strided = DataType::vector(64, 32, 64, &DataType::double())
            .unwrap()
            .commit();
        let mut sides = Vec::new();
        for (rank, space) in [MemSpace::Host, MemSpace::Device(GpuId(0))]
            .into_iter()
            .enumerate()
        {
            for ty in [&dense, &strided] {
                sides.push(Side {
                    rank,
                    ty: ty.clone(),
                    count: 1,
                    buf: Ptr {
                        space,
                        alloc: AllocId(0),
                        offset: 0,
                    },
                });
            }
        }
        let mut rows = 0;
        for typed in &sides {
            let n = typed.total();
            for (end, streams) in [(End::Send, false), (End::Recv, true)] {
                assert_eq!(eager_half(end, typed, n).stream, streams, "eager {end:?}");
                rows += 1;
            }
            for r in &sides {
                for which in [Comparator::Wang, Comparator::Jenkins] {
                    assert!(!comparator_plan(which, typed, r).stream, "{which:?}");
                    rows += 1;
                }
                for class in classes {
                    for bits in 0..8u8 {
                        let facts = Facts {
                            same_gpu: bits & 1 != 0,
                            recv_local_staging: bits & 2 != 0,
                            zero_copy: bits & 4 != 0,
                            frag_size: 4096,
                            depth: 2,
                        };
                        assert!(!plan_for(&facts, typed, r, class).stream, "{class:?}");
                        rows += 1;
                    }
                }
            }
        }
        assert_eq!(rows, 4 * 2 + 4 * 4 * (2 + 5 * 8));
    }

    fn dbl() -> DataType {
        DataType::double()
    }

    #[test]
    fn vector_type_folds_to_one_run() {
        let v = DataType::vector(10, 3, 7, &dbl()).unwrap();
        let runs = vectorize(&v, 1);
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0],
            VectorRun {
                first_disp: 0,
                width: 24,
                stride: 56,
                height: 10
            }
        );
        assert_eq!(runs[0].bytes(), v.size());
    }

    #[test]
    fn contiguous_is_one_row() {
        let c = DataType::contiguous(100, &dbl()).unwrap();
        let runs = vectorize(&c, 2);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].height, 1);
        assert_eq!(runs[0].width, 1600);
    }

    #[test]
    fn triangular_shatters_into_per_column_runs() {
        let n = 16u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap();
        let runs = vectorize(&t, 1);
        // Unequal column lengths cannot fold: one run per column.
        assert_eq!(runs.len(), n as usize);
        let total: u64 = runs.iter().map(|r| r.bytes()).sum();
        assert_eq!(total, t.size());
    }

    #[test]
    fn runs_conserve_bytes_on_random_mixture() {
        let s = DataType::structure(
            &[2, 3, 1],
            &[0, 64, 256],
            &[DataType::int(), dbl(), DataType::float()],
        )
        .unwrap();
        let runs = vectorize(&s, 3);
        let total: u64 = runs.iter().map(|r| r.bytes()).sum();
        assert_eq!(total, s.size() * 3);
    }

    #[test]
    fn multi_count_vector_keeps_folding_when_uniform() {
        // stride pattern continues across instances when extent==stride*count.
        let v = DataType::vector(4, 1, 2, &dbl()).unwrap();
        let r = DataType::resized(&v, 0, 64).unwrap();
        let runs = vectorize(&r, 3);
        assert_eq!(
            runs.len(),
            1,
            "uniform pattern across instances folds: {runs:?}"
        );
        assert_eq!(runs[0].height, 12);
    }
}
