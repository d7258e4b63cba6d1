//! The transfer (pack/unpack) kernel: functional execution plus the
//! coalescing cost model.
//!
//! A work unit is a `(src_off, dst_off, len)` segment move — the
//! `cuda_dev_dist` struct of the paper. The kernel walks units with a
//! grid-stride loop; each warp moves one 256-byte chunk per iteration
//! (32 threads × 8 bytes). The cost model counts the 128-byte cache
//! lines each chunk touches on each side:
//!
//! * an aligned chunk touches 2 lines (256 B of traffic) per side;
//! * a misaligned chunk straddles 3 lines (384 B) per side — a 1.5×
//!   traffic penalty, which is exactly where the triangular matrix loses
//!   its ~20% of bandwidth in Figure 6;
//! * every unit also streams its 32-byte descriptor from global memory,
//!   which penalizes datatypes shattered into tiny blocks (Figure 12's
//!   transpose with 8-byte units).
//!
//! Sides that live off-GPU (zero-copy mapped host memory, or a peer
//! GPU's memory accessed through IPC) are charged PCIe time instead of
//! DRAM traffic; kernel time is the max of the two, since the hardware
//! overlaps them.
//!
//! Everything above is read off the unit list in one pass and held in a
//! [`KernelTraffic`]; [`kernel_time`], a retry's re-launch and the
//! completion counters are arithmetic on that summary and never see
//! the list. The summary is a pure function of the list, both sides'
//! placement and the spec's access geometry, which is what lets the
//! caller that owns the list — a cached DEV plan — keep it per launch
//! it has priced (`devengine::dev::TrafficKey`). A strided kernel's
//! launch is priced from its window instead ([`KernelTraffic::of_window`]):
//! the same summary, exactly, in closed form. The tuner prices a
//! fragment before it exists on the same summary of the launch it
//! will be, through the same [`kernel_time`].

use crate::fault;
use crate::spec::{GpuSpec, NodeTopology, Pow2};
use crate::system::{on_stream, GpuState, GpuWorld, StreamId};
use faultsim::FaultOp;
use memsim::{MemSpace, Ptr};
use simcore::par::{CopyOp, Grid, StridedWindow};
use simcore::trace::names;
use simcore::{Bandwidth, Sim, SimTime};

/// Launch configuration for a transfer kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Thread-block count override; `None` launches enough blocks to
    /// fill every SM.
    pub blocks: Option<u32>,
    /// Whether the kernel streams a CUDA-DEV descriptor array from
    /// global memory. The specialized *vector* kernel computes its
    /// offsets arithmetically from `(blocklength, stride, count)` and
    /// sets this false; the general DEV kernel sets it true.
    pub descriptor_stream: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            blocks: None,
            descriptor_stream: true,
        }
    }
}

/// Cache lines touched by one warp-chunked access of `len` bytes at
/// byte address `disp`. Full chunks share the same phase (the chunk is
/// a multiple of the line), so this is O(1); line and chunk are powers
/// of two by the type of [`GpuSpec`]'s fields, so it is also free of
/// divisions — it runs once per work unit per side.
pub(crate) fn access_lines(disp: u64, len: u64, txn: Pow2, chunk: Pow2) -> u64 {
    if len == 0 {
        return 0;
    }
    let full_chunks = len >> chunk.log2();
    let lines_per_full = (chunk.get() >> txn.log2()) + u64::from(disp & txn.mask() != 0);
    let mut lines = full_chunks * lines_per_full;
    let residue = len & chunk.mask();
    if residue > 0 {
        let start = disp + (len - residue);
        lines += ((start + residue - 1) >> txn.log2()) - (start >> txn.log2()) + 1;
    }
    lines
}

/// `stride` against the line: its residue, and the period after which
/// the phases of accesses `stride` apart repeat, `txn / gcd(stride mod
/// txn, txn)` (1 when the stride is a multiple of the line).
fn phase_step(stride: i64, txn: Pow2) -> (u64, u64) {
    // Two's complement: the residue of a negative stride too.
    let step = stride as u64 & txn.mask();
    let period = if step == 0 {
        1
    } else {
        txn.get() >> step.trailing_zeros()
    };
    (step, period)
}

/// Lines touched by `count` accesses of `len` bytes, the first at
/// address `at` and each next `stride` further: [`access_lines`] reads
/// an address only through its phase against the line, so one period
/// of phases is summed, not the run.
fn run_lines(at: u64, count: u64, stride: i64, len: u64, txn: Pow2, chunk: Pow2) -> u64 {
    let (step, period) = phase_step(stride, txn);
    let rest = count % period;
    let (mut per_period, mut head) = (0, 0);
    for k in 0..count.min(period) {
        let lines = access_lines(at.wrapping_add(k * step) & txn.mask(), len, txn, chunk);
        per_period += lines;
        head += if k < rest { lines } else { 0 };
    }
    count / period * per_period + head
}

/// Lines the typed side of `grid` touches from a base at `base`: a run
/// per row, and rows whose first blocks share a phase share their sum —
/// the row phases repeat like a run's.
fn grid_lines(base: u64, grid: &Grid, txn: Pow2, chunk: Pow2) -> u64 {
    let at = base.wrapping_add(grid.typed as u64);
    let (step, period) = phase_step(grid.row_stride, txn);
    (0..grid.rows.min(period))
        .map(|t| {
            let rows = (grid.rows - 1 - t) / period + 1;
            let first = at.wrapping_add(t * step);
            rows * run_lines(first, grid.cols, grid.col_stride, grid.len, txn, chunk)
        })
        .sum()
}

/// Where one side of the transfer lives, relative to the executing GPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Side {
    /// In the executing GPU's own DRAM.
    LocalDevice,
    /// Zero-copy mapped host memory, reached over PCIe.
    MappedHost,
    /// A peer GPU's memory reached over PCIe P2P (IPC mapping).
    PeerDevice,
}

fn classify(ptr: Ptr, exec_gpu: memsim::GpuId) -> Side {
    match ptr.space {
        MemSpace::Host => Side::MappedHost,
        MemSpace::Device(g) if g == exec_gpu => Side::LocalDevice,
        MemSpace::Device(_) => Side::PeerDevice,
    }
}

/// Everything the kernel model reads from a unit list: what one launch
/// over `units` between `src` and `dst` asks of the executing GPU's DRAM
/// and of PCIe. A pure function of [`KernelTraffic::of`]'s arguments —
/// the list, each side's space and offset (the offset sets every unit's
/// phase against the 128-byte lines), the executing GPU and the spec's
/// access geometry — so a caller that launches the same window between
/// the same places again may keep it instead of walking the list.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelTraffic {
    /// Work units (each streams one descriptor).
    pub units: u64,
    /// Sum of the unit lengths.
    pub payload: u64,
    /// DRAM traffic of the sides in the executing GPU's own memory,
    /// in whole transactions, descriptors not included.
    pub dram_bytes: u64,
    /// Bytes crossing PCIe: the payload once per off-GPU side.
    pub pcie_bytes: u64,
}

/// Whether (source, destination) is in the executing GPU's own DRAM; a
/// transfer kernel touches it on at least one side.
fn local_sides(src: Ptr, dst: Ptr, exec_gpu: memsim::GpuId) -> (bool, bool) {
    let src_local = classify(src, exec_gpu) == Side::LocalDevice;
    let dst_local = classify(dst, exec_gpu) == Side::LocalDevice;
    assert!(
        src_local || dst_local,
        "transfer kernel must touch the executing GPU's memory on at least one side"
    );
    (src_local, dst_local)
}

impl KernelTraffic {
    /// One pass over `units`.
    pub fn of(
        units: &[CopyOp],
        src: Ptr,
        dst: Ptr,
        exec_gpu: memsim::GpuId,
        spec: &GpuSpec,
    ) -> KernelTraffic {
        let (src_local, dst_local) = local_sides(src, dst, exec_gpu);
        let (txn, chunk) = (spec.transaction_bytes, spec.warp_chunk());
        let (mut payload, mut lines) = (0u64, 0u64);
        for u in units {
            let len = u.len as u64;
            payload += len;
            if src_local {
                lines += access_lines(src.offset + u.src_off as u64, len, txn, chunk);
            }
            if dst_local {
                lines += access_lines(dst.offset + u.dst_off as u64, len, txn, chunk);
            }
        }
        KernelTraffic {
            units: units.len() as u64,
            payload,
            dram_bytes: lines << txn.log2(),
            pcie_bytes: payload * (u64::from(!src_local) + u64::from(!dst_local)),
        }
    }

    /// [`KernelTraffic::of`] the window's segments
    /// ([`simcore::par::strided_units`]) between `src` and `dst`,
    /// exactly, in closed form: its [`StridedWindow::grids`], each side
    /// priced per period of line phases — the typed side per row class,
    /// the packed side as one run at the block stride.
    pub fn of_window(
        window: &StridedWindow,
        src: Ptr,
        dst: Ptr,
        exec_gpu: memsim::GpuId,
        spec: &GpuSpec,
    ) -> KernelTraffic {
        let (src_local, dst_local) = local_sides(src, dst, exec_gpu);
        let ((typed, typed_local), (packed, packed_local)) = if window.unpack {
            ((dst, dst_local), (src, src_local))
        } else {
            ((src, src_local), (dst, dst_local))
        };
        let (txn, chunk) = (spec.transaction_bytes, spec.warp_chunk());
        let mut lines = 0;
        for g in window.grids() {
            if typed_local {
                lines += grid_lines(typed.offset, &g, txn, chunk);
            }
            if packed_local {
                let at = packed.offset.wrapping_add(g.packed);
                lines += run_lines(at, g.rows * g.cols, g.len as i64, g.len, txn, chunk);
            }
        }
        let payload = window.bytes();
        KernelTraffic {
            units: window.segments(),
            payload,
            dram_bytes: lines << txn.log2(),
            pcie_bytes: payload * (u64::from(!src_local) + u64::from(!dst_local)),
        }
    }
}

/// The price of one transfer kernel on GPU `g`: what
/// [`charge_transfer_kernel`] reserves on the stream before faults, for
/// `traffic` between a source in `spaces.0` and a destination in
/// `spaces.1`. The tuner prices a stage with it, on the launch's exact
/// traffic.
pub fn kernel_time(
    g: &GpuState,
    topo: &NodeTopology,
    spaces: (MemSpace, MemSpace),
    cfg: KernelConfig,
    traffic: &KernelTraffic,
) -> SimTime {
    let mut bw = g
        .effective_traffic_bw()
        .derated(g.spec.pack_kernel_efficiency);
    if let Some(blocks) = cfg.blocks {
        let occ = (blocks as f64 / g.spec.sm_count as f64).min(1.0);
        bw = bw.derated(occ.max(f64::MIN_POSITIVE));
    }
    // Zero-copy / peer traffic rides PCIe; pick the worst-case
    // direction (h2d vs d2h rates are symmetric in the default
    // topology; p2p differs only slightly).
    let pcie = if spaces.0.is_host() || spaces.1.is_host() {
        topo.pcie_h2d
    } else {
        topo.pcie_p2p.derated(topo.peer_kernel_efficiency)
    };
    transfer_kernel_time(
        &g.spec,
        bw,
        pcie,
        topo.pcie_latency,
        traffic,
        cfg.descriptor_stream,
    )
}

/// The arithmetic of [`kernel_time`] once the rates are chosen.
fn transfer_kernel_time(
    spec: &GpuSpec,
    eff_traffic_bw: Bandwidth,
    pcie_bw: Bandwidth,
    pcie_latency: SimTime,
    traffic: &KernelTraffic,
    descriptor_stream: bool,
) -> SimTime {
    // The general DEV kernel streams its descriptors from local DRAM.
    let descriptors = if descriptor_stream {
        traffic.units * spec.descriptor_bytes
    } else {
        0
    };
    let dram_time = eff_traffic_bw.time_for(traffic.dram_bytes + descriptors);
    let pcie_time = if traffic.pcie_bytes > 0 {
        pcie_bw.time_for(traffic.pcie_bytes) + pcie_latency
    } else {
        SimTime::ZERO
    };
    spec.launch_overhead + dram_time.max(pcie_time)
}

/// Charge a pack/unpack kernel on `stream`: reserves it for the modeled
/// duration, records the span and the launch counters, and calls `done`
/// at the completion instant with the completion time. No byte moves
/// and no unit list is read: `src` and `dst` pick the PCIe link,
/// `traffic` — [`KernelTraffic::of`] the launch's units between exactly
/// these two pointers — prices everything else.
///
/// Fault charge point (`FaultOp::KernelLaunch`), issued through
/// [`fault::charge`]: the verdict is rolled at launch, before `done` can
/// move anything; transient injections re-charge the same traffic after
/// a capped backoff; degrade windows stretch the charge.
pub fn charge_transfer_kernel<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    dst: Ptr,
    traffic: KernelTraffic,
    cfg: KernelConfig,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let spaces = (src.space, dst.space);
    let price = move |sim: &Sim<W>| {
        let sys = sim.world.gpus_ref();
        kernel_time(sys.gpu(stream.gpu), &sys.topo, spaces, cfg, &traffic)
    };
    let reserve = on_stream(stream, names::SPAN_KERNEL);
    fault::charge(sim, FaultOp::KernelLaunch, price, reserve, move |sim| {
        let gpu = stream.gpu.0;
        sim.trace
            .count(names::GPUSIM_KERNEL_BYTES, gpu, 0, traffic.payload);
        // Units per launch make the optimizer's coalescing visible in
        // metrics: fewer, larger units at the same byte count.
        sim.trace
            .count(names::GPUSIM_KERNEL_UNITS, gpu, 0, traffic.units);
        sim.trace.count(names::GPUSIM_KERNEL_LAUNCHES, gpu, 0, 1);
        done(sim, sim.now());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::NodeWorld;
    use memsim::GpuId;

    fn spec() -> GpuSpec {
        GpuSpec::default()
    }

    /// Charge a kernel over `units` and move its bytes when it lands,
    /// the way every caller that owns a unit list does.
    fn launch(
        sim: &mut Sim<NodeWorld>,
        stream: StreamId,
        (src, dst): (Ptr, Ptr),
        units: Vec<CopyOp>,
        cfg: KernelConfig,
    ) {
        let spec = &sim.world.gpu_system.gpu(stream.gpu).spec;
        let traffic = KernelTraffic::of(&units, src, dst, stream.gpu, spec);
        charge_transfer_kernel(sim, stream, src, dst, traffic, cfg, move |sim, _| {
            sim.world.memory.transfer(src, dst, &units).unwrap();
        });
    }

    fn lines(disp: u64, len: u64, spec: &GpuSpec) -> u64 {
        access_lines(disp, len, spec.transaction_bytes, spec.warp_chunk())
    }

    /// The model as it was first written, with runtime divisions: the
    /// reference the shift form must reproduce exactly.
    fn access_lines_by_division(disp: u64, len: u64, spec: &GpuSpec) -> u64 {
        if len == 0 {
            return 0;
        }
        let txn = spec.transaction_bytes.get();
        let chunk = spec.warp_chunk().get();
        let full_chunks = len / chunk;
        let phase = disp % txn;
        let lines_per_full = if phase == 0 {
            chunk / txn
        } else {
            chunk / txn + 1
        };
        let mut lines = full_chunks * lines_per_full;
        let residue = len % chunk;
        if residue > 0 {
            let start = disp + full_chunks * chunk;
            lines += (start + residue - 1) / txn - start / txn + 1;
        }
        lines
    }

    #[test]
    fn shift_form_equals_division_form_on_every_registry_spec() {
        for arch in crate::arch::GpuArch::registry() {
            let s = arch.spec();
            for disp in 0..512 {
                for len in 0..1024 {
                    assert_eq!(
                        lines(disp, len, &s),
                        access_lines_by_division(disp, len, &s),
                        "{} disp {disp} len {len}",
                        arch.name
                    );
                }
            }
            // Far from the origin too: the phase is all that matters.
            let far = (1u64 << 40) + 24;
            assert_eq!(
                lines(far, 3000, &s),
                access_lines_by_division(far, 3000, &s)
            );
        }
    }

    /// The kernel time as it was computed before [`KernelTraffic`]: one
    /// pass over the list for the payload and one per local side for
    /// its lines. The reference the summary form must reproduce.
    #[allow(clippy::too_many_arguments)]
    fn kernel_time_by_list(
        spec: &GpuSpec,
        eff_traffic_bw: Bandwidth,
        pcie_bw: Bandwidth,
        pcie_latency: SimTime,
        src: Ptr,
        dst: Ptr,
        exec_gpu: memsim::GpuId,
        units: &[CopyOp],
        descriptor_stream: bool,
    ) -> SimTime {
        let side_traffic_bytes = |base_off: u64, side_src: bool| {
            let lines: u64 = units
                .iter()
                .map(|u| {
                    let off = base_off + if side_src { u.src_off } else { u.dst_off } as u64;
                    lines(off, u.len as u64, spec)
                })
                .sum();
            lines << spec.transaction_bytes.log2()
        };
        let payload: u64 = units.iter().map(|u| u.len as u64).sum();
        let mut dram_traffic = if descriptor_stream {
            units.len() as u64 * spec.descriptor_bytes
        } else {
            0
        };
        let mut pcie_bytes = 0u64;
        for (ptr, is_src) in [(src, true), (dst, false)] {
            match classify(ptr, exec_gpu) {
                Side::LocalDevice => dram_traffic += side_traffic_bytes(ptr.offset, is_src),
                Side::MappedHost | Side::PeerDevice => pcie_bytes += payload,
            }
        }
        let dram_time = eff_traffic_bw.time_for(dram_traffic);
        let pcie_time = if pcie_bytes > 0 {
            pcie_bw.time_for(pcie_bytes) + pcie_latency
        } else {
            SimTime::ZERO
        };
        spec.launch_overhead + dram_time.max(pcie_time)
    }

    #[test]
    fn summary_form_equals_list_form_on_every_registry_spec() {
        let gpu = GpuId(0);
        let at = |space, offset| Ptr {
            space,
            alloc: memsim::AllocId(0),
            offset,
        };
        // Ragged units, so phases and residues differ unit to unit.
        let units: Vec<CopyOp> = (0..97usize)
            .map(|i| CopyOp {
                src_off: i * 1000 + (i % 7) * 8,
                dst_off: i * 300,
                len: 1 + (i * 37) % 300,
            })
            .collect();
        let (pcie, lat) = (Bandwidth::from_gbps(10.0), SimTime::from_micros(2));
        for arch in crate::arch::GpuArch::registry() {
            let s = arch.spec();
            for disp in 0..512u64 {
                // Local → local, local → mapped host, peer → local.
                for (src, dst) in [
                    (
                        at(MemSpace::Device(gpu), disp),
                        at(MemSpace::Device(gpu), 3 * disp),
                    ),
                    (at(MemSpace::Device(gpu), disp), at(MemSpace::Host, 0)),
                    (
                        at(MemSpace::Device(GpuId(1)), 0),
                        at(MemSpace::Device(gpu), disp),
                    ),
                ] {
                    for descriptors in [true, false] {
                        let traffic = KernelTraffic::of(&units, src, dst, gpu, &s);
                        assert_eq!(
                            transfer_kernel_time(
                                &s,
                                s.dram_traffic_bw,
                                pcie,
                                lat,
                                &traffic,
                                descriptors
                            ),
                            kernel_time_by_list(
                                &s,
                                s.dram_traffic_bw,
                                pcie,
                                lat,
                                src,
                                dst,
                                gpu,
                                &units,
                                descriptors
                            ),
                            "{} disp {disp} {src} -> {dst}",
                            arch.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must touch the executing GPU")]
    fn traffic_of_a_kernel_with_no_local_side_is_refused() {
        let host = Ptr {
            space: MemSpace::Host,
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        KernelTraffic::of(&[], host, host, GpuId(0), &spec());
    }

    #[test]
    fn aligned_chunk_touches_two_lines() {
        let s = spec();
        assert_eq!(lines(0, 256, &s), 2);
        assert_eq!(lines(128, 256, &s), 2);
        assert_eq!(lines(0, 1024, &s), 8);
    }

    #[test]
    fn misaligned_chunk_touches_three_lines() {
        let s = spec();
        assert_eq!(lines(8, 256, &s), 3);
        assert_eq!(lines(120, 256, &s), 3);
        // 1 KB misaligned: 4 chunks × 3 lines.
        assert_eq!(lines(8, 1024, &s), 12);
    }

    #[test]
    fn residue_lines() {
        let s = spec();
        // 8 bytes at offset 0: one line.
        assert_eq!(lines(0, 8, &s), 1);
        // 8 bytes straddling a line boundary: two lines.
        assert_eq!(lines(124, 8, &s), 2);
        // 300 bytes aligned: one full chunk (2 lines) + 44-byte residue (1 line).
        assert_eq!(lines(0, 300, &s), 3);
        assert_eq!(lines(0, 0, &s), 0);
    }

    #[test]
    fn aligned_copy_reaches_peak_rate() {
        // A large aligned D2D unit list should approach the practical
        // peak copy rate (traffic = 2 bytes per payload byte).
        let s = spec();
        let units: Vec<CopyOp> = (0..16384)
            .map(|i| CopyOp {
                src_off: i * 4096,
                dst_off: i * 4096,
                len: 4096,
            })
            .collect();
        let payload: u64 = units.iter().map(|u| u.len as u64).sum();
        let gpu = GpuId(0);
        let d = Ptr {
            space: MemSpace::Device(gpu),
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        let d2 = Ptr {
            space: MemSpace::Device(gpu),
            alloc: memsim::AllocId(1),
            offset: 0,
        };
        let t = transfer_kernel_time(
            &s,
            s.dram_traffic_bw,
            Bandwidth::from_gbps(10.0),
            SimTime::from_micros(2),
            &KernelTraffic::of(&units, d, d2, gpu, &s),
            true,
        );
        let rate = payload as f64 / t.as_secs_f64() / 1e9;
        let peak = s.peak_copy_rate().as_gbps();
        assert!(rate > 0.9 * peak, "rate {rate} vs peak {peak}");
        assert!(rate <= peak);
    }

    #[test]
    fn misaligned_units_lose_about_a_third() {
        let s = spec();
        let gpu = GpuId(0);
        let mk = |phase: usize| -> Vec<CopyOp> {
            (0..16384)
                .map(|i| CopyOp {
                    src_off: i * 4096 + phase,
                    dst_off: i * 4096 + phase,
                    len: 4096,
                })
                .collect()
        };
        let d = Ptr {
            space: MemSpace::Device(gpu),
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        let d2 = Ptr {
            space: MemSpace::Device(gpu),
            alloc: memsim::AllocId(1),
            offset: 0,
        };
        let time = |units: &[CopyOp]| {
            transfer_kernel_time(
                &s,
                s.dram_traffic_bw,
                Bandwidth::from_gbps(10.0),
                SimTime::ZERO,
                &KernelTraffic::of(units, d, d2, gpu, &s),
                true,
            )
        };
        let (t_aligned, t_misaligned) = (time(&mk(0)), time(&mk(8)));
        let ratio = t_misaligned.as_secs_f64() / t_aligned.as_secs_f64();
        assert!(
            (1.4..1.6).contains(&ratio),
            "misalignment should cost ~1.5x traffic, got {ratio}"
        );
    }

    #[test]
    fn launch_moves_bytes_and_charges_stream() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let gpu = GpuId(0);
        let src = sim.world.memory.alloc(MemSpace::Device(gpu), 4096).unwrap();
        let dst = sim.world.memory.alloc(MemSpace::Device(gpu), 2048).unwrap();
        let bytes: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        sim.world.memory.write(src, &bytes).unwrap();
        // Gather the even 256-byte chunks.
        let units: Vec<CopyOp> = (0..8)
            .map(|i| CopyOp {
                src_off: i * 512,
                dst_off: i * 256,
                len: 256,
            })
            .collect();
        let stream = sim.world.gpu_system.default_stream(gpu);
        launch(&mut sim, stream, (src, dst), units, KernelConfig::default());
        sim.run();
        let out = sim.world.memory.read_vec(dst, 2048).unwrap();
        for i in 0..8usize {
            assert_eq!(
                &out[i * 256..(i + 1) * 256],
                &(0..256)
                    .map(|j| ((i * 512 + j) % 251) as u8)
                    .collect::<Vec<_>>()[..],
                "chunk {i}"
            );
        }
        assert!(sim.now() >= GpuSpec::default().launch_overhead);
        assert_eq!(sim.world.gpu_system.stream(stream).op_count(), 1);
    }

    #[test]
    fn block_limit_slows_kernel_proportionally() {
        let mk_units = || {
            (0..256)
                .map(|i| CopyOp {
                    src_off: i * 8192,
                    dst_off: i * 8192,
                    len: 8192,
                })
                .collect::<Vec<_>>()
        };
        let run = |blocks: Option<u32>| -> SimTime {
            let mut sim = Sim::new(NodeWorld::new(1));
            let gpu = GpuId(0);
            let src = sim
                .world
                .memory
                .alloc(MemSpace::Device(gpu), 256 * 8192)
                .unwrap();
            let dst = sim
                .world
                .memory
                .alloc(MemSpace::Device(gpu), 256 * 8192)
                .unwrap();
            let stream = sim.world.gpu_system.default_stream(gpu);
            let cfg = KernelConfig {
                blocks,
                ..KernelConfig::default()
            };
            launch(&mut sim, stream, (src, dst), mk_units(), cfg);
            sim.run()
        };
        let full = run(None);
        let third = run(Some(5));
        let launch = GpuSpec::default().launch_overhead;
        let work_full = (full - launch).as_secs_f64();
        let work_third = (third - launch).as_secs_f64();
        assert!(
            (work_third / work_full - 3.0).abs() < 0.05,
            "5/15 blocks should be ~3x slower: {work_third} vs {work_full}"
        );
    }

    #[test]
    fn zero_copy_is_pcie_bound() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let gpu = GpuId(0);
        let len: usize = 1 << 20;
        let host = sim.world.memory.alloc(MemSpace::Host, len as u64).unwrap();
        let dev = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), len as u64)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        let units = vec![CopyOp {
            src_off: 0,
            dst_off: 0,
            len,
        }];
        launch(
            &mut sim,
            stream,
            (dev, host),
            units,
            KernelConfig::default(),
        );
        let end = sim.run();
        // 1 MB over 10 GB/s PCIe is ~105 us; DRAM side alone would be ~6 us.
        let pcie_expect = 1.048576e6 / 10e9;
        assert!(
            (end.as_secs_f64() - pcie_expect).abs() / pcie_expect < 0.2,
            "zero-copy kernel should run at PCIe speed, took {end}"
        );
    }
}
