//! `cudaMemcpy` / `cudaMemcpy2D` equivalents.

use crate::fault;
use crate::system::{on_stream, GpuSystem, GpuWorld, StreamId};
use faultsim::FaultOp;
use memsim::{GpuId, MemSpace, Ptr};
use simcore::par::CopyOp;
use simcore::trace::{names, Counter};
use simcore::{Bandwidth, Sim, SimTime};

/// Direction of a contiguous copy, derived from the pointer spaces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyDirection {
    HostToHost,
    HostToDevice,
    DeviceToHost,
    DeviceToDevice,
    /// Between two different GPUs (peer-to-peer over PCIe).
    PeerToPeer,
}

impl CopyDirection {
    pub fn of(src: MemSpace, dst: MemSpace) -> CopyDirection {
        match (src, dst) {
            (MemSpace::Host, MemSpace::Host) => CopyDirection::HostToHost,
            (MemSpace::Host, MemSpace::Device(_)) => CopyDirection::HostToDevice,
            (MemSpace::Device(_), MemSpace::Host) => CopyDirection::DeviceToHost,
            (MemSpace::Device(a), MemSpace::Device(b)) if a == b => CopyDirection::DeviceToDevice,
            (MemSpace::Device(_), MemSpace::Device(_)) => CopyDirection::PeerToPeer,
        }
    }

    /// Byte counter for this direction (same identity every run, so
    /// tests can sum per-direction traffic).
    pub fn counter(self) -> Counter {
        match self {
            CopyDirection::HostToHost => names::GPUSIM_MEMCPY_H2H_BYTES,
            CopyDirection::HostToDevice => names::GPUSIM_MEMCPY_H2D_BYTES,
            CopyDirection::DeviceToHost => names::GPUSIM_MEMCPY_D2H_BYTES,
            CopyDirection::DeviceToDevice => names::GPUSIM_MEMCPY_D2D_BYTES,
            CopyDirection::PeerToPeer => names::GPUSIM_MEMCPY_P2P_BYTES,
        }
    }
}

/// The price of a contiguous `bytes`-sized copy in direction `dir`
/// issued on a stream of `gpu`: what [`charge_memcpy`] reserves before
/// faults.
pub fn copy_time(sys: &GpuSystem, gpu: GpuId, dir: CopyDirection, bytes: u64) -> SimTime {
    let topo = &sys.topo;
    let g = sys.gpu(gpu);
    let lat = g.spec.memcpy_latency;
    match dir {
        CopyDirection::HostToHost => topo.host_memcpy_bw.time_for(bytes) + lat,
        CopyDirection::HostToDevice => topo.pcie_h2d.time_for(bytes) + topo.pcie_latency + lat,
        CopyDirection::DeviceToHost => topo.pcie_d2h.time_for(bytes) + topo.pcie_latency + lat,
        CopyDirection::PeerToPeer => topo.pcie_p2p.time_for(bytes) + topo.pcie_latency + lat,
        CopyDirection::DeviceToDevice => {
            // In-device copy: 2 bytes of DRAM traffic per payload byte.
            g.effective_traffic_bw().time_for(bytes * 2) + lat
        }
    }
}

/// Asynchronous contiguous copy on `stream` (like `cudaMemcpyAsync`):
/// [`charge_memcpy`], then land the bytes at the completion instant as
/// a one-op move — a `memmove` where the two ranges overlap — and
/// invoke `done`.
#[expect(
    clippy::expect_used,
    reason = "the memory model validated both pointers when the copy was charged; a \
              failure at completion is corrupted bookkeeping, not an input"
)]
pub fn memcpy<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    dst: Ptr,
    bytes: u64,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    charge_memcpy(sim, stream, src, dst, bytes, move |sim, at| {
        let whole = CopyOp {
            src_off: 0,
            dst_off: 0,
            len: bytes as usize,
        };
        (sim.world.mem())
            .transfer(src, dst, &[whole])
            .expect("memcpy failed");
        done(sim, at);
    });
}

/// The charge half of a contiguous copy: reserves `stream` for the
/// modeled duration, records the span and the per-direction byte
/// counter, and invokes `done` at the completion instant. No byte
/// moves: `src` and `dst` only pick the direction's rate.
///
/// Fault charge point (`FaultOp::Memcpy`), issued through
/// [`fault::charge`]: the verdict is rolled at issue; transient
/// injections re-issue the copy after a capped exponential backoff (the
/// engine charges the stream again per attempt); degradation windows
/// stretch the charge.
pub fn charge_memcpy<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    dst: Ptr,
    bytes: u64,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let dir = CopyDirection::of(src.space, dst.space);
    let price = move |sim: &Sim<W>| copy_time(sim.world.gpus_ref(), stream.gpu, dir, bytes);
    let reserve = on_stream(stream, names::SPAN_MEMCPY);
    fault::charge(sim, FaultOp::Memcpy, price, reserve, move |sim| {
        sim.trace.count(dir.counter(), stream.gpu.0, 0, bytes);
        done(sim, sim.now());
    });
}

/// One strided 2-D copy (`cudaMemcpy2D`): `height` rows of `width`
/// bytes, rows `src_pitch` / `dst_pitch` bytes apart.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Copy2d {
    pub src: Ptr,
    pub src_pitch: u64,
    pub dst: Ptr,
    pub dst_pitch: u64,
    pub width: u64,
    pub height: u64,
}

impl Copy2d {
    /// The rows the copy moves, offsets relative to `src` and `dst`.
    pub fn rows(&self) -> impl Iterator<Item = CopyOp> + '_ {
        (0..self.height).map(|r| CopyOp {
            src_off: (r * self.src_pitch) as usize,
            dst_off: (r * self.dst_pitch) as usize,
            len: self.width as usize,
        })
    }
}

/// The price of a 2-D copy issued on a stream of `gpu`: what
/// [`charge_memcpy_2d`] reserves before faults.
///
/// It reproduces the behaviour the paper leans on in Figure 8: through
/// the DMA engine (any H2D/D2H direction) the effective bandwidth
/// collapses when `width` is not a multiple of 64 bytes, and every row
/// pays a descriptor overhead. Device-internal 2-D copies run as a
/// kernel and behave like our own pack kernels.
pub fn memcpy_2d_time(sys: &GpuSystem, gpu: GpuId, c: &Copy2d) -> SimTime {
    let topo = &sys.topo;
    let g = sys.gpu(gpu);
    let row_overhead = SimTime::from_nanos(topo.memcpy2d_row_overhead.as_nanos() * c.height);
    // Through the DMA engine: the misaligned-row cliff and a per-row
    // descriptor overhead.
    let dma = |base_bw: Bandwidth| {
        let eff = if c.width.is_multiple_of(64) {
            base_bw
        } else {
            base_bw.derated(topo.memcpy2d_misaligned_factor)
        };
        eff.time_for(c.width * c.height) + topo.pcie_latency + g.spec.memcpy_latency + row_overhead
    };
    match CopyDirection::of(c.src.space, c.dst.space) {
        CopyDirection::DeviceToDevice => {
            // Kernel-backed: charge coalesced traffic per row.
            let spec = &g.spec;
            let mut traffic = 0u64;
            for r in 0..c.height {
                let s_off = c.src.offset + r * c.src_pitch;
                let d_off = c.dst.offset + r * c.dst_pitch;
                traffic += row_traffic(s_off, c.width, spec) + row_traffic(d_off, c.width, spec);
            }
            g.effective_traffic_bw().time_for(traffic) + spec.launch_overhead
        }
        CopyDirection::HostToDevice => dma(topo.pcie_h2d),
        CopyDirection::DeviceToHost => dma(topo.pcie_d2h),
        CopyDirection::PeerToPeer => dma(topo.pcie_p2p),
        CopyDirection::HostToHost => dma(topo.host_memcpy_bw),
    }
}

/// Asynchronous strided 2-D copy (like `cudaMemcpy2DAsync`):
/// [`charge_memcpy_2d`], then move the rows at the completion instant
/// and invoke `done`.
#[expect(
    clippy::expect_used,
    reason = "the memory model validated both pointers when the copy was charged; a \
              failure at completion is corrupted bookkeeping, not an input"
)]
#[allow(clippy::too_many_arguments)]
pub fn memcpy_2d<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    src_pitch: u64,
    dst: Ptr,
    dst_pitch: u64,
    width: u64,
    height: u64,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    assert!(
        src_pitch >= width && dst_pitch >= width,
        "pitch smaller than width"
    );
    let c = Copy2d {
        src,
        src_pitch,
        dst,
        dst_pitch,
        width,
        height,
    };
    charge_memcpy_2d(sim, stream, c, move |sim, at| {
        let ops: Vec<CopyOp> = c.rows().collect();
        sim.world
            .mem()
            .transfer(src, dst, &ops)
            .expect("memcpy2d failed");
        done(sim, at);
    });
}

/// The charge half of a 2-D copy, like [`charge_memcpy`]: reserves
/// `stream` for [`memcpy_2d_time`], records a `memcpy2d` span and the
/// per-direction byte counter, and invokes `done` at the completion
/// instant. No byte moves. A fault charge point (`FaultOp::Memcpy`).
pub fn charge_memcpy_2d<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    c: Copy2d,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let dir = CopyDirection::of(c.src.space, c.dst.space);
    let price = move |sim: &Sim<W>| memcpy_2d_time(sim.world.gpus_ref(), stream.gpu, &c);
    let reserve = on_stream(stream, names::SPAN_MEMCPY2D);
    fault::charge(sim, FaultOp::Memcpy, price, reserve, move |sim| {
        sim.trace
            .count(dir.counter(), stream.gpu.0, 0, c.width * c.height);
        done(sim, sim.now());
    });
}

fn row_traffic(off: u64, width: u64, spec: &crate::spec::GpuSpec) -> u64 {
    // Same access-lines arithmetic as the kernel model, for a single
    // row treated as one unit.
    let txn = spec.transaction_bytes;
    crate::kernel::access_lines(off, width, txn, spec.warp_chunk()) << txn.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use crate::system::NodeWorld;
    use memsim::GpuId;

    fn setup(gpus: u32) -> Sim<NodeWorld> {
        Sim::new(NodeWorld::new(gpus))
    }

    #[test]
    fn direction_classification() {
        let h = Ptr {
            space: MemSpace::Host,
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        let d0 = Ptr {
            space: MemSpace::Device(GpuId(0)),
            alloc: memsim::AllocId(1),
            offset: 0,
        };
        let d1 = Ptr {
            space: MemSpace::Device(GpuId(1)),
            alloc: memsim::AllocId(2),
            offset: 0,
        };
        let of = |a: Ptr, b: Ptr| CopyDirection::of(a.space, b.space);
        assert_eq!(of(h, d0), CopyDirection::HostToDevice);
        assert_eq!(of(d0, h), CopyDirection::DeviceToHost);
        assert_eq!(of(d0, d0), CopyDirection::DeviceToDevice);
        assert_eq!(of(d0, d1), CopyDirection::PeerToPeer);
        assert_eq!(of(h, h), CopyDirection::HostToHost);
    }

    #[test]
    fn h2d_moves_bytes_at_pcie_rate() {
        let mut sim = setup(1);
        let len = 10u64 << 20; // 10 MiB
        let h = sim.world.memory.alloc(MemSpace::Host, len).unwrap();
        let d = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 255) as u8).collect();
        sim.world.memory.write(h, &data).unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        memcpy(&mut sim, st, h, d, len, |_, _| {});
        let end = sim.run();
        assert_eq!(sim.world.memory.read_vec(d, len).unwrap(), data);
        let secs = end.as_secs_f64();
        let rate = len as f64 / secs / 1e9;
        assert!((9.0..=10.0).contains(&rate), "PCIe rate was {rate} GB/s");
    }

    #[test]
    fn an_overlapping_memcpy_in_one_allocation_lands_as_memmove() {
        let mut sim = setup(1);
        let d = MemSpace::Device(GpuId(0));
        let buf = sim.world.memory.alloc(d, 4096).unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        sim.world.memory.write(buf, &data).unwrap();
        let before = sim.world.memory.bytes_moved();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        // Forward by less than its length: a front-to-back copy would
        // read bytes it has already overwritten.
        let (at, bytes) = (100, 3000);
        memcpy(&mut sim, st, buf.add(8), buf.add(8 + at), bytes, |_, _| {});
        sim.run();
        let mut want = data.clone();
        want.copy_within(8..8 + bytes as usize, 8 + at as usize);
        assert_eq!(sim.world.memory.read_vec(buf, 4096).unwrap(), want);
        assert_eq!(sim.world.memory.bytes_moved(), before + bytes);
    }

    #[test]
    fn d2d_is_much_faster_than_pcie() {
        let mut sim = setup(1);
        let len = 10u64 << 20;
        let a = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let b = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        memcpy(&mut sim, st, a, b, len, |_, _| {});
        let t_d2d = sim.run();

        let mut sim2 = setup(1);
        let h = sim2.world.memory.alloc(MemSpace::Host, len).unwrap();
        let d = sim2
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let st2 = sim2.world.gpu_system.default_stream(GpuId(0));
        memcpy(&mut sim2, st2, h, d, len, |_, _| {});
        let t_h2d = sim2.run();
        assert!(t_d2d.as_nanos() * 10 < t_h2d.as_nanos());
    }

    #[test]
    fn stream_serializes_copies() {
        let mut sim = setup(1);
        let len = 1u64 << 20;
        let h = sim.world.memory.alloc(MemSpace::Host, len).unwrap();
        let d = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        memcpy(&mut sim, st, h, d, len, |_, _| {});
        memcpy(&mut sim, st, h, d, len, |_, _| {});
        let serial_end = sim.run();

        // Same two copies on two different streams overlap.
        let mut sim2 = setup(1);
        let h2 = sim2.world.memory.alloc(MemSpace::Host, len).unwrap();
        let d2 = sim2
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let st_a = sim2.world.gpu_system.default_stream(GpuId(0));
        let st_b = sim2.world.gpu_system.create_stream(GpuId(0));
        memcpy(&mut sim2, st_a, h2, d2, len, |_, _| {});
        memcpy(&mut sim2, st_b, h2, d2, len, |_, _| {});
        let parallel_end = sim2.run();
        assert!(parallel_end < serial_end);
    }

    #[test]
    fn memcpy2d_aligned_vs_misaligned_cliff() {
        let run = |width: u64| -> SimTime {
            let mut sim = setup(1);
            let rows = 1024u64;
            let pitch = 2048u64;
            let d = sim
                .world
                .memory
                .alloc(MemSpace::Device(GpuId(0)), pitch * rows)
                .unwrap();
            let h = sim
                .world
                .memory
                .alloc(MemSpace::Host, pitch * rows)
                .unwrap();
            let st = sim.world.gpu_system.default_stream(GpuId(0));
            memcpy_2d(&mut sim, st, d, pitch, h, width, width, rows, |_, _| {});
            sim.run()
        };
        let aligned = run(1024); // multiple of 64
        let misaligned = run(1000); // not a multiple of 64
                                    // Less data but much slower.
        assert!(
            misaligned.as_nanos() > aligned.as_nanos() * 3,
            "expected the 64-byte cliff: {misaligned} vs {aligned}"
        );
    }

    #[test]
    fn memcpy2d_moves_the_right_rows() {
        let mut sim = setup(1);
        let src = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), 64)
            .unwrap();
        let dst = sim.world.memory.alloc(MemSpace::Host, 16).unwrap();
        let data: Vec<u8> = (0..64).collect();
        sim.world.memory.write(src, &data).unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        // 4 rows of 4 bytes from a pitch-16 matrix.
        memcpy_2d(&mut sim, st, src, 16, dst, 4, 4, 4, |_, _| {});
        sim.run();
        let out = sim.world.memory.read_vec(dst, 16).unwrap();
        assert_eq!(
            out,
            vec![0, 1, 2, 3, 16, 17, 18, 19, 32, 33, 34, 35, 48, 49, 50, 51]
        );
    }

    #[test]
    fn contention_slows_d2d_but_not_pcie() {
        let len = 8u64 << 20;
        let run = |share: f64| -> (SimTime, SimTime) {
            let mut sim = setup(1);
            sim.world.gpu_system.gpu_mut(GpuId(0)).bandwidth_share = share;
            let a = sim
                .world
                .memory
                .alloc(MemSpace::Device(GpuId(0)), len)
                .unwrap();
            let b = sim
                .world
                .memory
                .alloc(MemSpace::Device(GpuId(0)), len)
                .unwrap();
            let h = sim.world.memory.alloc(MemSpace::Host, len).unwrap();
            let st = sim.world.gpu_system.default_stream(GpuId(0));
            memcpy(&mut sim, st, a, b, len, |_, _| {});
            let t_d2d = sim.run();
            let st2 = sim.world.gpu_system.create_stream(GpuId(0));
            let start = sim.now();
            memcpy(&mut sim, st2, h, a, len, |_, _| {});
            (t_d2d, sim.run() - start)
        };
        let (d2d_full, h2d_full) = run(1.0);
        let (d2d_half, h2d_half) = run(0.5);
        assert!(
            d2d_half.as_nanos() > d2d_full.as_nanos() * 18 / 10,
            "DRAM-bound copy slows"
        );
        assert_eq!(
            h2d_full, h2d_half,
            "PCIe copy unaffected by DRAM contention"
        );
    }

    #[test]
    #[should_panic(expected = "pitch smaller than width")]
    fn memcpy2d_rejects_bad_pitch() {
        let mut sim = setup(1);
        let d = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), 1024)
            .unwrap();
        let h = sim.world.memory.alloc(MemSpace::Host, 1024).unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        memcpy_2d(&mut sim, st, d, 32, h, 64, 64, 4, |_, _| {});
    }

    #[test]
    fn per_call_latency_penalizes_many_small_copies() {
        // The baseline's weakness: issuing N tiny copies costs N×latency.
        let mut sim = setup(1);
        let len = 1u64 << 10;
        let h = sim.world.memory.alloc(MemSpace::Host, len * 64).unwrap();
        let d = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len * 64)
            .unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        for i in 0..64 {
            memcpy(&mut sim, st, h.add(i * len), d.add(i * len), len, |_, _| {});
        }
        let many = sim.run();
        let lat = GpuSpec::default().memcpy_latency;
        assert!(many.as_nanos() >= 64 * lat.as_nanos());
    }
}
