//! MPI-IO style file access with datatypes.
//!
//! The fourth consumer of committed datatypes the paper lists
//! ("point-to-point, collective, I/O and one-sided"): a file *view*
//! (`MPI_File_set_view`) tiles a `filetype` over the file, exposing
//! only its data bytes; reads and writes then move between a typed
//! memory buffer (packed by the CPU convertor or the GPU engine,
//! depending on where it lives) and the visible file bytes.
//!
//! The "disk" is a simulated host-resident store behind a FIFO
//! bandwidth resource (a K40-era parallel-filesystem client at
//! ~2 GB/s), so I/O time composes with the rest of the virtual
//! timeline.

use crate::request::{MpiError, Request};
use crate::world::MpiWorld;
use datatype::{DataType, TypeError};
use devengine::{pack_async, unpack_async};
use faultsim::{FaultDecision, FaultOp};
use gpusim::{fault, GpuWorld as _};
use memsim::{MemError, MemSpace, Ptr};
use simcore::par::CopyOp;
use simcore::{Bandwidth, Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A simulated file: a flat byte store plus the I/O channel feeding it.
pub struct SimFile {
    data: Ptr,
    len: u64,
    channel: Rc<RefCell<simcore::FifoResource>>,
    bandwidth: Bandwidth,
    latency: SimTime,
}

impl SimFile {
    /// Create a zero-filled file of `len` bytes.
    pub fn create(sim: &mut Sim<MpiWorld>, len: u64) -> SimFile {
        let data = sim
            .world
            .mem()
            .alloc(MemSpace::Host, len)
            .expect("file store");
        SimFile {
            data,
            len,
            channel: Rc::new(RefCell::new(simcore::FifoResource::new())),
            bandwidth: Bandwidth::from_gbps(2.0),
            latency: SimTime::from_micros(200),
        }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw file contents (test/debug helper).
    pub fn contents(&self, sim: &Sim<MpiWorld>) -> Vec<u8> {
        sim.world
            .mem_ref()
            .read_vec(self.data, self.len)
            .expect("file read")
    }
}

/// An `MPI_File_set_view`: `filetype` tiled from byte `disp`, exposing
/// its data bytes; `etype` is the elementary unit offsets count in.
#[derive(Clone)]
pub struct FileView {
    pub disp: u64,
    pub etype: DataType,
    pub filetype: DataType,
}

impl FileView {
    /// A flat view of the whole file in bytes.
    pub fn flat() -> FileView {
        FileView {
            disp: 0,
            etype: DataType::byte().commit(),
            filetype: DataType::byte().commit(),
        }
    }

    fn validate(&self) -> Result<(), TypeError> {
        if !self.etype.is_committed() || !self.filetype.is_committed() {
            return Err(TypeError::NotCommitted);
        }
        if !self.filetype.size().is_multiple_of(self.etype.size()) {
            return Err(TypeError::InvalidArgument(
                "filetype size must be a multiple of etype size",
            ));
        }
        Ok(())
    }

    /// File-relative CopyOps covering `bytes` visible bytes starting at
    /// element offset `offset_et` (pack orientation: src = file bytes,
    /// dst = visible stream).
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the MPI-IO file-view walker is a sanctioned DEV executor"
    )]
    fn visible_ops(&self, offset_et: u64, bytes: u64) -> Vec<CopyOp> {
        let per_tile = self.filetype.size();
        let skip = offset_et * self.etype.size();
        let tiles_needed = (skip + bytes).div_ceil(per_tile);
        let mut cursor = devengine::dev::DevCursor::new(&self.filetype, tiles_needed, 1 << 30)
            .expect("committed filetype");
        // Discard the skipped prefix of the visible stream.
        let _ = cursor.next_units(skip);
        let mut ops = cursor.next_units(bytes);
        let vis0 = skip as usize;
        for op in &mut ops {
            // Rebase the visible-stream offset to the request start and
            // shift file displacements by the view's disp.
            op.dst_off -= vis0;
            op.src_off += self.disp as usize;
        }
        ops
    }
}

#[allow(clippy::too_many_arguments)]
fn stage_through_host<F: FnOnce(&mut Sim<MpiWorld>, Ptr) + 'static>(
    sim: &mut Sim<MpiWorld>,
    rank: usize,
    ty: &DataType,
    count: u64,
    buf: Ptr,
    pack: bool,
    bounce: Ptr,
    then: F,
) {
    let (stream, cache) = {
        let r = &sim.world.mpi.ranks[rank];
        (r.kernel_stream, Rc::clone(&r.dev_cache))
    };
    let cfg = sim.world.mpi.config.engine.clone();
    if buf.space.is_device() {
        if pack {
            pack_async(
                sim,
                rank,
                stream,
                ty,
                count,
                buf,
                bounce,
                cfg,
                Some(&cache),
                move |sim, _| then(sim, bounce),
            );
        } else {
            unpack_async(
                sim,
                rank,
                stream,
                ty,
                count,
                buf,
                bounce,
                cfg,
                Some(&cache),
                move |sim, _| then(sim, bounce),
            );
        }
    } else {
        let bw = sim.world.mpi.config.cpu_pack_bw;
        let dir = if pack {
            devengine::Direction::Pack
        } else {
            devengine::Direction::Unpack
        };
        let mut eng =
            crate::cpupack::CpuEngine::new(ty, count, buf, dir, rank, bw).expect("committed type");
        eng.process_fragment(sim, bounce, u64::MAX, move |sim, _| then(sim, bounce));
    }
}

/// `MPI_File_write_at`: write `count` instances of `mem_ty` from `buf`
/// into the view at element offset `offset_et`.
#[allow(clippy::too_many_arguments)]
pub fn write_at(
    sim: &mut Sim<MpiWorld>,
    rank: usize,
    file: &SimFile,
    view: &FileView,
    offset_et: u64,
    mem_ty: &DataType,
    count: u64,
    buf: Ptr,
) -> Request {
    file_op(sim, rank, file, view, offset_et, mem_ty, count, buf, true)
}

/// `MPI_File_read_at`: read into `count` instances of `mem_ty` at `buf`.
#[allow(clippy::too_many_arguments)]
pub fn read_at(
    sim: &mut Sim<MpiWorld>,
    rank: usize,
    file: &SimFile,
    view: &FileView,
    offset_et: u64,
    mem_ty: &DataType,
    count: u64,
    buf: Ptr,
) -> Request {
    file_op(sim, rank, file, view, offset_et, mem_ty, count, buf, false)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the FileIo charge wrapper: the disk reservation is fault-scaled and rolled here"
)]
#[allow(clippy::too_many_arguments)]
fn file_op(
    sim: &mut Sim<MpiWorld>,
    rank: usize,
    file: &SimFile,
    view: &FileView,
    offset_et: u64,
    mem_ty: &DataType,
    count: u64,
    buf: Ptr,
    write: bool,
) -> Request {
    let req = Request::new();
    if let Err(e) = view.validate() {
        req.complete(sim, Err(MpiError::Type(e)));
        return req;
    }
    if !mem_ty.is_committed() {
        req.complete(sim, Err(MpiError::Type(TypeError::NotCommitted)));
        return req;
    }
    let bytes = mem_ty.size() * count;
    if !bytes.is_multiple_of(view.etype.size()) {
        req.complete(
            sim,
            Err(MpiError::Type(TypeError::InvalidArgument(
                "access size must be a whole number of etypes",
            ))),
        );
        return req;
    }
    let ops = view.visible_ops(offset_et, bytes);
    if let Some(end) = ops.iter().map(|o| (o.src_off + o.len) as u64).max() {
        if end > file.len {
            let eof = MemError::OutOfBounds {
                ptr: file.data,
                len: end,
                alloc_len: file.len,
            };
            req.complete(sim, Err(MpiError::Mem(eof.to_string())));
            return req;
        }
    }
    if bytes == 0 {
        req.complete(sim, Ok(0));
        return req;
    }

    let bounce = match sim.world.mem().alloc(MemSpace::Host, bytes) {
        Ok(p) => p,
        Err(e) => {
            req.complete(sim, Err(MpiError::Mem(e.to_string())));
            return req;
        }
    };
    let file_data = file.data;
    let channel = Rc::clone(&file.channel);
    let io_time = file.bandwidth.time_for(bytes) + file.latency;
    let req2 = req.clone();

    type After = Box<dyn FnOnce(&mut Sim<MpiWorld>)>;
    let disk = move |sim: &mut Sim<MpiWorld>, bounce: Ptr, after: After| {
        // Disk I/O has no alternate path: a faulted pass backs off and
        // re-reads, folded into one reservation on the file channel.
        let mut charged = fault::fault_scaled(sim, FaultOp::FileIo, io_time);
        let mut backoff = fault::default_backoff();
        loop {
            let verdict = fault::fault_roll(sim, FaultOp::FileIo);
            if !verdict.is_fault() {
                break;
            }
            if verdict == FaultDecision::Lost || backoff.attempts() >= fault::RETRY_MAX {
                fault::retries_exhausted(FaultOp::FileIo, backoff.attempts());
            }
            fault::count_retry(sim, FaultOp::FileIo);
            charged = charged + backoff.next_delay() + io_time;
        }
        let now = sim.now();
        let (_s, end) = channel.borrow_mut().reserve(now, charged);
        sim.schedule_at(end, move |sim| {
            if write {
                // bounce (visible stream) -> file positions.
                let flipped: Vec<CopyOp> = ops
                    .iter()
                    .map(|o| CopyOp {
                        src_off: o.dst_off,
                        dst_off: o.src_off,
                        len: o.len,
                    })
                    .collect();
                sim.world
                    .mem()
                    .transfer(bounce, file_data, &flipped)
                    .expect("file write");
            } else {
                sim.world
                    .mem()
                    .transfer(file_data, bounce, &ops)
                    .expect("file read");
            }
            after(sim);
        });
    };

    if write {
        // memory -> bounce (pack) -> disk.
        stage_through_host(
            sim,
            rank,
            mem_ty,
            count,
            buf,
            true,
            bounce,
            move |sim, bounce| {
                disk(
                    sim,
                    bounce,
                    Box::new(move |sim| {
                        req2.complete(sim, Ok(bytes));
                        sim.world.mem().free(bounce).expect("free bounce");
                    }),
                );
            },
        );
    } else {
        // disk -> bounce -> memory (unpack).
        let mem_ty = mem_ty.clone();
        disk(
            sim,
            bounce,
            Box::new(move |sim| {
                stage_through_host(
                    sim,
                    rank,
                    &mem_ty,
                    count,
                    buf,
                    false,
                    bounce,
                    move |sim, bounce| {
                        req2.complete(sim, Ok(bytes));
                        sim.world.mem().free(bounce).expect("free bounce");
                    },
                );
            }),
        );
    }
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use datatype::testutil::{buffer_span, pattern, reference_pack};

    fn sim() -> Sim<MpiWorld> {
        Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()))
    }

    #[test]
    fn flat_write_read_roundtrip_host() {
        let mut sim = sim();
        let file = SimFile::create(&mut sim, 4096);
        let ty = DataType::contiguous(512, &DataType::double())
            .unwrap()
            .commit();
        let buf = sim.world.mem().alloc(MemSpace::Host, ty.size()).unwrap();
        let data = pattern(ty.size() as usize);
        sim.world.mem().write(buf, &data).unwrap();
        let w = write_at(&mut sim, 0, &file, &FileView::flat(), 0, &ty, 1, buf);
        sim.run();
        assert_eq!(w.expect_bytes(), 4096);
        assert_eq!(file.contents(&sim), data);

        let out = sim.world.mem().alloc(MemSpace::Host, ty.size()).unwrap();
        let r = read_at(&mut sim, 1, &file, &FileView::flat(), 0, &ty, 1, out);
        sim.run();
        assert_eq!(r.expect_bytes(), 4096);
        assert_eq!(sim.world.mem().read_vec(out, 4096).unwrap(), data);
    }

    #[test]
    fn strided_view_interleaves_ranks() {
        // Two ranks write alternating 64-byte blocks of a shared file —
        // the canonical file-view use case.
        let mut sim = sim();
        let file = SimFile::create(&mut sim, 1024);
        let blk = DataType::contiguous(8, &DataType::double())
            .unwrap()
            .commit(); // 64 B
                       // filetype: my block then a 64-byte hole (the peer's block).
        let ft = DataType::vector(1, 1, 2, &blk).unwrap();
        let ft = DataType::resized(&ft, 0, 128).unwrap().commit();
        let mem = DataType::contiguous(64, &DataType::double())
            .unwrap()
            .commit(); // 512 B

        let mut bufs = Vec::new();
        for (r, fill) in [(0usize, 0xAAu8), (1, 0xBB)] {
            let b = sim.world.mem().alloc(MemSpace::Host, mem.size()).unwrap();
            sim.world
                .mem()
                .write(b, &vec![fill; mem.size() as usize])
                .unwrap();
            bufs.push(b);
            let view = FileView {
                disp: r as u64 * 64, // rank 1's tiles start one block in
                etype: DataType::byte().commit(),
                filetype: ft.clone(),
            };
            let w = write_at(&mut sim, r, &file, &view, 0, &mem, 1, b);
            sim.run();
            w.expect_bytes();
        }
        let got = file.contents(&sim);
        for (i, chunk) in got.chunks(64).enumerate() {
            let expect = if i % 2 == 0 { 0xAA } else { 0xBB };
            assert!(chunk.iter().all(|&b| b == expect), "block {i}");
        }
    }

    #[test]
    fn gpu_triangular_to_file_and_back() {
        let mut sim = sim();
        let n = 64u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit();
        let (base, len) = buffer_span(&t, 1);
        let gpu = sim.world.mpi.ranks[0].gpu;
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(gpu), len as u64)
            .unwrap();
        let data = pattern(len);
        sim.world.mem().write(buf, &data).unwrap();

        let file = SimFile::create(&mut sim, t.size());
        let w = write_at(
            &mut sim,
            0,
            &file,
            &FileView::flat(),
            0,
            &t,
            1,
            buf.add(base as u64),
        );
        sim.run();
        assert_eq!(w.expect_bytes(), t.size());
        // The file holds the packed stream.
        assert_eq!(file.contents(&sim), reference_pack(&t, 1, &data, base));

        // Read back into the other rank's GPU with the same layout.
        let gpu1 = sim.world.mpi.ranks[1].gpu;
        let out = sim
            .world
            .mem()
            .alloc(MemSpace::Device(gpu1), len as u64)
            .unwrap();
        let r = read_at(
            &mut sim,
            1,
            &file,
            &FileView::flat(),
            0,
            &t,
            1,
            out.add(base as u64),
        );
        sim.run();
        r.expect_bytes();
        let got = sim.world.mem().read_vec(out, len as u64).unwrap();
        assert_eq!(
            reference_pack(&t, 1, &got, base),
            reference_pack(&t, 1, &data, base)
        );
    }

    #[test]
    fn offset_in_etypes() {
        let mut sim = sim();
        let file = SimFile::create(&mut sim, 256);
        let d = DataType::double().commit();
        let four = DataType::contiguous(4, &d).unwrap().commit();
        let buf = sim.world.mem().alloc(MemSpace::Host, 32).unwrap();
        sim.world.mem().write(buf, &[7u8; 32]).unwrap();
        let view = FileView {
            disp: 0,
            etype: d.clone(),
            filetype: d.clone(),
        };
        // Write 4 doubles at element offset 10 => bytes 80..112.
        let w = write_at(&mut sim, 0, &file, &view, 10, &four, 1, buf);
        sim.run();
        w.expect_bytes();
        let got = file.contents(&sim);
        assert!(got[80..112].iter().all(|&b| b == 7));
        assert!(got[..80].iter().all(|&b| b == 0));
        assert!(got[112..].iter().all(|&b| b == 0));
    }

    #[test]
    fn io_charges_disk_time() {
        let mut sim = sim();
        let file = SimFile::create(&mut sim, 20 << 20);
        let ty = DataType::contiguous(2 << 20, &DataType::byte())
            .unwrap()
            .commit();
        let buf = sim.world.mem().alloc(MemSpace::Host, ty.size()).unwrap();
        let t0 = sim.now();
        let w = write_at(&mut sim, 0, &file, &FileView::flat(), 0, &ty, 1, buf);
        sim.run();
        w.expect_bytes();
        // 2 MB at 2 GB/s is ~1 ms.
        assert!((sim.now() - t0) >= SimTime::from_micros(1000));
    }

    #[test]
    fn transient_file_fault_retries_and_inflates_time() {
        use faultsim::{FaultKind, FaultOp, FaultPlan};
        let run = |faulted: bool| {
            let cfg = if faulted {
                let mut plan = FaultPlan::empty().with_seed(9).with_rule(
                    Some(FaultOp::FileIo),
                    FaultKind::Transient,
                    1.0,
                );
                plan.rules[0].max_injections = Some(2);
                MpiConfig {
                    fault_plan: plan,
                    ..Default::default()
                }
            } else {
                MpiConfig::default()
            };
            let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(cfg));
            let file = SimFile::create(&mut sim, 4096);
            let ty = DataType::contiguous(512, &DataType::double())
                .unwrap()
                .commit();
            let buf = sim.world.mem().alloc(MemSpace::Host, ty.size()).unwrap();
            let data = pattern(ty.size() as usize);
            sim.world.mem().write(buf, &data).unwrap();
            let w = write_at(&mut sim, 0, &file, &FileView::flat(), 0, &ty, 1, buf);
            let end = sim.run();
            assert_eq!(w.expect_bytes(), 4096);
            (end, file.contents(&sim), data)
        };
        let (clean_end, clean_file, data) = run(false);
        let (fault_end, fault_file, _) = run(true);
        // The disk retry fold re-reads the pass and charges backoff, so
        // the faulted write lands strictly later — and byte-identical.
        assert!(fault_end > clean_end, "{fault_end:?} vs {clean_end:?}");
        assert_eq!(fault_file, data);
        assert_eq!(clean_file, data);
    }

    #[test]
    fn misaligned_access_rejected() {
        let mut sim = sim();
        let file = SimFile::create(&mut sim, 256);
        let view = FileView {
            disp: 0,
            etype: DataType::double().commit(),
            filetype: DataType::double().commit(),
        };
        // 4 bytes is not a whole number of 8-byte etypes.
        let ty = DataType::contiguous(4, &DataType::byte()).unwrap().commit();
        let buf = sim.world.mem().alloc(MemSpace::Host, 4).unwrap();
        let w = write_at(&mut sim, 0, &file, &view, 0, &ty, 1, buf);
        assert!(matches!(w.result(), Some(Err(MpiError::Type(_)))));
    }

    #[test]
    fn access_past_eof_is_a_typed_error() {
        let mut sim = sim();
        let file = SimFile::create(&mut sim, 256);
        let before = file.contents(&sim);
        let d = DataType::double().commit();
        let view = FileView {
            disp: 0,
            etype: d.clone(),
            filetype: d.clone(),
        };
        let buf = sim.world.mem().alloc(MemSpace::Host, 8).unwrap();
        sim.world.mem().write(buf, &[7u8; 8]).unwrap();
        let used = sim.world.mem().pool(MemSpace::Host).used();
        // Element 32 is bytes 256..264: one etype past the end.
        let w = write_at(&mut sim, 0, &file, &view, 32, &d, 1, buf);
        let r = read_at(&mut sim, 0, &file, &view, 32, &d, 1, buf);
        sim.run();
        for req in [w, r] {
            assert!(matches!(req.result(), Some(Err(MpiError::Mem(_)))));
        }
        assert_eq!(file.contents(&sim), before);
        assert_eq!(sim.world.mem().pool(MemSpace::Host).used(), used);
    }
}
