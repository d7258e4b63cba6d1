//! A strided GPU end whose other end is dense lands by arithmetic: the
//! executor queues its kernel's window as the fragment's move, and no
//! list of the window's blocks is ever built (DESIGN.md §17, "What a
//! landing moves").
//!
//! * **no list** — a lone strided end, over a rendezvous and over an
//!   eager half, takes no unit buffer from `simcore::scratch`, and its
//!   kernels still run one unit per block (`gpusim.kernel.units`);
//! * **bytes** — contiguous ↔ transpose and contiguous ↔ submatrix
//!   transfers, many fragments cut mid-block, over shared memory and
//!   InfiniBand, equal the CPU reference, and the bytes a receive type
//!   does not cover are untouched;
//! * **lanes** — a coarse strided transfer large enough for several copy
//!   lanes (run under `GPU_DDT_COPY_THREADS=1` and `=4` in CI) lands the
//!   same bytes.
//! * **halos** — the faces and an interior box of a 3-D array, each a
//!   `subarray` with a non-zero start, send by arithmetic: a subarray's
//!   innermost dimension is the block, so each is at most 2-D in blocks.

use datatype::convertor::{pack_all, unpack_all};
use datatype::testutil::{buffer_span, pattern};
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::{irecv, isend, wait_all, MpiConfig, RecvArgs, SendArgs, Session};
use simcore::Counter;

fn contiguous(n: u64) -> DataType {
    DataType::contiguous(n * n, &DataType::double())
        .unwrap()
        .commit()
}

/// Column `j` of the result gathers row `j` of an `n × n` source.
fn transpose(n: u64) -> DataType {
    let row = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
    DataType::hvector(n, 1, 8, &row).unwrap().commit()
}

/// `n` columns of `n` doubles out of a `2n × n` leading dimension: half
/// of its buffer is gap.
fn submatrix(n: u64) -> DataType {
    DataType::vector(n, n, 2 * n as i64, &DataType::double())
        .unwrap()
        .commit()
}

fn session(ib: bool, config: MpiConfig) -> Session {
    let b = Session::builder().config(config);
    if ib {
        b.two_ranks_ib()
    } else {
        b.two_ranks_two_gpus()
    }
    .build()
}

/// A device buffer for `ty` on `rank`'s GPU, filled with `fill`:
/// (displacement-0 pointer, allocation, base index).
fn alloc(sess: &mut Session, rank: usize, ty: &DataType, fill: &[u8]) -> (Ptr, Ptr, i64) {
    let (base, len) = buffer_span(ty, 1);
    assert_eq!(len, fill.len());
    let space = MemSpace::Device(sess.world.mpi.ranks[rank].gpu);
    let buf = sess.world.mem().alloc(space, len as u64).unwrap();
    sess.world.mem().write(buf, fill).unwrap();
    (buf.add(base as u64), buf, base)
}

/// Send `s_ty` from rank 0 into `r_ty` on rank 1, whose buffer starts
/// as a guard pattern, and check the whole receive buffer against the
/// reference: the received bytes, and every byte around them.
fn transfer(sess: &mut Session, s_ty: &DataType, r_ty: &DataType) {
    let (_, s_len) = buffer_span(s_ty, 1);
    let (_, r_len) = buffer_span(r_ty, 1);
    let sent = pattern(s_len);
    let guard: Vec<u8> = (0..r_len).map(|i| (i % 7) as u8 | 0xF0).collect();
    let (s_buf, _, s_base) = alloc(sess, 0, s_ty, &sent);
    let (r_buf, r_alloc, r_base) = alloc(sess, 1, r_ty, &guard);
    let mut expect = guard;
    unpack_all(
        r_ty,
        1,
        &mut expect,
        r_base,
        &pack_all(s_ty, 1, &sent, s_base),
    );
    let s = isend(sess, SendArgs::new(0, 1, s_buf, s_ty, 1));
    let r = irecv(sess, RecvArgs::new(1, 0, r_buf, r_ty, 1));
    wait_all(sess, &[s, r]).expect("transfer failed");
    let got = sess.world.mem().read_vec(r_alloc, r_len as u64).unwrap();
    assert!(got == expect, "received bytes differ from the reference");
}

/// Contiguous → transpose and back, over a rendezvous (`n` = 256, one
/// 512 KiB fragment — the cells' shape) and over eager halves (`n` =
/// 16, 2 KiB): once to warm the handshake and the caches, then again
/// with the scratch shelf watched. The lone strided end takes no unit
/// buffer, and its kernel still runs one unit per 8-byte block — the
/// count the listed kernel reported — beside the one unit of the eager
/// message's dense half, whose kernel moves the contiguous side to or
/// from the bounce.
#[test]
fn a_lone_strided_end_takes_no_unit_buffer() {
    for (n, dense_kernel_units) in [(256u64, 0), (16, 1)] {
        for strided_sends in [false, true] {
            let (s_ty, r_ty) = if strided_sends {
                (transpose(n), contiguous(n))
            } else {
                (contiguous(n), transpose(n))
            };
            let mut sess = session(false, MpiConfig::default());
            transfer(&mut sess, &s_ty, &r_ty);
            let units = sess.metrics().counter(Counter::GpusimKernelUnits);
            let before = simcore::scratch::stats();
            transfer(&mut sess, &s_ty, &r_ty);
            assert_eq!(
                simcore::scratch::stats(),
                before,
                "n={n} strided sends: {strided_sends}"
            );
            let units = sess.metrics().counter(Counter::GpusimKernelUnits) - units;
            assert_eq!(
                units,
                n * n + dense_kernel_units,
                "n={n} strided sends: {strided_sends}"
            );
        }
    }
}

/// A 2 MiB transpose, and a submatrix whose buffer is half gap, in
/// fragments of an odd byte count, so nearly every fragment starts and
/// ends inside a block; over shared memory and over InfiniBand, rings
/// two and four deep, in both directions. Every fragment launches the
/// strided end's kernel on its own window.
#[test]
fn multi_fragment_strided_transfers_cut_mid_block_land_exactly() {
    let (n, frag) = (512u64, 100_003);
    let nfrags = (n * n * 8).div_ceil(frag);
    for ib in [false, true] {
        for depth in [2, 4] {
            let mut config = MpiConfig {
                frag_size: frag,
                pipeline_depth: depth,
                ..MpiConfig::default()
            };
            // A fixed shape: the tuner would trade fragments for depth.
            config.engine.optimizer.autotune = false;
            let mut sess = session(ib, config);
            for strided in [transpose(n), submatrix(n)] {
                for (s_ty, r_ty) in [(contiguous(n), strided.clone()), (strided, contiguous(n))] {
                    let launches = sess.metrics().counter(Counter::GpusimKernelLaunches);
                    transfer(&mut sess, &s_ty, &r_ty);
                    let launches = sess.metrics().counter(Counter::GpusimKernelLaunches) - launches;
                    assert!(
                        launches >= nfrags,
                        "{launches} kernels for {nfrags} fragments"
                    );
                }
            }
        }
    }
}

/// 8 MiB in 8 KiB blocks with 8 KiB gaps, one 512 KiB window per
/// fragment: the landed windows flush as one batch, coarse and large
/// enough for the lane rule to split across the copy pool.
#[test]
fn a_coarse_strided_transfer_lands_on_every_lane_count() {
    let blocks = DataType::vector(1024, 1024, 2048, &DataType::double())
        .unwrap()
        .commit();
    let dense = DataType::contiguous(1024 * 1024, &DataType::double())
        .unwrap()
        .commit();
    let mut sess = session(false, MpiConfig::default());
    transfer(&mut sess, &dense, &blocks);
    transfer(&mut sess, &blocks, &dense);
}

/// A 64³ array of doubles with a halo of width `w`: the x / y / z faces
/// of the interior (fixed innermost, middle, outermost index) and the
/// 32³ box at its centre, sent from device memory to a contiguous
/// receive over shared memory and over InfiniBand. Each send builds
/// only arithmetic sources — the face's is the doubly-strided one where
/// its shape has two dims, the vector one where a width-1 face leaves
/// one — and no descriptor list, and the received bytes are the
/// convertor's.
#[test]
fn three_d_halo_faces_send_by_arithmetic() {
    let n = 64u64;
    let mut shapes = Vec::new();
    for w in [1u64, 2] {
        let m = n - 2 * w;
        shapes.push(([m, m, w], [w; 3], true));
        shapes.push(([m, w, m], [w; 3], w > 1));
        shapes.push(([w, m, m], [w; 3], w > 1));
    }
    shapes.push(([32; 3], [16; 3], true));
    for ib in [false, true] {
        let mut sess = session(ib, MpiConfig::default());
        for &(sub, start, two_dims) in &shapes {
            let face = DataType::subarray(&[n; 3], &sub, &start, &DataType::double())
                .unwrap()
                .commit();
            let dense = DataType::contiguous(face.size() / 8, &DataType::double())
                .unwrap()
                .commit();
            let counters = |sess: &mut Session| {
                [
                    Counter::DevengineSourceStrided2d,
                    Counter::DevengineSourceVector,
                    Counter::DevengineSourceCached,
                    Counter::DevengineSourceFresh,
                ]
                .map(|c| sess.metrics().counter(c))
            };
            let before = counters(&mut sess);
            transfer(&mut sess, &face, &dense);
            let after = counters(&mut sess);
            let [grid, vector, cached, fresh]: [u64; 4] =
                std::array::from_fn(|i| after[i] - before[i]);
            let what = format!("{sub:?} at {start:?}, ib: {ib}");
            assert_eq!((cached, fresh), (0, 0), "{what}: a descriptor source");
            // The dense end may run a vector kernel of its own (an
            // eager half's bounce), so only the face's kind is pinned.
            let face_kind = if two_dims { grid } else { vector };
            assert!(face_kind > 0, "{what}: {grid} 2-D, {vector} vector");
        }
    }
}
