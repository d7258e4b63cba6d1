//! One-sided communication (RMA windows, `MPI_Put` / `MPI_Get`).
//!
//! The paper points out that a committed datatype serves "any
//! point-to-point, collective, I/O and one-sided" operation. This
//! module exposes the GPU datatype engine through an RMA-style API:
//! each rank contributes a buffer to a [`Win`]; `put` and `get` move
//! typed data against a *target-side datatype the origin specifies*,
//! with no receive posted at the target.
//!
//! Data movement reuses the exact protocol machinery of the two-sided
//! path (pipelined IPC RDMA or copy-in/out, with the contiguous fast
//! paths): on real hardware the HCA/IPC mapping makes those transfers
//! genuinely one-sided; in the model the "target-side" pack/unpack
//! kernels run on the target GPU either way, which matches where the
//! paper executes them.

use crate::api::bad_rank;
use crate::protocol::{run_transfer, Side};
use crate::request::{MpiError, Request};
use crate::world::MpiWorld;
use datatype::{DataType, Signature};
use memsim::Ptr;
use simcore::Sim;

/// An RMA window: one exposed buffer per rank.
#[derive(Clone)]
pub struct Win {
    bufs: Vec<Ptr>,
    sizes: Vec<u64>,
}

impl Win {
    /// Expose `bufs[r]` (of `sizes[r]` bytes) from each rank `r`
    /// (`MPI_Win_create`).
    pub fn create(sim: &Sim<MpiWorld>, bufs: Vec<Ptr>, sizes: Vec<u64>) -> Win {
        assert_eq!(bufs.len(), sizes.len());
        assert_eq!(bufs.len(), sim.world.mpi.ranks.len(), "one buffer per rank");
        Win { bufs, sizes }
    }

    pub fn buffer(&self, rank: usize) -> Ptr {
        self.bufs[rank]
    }

    /// `MpiError::Mem` unless `rank` has a window and `count` instances
    /// of `ty` at `disp` lie inside it. Instances sit `extent` apart; the
    /// data of the first and the last bound the bytes the access
    /// touches. The bounds are computed in `i128`, where no `u64`
    /// displacement or count wraps.
    fn check_target(
        &self,
        rank: usize,
        disp: u64,
        ty: &DataType,
        count: u64,
    ) -> Result<(), MpiError> {
        let Some(&size) = self.sizes.get(rank) else {
            return Err(MpiError::Mem(format!(
                "RMA target rank {rank} outside a {}-rank window",
                self.sizes.len()
            )));
        };
        if count == 0 || ty.size() == 0 {
            return Ok(());
        }
        let first = i128::from(disp) + i128::from(ty.true_lb());
        let last = first + i128::from(count - 1) * i128::from(ty.extent());
        let (lo, hi) = (
            first.min(last),
            first.max(last) + i128::from(ty.true_extent()),
        );
        if lo < 0 || hi > i128::from(size) {
            return Err(MpiError::Mem(format!(
                "RMA access [{lo}, {hi}) exceeds rank {rank}'s {size}-byte window"
            )));
        }
        Ok(())
    }
}

/// Typed access description for one side of an RMA operation.
#[derive(Clone)]
pub struct RmaArgs {
    pub ty: DataType,
    pub count: u64,
}

fn check_sigs(
    sim: &mut Sim<MpiWorld>,
    a: (&DataType, u64),
    b: (&DataType, u64),
    req: &Request,
) -> bool {
    let sa = Signature::of(a.0, a.1);
    let sb = Signature::of(b.0, b.1);
    if !sa.matches(&sb) {
        req.complete(
            sim,
            Err(MpiError::Type(datatype::TypeError::SignatureMismatch)),
        );
        return false;
    }
    true
}

/// `MPI_Put`: move typed data from the origin's buffer into the target's
/// window. Completes when the data has landed at the target.
#[allow(clippy::too_many_arguments)]
pub fn put(
    sim: &mut Sim<MpiWorld>,
    win: &Win,
    origin_rank: usize,
    origin: RmaArgs,
    origin_buf: Ptr,
    target_rank: usize,
    target_disp: u64,
    target: RmaArgs,
) -> Request {
    let origin = (origin_rank, origin, origin_buf);
    rma(sim, win, origin, (target_rank, target_disp, target), true)
}

/// `MPI_Get`: move typed data from the target's window into the
/// origin's buffer. Completes when the data is in the origin buffer.
#[allow(clippy::too_many_arguments)]
pub fn get(
    sim: &mut Sim<MpiWorld>,
    win: &Win,
    origin_rank: usize,
    origin: RmaArgs,
    origin_buf: Ptr,
    target_rank: usize,
    target_disp: u64,
    target: RmaArgs,
) -> Request {
    let origin = (origin_rank, origin, origin_buf);
    rma(sim, win, origin, (target_rank, target_disp, target), false)
}

/// The body of [`put`] (`origin_sends`) and [`get`]: check both types,
/// the origin rank (in the job, not the target — the typed error
/// `isend` gives) and the target's window before anything is charged,
/// then run the transfer from the sending side
/// to the receiving one. The origin's request tracks completion at the
/// receiving side (strictest interpretation — data visible there); the
/// internal send handle is dropped.
fn rma(
    sim: &mut Sim<MpiWorld>,
    win: &Win,
    (origin_rank, origin, origin_buf): (usize, RmaArgs, Ptr),
    (target_rank, target_disp, target): (usize, u64, RmaArgs),
    origin_sends: bool,
) -> Request {
    let req = Request::new();
    if !origin.ty.is_committed() || !target.ty.is_committed() {
        req.complete(sim, Err(MpiError::Type(datatype::TypeError::NotCommitted)));
        return req;
    }
    let bad = bad_rank(sim, [("origin_rank", origin_rank)]).or_else(|| {
        (origin_rank == target_rank).then(|| {
            MpiError::Faulted(format!(
                "target_rank = {target_rank} is the origin: self-access is not modeled"
            ))
        })
    });
    if let Some(err) = bad {
        req.complete(sim, Err(err));
        return req;
    }
    if !check_sigs(
        sim,
        (&origin.ty, origin.count),
        (&target.ty, target.count),
        &req,
    ) {
        return req;
    }
    if let Err(e) = win.check_target(target_rank, target_disp, &target.ty, target.count) {
        req.complete(sim, Err(e));
        return req;
    }
    let origin = Side {
        rank: origin_rank,
        ty: origin.ty,
        count: origin.count,
        buf: origin_buf,
    };
    let target = Side {
        rank: target_rank,
        ty: target.ty,
        count: target.count,
        buf: win.buffer(target_rank).add(target_disp),
    };
    let (send, recv) = if origin_sends {
        (origin, target)
    } else {
        (target, origin)
    };
    run_transfer(sim, send, recv, Request::new(), req.clone());
    req
}

/// `MPI_Win_fence`: synchronize all ranks (a barrier in this
/// active-target model).
pub fn fence(sim: &mut Sim<MpiWorld>, epoch: u64) -> Request {
    crate::coll::barrier(sim, 1_000_000 + epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use gpusim::GpuWorld as _;
    use memsim::MemSpace;

    fn tri(n: u64) -> DataType {
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit()
    }

    fn world_and_win(ty: &DataType) -> (Sim<MpiWorld>, Win, i64, usize) {
        let mut sim = Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let (base, len) = buffer_span(ty, 1);
        let mut bufs = Vec::new();
        for r in 0..2 {
            let gpu = sim.world.mpi.ranks[r].gpu;
            let b = sim
                .world
                .mem()
                .alloc(MemSpace::Device(gpu), (base as usize + len) as u64)
                .unwrap();
            bufs.push(b);
        }
        let sizes = vec![(base as usize + len) as u64; 2];
        let win = Win::create(&sim, bufs, sizes);
        (sim, win, base, len)
    }

    #[test]
    fn put_moves_typed_data() {
        let t = tri(128);
        let (mut sim, win, base, len) = world_and_win(&t);
        let data = pattern(len);
        let origin = win.buffer(0).add(base as u64);
        sim.world
            .mem()
            .write(win.buffer(0), &vec![0; base as usize])
            .unwrap();
        sim.world.mem().write(origin, &data).unwrap();
        let req = put(
            &mut sim,
            &win,
            0,
            RmaArgs {
                ty: t.clone(),
                count: 1,
            },
            origin,
            1,
            base as u64,
            RmaArgs {
                ty: t.clone(),
                count: 1,
            },
        );
        sim.run();
        assert_eq!(req.expect_bytes(), t.size());
        let got = sim
            .world
            .mem()
            .read_vec(win.buffer(1).add(base as u64), len as u64)
            .unwrap();
        assert_eq!(
            reference_pack(&t, 1, &got, 0),
            reference_pack(&t, 1, &data, 0)
        );
    }

    #[test]
    fn get_pulls_typed_data() {
        let t = tri(128);
        let (mut sim, win, base, len) = world_and_win(&t);
        let data = pattern(len);
        let target = win.buffer(1).add(base as u64);
        sim.world.mem().write(target, &data).unwrap();
        let origin = win.buffer(0).add(base as u64);
        let req = get(
            &mut sim,
            &win,
            0,
            RmaArgs {
                ty: t.clone(),
                count: 1,
            },
            origin,
            1,
            base as u64,
            RmaArgs {
                ty: t.clone(),
                count: 1,
            },
        );
        sim.run();
        assert_eq!(req.expect_bytes(), t.size());
        let got = sim.world.mem().read_vec(origin, len as u64).unwrap();
        assert_eq!(
            reference_pack(&t, 1, &got, 0),
            reference_pack(&t, 1, &data, 0)
        );
    }

    #[test]
    fn put_with_layout_reshape() {
        // Origin vector, target contiguous: the RMA analogue of the
        // FFT reshape.
        let v = DataType::vector(64, 4, 8, &DataType::double())
            .unwrap()
            .commit();
        let c = DataType::contiguous(256, &DataType::double())
            .unwrap()
            .commit();
        let (mut sim, win, base, len) = world_and_win(&v);
        let data = pattern(len);
        let origin = win.buffer(0).add(base as u64);
        sim.world.mem().write(origin, &data).unwrap();
        let req = put(
            &mut sim,
            &win,
            0,
            RmaArgs {
                ty: v.clone(),
                count: 1,
            },
            origin,
            1,
            0,
            RmaArgs { ty: c, count: 1 },
        );
        sim.run();
        assert_eq!(req.expect_bytes(), v.size());
        let got = sim.world.mem().read_vec(win.buffer(1), v.size()).unwrap();
        assert_eq!(got, reference_pack(&v, 1, &data, 0));
    }

    #[test]
    fn signature_mismatch_rejected() {
        let t = tri(64);
        let (mut sim, win, base, _) = world_and_win(&t);
        let wrong = DataType::contiguous(10, &DataType::int()).unwrap().commit();
        let req = put(
            &mut sim,
            &win,
            0,
            RmaArgs { ty: t, count: 1 },
            win.buffer(0).add(base as u64),
            1,
            base as u64,
            RmaArgs {
                ty: wrong,
                count: 1,
            },
        );
        assert!(matches!(req.result(), Some(Err(MpiError::Type(_)))));
    }

    #[test]
    fn out_of_window_access_rejected() {
        let t = tri(64);
        let (mut sim, win, base, _) = world_and_win(&t);
        let args = || RmaArgs {
            ty: t.clone(),
            count: 1,
        };
        let origin = win.buffer(0).add(base as u64);
        // Past the end; far past it; a displacement whose `disp +
        // extent` wraps in `i64`; a rank the window does not have. Each
        // fails the request, put and get alike.
        let one_past = base as u64 + 1;
        for (rank, disp) in [(1, one_past), (1, u64::MAX / 4), (1, u64::MAX - 7), (2, 0)] {
            let p = put(&mut sim, &win, 0, args(), origin, rank, disp, args());
            let g = get(&mut sim, &win, 0, args(), origin, rank, disp, args());
            for req in [p, g] {
                assert!(
                    matches!(req.result(), Some(Err(MpiError::Mem(_)))),
                    "rank {rank} disp {disp}: {:?}",
                    req.result()
                );
            }
        }
        // The access that ends at the window's last byte is allowed.
        assert_eq!(win.check_target(1, base as u64, &t, 1), Ok(()));
    }

    #[test]
    fn fence_synchronizes() {
        let t = tri(64);
        let (mut sim, _win, _, _) = world_and_win(&t);
        let f = fence(&mut sim, 0);
        sim.run();
        assert!(f.is_complete());
    }
}
