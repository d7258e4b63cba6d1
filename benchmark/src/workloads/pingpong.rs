//! `pp_dense` and `pp_irregular`: a device-resident ping-pong on a
//! persistent two-rank session, same type on both ranks. Op = one
//! round trip.

use super::{
    alloc_typed, expected_recv, irregular, oracle_eq, round_trip, Counts, OpReport, Pair, Size,
    Stopwatch, Workload,
};
use crate::spans::Spans;
use bench::runner::Topo;
use bench::workloads::triangular;
use datatype::DataType;
use gpusim::{GpuArch, GpuWorld as _};
use mpirt::{MpiConfig, Session};
use simcore::trace::names;

#[derive(Clone, Copy)]
enum Layout {
    /// Lower-triangular n×n doubles: few long columns, so the bytes
    /// dominate.
    Triangular(u64),
    /// Seeded blocks of 1–8 doubles: many tiny units, so the DEV list
    /// dominates.
    Irregular(usize),
}

pub struct PingPong {
    topo: Topo,
    layout: Layout,
    seed: u64,
}

impl PingPong {
    /// Shared-memory 2-GPU session, triangular 4096² doubles (67 MB).
    pub fn dense(seed: u64, size: Size) -> PingPong {
        PingPong {
            topo: Topo::Sm2Gpu,
            layout: Layout::Triangular(match size {
                Size::Full => 4096,
                Size::Smoke => 512,
            }),
            seed,
        }
    }

    /// InfiniBand 2-node session, irregular indexed type (4.7 MB).
    pub fn irregular(seed: u64, size: Size) -> PingPong {
        PingPong {
            topo: Topo::Ib,
            layout: Layout::Irregular(match size {
                Size::Full => 131_072,
                Size::Smoke => 8_192,
            }),
            seed,
        }
    }
}

pub struct State {
    sess: Session,
    pair: Pair,
    /// What rank 1's buffer must hold after any number of round trips:
    /// the source's data where the type has data, zero in its gaps.
    expected1: Vec<u8>,
}

impl Workload for PingPong {
    type State = State;

    fn setup(&self, record: bool, sp: &mut Spans) -> State {
        let s = sp.begin("mpirt.session_build");
        let mut sess = self
            .topo
            .session(GpuArch::default_arch(), MpiConfig::default())
            .record_if(record)
            .build();
        sp.end(s);

        let s = sp.begin("datatype.commit");
        let ty = self.probe_type();
        sp.end(s);

        let s = sp.begin("memsim.alloc_fill");
        let b0 = alloc_typed(&mut sess, 0, &ty, Some(self.seed));
        let b1 = alloc_typed(&mut sess, 1, &ty, None);
        sp.end(s);

        State {
            sess,
            pair: Pair {
                ty0: ty.clone(),
                ty1: ty,
                b0,
                b1,
            },
            expected1: Vec::new(),
        }
    }

    fn arm_oracle(&self, st: &mut State) {
        // From the pristine source, before the first op: the ops
        // overwrite the source buffer with what comes back.
        let (b0, b1) = (st.pair.b0, st.pair.b1);
        let src = st
            .sess
            .world
            .mem()
            .slice(b0.alloc, b0.len as u64)
            .expect("source buffer");
        let ty = &st.pair.ty0;
        st.expected1 = expected_recv(ty, src, b0.base, ty, b1.base, b1.len);
    }

    fn op(&self, st: &mut State, sp: &mut Spans) -> OpReport {
        let payload = 2 * st.pair.ty0.size();
        let delivered = st.sess.trace.counter(names::MPI_DELIVERED_BYTES);
        let then = st.sess.now();
        let watch = Stopwatch::start();
        let done = round_trip(&mut st.sess, &st.pair, sp);
        let (wall_ns, cpu_s) = watch.stop();
        let moved = st.sess.trace.counter(names::MPI_DELIVERED_BYTES) - delivered;
        OpReport {
            wall_ns,
            cpu_s,
            sim_ns: (st.sess.now() - then).as_nanos(),
            ok: done.is_ok() && moved == payload,
        }
    }

    fn counts(&self, st: &mut State) -> Counts {
        Counts::of_session(&mut st.sess)
    }

    fn verify(&self, st: &mut State, corrupt: bool) -> bool {
        let mem = st.sess.world.mem();
        let (b0, b1) = (st.pair.b0, st.pair.b1);
        let got1 = mem.slice(b1.alloc, b1.len as u64).expect("rank 1 buffer");
        let got0 = mem.slice(b0.alloc, b0.len as u64).expect("rank 0 buffer");
        // Rank 0 got its own data back: same type on both ranks, so its
        // data regions equal rank 1's (its gaps keep the fill).
        let mut came_back = true;
        st.pair.ty0.for_each_segment(1, |disp, len| {
            let at = |base: i64| {
                let lo = (base + disp) as usize;
                lo..lo + len as usize
            };
            came_back &= got0[at(b0.base)] == st.expected1[at(b1.base)];
        });
        oracle_eq(got1, &st.expected1, corrupt) && came_back
    }

    fn probe_type(&self) -> DataType {
        match self.layout {
            Layout::Triangular(n) => triangular(n),
            Layout::Irregular(blocks) => irregular(self.seed, blocks),
        }
    }
}
