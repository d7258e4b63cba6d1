//! `cells_cold`: what every figure binary pays per CSV cell. Op = one
//! fixed row of 9 cells, {sm-1GPU, sm-2GPU, IB} × {triangular,
//! submatrix ↔ contiguous, contiguous ↔ transpose}; each cell builds a
//! fresh session, constructs and commits its types, allocates, fills
//! and runs 2 round trips. Nothing is warm: the same layers as the
//! ping-pongs, on their miss side.

use super::{
    alloc_typed, expected_recv, oracle_eq, round_trip, Counts, OpReport, Pair, Size, Stopwatch,
    Workload,
};
use crate::spans::Spans;
use bench::runner::Topo;
use bench::workloads::{contiguous_matrix, submatrix, transpose_type, triangular};
use datatype::DataType;
use gpusim::{GpuArch, GpuWorld as _};
use mpirt::MpiConfig;

const TOPOS: [Topo; 3] = [Topo::Sm1Gpu, Topo::Sm2Gpu, Topo::Ib];
const ROUND_TRIPS: u64 = 2;

/// The three datatype pairs of a row, freshly constructed.
type MakePair = fn(u64) -> (DataType, DataType);
const SHAPES: [MakePair; 3] = [
    |n| (triangular(n), triangular(n)),
    |n| (submatrix(n), contiguous_matrix(n)),
    |n| (contiguous_matrix(n), transpose_type(n)),
];

pub struct Cells {
    /// Matrix order of each shape, in `SHAPES` order.
    orders: [u64; 3],
    seed: u64,
}

impl Cells {
    pub fn new(seed: u64, size: Size) -> Cells {
        Cells {
            orders: match size {
                Size::Full => [768, 512, 256],
                Size::Smoke => [192, 128, 64],
            },
            seed,
        }
    }
}

/// Nothing outlives a cell; the state only accumulates what the cells
/// of this segment counted.
pub struct State {
    record: bool,
    totals: Counts,
}

impl Cells {
    /// One cold cell; the clock stops before the bytes are checked.
    fn cell(
        &self,
        topo: Topo,
        shape: usize,
        st: &mut State,
        sp: &mut Spans,
        corrupt: bool,
    ) -> OpReport {
        let watch = Stopwatch::start();
        let s = sp.begin("mpirt.session_build");
        let mut sess = topo
            .session(GpuArch::default_arch(), MpiConfig::default())
            .record_if(st.record)
            .build();
        sp.end(s);

        let s = sp.begin("datatype.commit");
        let (ty0, ty1) = SHAPES[shape](self.orders[shape]);
        sp.end(s);

        let s = sp.begin("memsim.alloc_fill");
        let b0 = alloc_typed(&mut sess, 0, &ty0, Some(self.seed ^ shape as u64));
        let b1 = alloc_typed(&mut sess, 1, &ty1, None);
        sp.end(s);
        let (setup_wall, setup_cpu) = watch.stop();

        // Harness work, off the clock: the expectation needs the source
        // before the round trips write back into it.
        let src = sess
            .world
            .mem()
            .slice(b0.alloc, b0.len as u64)
            .expect("source buffer");
        let expected1 = expected_recv(&ty0, src, b0.base, &ty1, b1.base, b1.len);
        let payload = 2 * ROUND_TRIPS * ty0.size();

        let pair = Pair { ty0, ty1, b0, b1 };
        let watch = Stopwatch::start();
        let mut done = Ok(());
        for _ in 0..ROUND_TRIPS {
            done = done.and_then(|()| round_trip(&mut sess, &pair, sp));
        }
        let (trips_wall, trips_cpu) = watch.stop();

        let counts = Counts::of_session(&mut sess);
        st.totals += counts;
        let got1 = sess
            .world
            .mem()
            .slice(b1.alloc, b1.len as u64)
            .expect("rank 1 buffer");
        let ok = done.is_ok()
            && counts.delivered_bytes == payload
            && oracle_eq(got1, &expected1, corrupt);
        let sim_ns = sess.now().as_nanos();
        // A figure binary also pays for tearing the cell down.
        let watch = Stopwatch::start();
        drop(sess);
        let (drop_wall, drop_cpu) = watch.stop();
        OpReport {
            wall_ns: setup_wall + trips_wall + drop_wall,
            cpu_s: setup_cpu + trips_cpu + drop_cpu,
            sim_ns,
            ok,
        }
    }
}

impl Workload for Cells {
    type State = State;

    fn setup(&self, record: bool, _sp: &mut Spans) -> State {
        State {
            record,
            totals: Counts::default(),
        }
    }

    fn op(&self, st: &mut State, sp: &mut Spans) -> OpReport {
        let mut report = OpReport {
            wall_ns: 0.0,
            cpu_s: 0.0,
            sim_ns: 0,
            ok: true,
        };
        for topo in TOPOS {
            for shape in 0..SHAPES.len() {
                let cell = self.cell(topo, shape, st, sp, false);
                report.wall_ns += cell.wall_ns;
                report.cpu_s += cell.cpu_s;
                report.sim_ns += cell.sim_ns;
                report.ok &= cell.ok;
            }
        }
        report
    }

    fn counts(&self, st: &mut State) -> Counts {
        st.totals
    }

    /// Every cell checked its own bytes inside the op. The segment's
    /// check is one more cell, off the clock, so that a damaged
    /// expectation has something to fail.
    fn verify(&self, st: &mut State, corrupt: bool) -> bool {
        self.cell(Topo::Sm2Gpu, 0, st, &mut Spans::new(false), corrupt)
            .ok
    }

    fn probe_type(&self) -> DataType {
        triangular(self.orders[0])
    }
}
