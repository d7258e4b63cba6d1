//! Stream-triggered communication: capture once, replay from the GPU
//! stream with zero CPU events on the critical path.
//!
//! HPE's "Exploring Fully Offloaded GPU Stream-Aware Message Passing"
//! moves the send/recv *control* path onto the GPU stream: the host
//! captures the communication once into a graph of stream ops —
//! trigger (wait for the producer kernel), doorbell (the MMIO store
//! that releases the NIC command), completion (the flag write the
//! consumer polls) — and every later iteration merely re-arms the
//! graph on the stream front-end. The CPU never appears between the
//! compute kernel and the wire.
//!
//! This module owns the op vocabulary and the only way to build a
//! graph: the [`GraphCapture`] builder, mirroring `cudaStreamBegin/
//! EndCapture`. `StreamOp` is private here, so graphs cannot be
//! hand-assembled behind the capture API's back. Replay charges the
//! owning stream for the doorbell latency plus per-op issue — both
//! per-arch constants from the node topology tables — which makes this
//! file a charge wrapper in the fault-coverage sense.

use crate::fault::Rolled;
use crate::kernel::{kernel_time, KernelConfig, KernelTraffic};
use crate::spec::NodeTopology;
use crate::system::{on_stream, GpuState, GpuWorld, StreamId};
use faultsim::FaultOp;
use memsim::{MemSpace, Ptr};
use simcore::par::CopyOp;
use simcore::trace::names;
use simcore::{Sim, SimTime};

/// One node of a captured stream-op graph. Private: protocol code
/// describes intent through [`GraphCapture`] and replays through
/// [`replay_issue`], never by assembling op lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamOp {
    /// Wait for the producing stream work (kernel/event) to land.
    Trigger,
    /// Ring the NIC command doorbell for a `bytes`-sized send.
    Doorbell { bytes: u64 },
    /// A pack/unpack kernel node embedded in the graph (the kernel
    /// itself is charged by [`graph_kernel`]; the graph node only pays
    /// re-arm issue cost).
    Kernel,
    /// Write the completion flag the consumer polls on.
    Completion,
}

/// A captured, replayable stream-op graph. Opaque: fields are private
/// and there is no constructor besides [`GraphCapture::finish`].
#[derive(Clone, Debug)]
pub struct StreamGraph {
    stream: StreamId,
    ops: Vec<StreamOp>,
}

impl StreamGraph {
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// Builder for one stream-op graph — the analogue of CUDA stream
/// capture, and the only sanctioned constructor of [`StreamGraph`].
pub struct GraphCapture {
    stream: StreamId,
    ops: Vec<StreamOp>,
}

impl GraphCapture {
    /// Begin capturing on `stream` (like `cudaStreamBeginCapture`).
    pub fn begin(stream: StreamId) -> GraphCapture {
        GraphCapture {
            stream,
            ops: Vec::new(),
        }
    }

    /// Record a producer-side trigger (wait) node.
    pub fn trigger(mut self) -> Self {
        self.ops.push(StreamOp::Trigger);
        self
    }

    /// Record a doorbell node releasing a `bytes`-sized NIC command.
    pub fn doorbell(mut self, bytes: u64) -> Self {
        self.ops.push(StreamOp::Doorbell { bytes });
        self
    }

    /// Record an embedded pack/unpack kernel node.
    pub fn kernel(mut self) -> Self {
        self.ops.push(StreamOp::Kernel);
        self
    }

    /// Record the completion-flag write node.
    pub fn completion(mut self) -> Self {
        self.ops.push(StreamOp::Completion);
        self
    }

    /// Nodes captured so far.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// End capture: charge the one-time capture cost on the stream (the
    /// driver walks the graph once to bake command buffers — one op
    /// issue per node) and return the replayable graph.
    pub fn finish<W: GpuWorld>(self, sim: &mut Sim<W>) -> StreamGraph {
        let issue = sim.world.gpus_ref().topo.stream_op_issue;
        let cost = SimTime::from_nanos(issue.as_nanos().saturating_mul(self.ops.len() as u64));
        let cost = Rolled::setup(
            cost,
            "capture is one-time setup, like a plan compile; the replays it feeds are \
             fault-scaled",
        );
        on_stream(self.stream, names::SPAN_STREAM_CAPTURE)(sim, cost);
        sim.trace.count(names::OFFLOAD_STREAM_CAPTURES, 0, 0, 1);
        StreamGraph {
            stream: self.stream,
            ops: self.ops,
        }
    }
}

/// The price of re-arming a graph of `ops` nodes: the doorbell latency
/// once plus per-op issue for every node.
pub fn replay_time(topo: &NodeTopology, ops: usize) -> SimTime {
    let issue = topo.stream_op_issue.as_nanos().saturating_mul(ops as u64);
    topo.stream_doorbell_lat + SimTime::from_nanos(issue)
}

/// The price of one kernel node of a captured graph: the coalescing
/// cost model of [`kernel_time`] with the DEV descriptor stream, minus
/// the driver launch overhead — the graph pre-baked the launch, and the
/// stream front-end pays per-op issue at replay instead.
pub fn graph_kernel_time(
    g: &GpuState,
    topo: &NodeTopology,
    spaces: (MemSpace, MemSpace),
    traffic: &KernelTraffic,
) -> SimTime {
    kernel_time(g, topo, spaces, KernelConfig::default(), traffic) - g.spec.launch_overhead
}

/// Re-arm a captured graph for one iteration: the stream front-end
/// is charged [`replay_time`], then `armed` runs — at which point the
/// graph's kernels and wire legs proceed with no CPU event in between.
///
/// Degradation windows on [`FaultOp::StreamDoorbell`] stretch the
/// charge; transient/permanent doorbell faults are rolled by the
/// protocol layer *before* replay (a lost doorbell demotes the path,
/// it does not corrupt an issued one).
pub fn replay_issue<W: GpuWorld>(
    sim: &mut Sim<W>,
    graph: &StreamGraph,
    armed: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let cost = replay_time(&sim.world.gpus_ref().topo, graph.op_count());
    let cost = crate::fault::fault_scaled(sim, FaultOp::StreamDoorbell, cost);
    let end = on_stream(graph.stream, names::SPAN_STREAM_REPLAY)(sim, cost);
    sim.trace.count(names::OFFLOAD_STREAM_REPLAYS, 0, 0, 1);
    sim.schedule_at(end, move |sim| armed(sim, end));
}

/// Charge one kernel node of a captured graph, [`graph_kernel_time`]
/// over `units` between `src` and `dst`, and run `done` at its
/// completion. Nothing moves: the graph's two kernels and its wire leg
/// are one typed → typed transfer, which the caller lands. The graph's
/// far side is its mapped host staging, priced by its space alone —
/// host-side traffic reads no offset. Degradation windows on
/// [`FaultOp::KernelLaunch`] still stretch the charge; loss faults are
/// the doorbell's to absorb (the whole replay demotes), so no retry
/// loop lives here.
pub fn graph_kernel<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    (src, dst): (Ptr, Ptr),
    units: &[CopyOp],
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let sys = sim.world.gpus_ref();
    let g = sys.gpu(stream.gpu);
    let traffic = KernelTraffic::of(units, src, dst, stream.gpu, &g.spec);
    let duration = graph_kernel_time(g, &sys.topo, (src.space, dst.space), &traffic);
    let duration = crate::fault::fault_scaled(sim, FaultOp::KernelLaunch, duration);
    let end = on_stream(stream, names::SPAN_KERNEL)(sim, duration);
    sim.schedule_at(end, move |sim| {
        sim.trace
            .count(names::GPUSIM_KERNEL_BYTES, stream.gpu.0, 0, traffic.payload);
        sim.trace
            .count(names::GPUSIM_KERNEL_UNITS, stream.gpu.0, 0, traffic.units);
        done(sim, end);
    });
}

#[cfg(test)]
impl StreamGraph {
    /// Total bytes rung through doorbell ops.
    fn doorbell_bytes(&self) -> u64 {
        (self.ops.iter())
            .map(|op| match op {
                StreamOp::Doorbell { bytes } => *bytes,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::NodeWorld;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn graph(sim: &mut Sim<NodeWorld>) -> StreamGraph {
        let stream = sim.world.gpu_system.default_stream(memsim::GpuId(0));
        GraphCapture::begin(stream)
            .trigger()
            .kernel()
            .doorbell(1 << 20)
            .kernel()
            .completion()
            .finish(sim)
    }

    #[test]
    fn capture_records_ops_and_charges_once() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let g = graph(&mut sim);
        assert_eq!(g.op_count(), 5);
        assert_eq!(g.doorbell_bytes(), 1 << 20);
        let busy_until = sim.world.gpu_system.stream(g.stream()).free_at();
        assert!(busy_until > SimTime::ZERO, "capture charged stream time");
    }

    #[test]
    fn replay_charges_doorbell_plus_issue() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let g = graph(&mut sim);
        let capture_end = sim.world.gpu_system.stream(g.stream()).free_at();
        let topo_cost = {
            let topo = &sim.world.gpu_system.topo;
            topo.stream_doorbell_lat
                + SimTime::from_nanos(topo.stream_op_issue.as_nanos() * g.op_count() as u64)
        };
        let armed_at = Rc::new(RefCell::new(SimTime::ZERO));
        let a = Rc::clone(&armed_at);
        replay_issue(&mut sim, &g, move |_, at| *a.borrow_mut() = at);
        sim.run();
        assert_eq!(*armed_at.borrow(), capture_end + topo_cost);
    }

    #[test]
    fn replays_serialize_on_the_stream() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let g = graph(&mut sim);
        sim.run();
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let t = Rc::clone(&times);
            replay_issue(&mut sim, &g, move |_, at| t.borrow_mut().push(at));
        }
        sim.run();
        let ts = times.borrow();
        assert_eq!(ts.len(), 3);
        assert!(ts[0] < ts[1] && ts[1] < ts[2], "FIFO stream order: {ts:?}");
    }
}
