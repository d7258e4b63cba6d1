//! sPIN-style NIC DEV executor: the packet processor runs the datatype
//! program itself.
//!
//! "Network-Accelerated Non-Contiguous Memory Transfers" (sPIN) shows a
//! NIC packet processor can execute the sender's gather program and the
//! receiver's scatter program in-line with the stream, eliminating both
//! the GPU pack kernel and the intermediate packed buffer. The host
//! compiles that program once per transfer shape (`mpirt`'s offload
//! layer, from `devengine`'s DEV walks); this module only *executes* it
//! per message — the NIC handler issues one gather/scatter descriptor
//! per contiguous run and streams the payload straight from the
//! sender's typed GPU buffer into the receiver's. Executing only
//! charges: the caller lands the program's one move, as it lands every
//! other transfer's.
//!
//! Timing rides three per-NIC constants from the node topology tables
//! (`nic_desc_issue`, `nic_dma_bw`; `nic_handler_setup` is paid by the
//! connection layer at handler-install time): the handler front-end
//! serializes descriptor issue, then the message streams at the lesser
//! of the NIC's gather-DMA rate and the wire rate — the NIC pipelines
//! gather, wire and scatter per packet, so the legs overlap instead of
//! adding. The wire leg goes through [`crate::wire::wire_send`], which
//! keeps this path under the same fault charge point
//! (`FaultOp::WireCopy`) and retransmission machinery as every other
//! data-link hop.

use crate::channel::{Link, NetError};
use crate::wire::wire_send;
use crate::world::NetWorld;
use gpusim::NodeTopology;
use simcore::trace::names;
use simcore::{Bandwidth, Sim, SimTime, Track};

/// Per-NIC packet-processor cost constants, lifted from the node
/// topology tables (the single source of raw arch numbers).
#[derive(Clone, Copy, Debug)]
pub struct NicCosts {
    /// Per-descriptor issue cost on the handler cores.
    pub desc_issue: SimTime,
    /// Gather/scatter DMA streaming rate from/into GPU memory.
    pub dma_bw: Bandwidth,
}

impl NicCosts {
    pub fn of(topo: &NodeTopology) -> Self {
        NicCosts {
            desc_issue: topo.nic_desc_issue,
            dma_bw: topo.nic_dma_bw,
        }
    }

    /// Handler front-end serialization: issue of `descriptors`.
    fn issue_time(&self, descriptors: u64) -> SimTime {
        SimTime::from_nanos(self.desc_issue.as_nanos().saturating_mul(descriptors))
    }

    /// Bytes the data link carries for a `bytes` payload. The NIC
    /// pipelines gather-DMA, wire and scatter-DMA per packet, so the
    /// stream runs at the slowest leg: a DMA engine slower than the wire
    /// shows up as extra serialization on the (reserved) data link.
    fn wire_bytes(&self, bytes: u64, wire_bw: Bandwidth) -> u64 {
        if self.dma_bw.bytes_per_sec() < wire_bw.bytes_per_sec() {
            (bytes as f64 * wire_bw.bytes_per_sec() / self.dma_bw.bytes_per_sec()) as u64
        } else {
            bytes
        }
    }

    /// The price of a program of `descriptors` moving `bytes` over an
    /// idle `data` link: what [`execute_program`] charges — descriptor
    /// issue, then the stream.
    pub fn time(&self, descriptors: u64, bytes: u64, data: &Link) -> SimTime {
        self.issue_time(descriptors) + data.time(self.wire_bytes(bytes, data.bandwidth))
    }
}

/// Execute a compiled program of `(descriptors, bytes)` for one
/// message on the NIC pair `from → to`: charge the handler front-end,
/// stream the payload over the data link at `min(dma_bw, wire_bw)`, and
/// run `done` when the stream has arrived — the instant the program's
/// one gather/scatter lands, which is the caller's to move. The wire leg
/// inherits `FaultOp::WireCopy` injection and retransmission from
/// [`wire_send`]; a lost fragment retransmits before `done` runs, so
/// delivery stays exactly-once.
pub fn execute_program<W: NetWorld>(
    sim: &mut Sim<W>,
    from: usize,
    to: usize,
    (descriptors, bytes): (u64, u64),
    costs: &NicCosts,
    done: impl FnOnce(&mut Sim<W>) + 'static,
) -> Result<(), NetError> {
    let wire_bw = sim.world.net().try_channel(from, to)?.data.bandwidth;
    let issue = costs.issue_time(descriptors);
    let wire_bytes = costs.wire_bytes(bytes, wire_bw);
    let now = sim.now();
    sim.trace.span_at(
        now,
        now + issue,
        names::CAT_NETSIM,
        names::SPAN_NIC_PROGRAM,
        Track::LinkData {
            from: from as u32,
            to: to as u32,
        },
    );
    let (from_u, to_u) = (from as u32, to as u32);
    sim.schedule_in(issue, move |sim| {
        // Existence was checked above; the channel is an invariant here.
        let sent = wire_send(sim, from, to, wire_bytes, move |sim| {
            sim.trace
                .count(names::OFFLOAD_NIC_PROGRAMS, from_u, to_u, 1);
            sim.trace
                .count(names::OFFLOAD_NIC_BYTES, from_u, to_u, bytes);
            done(sim);
        });
        debug_assert!(sent.is_ok());
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelKind;
    use crate::world::ClusterWorld;
    use gpusim::GpuWorld;

    #[test]
    fn unconnected_pair_is_a_typed_error() {
        let mut w = ClusterWorld::new(2);
        w.net_system.connect(0, 1, ChannelKind::InfiniBand);
        let mut sim = Sim::new(w);
        let costs = NicCosts::of(&sim.world.gpus_ref().topo);
        let err = execute_program(&mut sim, 0, 9, (2, 64), &costs, |_| {}).unwrap_err();
        assert_eq!(err, NetError::NoChannel { from: 0, to: 9 });
    }
}
