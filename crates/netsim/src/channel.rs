//! Links and channels between process pairs.

use gpusim::{FifoResource, Rolled};
use simcore::{Bandwidth, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Typed network errors, surfaced to the protocol layer instead of the
/// historical panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// No channel exists between the two ranks (never connected, or the
    /// pair was disconnected mid-run).
    NoChannel { from: usize, to: usize },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoChannel { from, to } => write!(f, "no channel {from} -> {to}"),
        }
    }
}

impl std::error::Error for NetError {}

/// One direction of a physical link: bandwidth, latency and FIFO
/// occupancy on the virtual timeline.
#[derive(Clone, Debug)]
pub struct Link {
    pub bandwidth: Bandwidth,
    pub latency: SimTime,
    pub resource: FifoResource,
}

impl Link {
    pub fn new(bandwidth: Bandwidth, latency: SimTime) -> Link {
        Link {
            bandwidth,
            latency,
            resource: FifoResource::new(),
        }
    }

    /// Serialization time of `bytes` on the wire (excluding latency).
    pub(crate) fn wire_time(&self, bytes: u64) -> SimTime {
        self.bandwidth.time_for(bytes)
    }

    /// The price of a `bytes`-sized message on an idle link: from
    /// submission to delivery, wire occupancy plus one-way latency —
    /// what [`Self::reserve`] charges when nothing queues ahead.
    pub fn time(&self, bytes: u64) -> SimTime {
        self.wire_time(bytes) + self.latency
    }

    /// Reserve the link for a `bytes`-sized message submitted at `now`;
    /// returns the delivery completion time (wire occupancy + one-way
    /// latency). The bytes come from [`gpusim::fault_scaled`].
    pub fn reserve(&mut self, now: SimTime, bytes: Rolled<u64>) -> SimTime {
        let wire = bytes.map(|b| self.wire_time(b));
        let (_start, end) = self.resource.reserve(now, wire);
        end + self.latency
    }
}

/// The transport between a pair of ranks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChannelKind {
    /// Same-node: CMA/KNEM-style queues for control, CUDA IPC for data.
    SharedMemory,
    /// FDR InfiniBand between nodes.
    InfiniBand,
}

/// One direction of a rank-pair connection.
#[derive(Clone, Debug)]
pub struct Channel {
    pub kind: ChannelKind,
    /// Control-message link (headers, acks, handshakes).
    pub ctrl: Link,
    /// Bulk-data link (staged fragment hops). Unused for shared-memory
    /// GPU data, which moves over PCIe via `gpusim`.
    pub data: Link,
}

impl Channel {
    pub fn new(kind: ChannelKind) -> Channel {
        match kind {
            ChannelKind::SharedMemory => Channel {
                kind,
                ctrl: Link::new(Bandwidth::from_gbps(8.0), SimTime::from_nanos(400)),
                data: Link::new(Bandwidth::from_gbps(8.0), SimTime::from_nanos(400)),
            },
            ChannelKind::InfiniBand => Channel {
                kind,
                // FDR 4x: ~6.8 GB/s signalling, ~6 GB/s effective.
                ctrl: Link::new(Bandwidth::from_gbps(6.0), SimTime::from_nanos(1300)),
                data: Link::new(Bandwidth::from_gbps(6.0), SimTime::from_nanos(1300)),
            },
        }
    }
}

/// All connections of the simulated job, keyed by ordered rank pair.
#[derive(Default)]
pub struct NetSystem {
    channels: BTreeMap<(usize, usize), Channel>,
    /// One-time RDMA registration cost (HCA page pinning / IPC mapping).
    pub registration_cost: SimTime,
}

impl NetSystem {
    pub fn new() -> NetSystem {
        NetSystem {
            channels: BTreeMap::new(),
            registration_cost: SimTime::from_micros(50),
        }
    }

    /// Create both directions of a connection between `a` and `b`.
    pub fn connect(&mut self, a: usize, b: usize, kind: ChannelKind) {
        assert_ne!(a, b, "a rank cannot connect to itself");
        self.channels.insert((a, b), Channel::new(kind));
        self.channels.insert((b, a), Channel::new(kind));
    }

    /// Fallible lookup; protocol code uses this and converts the error
    /// into its own typed failure instead of crashing the run.
    pub(crate) fn try_channel(&self, from: usize, to: usize) -> Result<&Channel, NetError> {
        self.channels
            .get(&(from, to))
            .ok_or(NetError::NoChannel { from, to })
    }

    pub fn try_channel_mut(&mut self, from: usize, to: usize) -> Result<&mut Channel, NetError> {
        self.channels
            .get_mut(&(from, to))
            .ok_or(NetError::NoChannel { from, to })
    }

    /// Infallible lookup for call sites where the channel's existence is
    /// an established invariant (e.g. mid-transfer, after the rendezvous
    /// handshake already crossed it).
    #[expect(
        clippy::panic,
        reason = "the documented infallible lookup, used only after the handshake \
                  established the channel"
    )]
    pub fn channel(&self, from: usize, to: usize) -> &Channel {
        self.try_channel(from, to).unwrap_or_else(|e| panic!("{e}"))
    }

    #[expect(
        clippy::panic,
        reason = "the documented infallible lookup, used only after the handshake \
                  established the channel"
    )]
    pub(crate) fn channel_mut(&mut self, from: usize, to: usize) -> &mut Channel {
        self.try_channel_mut(from, to)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn kind(&self, from: usize, to: usize) -> ChannelKind {
        self.channel(from, to).kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_reserve_accumulates() {
        let mut sim = simcore::Sim::new(crate::world::ClusterWorld::new(2));
        let mut bytes = || gpusim::fault_scaled(&mut sim, faultsim::FaultOp::WireCopy, 10_000u64);
        let mut l = Link::new(Bandwidth::from_gbps(10.0), SimTime::from_micros(1));
        let d1 = l.reserve(SimTime::ZERO, bytes()); // 1 us wire + 1 us latency
        assert_eq!(d1.as_nanos(), 2_000);
        // Second message queues behind the first's wire time.
        let d2 = l.reserve(SimTime::ZERO, bytes());
        assert_eq!(d2.as_nanos(), 3_000);
    }

    #[test]
    fn connect_is_bidirectional() {
        let mut n = NetSystem::new();
        n.connect(0, 1, ChannelKind::InfiniBand);
        assert!(n.try_channel(0, 1).is_ok());
        assert!(n.try_channel(1, 0).is_ok());
        assert_eq!(n.kind(0, 1), ChannelKind::InfiniBand);
        assert!(n.try_channel(0, 2).is_err());
    }

    #[test]
    fn sm_is_lower_latency_than_ib() {
        let sm = Channel::new(ChannelKind::SharedMemory);
        let ib = Channel::new(ChannelKind::InfiniBand);
        assert!(sm.ctrl.latency < ib.ctrl.latency);
    }

    #[test]
    #[should_panic(expected = "cannot connect to itself")]
    fn self_connection_rejected() {
        NetSystem::new().connect(3, 3, ChannelKind::SharedMemory);
    }

    #[test]
    #[should_panic(expected = "no channel")]
    fn missing_channel_panics() {
        let n = NetSystem::new();
        let _ = n.channel(0, 1);
    }

    #[test]
    fn missing_channel_is_a_typed_error() {
        let mut n = NetSystem::new();
        assert_eq!(
            n.try_channel(0, 1).err(),
            Some(NetError::NoChannel { from: 0, to: 1 })
        );
        assert_eq!(
            n.try_channel_mut(2, 3).err(),
            Some(NetError::NoChannel { from: 2, to: 3 })
        );
        n.connect(0, 1, ChannelKind::SharedMemory);
        assert!(n.try_channel(0, 1).is_ok());
        assert!(n.try_channel_mut(1, 0).is_ok());
    }
}
