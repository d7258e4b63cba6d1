//! N-rank cluster topologies: the rank→node map and inter-node distance
//! model shared by the full-stack world builders
//! (`mpirt::world::MpiWorld`) and the message-level scale model
//! (`mpirt::scale`).
//!
//! The paper's testbeds were two-node; growing past that needs a story
//! for *which* ranks share a node and how far apart the nodes are.
//! Three classic shapes cover the scale experiments:
//!
//! * **Ring** — nodes in a cycle; hop count is ring distance. The
//!   worst-case diameter makes it the stress shape for neighbor
//!   exchanges.
//! * **Fat tree** — nodes under edge switches of `radix` nodes each,
//!   all edge switches one core layer apart: 1 hop under one switch,
//!   3 hops (edge–core–edge) otherwise. The classic full-bisection HPC
//!   fabric.
//! * **Dragonfly** — nodes in groups of `group_size`; 1 hop within a
//!   group, 3 hops (local–global–local) across groups. The
//!   low-diameter alternative.
//!
//! Latency composes as the base [`ChannelKind`] latency plus
//! [`HOP_NS`] per switch hop past the first; bandwidth stays the
//! channel's. Same-node pairs are [`ChannelKind::SharedMemory`]
//! regardless of topology.

use crate::channel::ChannelKind;
use simcore::rate::Bandwidth;
use simcore::time::SimTime;

/// Per-switch-hop latency beyond the channel's base (cut-through
/// switching, a port traversal each).
pub const HOP_NS: u64 = 100;

/// How ranks map to nodes and nodes to a fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Nodes in a cycle; inter-node hops = ring distance.
    Ring { ranks_per_node: u32 },
    /// Two-level fat tree: `radix` nodes per edge switch, one core
    /// layer. 1 hop under a shared edge switch, 3 hops across.
    FatTree { ranks_per_node: u32, radix: u32 },
    /// Groups of `group_size` nodes, all-to-all global links: 1 hop in
    /// group, 3 hops across.
    Dragonfly {
        ranks_per_node: u32,
        group_size: u32,
    },
}

impl Topology {
    /// The paper's two-rank, one-node shape scaled up: two ranks per
    /// node on a ring fabric.
    pub fn default_for(ranks: u32) -> Topology {
        let _ = ranks;
        Topology::Ring { ranks_per_node: 2 }
    }

    pub fn ranks_per_node(&self) -> u32 {
        match *self {
            Topology::Ring { ranks_per_node }
            | Topology::FatTree { ranks_per_node, .. }
            | Topology::Dragonfly { ranks_per_node, .. } => ranks_per_node.max(1),
        }
    }

    /// Node housing `rank`.
    pub fn node_of(&self, rank: u32) -> u32 {
        rank / self.ranks_per_node()
    }

    /// Total nodes for a job of `ranks` ranks.
    pub fn nodes(&self, ranks: u32) -> u32 {
        ranks.div_ceil(self.ranks_per_node())
    }

    /// Transport between two ranks: shared memory on one node, IB
    /// across nodes.
    pub fn kind(&self, a: u32, b: u32) -> ChannelKind {
        if self.node_of(a) == self.node_of(b) {
            ChannelKind::SharedMemory
        } else {
            ChannelKind::InfiniBand
        }
    }

    /// Switch hops between two *nodes* of a job with `nodes` total
    /// nodes (0 for the same node).
    pub fn hops(&self, nodes: u32, na: u32, nb: u32) -> u32 {
        if na == nb {
            return 0;
        }
        match *self {
            Topology::Ring { .. } => {
                let d = na.abs_diff(nb);
                d.min(nodes - d)
            }
            Topology::FatTree { radix, .. } => {
                let r = radix.max(2);
                if na / r == nb / r {
                    1
                } else {
                    3
                }
            }
            Topology::Dragonfly { group_size, .. } => {
                let g = group_size.max(2);
                if na / g == nb / g {
                    1
                } else {
                    3
                }
            }
        }
    }

    /// One-way message latency between ranks `a` and `b` for a job of
    /// `ranks` ranks: the channel-kind base plus [`HOP_NS`] per hop
    /// past the first.
    pub fn latency(&self, ranks: u32, a: u32, b: u32) -> SimTime {
        let kind = self.kind(a, b);
        let base = base_latency(kind);
        let hops = self.hops(self.nodes(ranks), self.node_of(a), self.node_of(b));
        SimTime::from_nanos(base.as_nanos() + HOP_NS * hops.saturating_sub(1) as u64)
    }

    /// Link bandwidth between ranks `a` and `b`.
    pub fn bandwidth(&self, a: u32, b: u32) -> Bandwidth {
        match self.kind(a, b) {
            ChannelKind::SharedMemory => Bandwidth::from_gbps(8.0),
            ChannelKind::InfiniBand => Bandwidth::from_gbps(6.0),
        }
    }

    /// Parse a `--topo` style spec: `ring[:rpn]`, `fattree[:rpn[:radix]]`,
    /// `dragonfly[:rpn[:group]]`.
    pub fn parse(spec: &str) -> Result<Topology, String> {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("");
        let num = |p: Option<&str>, default: u32| -> Result<u32, String> {
            match p {
                None | Some("") => Ok(default),
                Some(s) => s.parse::<u32>().map_err(|_| format!("bad number {s:?}")),
            }
        };
        let rpn = num(parts.next(), 2)?;
        match name {
            "ring" => Ok(Topology::Ring {
                ranks_per_node: rpn,
            }),
            "fattree" => Ok(Topology::FatTree {
                ranks_per_node: rpn,
                radix: num(parts.next(), 16)?,
            }),
            "dragonfly" => Ok(Topology::Dragonfly {
                ranks_per_node: rpn,
                group_size: num(parts.next(), 8)?,
            }),
            other => Err(format!(
                "unknown topology {other:?} (want ring|fattree|dragonfly)"
            )),
        }
    }
}

/// Base one-way latency of a channel kind (mirrors
/// [`crate::channel::Channel::new`]).
pub(crate) fn base_latency(kind: ChannelKind) -> SimTime {
    match kind {
        ChannelKind::SharedMemory => SimTime::from_nanos(400),
        ChannelKind::InfiniBand => SimTime::from_nanos(1300),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_node_is_shared_memory() {
        let t = Topology::Ring { ranks_per_node: 4 };
        assert_eq!(t.kind(0, 3), ChannelKind::SharedMemory);
        assert_eq!(t.kind(3, 4), ChannelKind::InfiniBand);
        assert_eq!(t.node_of(7), 1);
    }

    #[test]
    fn ring_hops_wrap() {
        let t = Topology::Ring { ranks_per_node: 1 };
        assert_eq!(t.hops(8, 0, 1), 1);
        assert_eq!(t.hops(8, 0, 7), 1, "ring wraps");
        assert_eq!(t.hops(8, 0, 4), 4);
    }

    #[test]
    fn fat_tree_and_dragonfly_hop_tiers() {
        let f = Topology::FatTree {
            ranks_per_node: 1,
            radix: 4,
        };
        assert_eq!(f.hops(16, 0, 3), 1, "same edge switch");
        assert_eq!(f.hops(16, 0, 4), 3, "through the core");
        let d = Topology::Dragonfly {
            ranks_per_node: 1,
            group_size: 4,
        };
        assert_eq!(d.hops(16, 1, 2), 1);
        assert_eq!(d.hops(16, 1, 9), 3);
    }

    #[test]
    fn latency_adds_hops_beyond_the_first() {
        let t = Topology::Ring { ranks_per_node: 1 };
        // Adjacent nodes: plain IB latency; 4 nodes apart: +3 hops.
        assert_eq!(t.latency(8, 0, 1).as_nanos(), 1300);
        assert_eq!(t.latency(8, 0, 4).as_nanos(), 1300 + 3 * HOP_NS);
        // Same node: SM latency, no hops.
        let t2 = Topology::Ring { ranks_per_node: 2 };
        assert_eq!(t2.latency(8, 0, 1).as_nanos(), 400);
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            Topology::parse("ring:4").unwrap(),
            Topology::Ring { ranks_per_node: 4 }
        );
        assert_eq!(
            Topology::parse("fattree:2:8").unwrap(),
            Topology::FatTree {
                ranks_per_node: 2,
                radix: 8
            }
        );
        assert_eq!(
            Topology::parse("dragonfly").unwrap(),
            Topology::Dragonfly {
                ranks_per_node: 2,
                group_size: 8
            }
        );
        assert!(Topology::parse("torus").is_err());
    }
}
