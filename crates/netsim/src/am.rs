//! Active Messages.
//!
//! The paper implements its pipelined protocol with BTL-level Active
//! Messages: every message header carries the reference of a callback
//! handler invoked on the receiver when the message arrives, so sender
//! and receiver stay dissociated and synchronize only when the protocol
//! needs it. In the simulation the "callback reference" is a Rust
//! closure delivered with the message.

use crate::channel::{Link, NetError};
use crate::world::NetWorld;
use faultsim::FaultOp;
use gpusim::fault;
use simcore::trace::names;
use simcore::{Sim, SimTime, Track};

/// Fixed header size of an active message (matches the BTL fragment
/// header: callback reference + fragment index + tag).
pub(crate) const AM_HEADER_BYTES: u64 = 64;

/// The price of an active message of `payload_bytes` on an idle
/// control link: what [`send_am`] charges when nothing queues ahead.
pub fn am_time(ctrl: &Link, payload_bytes: u64) -> SimTime {
    ctrl.time(AM_HEADER_BYTES + payload_bytes)
}

/// Send an active message of `payload_bytes` (plus header) from rank
/// `from` to rank `to` on the control link; `deliver` runs on arrival.
///
/// Errors if no channel connects the pair. Fault charge point
/// (`FaultOp::AmDeliver`), issued through [`fault::charge`]: a transient
/// injection drops the message on the wire and the transport
/// retransmits it after a capped exponential backoff, so `deliver`
/// still runs exactly once — modeling a reliable transport over a lossy
/// wire. Degradation windows scale the wire time.
pub fn send_am<W: NetWorld>(
    sim: &mut Sim<W>,
    from: usize,
    to: usize,
    payload_bytes: u64,
    deliver: impl FnOnce(&mut Sim<W>) + 'static,
) -> Result<(), NetError> {
    sim.world.net().try_channel(from, to)?;
    let price = move |_: &Sim<W>| AM_HEADER_BYTES + payload_bytes;
    let reserve = move |sim: &mut Sim<W>, wire_bytes| {
        let now = sim.now();
        // Existence was checked above; mid-retransmit the channel is an
        // invariant.
        let ctrl = &mut sim.world.net().channel_mut(from, to).ctrl;
        let arrive = ctrl.reserve(now, wire_bytes);
        let track = Track::LinkCtrl {
            from: from as u32,
            to: to as u32,
        };
        sim.trace
            .span_at(now, arrive, names::CAT_NETSIM, names::SPAN_AM, track);
        arrive
    };
    let landed = move |sim: &mut Sim<W>| {
        let (a, b) = (from as u32, to as u32);
        sim.trace.count(names::NETSIM_AM_COUNT, a, b, 1);
        sim.trace
            .count(names::NETSIM_AM_PAYLOAD_BYTES, a, b, payload_bytes);
        deliver(sim);
    };
    fault::charge(sim, FaultOp::AmDeliver, price, reserve, landed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelKind;
    use crate::world::ClusterWorld;
    use simcore::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn world() -> Sim<ClusterWorld> {
        let mut w = ClusterWorld::new(2);
        w.net_system.connect(0, 1, ChannelKind::SharedMemory);
        Sim::new(w)
    }

    #[test]
    fn am_delivers_after_latency() {
        let mut sim = world();
        let hit = Rc::new(RefCell::new(None));
        let h = Rc::clone(&hit);
        send_am(&mut sim, 0, 1, 0, move |sim| {
            *h.borrow_mut() = Some(sim.now());
        })
        .unwrap();
        sim.run();
        let t = hit.borrow().expect("delivered");
        // 64 B over 8 GB/s (8 ns) + 400 ns latency.
        assert_eq!(t, SimTime::from_nanos(408));
    }

    #[test]
    fn messages_on_one_link_serialize() {
        let mut sim = world();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let o = Rc::clone(&order);
            send_am(&mut sim, 0, 1, 8_000, move |sim| {
                o.borrow_mut().push((i, sim.now().as_nanos()));
            })
            .unwrap();
        }
        sim.run();
        let o = order.borrow();
        assert_eq!(o.len(), 3);
        assert!(o[0].1 < o[1].1 && o[1].1 < o[2].1);
        assert_eq!(o[0].0, 0);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut sim = world();
        let times = Rc::new(RefCell::new(Vec::new()));
        for (f, t) in [(0usize, 1usize), (1, 0)] {
            let ts = Rc::clone(&times);
            send_am(&mut sim, f, t, 80_000, move |sim| {
                ts.borrow_mut().push(sim.now());
            })
            .unwrap();
        }
        sim.run();
        let ts = times.borrow();
        // Both should arrive at the same time (separate directions).
        assert_eq!(ts[0], ts[1]);
    }

    #[test]
    fn unconnected_pair_is_a_typed_error() {
        let mut sim = world();
        let err = send_am(&mut sim, 0, 9, 0, |_| {}).unwrap_err();
        assert_eq!(err, NetError::NoChannel { from: 0, to: 9 });
        assert!(!sim.step(), "nothing was scheduled");
    }

    #[test]
    fn transient_loss_retransmits_and_delivers_once() {
        use faultsim::{FaultKind, FaultPlan, FaultSim};
        let mut sim = world();
        // Drop the first two transmissions, then let it through.
        let plan = FaultPlan::empty().with_seed(7).with_rule(
            Some(FaultOp::AmDeliver),
            FaultKind::Transient,
            1.0,
        );
        let mut plan = plan;
        plan.rules[0].max_injections = Some(2);
        sim.world.faults = FaultSim::from_plan(plan);
        let hits = Rc::new(RefCell::new(0u32));
        let h = Rc::clone(&hits);
        send_am(&mut sim, 0, 1, 0, move |_| *h.borrow_mut() += 1).unwrap();
        let end = sim.run();
        assert_eq!(*hits.borrow(), 1, "delivered exactly once");
        // Three wire trips plus two backoff delays.
        assert!(end > SimTime::from_nanos(3 * 408));
    }
}
