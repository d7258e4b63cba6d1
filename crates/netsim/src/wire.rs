//! The staged-wire charge point: fragment hops over a data link (the
//! copy-in/copy-out pipeline's middle stage).
//!
//! Every hop is one [`fault::charge`]: the link carries the
//! [`gpusim::Rolled`] bytes of the degradation windows, and the hop's
//! `WireCopy` roll follows the reservation.

use crate::channel::NetError;
use crate::world::NetWorld;
use faultsim::FaultOp;
use gpusim::fault;
use simcore::{Sim, SimTime};

/// Charge a `bytes`-sized fragment hop on the data link `from -> to`
/// and run `deliver` when it lands.
///
/// Returns the arrival time of the first attempt so the caller can
/// record its own span over `[now, arrive]` (the caller owns the
/// protocol-level trace vocabulary). Errors if no channel connects the
/// pair; nothing is scheduled in that case.
///
/// Fault charge point (`FaultOp::WireCopy`), issued through
/// [`fault::charge`]: a transient injection drops the fragment on the
/// wire and it is retransmitted after a capped exponential backoff, so
/// `deliver` still runs exactly once. Degradation windows scale the wire
/// time.
pub fn wire_send<W: NetWorld>(
    sim: &mut Sim<W>,
    from: usize,
    to: usize,
    bytes: u64,
    deliver: impl FnOnce(&mut Sim<W>) + 'static,
) -> Result<SimTime, NetError> {
    sim.world.net().try_channel(from, to)?;
    let price = move |_: &Sim<W>| bytes;
    let reserve = move |sim: &mut Sim<W>, wire_bytes| {
        let now = sim.now();
        // Existence was checked above; mid-retransmit the channel is an
        // invariant.
        let data = &mut sim.world.net().channel_mut(from, to).data;
        data.reserve(now, wire_bytes)
    };
    let op = FaultOp::WireCopy;
    Ok(fault::charge(sim, op, price, reserve, deliver))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelKind;
    use crate::world::ClusterWorld;
    use faultsim::{FaultKind, FaultPlan, FaultSim};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn world() -> Sim<ClusterWorld> {
        let mut w = ClusterWorld::new(2);
        w.net_system.connect(0, 1, ChannelKind::InfiniBand);
        Sim::new(w)
    }

    #[test]
    fn delivers_at_the_reserved_time() {
        let mut sim = world();
        let hit = Rc::new(RefCell::new(None));
        let h = Rc::clone(&hit);
        let arrive = wire_send(&mut sim, 0, 1, 6_000, move |sim| {
            *h.borrow_mut() = Some(sim.now());
        })
        .unwrap();
        sim.run();
        assert_eq!(hit.borrow().expect("delivered"), arrive);
    }

    #[test]
    fn hop_runs_at_the_link_rate() {
        let mut sim = world();
        let len = 6_000_000u64; // 1 ms at 6 GB/s
        let arrive = wire_send(&mut sim, 0, 1, len, |_| {}).unwrap();
        let rate = len as f64 / arrive.as_secs_f64() / 1e9;
        assert!((5.5..=6.0).contains(&rate), "IB rate {rate} GB/s");
    }

    #[test]
    fn unconnected_pair_is_a_typed_error() {
        let mut sim = world();
        let err = wire_send(&mut sim, 0, 9, 64, |_| {}).unwrap_err();
        assert_eq!(err, NetError::NoChannel { from: 0, to: 9 });
        assert!(!sim.step(), "nothing was scheduled");
    }

    #[test]
    fn transient_loss_retransmits_and_delivers_once() {
        let mut sim = world();
        let mut plan = FaultPlan::empty().with_seed(11).with_rule(
            Some(FaultOp::WireCopy),
            FaultKind::Transient,
            1.0,
        );
        plan.rules[0].max_injections = Some(2);
        sim.world.faults = FaultSim::from_plan(plan);
        let hits = Rc::new(RefCell::new(0u32));
        let h = Rc::clone(&hits);
        let first = wire_send(&mut sim, 0, 1, 6_000, move |_| *h.borrow_mut() += 1).unwrap();
        let end = sim.run();
        assert_eq!(*hits.borrow(), 1, "delivered exactly once");
        assert!(end > first, "retransmissions took extra wire time");
    }
}
