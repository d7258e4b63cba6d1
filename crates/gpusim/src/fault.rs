//! Charge-point glue between the simulators and `faultsim`, and the
//! virtual-time resource every charge lands on.
//!
//! Every layer that models a fallible operation calls [`fault_roll`]
//! right where it reserves the resource; injections are metered on the
//! shared `fault.injected` counter (dimension `a` = [`FaultOp::index`]),
//! retries on `retry.attempts`. With no fault plan loaded all of these
//! helpers are constant-time no-ops — no RNG draws, no counters — so
//! fault-free runs stay byte-identical to builds without the subsystem.
//!
//! Fault coverage is a type: [`FifoResource::reserve`] takes a
//! [`Rolled`] charge, and only this module mints one — by consulting
//! the plan's degradation windows ([`fault_scaled`] for durations,
//! [`fault_scaled_bytes`] for link bytes), or by a named one-time
//! [`Rolled::setup`] charge that skips the plan on purpose.

use crate::system::GpuWorld;
use faultsim::{counters, Backoff, FaultDecision, FaultOp};
use simcore::{Sim, SimTime};

/// Give up after this many consecutive transient failures of one
/// operation. At the fault rates `chaos_soak` sweeps (≤ 50%) the odds of
/// hitting this are astronomically small; reaching it means the plan
/// made the op fail deterministically and no retry loop can terminate.
pub const RETRY_MAX: u32 = 64;

/// Default backoff schedule for simulator-internal retries: 2 µs
/// doubling up to 500 µs.
pub fn default_backoff() -> Backoff {
    Backoff::new(SimTime::from_micros(2), SimTime::from_micros(500))
}

/// A charge that the fault plan has seen: a duration (or, for a link,
/// a byte count) that [`fault_scaled`] / [`fault_scaled_bytes`] passed
/// through the open degradation windows, or a named [`Rolled::setup`]
/// charge. Its field is private to this module, so a charge cannot be
/// built any other way:
///
/// ```compile_fail,E0451
/// let d = gpusim::Rolled { charge: simcore::SimTime::ZERO };
/// ```
#[derive(Debug)]
#[must_use = "a rolled charge is spent by reserving it"]
pub struct Rolled<Q = SimTime> {
    charge: Q,
}

impl Rolled {
    /// A one-time set-up charge (a plan compile, a graph capture) that
    /// skips the fault plan on purpose: injecting there would fail runs
    /// during warm-up, before any path is chosen, and the steady-state
    /// charges it feeds are all rolled. `reason` names why at the site.
    pub fn setup(charge: SimTime, reason: &'static str) -> Rolled {
        let _ = reason;
        Rolled { charge }
    }
}

impl<Q> Rolled<Q> {
    /// Convert the rolled quantity, e.g. a link's scaled bytes into its
    /// wire time, or a retried pass into the total it occupies.
    pub fn map<R>(self, f: impl FnOnce(Q) -> R) -> Rolled<R> {
        Rolled {
            charge: f(self.charge),
        }
    }
}

/// Roll the world's fault plan for one attempt of `op`, metering any
/// injection.
pub fn fault_roll<W: GpuWorld>(sim: &mut Sim<W>, op: FaultOp) -> FaultDecision {
    let now = sim.now();
    let verdict = sim.world.faults().roll(op, now);
    if verdict.is_fault() {
        sim.trace
            .count(counters::FAULT_INJECTED, op.index() as u32, 0, 1);
    }
    verdict
}

/// Meter one retry provoked by a transient fault on `op`.
pub fn count_retry<W: GpuWorld>(sim: &mut Sim<W>, op: FaultOp) {
    sim.trace
        .count(counters::RETRY_ATTEMPTS, op.index() as u32, 0, 1);
}

/// Scale a charge duration by the open degradation windows for `op`.
pub fn fault_scaled<W: GpuWorld>(sim: &mut Sim<W>, op: FaultOp, duration: SimTime) -> Rolled {
    let now = sim.now();
    let factor = sim.world.faults().slowdown(op, now);
    let charge = if factor == 1.0 {
        duration
    } else {
        SimTime::from_secs_f64(duration.as_secs_f64() * factor)
    };
    Rolled { charge }
}

/// Scale a link charge's bytes by the open degradation windows for
/// `op`: a degraded link carries more bytes, at its own rate.
pub fn fault_scaled_bytes<W: GpuWorld>(sim: &mut Sim<W>, op: FaultOp, bytes: u64) -> Rolled<u64> {
    let now = sim.now();
    let factor = sim.world.faults().slowdown(op, now);
    let charge = if factor == 1.0 {
        bytes
    } else {
        (bytes as f64 * factor) as u64
    };
    Rolled { charge }
}

/// Panic for retry loops that cannot make progress. The simulators use
/// this for ops with no fallback path (copies, kernels, wire transfers);
/// ops with a fallback (IPC open, pinned registration) surface a typed
/// error instead.
#[expect(
    clippy::panic,
    reason = "the fault plan makes an op with no fallback path fail deterministically; \
              there is no run to continue"
)]
pub fn retries_exhausted(op: FaultOp, attempts: u32) -> ! {
    panic!(
        "{} failed {attempts} consecutive attempts (injected faults); \
         the fault plan makes this op fail deterministically and it has \
         no fallback path",
        op.name()
    )
}

/// A serially-occupied resource on the virtual timeline.
///
/// A CUDA stream, a rank's CPU and one direction of a link share the
/// same first-order behaviour: operations submitted to them execute one
/// after another, each occupying the resource for a modeled duration.
/// `FifoResource` remembers when it becomes free, and `reserve` returns
/// the (start, end) window for the next operation.
#[derive(Clone, Debug, Default)]
pub struct FifoResource {
    busy_until: SimTime,
    ops: u64,
}

impl FifoResource {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for a rolled charge, starting no earlier
    /// than `now`. Returns the `(start, completion)` window. A bare
    /// duration does not compile:
    ///
    /// ```compile_fail,E0308
    /// let mut r = gpusim::FifoResource::new();
    /// r.reserve(simcore::SimTime::ZERO, simcore::SimTime::from_nanos(5));
    /// ```
    pub fn reserve(&mut self, now: SimTime, duration: Rolled) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let end = start + duration.charge;
        self.busy_until = end;
        self.ops += 1;
        (start, end)
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Number of operations that have reserved this resource.
    pub fn op_count(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::NodeWorld;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn setup(n: u64) -> Rolled {
        Rolled::setup(ns(n), "the resource's own tests")
    }

    #[test]
    fn back_to_back_ops_queue() {
        let mut r = FifoResource::new();
        let (s1, e1) = r.reserve(ns(0), setup(100));
        assert_eq!((s1.as_nanos(), e1.as_nanos()), (0, 100));
        // Submitted while busy: starts when the first finishes.
        let (s2, e2) = r.reserve(ns(10), setup(50));
        assert_eq!((s2.as_nanos(), e2.as_nanos()), (100, 150));
        assert_eq!(r.op_count(), 2);
    }

    #[test]
    fn idle_gap_starts_immediately() {
        let mut r = FifoResource::new();
        r.reserve(SimTime::ZERO, setup(10));
        let (s, e) = r.reserve(ns(500), setup(10));
        assert_eq!((s.as_nanos(), e.as_nanos()), (500, 510));
        assert_eq!(r.free_at(), ns(510));
    }

    #[test]
    fn empty_plan_mint_reserves_the_setup_window() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let (mut a, mut b) = (FifoResource::new(), FifoResource::new());
        for now in [ns(0), ns(100), ns(5_000)] {
            let rolled = fault_scaled(&mut sim, FaultOp::Memcpy, ns(1_234));
            assert_eq!(a.reserve(now, rolled), b.reserve(now, setup(1_234)));
        }
        let bytes = fault_scaled_bytes(&mut sim, FaultOp::WireCopy, 4_096);
        assert_eq!(bytes.charge, 4_096, "an empty plan scales nothing");
        assert!(sim.trace.counters().is_empty(), "and records nothing");
    }
}
