//! Charge-point glue between the simulators and `faultsim`, and the
//! virtual-time resource every charge lands on.
//!
//! Every fallible operation — a kernel launch, a copy, an active
//! message, a staged wire hop, a registration — is issued through
//! [`charge`], the one retry driver: it prices each attempt, passes the
//! price through the plan's degradation windows, reserves the resource,
//! rolls the fault and, on a transient verdict, backs off and re-issues.
//! Injections are metered on the shared `fault.injected` counter
//! (dimension `a` = [`FaultOp::index`]), retries on `retry.attempts`.
//! With no fault plan loaded all of this is a constant-time no-op — no
//! RNG draws, no counters — so fault-free runs stay byte-identical to
//! builds without the subsystem.
//!
//! Fault coverage is a type: [`FifoResource::reserve`] takes a
//! [`Rolled`] charge, and only this module mints one — by consulting
//! the plan's degradation windows ([`fault_scaled`], for a duration or a
//! link's bytes), or by a named one-time [`Rolled::setup`] charge that
//! skips the plan on purpose.

use crate::system::GpuWorld;
use faultsim::{counters, Backoff, FaultDecision, FaultOp};
use simcore::{Sim, SimTime};

/// Give up after this many consecutive transient failures of one
/// operation. At the fault rates `chaos_soak` sweeps (≤ 50%) the odds of
/// hitting this are astronomically small; reaching it means the plan
/// made the op fail deterministically and no retry loop can terminate.
const RETRY_MAX: u32 = 64;

/// Default backoff schedule for simulator-internal retries: 2 µs
/// doubling up to 500 µs.
pub fn default_backoff() -> Backoff {
    Backoff::new(SimTime::from_micros(2), SimTime::from_micros(500))
}

/// A charge that the fault plan has seen: a duration (or, for a link,
/// a byte count) that [`fault_scaled`] passed through the open
/// degradation windows, or a named [`Rolled::setup`] charge. Its field
/// is private to this module, so a charge cannot be built any other way:
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

/// A charge quantity the degradation windows stretch: a duration, or
/// the bytes a link carries at its own rate.
pub trait Quantity: Copy + 'static {
    /// This quantity stretched by `factor` (> 1).
    fn stretched(self, factor: f64) -> Self;
}

impl Quantity for SimTime {
    fn stretched(self, factor: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Quantity for u64 {
    fn stretched(self, factor: f64) -> u64 {
        (self as f64 * factor) as u64
    }
}

/// Scale a charge — a duration, or a link's bytes — by the open
/// degradation windows for `op`.
pub fn fault_scaled<W: GpuWorld, Q: Quantity>(
    sim: &mut Sim<W>,
    op: FaultOp,
    charge: Q,
) -> Rolled<Q> {
    let now = sim.now();
    let factor = sim.world.faults().slowdown(op, now);
    let charge = if factor == 1.0 {
        charge
    } else {
        charge.stretched(factor)
    };
    Rolled { charge }
}

/// Issue one fallible operation of kind `op`: the one retry driver.
///
/// Every attempt runs the same sequence, in this order: `price` the
/// attempt, pass the price through the open degradation windows,
/// `reserve` the rolled charge on its resource (recording the span; it
/// returns the landing instant), then roll `op`. At the landing instant
/// a clean attempt runs `landed`; a transient verdict meters a retry,
/// waits the next backoff and re-issues the attempt from the top; a lost
/// op, or `RETRY_MAX` (64) transients in a row, ends the run with a
/// panic — these ops have no fallback path. Returns
/// the first attempt's landing instant.
pub fn charge<W, Q, P, R, L>(
    sim: &mut Sim<W>,
    op: FaultOp,
    price: P,
    reserve: R,
    landed: L,
) -> SimTime
where
    W: GpuWorld,
    Q: Quantity,
    P: Fn(&Sim<W>) -> Q + 'static,
    R: Fn(&mut Sim<W>, Rolled<Q>) -> SimTime + 'static,
    L: FnOnce(&mut Sim<W>) + 'static,
{
    attempt(sim, op, price, reserve, default_backoff(), landed)
}

fn attempt<W, Q, P, R, L>(
    sim: &mut Sim<W>,
    op: FaultOp,
    price: P,
    reserve: R,
    mut backoff: Backoff,
    landed: L,
) -> SimTime
where
    W: GpuWorld,
    Q: Quantity,
    P: Fn(&Sim<W>) -> Q + 'static,
    R: Fn(&mut Sim<W>, Rolled<Q>) -> SimTime + 'static,
    L: FnOnce(&mut Sim<W>) + 'static,
{
    let quantity = price(sim);
    let rolled = fault_scaled(sim, op, quantity);
    let end = reserve(sim, rolled);
    let verdict = fault_roll(sim, op);
    sim.schedule_at(end, move |sim| {
        if !verdict.is_fault() {
            return landed(sim);
        }
        if verdict == FaultDecision::Lost || backoff.attempts() >= RETRY_MAX {
            retries_exhausted(op, backoff.attempts());
        }
        count_retry(sim, op);
        sim.schedule_in(backoff.next_delay(), move |sim| {
            attempt(sim, op, price, reserve, backoff, landed);
        });
    });
    end
}

/// Panic for a retry loop that cannot make progress: [`charge`]'s ops
/// have no fallback path (the CPU convertor is itself the fallback of
/// last resort). Ops with a fallback (IPC open, pinned registration)
/// surface a typed error instead.
#[expect(
    clippy::panic,
    reason = "the fault plan makes an op with no fallback path fail deterministically; \
              there is no run to continue"
)]
fn retries_exhausted(op: FaultOp, attempts: u32) -> ! {
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

    /// Number of operations that have reserved this resource.
    pub fn op_count(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
impl FifoResource {
    /// When the resource next becomes free.
    pub(crate) fn free_at(&self) -> SimTime {
        self.busy_until
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
        let bytes = fault_scaled(&mut sim, FaultOp::WireCopy, 4_096u64);
        assert_eq!(bytes.charge, 4_096, "an empty plan scales nothing");
        assert!(sim.trace.counters().is_empty(), "and records nothing");
    }
}
