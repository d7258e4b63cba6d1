//! Charge-point glue between the simulators and `faultsim`.
//!
//! Every layer that models a fallible operation calls [`fault_roll`]
//! right where it reserves the resource; injections are metered on the
//! shared `fault.injected` counter (dimension `a` = [`FaultOp::index`]),
//! retries on `retry.attempts`. With no fault plan loaded all of these
//! helpers are constant-time no-ops — no RNG draws, no counters — so
//! fault-free runs stay byte-identical to builds without the subsystem.

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
pub fn fault_scaled<W: GpuWorld>(sim: &mut Sim<W>, op: FaultOp, duration: SimTime) -> SimTime {
    let now = sim.now();
    let factor = sim.world.faults().slowdown(op, now);
    if factor == 1.0 {
        duration
    } else {
        SimTime::from_secs_f64(duration.as_secs_f64() * factor)
    }
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
