//! FIFO "busy-until" resources.
//!
//! A CUDA stream, a copy engine, a NIC send queue and a PCIe link all
//! share the same first-order behaviour: operations submitted to them
//! execute one after another, each occupying the resource for a modeled
//! duration. `FifoResource` captures exactly that: it remembers when it
//! becomes free, and `reserve` returns the (start, end) window for the
//! next operation.

use crate::time::SimTime;

/// A serially-occupied resource on the virtual timeline.
#[derive(Clone, Debug, Default)]
pub struct FifoResource {
    busy_until: SimTime,
    total_busy: SimTime,
    ops: u64,
}

impl FifoResource {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `duration`, starting no earlier than
    /// `now`. Returns the `(start, completion)` window.
    pub fn reserve(&mut self, now: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.total_busy += duration;
        self.ops += 1;
        (start, end)
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Is the resource idle at `now`?
    pub fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Cumulative busy time across all reservations (for utilization
    /// reporting in the benchmark harnesses).
    pub fn total_busy(&self) -> SimTime {
        self.total_busy
    }

    /// Number of operations that have reserved this resource.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Utilization in `[0, 1]` over the window `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.total_busy.as_secs_f64() / now.as_secs_f64()).min(1.0)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the charge primitive's own tests"
)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_ops_queue() {
        let mut r = FifoResource::new();
        let (s1, e1) = r.reserve(SimTime::from_nanos(0), SimTime::from_nanos(100));
        assert_eq!((s1.as_nanos(), e1.as_nanos()), (0, 100));
        // Submitted while busy: starts when the first finishes.
        let (s2, e2) = r.reserve(SimTime::from_nanos(10), SimTime::from_nanos(50));
        assert_eq!((s2.as_nanos(), e2.as_nanos()), (100, 150));
    }

    #[test]
    fn idle_gap_starts_immediately() {
        let mut r = FifoResource::new();
        r.reserve(SimTime::ZERO, SimTime::from_nanos(10));
        let (s, e) = r.reserve(SimTime::from_nanos(500), SimTime::from_nanos(10));
        assert_eq!((s.as_nanos(), e.as_nanos()), (500, 510));
        assert!(r.idle_at(SimTime::from_nanos(511)));
        assert!(!r.idle_at(SimTime::from_nanos(505)));
    }

    #[test]
    fn accounting() {
        let mut r = FifoResource::new();
        r.reserve(SimTime::ZERO, SimTime::from_nanos(30));
        r.reserve(SimTime::ZERO, SimTime::from_nanos(70));
        assert_eq!(r.total_busy().as_nanos(), 100);
        assert_eq!(r.op_count(), 2);
        assert!((r.utilization(SimTime::from_nanos(200)) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }
}
