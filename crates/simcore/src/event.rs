//! The event queue and simulation driver.
//!
//! A `Sim<W>` owns a user-supplied world `W` (the memory pools, GPUs,
//! NICs and protocol state of the run) and a pending-event set. An event
//! is an `FnOnce(&mut Sim<W>)`: when it fires it may mutate the world
//! and schedule further events. Ties in firing time are broken by
//! insertion order, which makes runs bit-for-bit reproducible.
//!
//! # Scheduler layering (DESIGN.md §13)
//!
//! Two structures share one total order `(time, seq)`:
//!
//! * the **same-instant lane** — a FIFO for events scheduled at the
//!   *current* virtual instant (`schedule_now`, zero-delay
//!   `schedule_in`). The pipelined engine defers a callback per fragment
//!   this way; a `VecDeque` push/pop is far cheaper than any priority
//!   structure, and the lane always drains before time can advance;
//! * the **calendar queue** ([`crate::calq::CalendarQueue`], shared
//!   with the message loop in [`crate::msgsim`]) — future events bucketed by virtual-time
//!   epoch with a sorted active run and an adaptive overflow rung; the
//!   driver's tiebreak key is a globally monotonic sequence number, so
//!   ties in firing time break by insertion order.
//!
//! Event payloads live in **slots** (`Slab`): each closure is boxed
//! into a slot taken from a free list, and the queues carry only the
//! slot index. An event once scheduled fires; nothing cancels it. Why
//! the payload is boxed rather than stored in the slot: DESIGN.md §13.
//!
//! The old `BinaryHeap` scheduler this replaces is preserved as the
//! reference model in `simcore/tests/event_queue_prop.rs`, which drives
//! both through randomized schedule/run interleavings and requires
//! identical pop order.

use crate::calq::CalendarQueue;
use crate::time::SimTime;
use crate::trace::Tracer;
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// Event slots
// ---------------------------------------------------------------------

type Payload<W> = Box<dyn FnOnce(&mut Sim<W>)>;

/// A scheduled payload, or `None` on the free list.
struct Slot<W> {
    payload: Option<Payload<W>>,
    next_free: u32,
}

/// Slab of event slots with an intrusive free list.
struct Slab<W> {
    slots: Vec<Slot<W>>,
    free_head: u32,
}

const NO_SLOT: u32 = u32::MAX;

impl<W> Slab<W> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NO_SLOT,
        }
    }

    /// Store `f` and return its slot index. O(1): pops the free list or
    /// appends.
    fn alloc(&mut self, f: Payload<W>) -> u32 {
        match self.free_head {
            NO_SLOT => {
                assert!(self.slots.len() < NO_SLOT as usize, "event slots exhausted");
                self.slots.push(Slot {
                    payload: Some(f),
                    next_free: NO_SLOT,
                });
                (self.slots.len() - 1) as u32
            }
            head => {
                let slot = &mut self.slots[head as usize];
                debug_assert!(slot.payload.is_none());
                self.free_head = slot.next_free;
                slot.payload = Some(f);
                head
            }
        }
    }

    /// Free the slot and hand back the payload it held.
    fn free(&mut self, idx: u32) -> Payload<W> {
        let slot = &mut self.slots[idx as usize];
        slot.next_free = self.free_head;
        self.free_head = idx;
        slot.payload
            .take()
            .expect("a queued slot holds its payload")
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// The simulation driver: virtual clock + event queue + world state.
pub struct Sim<W> {
    now: SimTime,
    slab: Slab<W>,
    cal: CalendarQueue<u32>,
    /// Fast lane for events scheduled at the *current* instant
    /// (`schedule_now` and zero-delay `schedule_in`). The lane drains
    /// before virtual time can advance, so entries always fire at
    /// `now`, in FIFO = insertion order: only the slot index needs
    /// storing. No stored seq is needed for arbitration either — any
    /// calendar entry at time == `now` predates (hence outranks) every
    /// lane entry, and one at time > `now` never outranks them.
    lane: VecDeque<u32>,
    next_seq: u64,
    executed: u64,
    /// The simulated world. Public so event closures can reach it.
    pub world: W,
    /// Virtual-time trace recorder (spans, instants, byte counters).
    /// Public so models can record from inside event closures.
    pub trace: Tracer,
}

impl<W> Sim<W> {
    /// Create a simulation at t = 0 around `world`.
    pub fn new(world: W) -> Self {
        Sim {
            now: SimTime::ZERO,
            slab: Slab::new(),
            cal: CalendarQueue::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            executed: 0,
            world,
            trace: Tracer::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.cal.len() + self.lane.len()
    }

    /// Schedule `f` to run at absolute time `at`. Scheduling in the past
    /// is a logic error in the models and panics in debug builds; in
    /// release it clamps to `now` to keep long runs alive.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<W>) + 'static) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let slot = self.slab.alloc(Box::new(f));
        if at == self.now {
            // Same-instant events take the FIFO fast lane. The lane
            // drains before time advances (see `step`), so "at the
            // current instant" stays true for its whole lifetime.
            self.lane.push_back(slot);
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.cal.insert(at, seq, slot);
        }
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, f: impl FnOnce(&mut Sim<W>) + 'static) {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedule `f` to run "immediately" (at the current time, after all
    /// events already queued for this instant).
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut Sim<W>) + 'static) {
        self.schedule_at(self.now, f)
    }

    /// Consume the queue entry for `slot_idx` and run its payload. The
    /// slot is freed before the call, so the closure may freely schedule
    /// (and thereby grow or reuse the slots) while it runs.
    #[inline]
    fn fire(&mut self, slot_idx: u32) {
        let f = self.slab.free(slot_idx);
        self.executed += 1;
        f(self);
    }

    /// Execute a single event. Returns `false` when the queue is empty.
    ///
    /// The globally next event is picked across the calendar and the
    /// same-instant lane, preserving the exact (time, insertion-order)
    /// total order of the original heap implementation: a calendar
    /// entry at time == `now` predates every lane entry (the lane
    /// drains before time advances), so it fires first; one at a later
    /// time waits for the lane.
    pub fn step(&mut self) -> bool {
        if !self.lane.is_empty() {
            if self.lane_wins() {
                let slot = self.lane.pop_front().expect("lane checked non-empty");
                self.fire(slot);
            } else {
                // lane_wins is only false when a calendar head exists
                // (at `now`, inserted before the lane's entries).
                let (at, _, slot) = self.cal.pop_head();
                debug_assert!(at == self.now);
                self.fire(slot);
            }
        } else if self.cal.peek().is_some() {
            let (at, _, slot) = self.cal.pop_head();
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.fire(slot);
        } else {
            return false;
        }
        true
    }

    /// Fire every event currently in (or appended to) the same-instant
    /// lane. Safe without re-consulting the calendar: entries can only
    /// enter the calendar with `at` strictly greater than `now`, so
    /// nothing scheduled while the lane drains can outrank it.
    #[inline]
    fn drain_lane(&mut self) {
        while let Some(slot) = self.lane.pop_front() {
            self.fire(slot);
        }
    }

    /// True when the lane front outranks the calendar head (the lane
    /// may then drain completely, see `drain_lane`). A calendar entry
    /// at `now` was necessarily inserted before any current lane entry
    /// (the lane drains before time advances), so time alone decides.
    /// Leaves the calendar's head positioned, so `pop_head` is valid
    /// afterwards.
    #[inline]
    fn lane_wins(&mut self) -> bool {
        match self.cal.peek() {
            None => true,
            Some((hat, _)) => hat > self.now,
        }
    }

    /// Run until the queue drains. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        loop {
            if !self.lane.is_empty() {
                if self.lane_wins() {
                    self.drain_lane();
                    continue;
                }
            } else if self.cal.peek().is_none() {
                return self.now;
            }
            // Calendar turn: either the lane is empty or the calendar
            // head (same time, earlier insertion) outranks it.
            let (at, _, slot) = self.cal.pop_head();
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.fire(slot);
        }
    }

    /// Run until `predicate(&world)` holds or the queue drains. Returns
    /// `true` if the predicate was satisfied.
    pub fn run_until(&mut self, predicate: impl Fn(&W) -> bool) -> bool {
        loop {
            if predicate(&self.world) {
                return true;
            }
            if !self.step() {
                return predicate(&self.world);
            }
        }
    }

    /// Run with a hard virtual-time limit. Returns the final virtual
    /// time once the queue drains before the deadline; panics if the
    /// limit is hit (a stalled protocol in tests should fail loudly).
    pub fn run_with_deadline(&mut self, deadline: SimTime) -> SimTime {
        loop {
            let next = if self.lane.is_empty() {
                match self.cal.peek() {
                    Some((at, _)) => at,
                    None => return self.now,
                }
            } else {
                self.now
            };
            assert!(
                next <= deadline,
                "simulation exceeded deadline {deadline:?} (next event at {next:?}, {} executed)",
                self.executed
            );
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for (t, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |s| {
                log.borrow_mut().push((s.now().as_nanos(), tag));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![(10, 'a'), (20, 'b'), (30, 'c')]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for tag in ['x', 'y', 'z'] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(5), move |_| log.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!['x', 'y', 'z']);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(0u32);
        sim.schedule_at(SimTime::from_nanos(1), |s| {
            s.world += 1;
            s.schedule_in(SimTime::from_nanos(9), |s| s.world += 10);
        });
        let end = sim.run();
        assert_eq!(sim.world, 11);
        assert_eq!(end.as_nanos(), 10);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = Sim::new(0u32);
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_nanos(i), move |s| s.world += 1);
        }
        assert!(sim.run_until(|w| *w == 4));
        assert_eq!(sim.world, 4);
        assert_eq!(sim.now().as_nanos(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeded deadline")]
    fn deadline_panics_on_runaway() {
        let mut sim = Sim::new(());
        sim.schedule_at(SimTime::from_millis(10), |_| {});
        sim.run_with_deadline(SimTime::from_micros(1));
    }

    #[test]
    fn schedule_now_runs_after_current_event() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_nanos(5), |s| {
            s.world.push(1);
            s.schedule_now(|s| s.world.push(3));
            s.world.push(2);
        });
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.now().as_nanos(), 5);
    }

    #[test]
    fn deadline_returns_final_time_when_drained() {
        let mut sim = Sim::new(0u32);
        sim.schedule_at(SimTime::from_nanos(3), |s| s.world += 1);
        sim.schedule_at(SimTime::from_nanos(7), |s| {
            s.world += 1;
            s.schedule_now(|s| s.world += 1); // lane event at the deadline edge
        });
        let end = sim.run_with_deadline(SimTime::from_nanos(7));
        assert_eq!(end.as_nanos(), 7, "returns final virtual time, not a bool");
        assert_eq!(sim.world, 3);
        // Draining again without new events is a no-op at the same time.
        assert_eq!(sim.run_with_deadline(SimTime::from_nanos(7)), end);
    }

    #[test]
    fn lane_respects_calendar_insertion_order_at_same_instant() {
        // 'b' is calendar-scheduled for t=5 before 'a' fires; 'c' enters
        // the same-instant lane while 'a' runs. Global insertion order
        // at t=5 is a(0), b(1), c(2) — the lane must not let 'c' jump
        // 'b'.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(5), move |s| {
                log.borrow_mut().push('a');
                let log = Rc::clone(&log);
                s.schedule_now(move |_| log.borrow_mut().push('c'));
            });
        }
        {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(5), move |_| log.borrow_mut().push('b'));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn executed_counter() {
        let mut sim = Sim::new(());
        sim.schedule_now(|_| {});
        sim.schedule_now(|_| {});
        sim.run();
        assert_eq!(sim.executed_events(), 2);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn far_future_overflow_and_re_anchor() {
        // Mix of events inside the initial lap (32 ns × 1024 buckets ≈
        // 32 µs) and far beyond it, interleaved out of order: the
        // overflow rung must re-anchor — possibly several times — and
        // still fire in exact time order.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        let times: Vec<u64> = vec![
            5_000_000_000, // 5 s
            40,
            2_000_000, // 2 ms
            100_000,   // within first lap
            5_000_000_000 + 7,
            2_000_000 + 1,
            33_000, // just beyond a 32 µs lap
        ];
        for &t in &times {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        let mut expect = times.clone();
        expect.sort_unstable();
        assert_eq!(*log.borrow(), expect);
    }

    #[test]
    fn re_anchor_keeps_scheduling_live() {
        // After a wide re-anchor (second lap has coarse buckets), new
        // fine-grained events must still order correctly against the
        // coarse lap's entries.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for &t in &[10_000_000_000u64, 20_000_000_000] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |s| {
                log.borrow_mut().push(t);
                // Chain a short-delay event from deep inside the run.
                let log = Rc::clone(&log);
                s.schedule_in(SimTime::from_nanos(3), move |_| {
                    log.borrow_mut().push(t + 3);
                });
            });
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                10_000_000_000,
                10_000_000_003,
                20_000_000_000,
                20_000_000_003
            ]
        );
    }

    /// Capture size of the big test closures: well past anything the
    /// engine schedules, so payload handling is shown size-independent.
    const BIG_CAPTURE: usize = 512;

    #[test]
    fn closures_of_any_size_run_once_or_drop_unrun_with_the_sim() {
        // Capture-free, 16-byte and 512-byte closures: each runs exactly
        // once, and a twin still pending when the `Sim` drops is dropped
        // with it (its `Rc` released) without running.
        let mut sim = Sim::new(0u64);
        let alive = Rc::new(());
        sim.schedule_at(SimTime::from_nanos(1), |s| s.world += 1);
        let pair = [10u64, 20];
        sim.schedule_at(SimTime::from_nanos(1), move |s| {
            s.world += pair[0] + pair[1]
        });
        let big = [7u8; BIG_CAPTURE];
        sim.schedule_at(SimTime::from_nanos(1), move |s| {
            s.world += big.iter().map(|&b| b as u64).sum::<u64>();
        });
        sim.schedule_at(SimTime::from_nanos(2), |s| s.world += 1_000_000);
        {
            let (pair, held) = ([1u64 << 32, 1 << 33], Rc::clone(&alive));
            sim.schedule_at(SimTime::from_nanos(2), move |s| {
                s.world += pair[0] + pair[1] + Rc::strong_count(&held) as u64;
            });
        }
        {
            let (big, held) = ([1u8; BIG_CAPTURE], Rc::clone(&alive));
            sim.schedule_at(SimTime::from_nanos(2), move |s| {
                s.world += big.len() as u64 + Rc::strong_count(&held) as u64;
            });
        }
        let first = 1 + 30 + 7 * BIG_CAPTURE as u64;
        assert!(sim.run_until(|&w| w == first));
        assert_eq!(sim.now(), SimTime::from_nanos(1));
        assert_eq!(sim.executed_events(), 3);
        assert_eq!(sim.pending_events(), 3);
        assert_eq!(Rc::strong_count(&alive), 3);
        drop(sim);
        assert_eq!(Rc::strong_count(&alive), 1, "payloads drop with the Sim");
    }

    #[test]
    fn a_firing_event_may_grow_the_slots() {
        let mut sim = Sim::new(0u64);
        sim.schedule_at(SimTime::from_nanos(5), move |s| {
            // Far more events than slots exist: the slab reallocates
            // under the running closure, which was moved out first.
            for i in 0..1000u64 {
                s.schedule_in(SimTime::from_nanos(1 + i % 3), |s| s.world += 1);
            }
        });
        sim.run();
        assert_eq!(sim.world, 1000);
        assert_eq!(sim.executed_events(), 1001);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn pending_payloads_drop_with_the_sim() {
        // Payloads still scheduled when the Sim drops must be released
        // (the slots own them; miri would flag the leak).
        struct Count(Rc<RefCell<u32>>);
        impl Drop for Count {
            fn drop(&mut self) {
                *self.0.borrow_mut() += 1;
            }
        }
        let drops = Rc::new(RefCell::new(0));
        {
            let mut sim = Sim::new(());
            let c1 = Count(Rc::clone(&drops));
            let c2 = Count(Rc::clone(&drops));
            let big = [0u8; BIG_CAPTURE];
            sim.schedule_at(SimTime::from_nanos(5), move |_| drop(c1));
            sim.schedule_at(SimTime::from_nanos(6), move |_| {
                drop(c2);
                let _ = big;
            });
        }
        assert_eq!(*drops.borrow(), 2);
    }

    #[test]
    fn dense_same_bucket_burst_stays_fifo() {
        // Many events inside one 32 ns bucket, scheduled out of order,
        // with same-time ties: exact (time, seq) order required.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        let script = [(9u64, 'a'), (3, 'b'), (9, 'c'), (1, 'd'), (3, 'e')];
        for (t, tag) in script {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |_| log.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!['d', 'b', 'e', 'a', 'c']);
    }
}
