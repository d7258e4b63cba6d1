//! Differential test of the calendar-queue scheduler against a
//! reference model.
//!
//! The model is the data structure the simulator used before the
//! calendar/arena rewrite — a plain `BinaryHeap` ordered by
//! `(time, insertion seq)`. The real scheduler routes the same schedule
//! through three structures (the same-instant fast lane, the bucketed
//! calendar ring, the far-future overflow rung); this test drives both
//! through random interleavings of schedule / partial-run and asserts
//! they observe the *identical* history:
//!
//! * the sequence of fired event tags (total `(time, seq)` order,
//!   including FIFO among same-instant events),
//! * virtual time after every segment,
//! * the executed-event count,
//! * the pending count.
//!
//! Workload shapes are chosen to cross every internal boundary:
//! zero-delay bursts (fast lane), nearby deltas (same / adjacent
//! buckets), lap-edge deltas (bucket promotion and re-anchoring), and
//! multi-second deltas (overflow rung + adaptive shift), with nested
//! scheduling from inside callbacks. One case packs tens of thousands
//! of events into a few tens of microseconds, so buckets crowd and the
//! width narrows, again after every re-anchor.

use simcore::rng::{rng, SimRng};
use simcore::{Sim, SimTime};
use std::cmp::Reverse;

type World = Vec<u64>;

/// Tags grow 4x per nesting generation; stopping here bounds cascade
/// depth (and with the sub-critical branching factor below, total event
/// count) without either side tracking depth explicitly.
const MAX_NESTING_TAG: u64 = 1 << 22;

/// A scheduling delay that lands in one of the scheduler's regimes.
fn pick_delta(r: &mut SimRng) -> u64 {
    match r.range(0, 10) {
        0 | 1 => 0,                                     // same-instant fast lane
        2..=4 => r.range_u64(1, 100),                   // same or adjacent bucket
        5 | 6 => r.range_u64(1_000, 50_000),            // a few buckets out
        7 | 8 => r.range_u64(1 << 19, 1 << 21),         // around the lap edge
        _ => r.range_u64(2_000_000_000, 6_000_000_000), // overflow rung
    }
}

/// Deterministic children of a fired event, derived from its tag alone
/// so the live callback and the model's pop loop agree with no shared
/// state. Branching averages 0.5 children, so cascades die out.
fn children(seed: u64, tag: u64) -> Vec<(u64, u64)> {
    if tag >= MAX_NESTING_TAG {
        return Vec::new();
    }
    let mut r = rng(seed ^ tag.wrapping_mul(0x9E3779B97F4A7C15));
    let n = match r.range(0, 8) {
        0..=4 => 0,
        5 | 6 => 1,
        _ => 2,
    };
    (0..n)
        .map(|i| (pick_delta(&mut r), tag * 4 + i as u64 + 1))
        .collect()
}

/// Fire an event in the live simulator: log the tag, spawn children.
fn spawn(sim: &mut Sim<World>, seed: u64, tag: u64) {
    sim.world.push(tag);
    let now = sim.now();
    for (delta, child) in children(seed, tag) {
        sim.schedule_at(now + SimTime::from_nanos(delta), move |s| {
            spawn(s, seed, child)
        });
    }
}

/// The reference scheduler: a heap of `(at, seq, tag)` with monotonic
/// insertion seqs — the total order the real scheduler must preserve.
#[derive(Default)]
#[expect(
    clippy::disallowed_types,
    reason = "the reference model the calendar queue is checked against"
)]
struct Model {
    heap: std::collections::BinaryHeap<Reverse<(u64, u64, u64)>>,
    next_seq: u64,
    now: u64,
    fired: Vec<u64>,
}

impl Model {
    fn schedule(&mut self, at: u64, tag: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, tag)));
    }

    /// Fire the next event, if there is one.
    fn pop_one(&mut self, seed: u64) -> bool {
        let Some(Reverse((at, _, tag))) = self.heap.pop() else {
            return false;
        };
        self.now = at;
        self.fired.push(tag);
        for (delta, child) in children(seed, tag) {
            self.schedule(at + delta, tag_checked(child));
        }
        true
    }

    fn run_until_count(&mut self, seed: u64, k: usize) {
        while self.fired.len() < k && self.pop_one(seed) {}
    }

    fn drain(&mut self, seed: u64) {
        while self.pop_one(seed) {}
    }
}

/// Child tags of both sides must agree bit-for-bit; this is just a
/// guard against the test's own tag arithmetic overflowing.
fn tag_checked(tag: u64) -> u64 {
    assert!(tag < u64::MAX / 8);
    tag
}

fn assert_in_sync(sim: &Sim<World>, model: &Model, ctx: &str) {
    assert_eq!(
        sim.now().as_nanos(),
        model.now,
        "virtual time diverged ({ctx})"
    );
    assert_eq!(
        sim.executed_events(),
        model.fired.len() as u64,
        "executed count diverged ({ctx})"
    );
    assert_eq!(
        sim.pending_events(),
        model.heap.len(),
        "pending count diverged ({ctx})"
    );
    assert_eq!(sim.world, model.fired, "fired order diverged ({ctx})");
}

/// One random interleaving of schedule / partial-run phases, ending in
/// a full drain.
fn differential_case(seed: u64) {
    let mut r = rng(seed);
    let mut sim = Sim::new(World::new());
    let mut model = Model::default();
    let mut next_tag = 1u64;

    for phase in 0..8 {
        // Schedule a burst; sometimes a dense one (many events on the
        // same future instant, stressing single-bucket sorting + FIFO).
        let (m, dense_delta) = if r.chance(0.25) {
            (50, Some(pick_delta(&mut r)))
        } else {
            (r.range(1, 40), None)
        };
        for _ in 0..m {
            let delta = dense_delta.unwrap_or_else(|| pick_delta(&mut r));
            let at = model.now + delta;
            let tag = next_tag;
            next_tag += 1;
            sim.schedule_at(SimTime::from_nanos(at), move |s| spawn(s, seed, tag));
            model.schedule(at, tag);
        }
        // Partially drain to a fired-count threshold.
        let k = model.fired.len() + r.range(0, 40);
        sim.run_until(move |w: &World| w.len() >= k);
        model.run_until_count(seed, k);
        assert_in_sync(&sim, &model, &format!("seed {seed} phase {phase}"));
    }

    // Final drain; alternate between the two terminal drivers.
    if seed.is_multiple_of(2) {
        sim.run();
    } else {
        sim.run_with_deadline(SimTime::from_nanos(1 << 62));
    }
    model.drain(seed);
    assert_in_sync(&sim, &model, &format!("seed {seed} final"));
    assert_eq!(sim.pending_events(), 0);
}

#[test]
fn random_interleavings_match_reference_model() {
    for seed in 0..12 {
        differential_case(seed);
    }
}

/// Purely same-instant storm: everything rides the fast lane and must
/// come out in exact insertion order.
#[test]
fn same_instant_storm_matches_reference_model() {
    let seed = 999;
    let mut sim = Sim::new(World::new());
    let mut model = Model::default();
    for tag in 1..=400u64 {
        sim.schedule_at(SimTime::ZERO, move |s| spawn(s, seed, tag));
        model.schedule(0, tag);
    }
    sim.run();
    model.drain(seed);
    assert_in_sync(&sim, &model, "same-instant storm");
}

/// Far-future–only workload: every event lives on the overflow rung
/// until re-anchoring promotes it.
#[test]
fn far_future_overflow_matches_reference_model() {
    let seed = 4242;
    let mut r = rng(seed);
    let mut sim = Sim::new(World::new());
    let mut model = Model::default();
    for tag in 1..=120u64 {
        let delta = r.range_u64(2_000_000_000, 20_000_000_000);
        sim.schedule_at(SimTime::from_nanos(delta), move |s| spawn(s, seed, tag));
        model.schedule(delta, tag);
    }
    sim.run();
    model.drain(seed);
    assert_in_sync(&sim, &model, "far-future overflow");
}

/// Crowded calendar: each round packs 10 000 events into ~50 µs (about
/// 200 to a 1 µs bucket, so promotion narrows the width) behind a
/// 1–5 ms tail that makes the next re-anchor widen it again, with the
/// nested children of `spawn` on top. Checked at every segment.
#[test]
fn crowded_buckets_match_reference_model() {
    let seed = 0xC40D;
    let mut r = rng(seed);
    let mut sim = Sim::new(World::new());
    let mut model = Model::default();
    let mut next_tag = 1u64;
    for round in 0..5 {
        let base = model.now;
        for i in 0..10_400 {
            let delta = if i % 26 == 25 {
                r.range_u64(1_000_000, 5_000_000)
            } else {
                r.range_u64(1, 50_000)
            };
            let tag = next_tag;
            next_tag += 1;
            sim.schedule_at(SimTime::from_nanos(base + delta), move |s| {
                spawn(s, seed, tag)
            });
            model.schedule(base + delta, tag);
        }
        // Drain in segments; the last round drains everything.
        let segments = if round == 4 { 40 } else { 3 };
        for segment in 0..segments {
            let k = model.fired.len() + 4_000;
            sim.run_until(move |w: &World| w.len() >= k);
            model.run_until_count(seed, k);
            assert_in_sync(&sim, &model, &format!("round {round} segment {segment}"));
        }
    }
    sim.run();
    model.drain(seed);
    assert_in_sync(&sim, &model, "crowded final");
    assert!(model.fired.len() > 50_000, "{}", model.fired.len());
}
