//! Serial message-level event loop: the engine under `mpirt::scale`.
//!
//! A model is a set of per-rank state machines that react to delivered
//! messages and send more ([`MsgModel`], [`MsgCtx::send`]). The engine
//! is one [`CalendarQueue`] over an envelope slab, drained in
//! `(time, src rank, per-src send seq)` order. That key is a pure
//! function of what the model sent — never of when an envelope happened
//! to be inserted — and every committed scale digest rests on it. Sends
//! must land strictly in the future, so a delivery cannot create a peer
//! at its own instant that sorts before envelopes already delivered.
//!
//! There is no parallel variant (DESIGN.md §14 has the measurements),
//! and the model does not ride [`crate::event::Sim`]: its tie-break is
//! global insertion order, which would change every digest, and it
//! stores a closure per event where this loop moves a small POD.

use crate::calq::CalendarQueue;
use crate::time::SimTime;
use crate::trace::Tracer;

/// A message in flight.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Delivery time.
    pub at: SimTime,
    pub src: u32,
    /// `src`'s send sequence number; `(src, seq)` breaks same-instant ties.
    pub seq: u32,
    pub dst: u32,
    pub msg: M,
}

/// Per-rank state machines driven by message delivery.
///
/// Determinism contract: `deliver` for rank r touches only r's state
/// (plus shared immutable config), draws randomness only from per-rank
/// streams ([`crate::rng::SimRng::for_stream`]), and communicates only
/// through [`MsgCtx::send`].
pub trait MsgModel {
    type Msg;

    /// React to a message delivered to `env.dst` at `env.at`.
    fn deliver(&mut self, ctx: &mut MsgCtx<'_, Self::Msg>, env: Envelope<Self::Msg>);
}

/// Undelivered envelopes: a calendar of slab indices, plus the next
/// send seq of every rank.
struct Pending<M> {
    cal: CalendarQueue<u32>,
    slots: Vec<Option<Envelope<M>>>,
    free: Vec<u32>,
    seqs: Vec<u32>,
}

impl<M> Pending<M> {
    fn post(&mut self, src: u32, dst: u32, at: SimTime, msg: M) {
        let ranks = self.seqs.len();
        assert!((src as usize) < ranks, "message from rank {src} of {ranks}");
        assert!((dst as usize) < ranks, "message to rank {dst} of {ranks}");
        let seq = self.seqs[src as usize];
        self.seqs[src as usize] = seq.checked_add(1).expect("per-rank send seq overflow");
        let env = Some(Envelope {
            at,
            src,
            seq,
            dst,
            msg,
        });
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = env;
                s
            }
            None => {
                self.slots.push(env);
                (self.slots.len() - 1) as u32
            }
        };
        self.cal.insert(at, ((src as u64) << 32) | seq as u64, slot);
    }

    fn pop(&mut self) -> Option<Envelope<M>> {
        let (_, _, slot) = self.cal.pop()?;
        self.free.push(slot);
        let env = self.slots[slot as usize].take();
        Some(env.expect("live envelope slot"))
    }
}

/// What [`MsgModel::deliver`] is handed: the only way model code sends
/// messages or reaches the trace.
pub struct MsgCtx<'a, M> {
    now: SimTime,
    rank: u32,
    pending: &'a mut Pending<M>,
    pub trace: &'a mut Tracer,
}

impl<M> MsgCtx<'_, M> {
    /// Virtual time of the message being delivered.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send `msg` from the rank being delivered to, arriving at `dst`
    /// at `at` — strictly in the future.
    pub fn send(&mut self, dst: u32, at: SimTime, msg: M) {
        assert!(
            at > self.now,
            "model sent into the present/past: {at:?} <= {:?}",
            self.now
        );
        self.pending.post(self.rank, dst, at, msg);
    }
}

/// A model plus its pending messages, ready to run.
pub struct MsgSim<W: MsgModel> {
    model: W,
    pending: Pending<W::Msg>,
    trace: Tracer,
}

/// Result of a completed run.
pub struct MsgRun<W> {
    pub model: W,
    /// Counters always; spans/instants when recording was on, in
    /// content order ([`Tracer::sort_by_content`]).
    pub trace: Tracer,
    /// Messages delivered (`deliver` invocations).
    pub executed: u64,
    /// Latest virtual delivery time.
    pub end_time: SimTime,
}

impl<W: MsgModel> MsgSim<W> {
    pub fn new(model: W, ranks: u32) -> MsgSim<W> {
        MsgSim {
            model,
            pending: Pending {
                cal: CalendarQueue::new(),
                slots: Vec::new(),
                free: Vec::new(),
                seqs: vec![0; ranks as usize],
            },
            trace: Tracer::new(),
        }
    }

    /// Turn span/instant recording on or off.
    pub fn set_recording(&mut self, on: bool) {
        self.trace.set_recording(on);
    }

    /// Seed the run with an initial message. Consumes a send seq of
    /// `src`, so injection order is part of the deterministic input.
    pub fn inject(&mut self, src: u32, dst: u32, at: SimTime, msg: W::Msg) {
        self.pending.post(src, dst, at, msg);
    }

    /// Deliver until no message is pending.
    pub fn run(mut self) -> MsgRun<W> {
        let mut executed = 0;
        let mut end_time = SimTime::ZERO;
        while let Some(env) = self.pending.pop() {
            // Always-on: a calendar ordering bug would otherwise run
            // deliveries out of timestamp order silently.
            assert!(env.at >= end_time, "virtual time went backwards");
            end_time = env.at;
            executed += 1;
            let mut ctx = MsgCtx {
                now: env.at,
                rank: env.dst,
                pending: &mut self.pending,
                trace: &mut self.trace,
            };
            self.model.deliver(&mut ctx, env);
        }
        self.trace.sort_by_content();
        MsgRun {
            model: self.model,
            trace: self.trace,
            executed,
            end_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    const HOP_NS: u64 = 500;

    /// A toy model: ranks bounce tokens along pseudo-random walks with
    /// per-rank RNG streams, logging every delivery.
    struct Walk {
        /// `(time, src, hops left)` per delivery, per rank.
        logs: Vec<Vec<(u64, u32, u32)>>,
        rngs: Vec<SimRng>,
    }

    impl MsgModel for Walk {
        type Msg = u32; // remaining hops

        fn deliver(&mut self, ctx: &mut MsgCtx<'_, u32>, env: Envelope<u32>) {
            let r = env.dst as usize;
            self.logs[r].push((env.at.as_nanos(), env.src, env.msg));
            if env.msg == 0 {
                return;
            }
            let ranks = self.rngs.len() as u64;
            let jitter = self.rngs[r].range_u64(0, 300);
            let next = self.rngs[r].range_u64(0, ranks) as u32;
            ctx.send(
                next,
                env.at + SimTime::from_nanos(HOP_NS + jitter),
                env.msg - 1,
            );
        }
    }

    #[test]
    fn walk_delivers_every_hop_in_time_order_per_rank() {
        let ranks = 8u32;
        let model = Walk {
            logs: vec![Vec::new(); ranks as usize],
            rngs: (0..ranks)
                .map(|r| SimRng::for_stream(7, r as u64))
                .collect(),
        };
        let mut sim = MsgSim::new(model, ranks);
        for r in 0..ranks {
            sim.inject(r, (r + 1) % ranks, SimTime::from_nanos(1 + r as u64), 40);
        }
        let run = sim.run();
        assert_eq!(run.executed, 8 * 41, "each token delivers hops+1 times");
        let logs = &run.model.logs;
        assert_eq!(logs.iter().map(Vec::len).sum::<usize>(), 8 * 41);
        for log in logs {
            assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "{log:?}");
        }
        let last = logs.iter().flatten().map(|e| e.0).max().unwrap();
        assert_eq!(run.end_time.as_nanos(), last);
        // Rank 1 saw token 0's first hop first: injected at t=1 by rank 0.
        assert_eq!(logs[1][0], (1, 0, 40));
    }

    /// Logs `(src, seq)` of every delivery; a `true` message is
    /// forwarded once more, to rank 0.
    struct Log(Vec<(u32, u32)>);

    impl MsgModel for Log {
        type Msg = bool;
        fn deliver(&mut self, ctx: &mut MsgCtx<'_, bool>, env: Envelope<bool>) {
            self.0.push((env.src, env.seq));
            if env.msg {
                ctx.send(0, env.at + SimTime::from_nanos(1), false);
            }
        }
    }

    #[test]
    fn same_instant_envelopes_deliver_in_src_seq_order() {
        // The property every digest rests on: within one instant the
        // order is (src, seq), whatever order the envelopes went in.
        let mut sim = MsgSim::new(Log(Vec::new()), 4);
        for src in [2, 0, 3, 2, 1, 0, 2] {
            sim.inject(src, 3 - src, SimTime::from_nanos(9), false);
        }
        sim.inject(3, 0, SimTime::from_nanos(8), false); // earlier instant, later seq
        #[rustfmt::skip]
        let want = [(3, 1), (0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2), (3, 0)];
        assert_eq!(sim.run().model.0, want);
    }

    #[test]
    fn inject_consumes_a_send_seq_of_src() {
        let mut sim = MsgSim::new(Log(Vec::new()), 2);
        sim.inject(1, 0, SimTime::from_nanos(1), false);
        sim.inject(1, 1, SimTime::from_nanos(2), true);
        // Rank 1's own send continues where its two injections left off.
        assert_eq!(sim.run().model.0, [(1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "into the present/past")]
    fn same_instant_send_is_rejected() {
        struct Echo;
        impl MsgModel for Echo {
            type Msg = ();
            fn deliver(&mut self, ctx: &mut MsgCtx<'_, ()>, env: Envelope<()>) {
                ctx.send(env.dst, env.at, ());
            }
        }
        let mut sim = MsgSim::new(Echo, 2);
        sim.inject(0, 1, SimTime::from_nanos(5), ());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "message from rank 2 of 2")]
    fn inject_from_a_rank_outside_the_job_is_rejected() {
        let mut sim = MsgSim::new(Log(Vec::new()), 2);
        sim.inject(2, 0, SimTime::from_nanos(1), false);
    }

    #[test]
    fn crowded_fan_out_delivers_in_sorted_send_order() {
        // 48 ranks, three generations: 47 → 2209 → 103823 envelopes,
        // jittered over 50 µs, so the last generation crowds a 1 µs
        // bucket with hundreds and the calendar narrows its width.
        // Whatever it does with buckets, the delivery order must be the
        // sort of everything sent.
        struct Fan {
            ranks: u32,
            /// `(at, src, seq)` of every envelope sent, in send order.
            sent: Vec<(u64, u32, u32)>,
            next_seq: Vec<u32>,
            delivered: Vec<(u64, u32, u32)>,
        }
        impl MsgModel for Fan {
            type Msg = u32; // generation countdown
            fn deliver(&mut self, ctx: &mut MsgCtx<'_, u32>, env: Envelope<u32>) {
                self.delivered.push((env.at.as_nanos(), env.src, env.seq));
                if env.msg == 0 {
                    return;
                }
                let src = env.dst;
                for d in (0..self.ranks).filter(|&d| d != src) {
                    let seq = self.next_seq[src as usize];
                    self.next_seq[src as usize] += 1;
                    let jitter = (seq as u64 * 7919 + d as u64 * 104_729) % 50_000;
                    let at = env.at + SimTime::from_nanos(100 + jitter);
                    self.sent.push((at.as_nanos(), src, seq));
                    ctx.send(d, at, env.msg - 1);
                }
            }
        }
        let ranks = 48;
        let mut fan = Fan {
            ranks,
            sent: vec![(1, 0, 0)], // the injection below
            next_seq: vec![0; ranks as usize],
            delivered: Vec::new(),
        };
        fan.next_seq[0] = 1;
        let mut sim = MsgSim::new(fan, ranks);
        sim.inject(0, 1, SimTime::from_nanos(1), 3);
        let run = sim.run();
        assert_eq!(run.executed, 1 + 47 + 47 * 47 + 47 * 47 * 47);
        let mut want = run.model.sent;
        want.sort_unstable();
        assert_eq!(run.model.delivered, want);
    }

    #[test]
    fn burst_fan_out_delivers_every_generation() {
        // Every delivery fans out to all other ranks: thousands of
        // envelopes pending at once, slab slots recycled throughout.
        struct Burst(u32);
        impl MsgModel for Burst {
            type Msg = u32; // generation countdown
            fn deliver(&mut self, ctx: &mut MsgCtx<'_, u32>, env: Envelope<u32>) {
                if env.msg == 0 {
                    return;
                }
                for d in (0..self.0).filter(|&d| d != env.dst) {
                    ctx.send(d, env.at + SimTime::from_nanos(100), env.msg - 1);
                }
            }
        }
        let mut sim = MsgSim::new(Burst(8), 8);
        sim.inject(0, 1, SimTime::from_nanos(1), 4);
        // Generations 4,3,2,1,0 deliver 1, 7, 49, 343, 2401 times.
        assert_eq!(sim.run().executed, 1 + 7 + 49 + 343 + 2401);
    }
}
