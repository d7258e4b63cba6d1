//! Deterministic, seeded fault injection for the simulator stack.
//!
//! Every simulator layer consults a [`FaultSim`] at its *charge points* —
//! the places where it reserves a resource and schedules a completion:
//! `netsim` AM delivery, staged wire hops and RDMA registration,
//! `gpusim` kernel launches, copies and stream doorbells, IPC handle
//! opens, pinned registration, NIC handler installs and the CPU
//! convertor. The
//! engine rolls a [`FaultDecision`] per attempt from a seeded
//! `simcore::rng::SimRng`, so a given `(seed, plan, workload)` triple
//! always injects the same faults at the same virtual times.
//!
//! Three fault shapes are modeled:
//!
//! * **Transient** — the attempt fails but may be retried (a dropped
//!   Active Message, a CUDA launch returning a transient error).
//! * **Permanent loss** — the capability disappears for the rest of the
//!   run (e.g. CUDA IPC becomes unavailable); the op is marked lost and
//!   every later roll on it returns [`FaultDecision::Lost`].
//! * **Degradation** — a time window during which an op's charge
//!   duration is scaled by a factor (a slow link, a throttled copy
//!   engine); queried via [`FaultSim::slowdown`].
//!
//! The disabled engine is free: [`FaultSim::roll`] on an inactive engine
//! returns `Ok` without drawing from the RNG, bumping a counter, or
//! touching the heap, so runs with an empty plan are byte-identical to
//! runs built before this crate existed.

use simcore::rng::SimRng;
use simcore::time::SimTime;

/// The operations a fault plan can target. Doubles as the `a` dimension
/// of the `fault.injected` trace counter: the discriminant is the op's
/// [`FaultOp::index`], stable across releases, so 2 and 3 — the retired
/// one-sided get and put — stay unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Active-message delivery on a ctrl link (`netsim::am`).
    AmDeliver = 0,
    /// Memory registration with the NIC (`netsim::rdma::ensure_registered`).
    RdmaRegister = 1,
    /// Pack/unpack transfer-kernel launch (`gpusim::kernel`).
    KernelLaunch = 4,
    /// DMA copy on a copy engine (`gpusim::copy`).
    Memcpy = 5,
    /// CUDA-IPC handle open (`gpusim::system::ipc_open`).
    IpcOpen = 6,
    /// Zero-copy mapping of the pinned host rings, rolled once per
    /// connection handshake (`mpirt::connection::ib_connection`).
    PinnedRegister = 7,
    /// Staged copy-in/copy-out hop over a data link (`netsim::wire`).
    WireCopy = 8,
    /// DEV-program handler install on the NIC packet processor, done
    /// once per connection (`mpirt::protocol::offload`). Loss demotes
    /// NicOffload → GPU-pack.
    NicHandler = 9,
    /// GPU-stream doorbell ringing a captured stream-op graph
    /// (`gpusim::stream_trigger`). Loss demotes StreamTriggered →
    /// CPU-driven.
    StreamDoorbell = 10,
    /// Host-side pack/unpack pass on a rank's CPU (`mpirt::cpupack`).
    /// The CPU convertor is itself the fallback path, so loss panics.
    CpuPack = 11,
}

/// Slots of the loss table: one past the largest [`FaultOp::index`].
const SLOTS: usize = FaultOp::CpuPack as usize + 1;

impl FaultOp {
    pub const ALL: [FaultOp; 10] = [
        FaultOp::AmDeliver,
        FaultOp::RdmaRegister,
        FaultOp::KernelLaunch,
        FaultOp::Memcpy,
        FaultOp::IpcOpen,
        FaultOp::PinnedRegister,
        FaultOp::WireCopy,
        FaultOp::NicHandler,
        FaultOp::StreamDoorbell,
        FaultOp::CpuPack,
    ];

    /// Stable index, used as the counter dimension and the loss-table slot.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Plan-DSL name (see [`FaultPlan::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::AmDeliver => "am",
            FaultOp::RdmaRegister => "rdma_reg",
            FaultOp::KernelLaunch => "kernel",
            FaultOp::Memcpy => "memcpy",
            FaultOp::IpcOpen => "ipc_open",
            FaultOp::PinnedRegister => "pin",
            FaultOp::WireCopy => "wire",
            FaultOp::NicHandler => "nic",
            FaultOp::StreamDoorbell => "doorbell",
            FaultOp::CpuPack => "cpupack",
        }
    }

    fn from_name(s: &str) -> Option<Option<FaultOp>> {
        if s == "any" {
            return Some(None);
        }
        FaultOp::ALL
            .iter()
            .find(|op| op.name() == s)
            .map(|&op| Some(op))
    }
}

/// What a rule does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The attempt fails; the caller may retry.
    Transient,
    /// The capability is permanently lost from the moment the rule fires.
    PermanentLoss,
    /// Charge durations for the op are multiplied by `factor` (≥ 1.0)
    /// while the rule's window is open. Never fails the attempt.
    Degrade { factor: f64 },
}

/// One line of a fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Which op the rule applies to; `None` matches every op.
    pub op: Option<FaultOp>,
    pub kind: FaultKind,
    /// Per-attempt firing probability for `Transient`/`PermanentLoss`
    /// (1.0 = fire on the first matching attempt). Ignored by `Degrade`.
    pub probability: f64,
    /// Half-open virtual-time window `[start, end)` during which the
    /// rule is live. `None` = the whole run.
    pub window: Option<(SimTime, SimTime)>,
    /// Stop firing after this many injections. `None` = unbounded.
    pub max_injections: Option<u64>,
}

impl FaultRule {
    fn live_at(&self, now: SimTime) -> bool {
        match self.window {
            None => true,
            Some((start, end)) => now >= start && now < end,
        }
    }

    fn matches(&self, op: FaultOp) -> bool {
        self.op.is_none() || self.op == Some(op)
    }
}

/// A seeded schedule of faults, built programmatically or parsed from
/// the rule DSL ([`FaultPlan::parse`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

/// Error from [`FaultPlan::parse`]; carries the offending rule text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanParseError(pub String);

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault rule: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// An empty plan: no rules, engine stays inactive.
    pub fn empty() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Builder: add a rule that always applies (no window, no cap).
    pub fn with_rule(mut self, op: Option<FaultOp>, kind: FaultKind, probability: f64) -> Self {
        self.rules.push(FaultRule {
            op,
            kind,
            probability,
            window: None,
            max_injections: None,
        });
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parse the plan DSL: `;`-separated rules of the form
    ///
    /// ```text
    /// op:kind[:param][@start..end][#max]
    /// ```
    ///
    /// * `op` — `am`, `rdma_reg`, `kernel`, `memcpy`, `ipc_open`, `pin`,
    ///   `wire`, `nic`, `doorbell`, `cpupack`, or `any`.
    /// * `kind` — `transient`, `lost`, or `degrade`.
    /// * `param` — firing probability for `transient`/`lost` (default
    ///   1.0), slowdown factor for `degrade` (required, ≥ 1.0).
    /// * `@start..end` — virtual-time window; either bound may be
    ///   omitted. Times take a `ns`/`us`/`ms`/`s` suffix.
    /// * `#max` — cap on total injections from this rule.
    ///
    /// Example: `am:transient:0.05;ipc_open:lost@2ms..;wire:degrade:4@1ms..9ms`
    pub fn parse(text: &str) -> Result<Self, PlanParseError> {
        let mut rules = Vec::new();
        for raw in text.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            rules.push(parse_rule(raw)?);
        }
        Ok(Self { seed: 0, rules })
    }
}

fn parse_time(s: &str) -> Result<SimTime, PlanParseError> {
    let s = s.trim();
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1) // bare number = nanoseconds
    };
    digits
        .trim()
        .parse::<u64>()
        .map(|n| SimTime::from_nanos(n * mult))
        .map_err(|_| PlanParseError(format!("bad time `{s}`")))
}

fn parse_rule(raw: &str) -> Result<FaultRule, PlanParseError> {
    let err = || PlanParseError(raw.to_string());

    // Split off `#max` and `@window` decorations from the right.
    let (body, max_injections) = match raw.split_once('#') {
        Some((b, m)) => (b, Some(m.trim().parse::<u64>().map_err(|_| err())?)),
        None => (raw, None),
    };
    let (body, window) = match body.split_once('@') {
        Some((b, w)) => {
            let (lo, hi) = w.split_once("..").ok_or_else(err)?;
            let start = if lo.trim().is_empty() {
                SimTime::ZERO
            } else {
                parse_time(lo)?
            };
            let end = if hi.trim().is_empty() {
                SimTime::MAX
            } else {
                parse_time(hi)?
            };
            (b, Some((start, end)))
        }
        None => (body, None),
    };

    let mut parts = body.split(':').map(str::trim);
    let op = FaultOp::from_name(parts.next().ok_or_else(err)?).ok_or_else(err)?;
    let kind_name = parts.next().ok_or_else(err)?;
    let param = parts
        .next()
        .map(|p| p.parse::<f64>().map_err(|_| err()))
        .transpose()?;
    if parts.next().is_some() {
        return Err(err());
    }

    let (kind, probability) = match kind_name {
        "transient" => (FaultKind::Transient, param.unwrap_or(1.0)),
        "lost" => (FaultKind::PermanentLoss, param.unwrap_or(1.0)),
        "degrade" => {
            let factor = param.ok_or_else(err)?;
            if factor < 1.0 {
                return Err(err());
            }
            (FaultKind::Degrade { factor }, 1.0)
        }
        _ => return Err(err()),
    };
    if !(0.0..=1.0).contains(&probability) {
        return Err(err());
    }
    Ok(FaultRule {
        op,
        kind,
        probability,
        window,
        max_injections,
    })
}

/// What the charge point should do with the current attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    Ok,
    /// This attempt fails; retrying may succeed.
    Transient,
    /// The capability is gone; retrying the same op cannot succeed.
    Lost,
}

impl FaultDecision {
    pub fn is_fault(self) -> bool {
        self != FaultDecision::Ok
    }
}

struct RuleState {
    rule: FaultRule,
    injected: u64,
}

/// The per-world fault engine. Lives in the simulation world and is
/// consulted by every charge point; see the crate docs for the
/// zero-overhead-when-idle contract.
pub struct FaultSim {
    active: bool,
    rng: SimRng,
    rules: Vec<RuleState>,
    /// Ops whose capability a `PermanentLoss` rule has destroyed.
    lost: [bool; SLOTS],
}

impl Default for FaultSim {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultSim {
    /// An engine with no plan: every query is a constant-time no-op.
    pub fn disabled() -> Self {
        Self {
            active: false,
            rng: SimRng::new(0),
            rules: Vec::new(),
            lost: [false; SLOTS],
        }
    }

    pub fn from_plan(plan: FaultPlan) -> Self {
        let active = !plan.rules.is_empty();
        Self {
            active,
            rng: SimRng::new(plan.seed),
            rules: plan
                .rules
                .into_iter()
                .map(|rule| RuleState { rule, injected: 0 })
                .collect(),
            lost: [false; SLOTS],
        }
    }

    /// A per-rank engine for the message-level scale model: same plan,
    /// but rolled from the deterministic stream `(plan.seed, rank)`
    /// ([`SimRng::for_stream`]). Each rank consumes only its own
    /// stream, so what a plan injects into one rank does not depend on
    /// how that rank's sends interleave with other ranks' — unlike the
    /// single global engine, whose draw order depends on the global
    /// charge-point order.
    pub fn for_rank(plan: &FaultPlan, rank: u32) -> Self {
        let active = !plan.rules.is_empty();
        Self {
            active,
            rng: SimRng::for_stream(plan.seed, rank as u64),
            rules: plan
                .rules
                .iter()
                .map(|rule| RuleState {
                    rule: rule.clone(),
                    injected: 0,
                })
                .collect(),
            lost: [false; SLOTS],
        }
    }

    /// Whether any rule exists. Charge points use this to skip fault
    /// bookkeeping (and, in `mpirt`, to avoid arming timeout events
    /// that would otherwise advance virtual time).
    pub fn active(&self) -> bool {
        self.active
    }

    /// Whether the capability behind `op` is still available.
    pub fn available(&self, op: FaultOp) -> bool {
        !self.lost[op.index()]
    }

    /// Roll the plan for one attempt of `op` at virtual time `now`.
    ///
    /// Inactive engines return `Ok` without consuming randomness.
    /// Matching rules are consulted in plan order; the first that fires
    /// wins. A `PermanentLoss` that fires (or fired earlier) marks the
    /// op lost for the rest of the run.
    pub fn roll(&mut self, op: FaultOp, now: SimTime) -> FaultDecision {
        if !self.active {
            return FaultDecision::Ok;
        }
        if self.lost[op.index()] {
            return FaultDecision::Lost;
        }
        for st in &mut self.rules {
            if matches!(st.rule.kind, FaultKind::Degrade { .. }) {
                continue;
            }
            if !st.rule.matches(op) || !st.rule.live_at(now) {
                continue;
            }
            if let Some(max) = st.rule.max_injections {
                if st.injected >= max {
                    continue;
                }
            }
            if !self.rng.chance(st.rule.probability) {
                continue;
            }
            st.injected += 1;
            return match st.rule.kind {
                FaultKind::Transient => FaultDecision::Transient,
                FaultKind::PermanentLoss => {
                    self.lost[op.index()] = true;
                    FaultDecision::Lost
                }
                FaultKind::Degrade { .. } => unreachable!(),
            };
        }
        FaultDecision::Ok
    }

    /// Combined slowdown factor for `op` at `now` (product of all open
    /// degrade windows; 1.0 when none). Deterministic — no RNG draw.
    pub fn slowdown(&self, op: FaultOp, now: SimTime) -> f64 {
        if !self.active {
            return 1.0;
        }
        let mut factor = 1.0;
        for st in &self.rules {
            if let FaultKind::Degrade { factor: f } = st.rule.kind {
                if st.rule.matches(op) && st.rule.live_at(now) {
                    factor *= f;
                }
            }
        }
        factor
    }
}

/// Capped exponential backoff for retry loops: `base`, `2·base`,
/// `4·base`, … clamped to `cap`. Pure bookkeeping; the caller decides
/// what "too many attempts" means.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    base: SimTime,
    cap: SimTime,
    attempt: u32,
}

impl Backoff {
    pub fn new(base: SimTime, cap: SimTime) -> Self {
        Self {
            base,
            cap,
            attempt: 0,
        }
    }

    /// Delay for the next retry; doubles per call up to `cap`.
    pub fn next_delay(&mut self) -> SimTime {
        let shift = self.attempt.min(32);
        self.attempt += 1;
        let ns = self
            .base
            .as_nanos()
            .saturating_mul(1u64 << shift)
            .min(self.cap.as_nanos());
        SimTime::from_nanos(ns)
    }

    /// Retries handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// Trace-counter names shared by every layer that meters faults.
///
/// Re-exported from the workspace-wide registry so the names exist in
/// exactly one place ([`simcore::trace::names`]).
pub mod counters {
    pub use simcore::trace::names::{FALLBACK_EVENTS, FAULT_INJECTED, RETRY_ATTEMPTS};
}

#[cfg(test)]
impl FaultSim {
    /// Total injections so far (transient + permanent, not degrade).
    fn injected_total(&self) -> u64 {
        self.rules.iter().map(|st| st.injected).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_engine_is_inert_and_drawless() {
        let mut f = FaultSim::disabled();
        assert!(!f.active());
        for op in FaultOp::ALL {
            assert_eq!(f.roll(op, t(1)), FaultDecision::Ok);
            assert_eq!(f.slowdown(op, t(1)), 1.0);
            assert!(f.available(op));
        }
        assert_eq!(f.injected_total(), 0);
        // The RNG stream was never consumed: a fresh engine from the
        // same (zero) seed produces the identical next draw.
        assert_eq!(f.rng.next_u64(), SimRng::new(0).next_u64());
    }

    #[test]
    fn surviving_ops_keep_their_indices() {
        let index: Vec<usize> = FaultOp::ALL.iter().map(|op| op.index()).collect();
        assert_eq!(index, [0, 1, 4, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn empty_plan_engine_is_inactive() {
        let f = FaultSim::from_plan(FaultPlan::empty());
        assert!(!f.active());
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::empty().with_seed(42).with_rule(
            Some(FaultOp::AmDeliver),
            FaultKind::Transient,
            0.3,
        );
        let mut a = FaultSim::from_plan(plan.clone());
        let mut b = FaultSim::from_plan(plan);
        let seq_a: Vec<_> = (0..64).map(|i| a.roll(FaultOp::AmDeliver, t(i))).collect();
        let seq_b: Vec<_> = (0..64).map(|i| b.roll(FaultOp::AmDeliver, t(i))).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|d| d.is_fault()));
        assert!(seq_a.iter().any(|d| !d.is_fault()));
    }

    #[test]
    fn per_rank_engines_are_partition_independent() {
        let plan = FaultPlan::empty().with_seed(42).with_rule(
            Some(FaultOp::AmDeliver),
            FaultKind::Transient,
            0.3,
        );
        // Rank 3's schedule is the same whether its rolls interleave
        // with other ranks' or not — each rank owns its stream.
        let mut solo = FaultSim::for_rank(&plan, 3);
        let solo_seq: Vec<_> = (0..32)
            .map(|i| solo.roll(FaultOp::AmDeliver, t(i)))
            .collect();
        let mut interleaved: Vec<FaultSim> = (0..8).map(|r| FaultSim::for_rank(&plan, r)).collect();
        let mut got = Vec::new();
        for i in 0..32 {
            for r in (0..8).rev() {
                let d = interleaved[r].roll(FaultOp::AmDeliver, t(i as u64));
                if r == 3 {
                    got.push(d);
                }
            }
        }
        assert_eq!(got, solo_seq);
        // And different ranks see different schedules.
        let mut other = FaultSim::for_rank(&plan, 4);
        let other_seq: Vec<_> = (0..32)
            .map(|i| other.roll(FaultOp::AmDeliver, t(i)))
            .collect();
        assert_ne!(other_seq, solo_seq);
    }

    #[test]
    fn permanent_loss_sticks() {
        let plan =
            FaultPlan::empty().with_rule(Some(FaultOp::IpcOpen), FaultKind::PermanentLoss, 1.0);
        let mut f = FaultSim::from_plan(plan);
        assert!(f.available(FaultOp::IpcOpen));
        assert_eq!(f.roll(FaultOp::IpcOpen, t(0)), FaultDecision::Lost);
        assert!(!f.available(FaultOp::IpcOpen));
        assert_eq!(f.roll(FaultOp::IpcOpen, t(5)), FaultDecision::Lost);
        // Other ops are unaffected.
        assert_eq!(f.roll(FaultOp::Memcpy, t(5)), FaultDecision::Ok);
        assert_eq!(f.injected_total(), 1);
    }

    #[test]
    fn windows_and_caps_limit_firing() {
        let mut plan = FaultPlan::empty();
        plan.rules.push(FaultRule {
            op: Some(FaultOp::WireCopy),
            kind: FaultKind::Transient,
            probability: 1.0,
            window: Some((t(10), t(20))),
            max_injections: Some(2),
        });
        let mut f = FaultSim::from_plan(plan);
        assert_eq!(f.roll(FaultOp::WireCopy, t(5)), FaultDecision::Ok);
        assert_eq!(f.roll(FaultOp::WireCopy, t(10)), FaultDecision::Transient);
        assert_eq!(f.roll(FaultOp::WireCopy, t(11)), FaultDecision::Transient);
        // Cap of 2 reached.
        assert_eq!(f.roll(FaultOp::WireCopy, t(12)), FaultDecision::Ok);
        // Window closed.
        assert_eq!(f.roll(FaultOp::WireCopy, t(20)), FaultDecision::Ok);
    }

    #[test]
    fn degrade_scales_inside_window_only() {
        let mut plan = FaultPlan::empty();
        plan.rules.push(FaultRule {
            op: Some(FaultOp::Memcpy),
            kind: FaultKind::Degrade { factor: 3.0 },
            probability: 1.0,
            window: Some((t(1), t(2))),
            max_injections: None,
        });
        plan.rules.push(FaultRule {
            op: None,
            kind: FaultKind::Degrade { factor: 2.0 },
            probability: 1.0,
            window: None,
            max_injections: None,
        });
        let f = FaultSim::from_plan(plan);
        assert_eq!(f.slowdown(FaultOp::Memcpy, t(0)), 2.0);
        assert_eq!(f.slowdown(FaultOp::Memcpy, t(1)), 6.0);
        assert_eq!(f.slowdown(FaultOp::KernelLaunch, t(1)), 2.0);
        // Degrade rules never fail the attempt.
        let mut f = f;
        assert_eq!(f.roll(FaultOp::Memcpy, t(1)), FaultDecision::Ok);
    }

    #[test]
    fn dsl_round_trips() {
        let plan = FaultPlan::parse(
            "am:transient:0.05; ipc_open:lost@2ms..; wire:degrade:4@1ms..9ms; any:transient:0.5#3",
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].op, Some(FaultOp::AmDeliver));
        assert_eq!(plan.rules[0].kind, FaultKind::Transient);
        assert_eq!(plan.rules[0].probability, 0.05);
        assert_eq!(plan.rules[1].kind, FaultKind::PermanentLoss);
        assert_eq!(plan.rules[1].window, Some((t(2), SimTime::MAX)));
        assert_eq!(plan.rules[2].kind, FaultKind::Degrade { factor: 4.0 });
        assert_eq!(plan.rules[2].window, Some((t(1), t(9))));
        assert_eq!(plan.rules[3].op, None);
        assert_eq!(plan.rules[3].max_injections, Some(3));
    }

    #[test]
    fn dsl_rejects_garbage() {
        for bad in [
            "am",
            "am:explode",
            "warp:transient",
            "am:transient:1.5",
            "memcpy:degrade:0.5",
            "memcpy:degrade",
            "am:transient:0.1@5ms",
            "am:transient:0.1#x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted: {bad}");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ; ").unwrap().is_empty());
    }

    #[test]
    fn time_suffixes_parse() {
        let p = FaultPlan::parse("am:transient:1@250us..1ms").unwrap();
        assert_eq!(
            p.rules[0].window,
            Some((SimTime::from_micros(250), SimTime::from_millis(1)))
        );
        let p = FaultPlan::parse("am:transient:1@..2s").unwrap();
        assert_eq!(
            p.rules[0].window,
            Some((SimTime::ZERO, SimTime::from_secs_f64(2.0)))
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = Backoff::new(SimTime::from_micros(10), SimTime::from_micros(100));
        assert_eq!(b.next_delay(), SimTime::from_micros(10));
        assert_eq!(b.next_delay(), SimTime::from_micros(20));
        assert_eq!(b.next_delay(), SimTime::from_micros(40));
        assert_eq!(b.next_delay(), SimTime::from_micros(80));
        assert_eq!(b.next_delay(), SimTime::from_micros(100));
        assert_eq!(b.next_delay(), SimTime::from_micros(100));
        assert_eq!(b.attempts(), 6);
    }
}
