//! Companion to `fixtures/stale/lint/fault-reach.allow`: the allowlist
//! grants two unguarded charges but only one exists, so the stale
//! check must fail even though no finding exceeds its allowance.

pub fn entry(sim: &mut Sim) {
    sim.link.reserve(sim.now, sim.cost);
}
