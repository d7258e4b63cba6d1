//! Seeded metrics-coherence violation: an inline span-name literal
//! instead of a `simcore::trace::names` constant. Never compiled —
//! scanned by the xtask self-tests to prove the rule fires.

pub fn emit(sim: &mut Sim<World>, from: u32, to: u32, n: u64) {
    // Not this rule's business: `count` takes the `Counter` enum, so
    // the compiler rejects the literal.
    sim.trace.count("gpusim.rogue.bytes", from, to, n);
    let span = sim
        .trace
        .span_begin(sim.now(), names::CAT_GPUSIM, "rogue.span", Track::Gpu(0));
    sim.trace.span_end(sim.now(), span);
}
