//! Fixture charges and trace emissions.

pub fn bad_charge(sim: &mut Sim) {
    sim.link.reserve(sim.now, sim.cost);
}

pub fn inner_ok(sim: &mut Sim) {
    sim.link.reserve(sim.now, sim.cost);
}

pub fn emits(tr: &mut Trace) {
    tr.count(names::LIVE_BYTES, 0, 0, 1);
    tr.instant(now, names::CAT_LIVE, names::SPAN_LIVE, track);
}
