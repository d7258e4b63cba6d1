//! Fixture emission site for the registered names.

pub fn emits(tr: &mut Trace) {
    tr.count(names::LIVE_BYTES, 0, 0, 1);
    tr.instant(now, names::CAT_LIVE, names::SPAN_LIVE, track);
}
