//! Fixture trace-name registry, every name live.

pub mod names {
    counters! {
        const LIVE_BYTES: LiveBytes = "live.bytes";
    }

    pub const CAT_LIVE: Name = Name("live");
    pub const SPAN_LIVE: Name = Name("live-span");
}

pub struct Metrics;

impl Metrics {
    pub fn from_trace(tr: &Trace) -> Metrics {
        Metrics
    }
}
