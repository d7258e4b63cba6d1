//! Fixture trace-name registry in the real registry's two forms:
//! counters in the `counters!` table, span names as `Name` constants.

pub mod names {
    counters! {
        const DEAD_NAME: DeadName = "dead.name";
        const LIVE_BYTES: LiveBytes = "live.bytes";
    }

    pub const CAT_LIVE: Name = Name("live");
    pub const SPAN_LIVE: Name = Name("live-span");
    pub const SPAN_DEAD: Name = Name("dead-span");
}

pub struct Metrics;

impl Metrics {
    pub fn from_trace(tr: &Trace) -> Metrics {
        Metrics
    }
}
