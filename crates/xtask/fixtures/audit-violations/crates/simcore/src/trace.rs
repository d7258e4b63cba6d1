//! Fixture trace-name registry: counters in the `counters!` table form
//! the real registry uses, span names as string constants.

pub mod names {
    counters! {
        const DEAD_NAME: DeadName = "dead.name";
        const LIVE_BYTES: LiveBytes = "live.bytes";
    }

    pub const CAT_LIVE: &str = "live";
}

pub struct Metrics;

impl Metrics {
    pub fn from_trace(tr: &Trace) -> Metrics {
        Metrics
    }
}
