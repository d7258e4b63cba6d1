//! Bandwidth as a first-class quantity.
//!
//! Every hardware model in the workspace (GPU DRAM, PCIe, InfiniBand,
//! shared-memory channel) is calibrated in bytes per second; `Bandwidth`
//! centralizes the "how long does N bytes take" arithmetic so the cost
//! models cannot disagree about rounding.

use crate::time::SimTime;
use std::fmt;

/// A transfer rate in bytes per second.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Construct from bytes per second.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps > 0.0, "bandwidth must be positive, got {bps}");
        Bandwidth(bps)
    }

    /// Construct from gigabytes per second (decimal GB, matching how the
    /// paper and vendor datasheets quote link speeds).
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bytes_per_sec(gbps * 1e9)
    }

    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Virtual time needed to move `bytes` at this rate (ceiling to the
    /// next nanosecond so zero-cost transfers cannot exist).
    pub fn time_for(self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_nanos(ceil_u64((bytes as f64) * 1e9 / self.0))
    }

    /// Derate this bandwidth by a multiplicative factor in `(0, 1]`,
    /// e.g. a contention share when another kernel occupies the GPU.
    pub fn derated(self, factor: f64) -> Bandwidth {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "derate factor {factor} out of (0,1]"
        );
        Bandwidth(self.0 * factor)
    }

    /// Effective bandwidth achieved moving `bytes` in `elapsed` time.
    pub fn effective(bytes: u64, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return f64::INFINITY;
        }
        bytes as f64 / elapsed.as_secs_f64()
    }
}

/// `x.ceil() as u64` for every `f64` — negatives and NaN give 0,
/// `+inf` and anything ≥ 2⁶⁴ give `u64::MAX` — without `f64::ceil`,
/// which baseline x86-64 has no instruction for and calls out to
/// software. The saturating cast truncates; a positive fraction it cut
/// off rounds up.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GB/s", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_for_scales_linearly() {
        let bw = Bandwidth::from_gbps(10.0);
        assert_eq!(bw.time_for(0), SimTime::ZERO);
        // 10 GB/s == 10 bytes/ns, so 1000 bytes == 100 ns.
        assert_eq!(bw.time_for(1_000).as_nanos(), 100);
        assert_eq!(bw.time_for(2_000).as_nanos(), 200);
    }

    #[test]
    fn tiny_transfers_round_up() {
        let bw = Bandwidth::from_gbps(100.0);
        // 1 byte at 100 B/ns would be 0.01 ns; must round up to 1 ns.
        assert_eq!(bw.time_for(1).as_nanos(), 1);
    }

    #[test]
    fn ceil_u64_is_ceil_then_cast() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            -0.5,
            -1.0,
            -1e300,
            f64::MIN_POSITIVE,
            f64::from_bits(1),  // smallest subnormal
            4503599627370495.5, // 2⁵² − ½: the last half-integer
            9007199254740991.0, // 2⁵³ − 1
            9007199254740992.0, // 2⁵³
            9007199254740994.0,
            18446744073709549568.0, // the largest f64 below 2⁶⁴
            18446744073709551616.0, // 2⁶⁴
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in edges {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
        }
        let mut r = crate::rng::rng(0xCE11);
        for i in 0..100_000 {
            // Alternate raw bit patterns (every exponent, NaNs,
            // infinities) with nanosecond-scale values.
            let x = if i % 2 == 0 {
                f64::from_bits(r.next_u64())
            } else {
                r.next_u64() as f64 / (1u64 << (r.next_u64() % 64)) as f64
            };
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e} ({:#x})", x.to_bits());
        }
    }

    #[test]
    fn derating() {
        let bw = Bandwidth::from_gbps(10.0).derated(0.5);
        assert!((bw.as_gbps() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn derate_rejects_zero() {
        let _ = Bandwidth::from_gbps(1.0).derated(0.0);
    }

    #[test]
    fn effective_bandwidth() {
        let t = SimTime::from_nanos(100);
        let e = Bandwidth::effective(1_000, t);
        assert!((e - 1e10).abs() / 1e10 < 1e-12);
    }
}
