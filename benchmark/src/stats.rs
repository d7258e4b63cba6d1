//! Order statistics the metrics are built from. Wall metrics are
//! medians over segments or pooled op samples — never a single shot —
//! so a short neighbour burst or the allocator's first-set-up transient
//! moves no reported number.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one segment.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), which is what
/// the driver's spread check uses. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks; like Python, the index
        // is clamped to the data and the weight is not, so tiny samples
        // extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The tail statistic of `samples`: the highest of the usual
/// percentiles that still has at least ten samples beyond it, with the
/// percentile it is. With fewer than twenty samples even the median
/// has fewer than ten beyond it, and the maximum is reported as p100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for per_mille in [999usize, 990, 950, 900, 750, 500] {
        // Nearest-rank percentile: the smallest value with at least
        // that share of the samples at or below it.
        let rank = (per_mille * n).div_ceil(1000);
        if n - rank >= 10 {
            return (per_mille as f64 / 10.0, v[rank - 1]);
        }
    }
    (100.0, v[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_steps_over_one_outlier_segment() {
        // The allocator transient: one of nine set-ups takes 12x.
        let setups = [0.35, 4.5, 0.36, 0.34, 0.35, 0.37, 0.35, 0.36, 0.34];
        assert_eq!(median(&setups), 0.35);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 270 samples (9 segments x 30 ops): p95 leaves 13 beyond, p99 only 2.
        assert_eq!(tail(&ramp(270)), (95.0, 257.0));
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 45 samples (9 x 5 soak ops): p75 leaves 11 beyond.
        assert_eq!(tail(&ramp(45)), (75.0, 34.0));
        // 20 samples: only the median qualifies; below that, the maximum.
        assert_eq!(tail(&ramp(20)), (50.0, 10.0));
        assert_eq!(tail(&ramp(19)), (100.0, 19.0));
    }
}
