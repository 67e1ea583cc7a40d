//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `pct` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples support reporting `pct`: a percentile is an
/// estimate only when enough samples lie beyond it (ten, as in the
/// choosing-metrics guide), so p95 needs 200 samples and p99 needs 1,000.
pub fn supports(n: usize, pct: f64) -> bool {
    n as f64 * (100.0 - pct) >= 1000.0
}

/// Sorts ascending; every sample here is a finite duration or ratio.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Median by nearest rank; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `a / b`, or 0 when `b` is 0 (an idle layer did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method) — the spread the acceptance rule is stated in. Falls
/// back to `(max − min) / median` below four values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let med = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    if med == 0.0 {
        return 0.0;
    }
    if n < 4 {
        return (v[n - 1] - v[0]) / med.abs();
    }
    let quantile = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quantile(0.75) - quantile(0.25)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Between ranks the nearest rank rounds up, never interpolates.
        let w = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&w, 50.0), 20.0);
        assert_eq!(percentile(&w, 34.0), 20.0);
        assert_eq!(percentile(&w, 33.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn enough_samples_beyond_rule() {
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((quartile_spread(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert!((quartile_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
