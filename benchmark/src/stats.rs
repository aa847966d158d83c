//! Order statistics for the two ledgers: medians and quartiles for noisy
//! host timings, nearest-rank percentiles for virtual-time latencies.

/// Sort ascending. Every value the benchmark measures is finite.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurement"));
    v
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the acceptance procedure uses that function, so the spreads printed
/// here are the spreads it will see. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median (mean of the two middle values when the count is even).
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 1, "median of nothing");
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// Nearest-rank percentile of an ascending slice, `p` in (0, 1].
pub fn percentile(ascending: &[u64], p: f64) -> u64 {
    assert!(!ascending.is_empty(), "percentile of nothing");
    let rank = (p * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn supports_percentile(samples: usize, p: f64) -> bool {
    samples as f64 * (1.0 - p) >= 10.0 - 1e-9
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.5, 5.0, 7.5]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    #[test]
    fn ten_samples_beyond_the_percentile() {
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
        assert!(supports_percentile(10_000, 0.999));
        assert!(!supports_percentile(5_000, 0.999));
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 6]), 3.0);
    }
}
