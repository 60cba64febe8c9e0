//! Order statistics used for every reported timing.

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile (`q` in `0..=1`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples above the nearest-rank `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The guide's rule: a percentile is supported only with at least ten
/// samples beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) gives them — the driver's spread measure.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        assert!(supported(20, 0.50));
        assert!(!supported(19, 0.50));
        assert!(supported(100, 0.90));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
