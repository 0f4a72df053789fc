//! Order statistics: the percentile rule for latencies and the
//! quartile rule `compare` shares with the driver.

/// Fewest samples for which a p99 is reported: the percentile must
/// have at least ten samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Nearest-rank percentile of an ascending slice; `q` in (0, 1].
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 99th percentile, refused below [`P99_MIN_SAMPLES`] samples.
pub fn p99(sorted: &[u64]) -> Result<u64, String> {
    if sorted.len() < P99_MIN_SAMPLES {
        return Err(format!(
            "p99 refused: {} samples, {P99_MIN_SAMPLES} needed",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, 0.99))
}

/// The highest percentile `sorted` supports with ten samples beyond
/// it, for runs too short for a p99 (`--smoke`). Returns `(q, value)`.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    match p99(sorted) {
        Ok(v) => (0.99, v),
        Err(_) => {
            let n = sorted.len() as f64;
            let q = ((n - 10.0) / n).max(0.5);
            (q, percentile(sorted, q))
        }
    }
}

/// Median of unsorted values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 below two values.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let few: Vec<u64> = (1..=999).collect();
        assert!(p99(&few).is_err());
        let enough: Vec<u64> = (1..=1000).collect();
        assert_eq!(p99(&enough), Ok(990));
        // The fallback keeps ten samples beyond the reported percentile.
        let (q, v) = tail(&few[..100]);
        assert!((q - 0.9).abs() < 1e-9);
        assert_eq!(v, 90);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 0.5), 20);
        assert_eq!(percentile(&s, 0.75), 30);
        assert_eq!(percentile(&s, 1.0), 40);
        assert_eq!(percentile(&s, 0.01), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[16.0, 1.0, 4.0, 2.0, 8.0]) - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }
}
