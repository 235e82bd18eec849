//! Order statistics used for every reported timing.

/// Sorted copy (NaNs would be a measurement bug; they sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Quantile `q` in [0, 1] of an ascending slice, linearly interpolated
/// between the two nearest order statistics.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them, so a spread printed here is the
/// number a reader re-deriving it from the samples gets. `None` below two
/// samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; `None` when even the 90th has fewer (a tail read off
/// fewer than ten samples is noise).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand)
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(150), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.9), 4.6);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
