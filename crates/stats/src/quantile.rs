//! Order statistics on sample vectors.
//!
//! Cover-time distributions are skewed; the median and tail quantiles are
//! often more informative than the mean, and Aldous' concentration theorem
//! (Theorem 17 in the paper) predicts `τ/C → 1`, which we check empirically
//! by looking at the interquartile range shrinking relative to the mean.

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `sample` using linear
/// interpolation between order statistics (type-7, the R/NumPy default).
///
/// Sorts a copy; O(n log n). Panics on an empty sample or NaN values.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    assert!(!sample.is_empty(), "quantile of empty sample");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile level must be in [0,1], got {q}"
    );
    let mut xs = sample.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    quantile_sorted(&xs, q)
}

/// Like [`quantile`] but assumes `sorted` is already ascending. O(1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of a sample (50th percentile).
pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn extremes() {
        let xs = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 9.0);
    }

    #[test]
    fn singleton() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
        assert_eq!(quantile(&[7.0], 1.0), 7.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn interpolation_matches_numpy_type7() {
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.25) - 1.75).abs() < 1e-12);
        // numpy.percentile([1,2,3,4], 75) == 3.25
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.75) - 3.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        quantile(&[], 0.5);
    }
}
