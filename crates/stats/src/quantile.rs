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

/// Five-number summary: min, q25, median, q75, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNum {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes the five-number summary of a sample.
pub fn five_num(sample: &[f64]) -> FiveNum {
    let mut xs = sample.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    FiveNum {
        min: xs[0],
        q25: quantile_sorted(&xs, 0.25),
        median: quantile_sorted(&xs, 0.5),
        q75: quantile_sorted(&xs, 0.75),
        max: xs[xs.len() - 1],
    }
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
        let f = five_num(&[7.0]);
        assert_eq!(f.min, 7.0);
        assert_eq!(f.max, 7.0);
        assert_eq!(f.median, 7.0);
    }

    #[test]
    fn interpolation_matches_numpy_type7() {
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.25) - 1.75).abs() < 1e-12);
        // numpy.percentile([1,2,3,4], 75) == 3.25
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.75) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn five_num_ordering_invariant() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
        let f = five_num(&xs);
        assert!(f.min <= f.q25 && f.q25 <= f.median && f.median <= f.q75 && f.q75 <= f.max);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        quantile(&[], 0.5);
    }
}
