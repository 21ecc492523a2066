//! Single-pass streaming summary statistics (Welford's algorithm).
//!
//! [`Summary`] accumulates count, mean, variance (via the centered second
//! moment `M2`), minimum and maximum in one pass with O(1) state. Two
//! summaries can be [merged](Summary::merge) exactly (Chan's parallel
//! variant), which lets worker threads accumulate locally and combine at the
//! end without any loss of precision relative to a sequential pass.

/// Streaming summary of a sample of `f64` observations.
///
/// ```
/// use mrw_stats::Summary;
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12); // sample variance
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Reconstructs a summary from its sufficient statistics — the
    /// inverse of the accessors. This is how exact integer accumulators
    /// ([`IntMoments`](crate::IntMoments)) and deserialized shard reports
    /// rebuild a `Summary` view: given the same `(count, mean, m2, min,
    /// max)`, the result is bit-identical regardless of how the sample was
    /// partitioned.
    ///
    /// # Panics
    /// If `m2` is negative, or `count == 0` with nonzero statistics.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        assert!(m2 >= 0.0, "negative second moment {m2}");
        if count == 0 {
            assert!(
                mean == 0.0 && m2 == 0.0,
                "empty summary with nonzero moments"
            );
            return Summary::new();
        }
        Summary {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(
            x.is_finite(),
            "Summary::push requires finite values, got {x}"
        );
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another summary into this one (exact, order-independent up to
    /// floating-point rounding).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean. Zero for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`M2 / (n - 1)`). Zero when `n < 2`.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`s / √n`).
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Coefficient of variation (`s / mean`); `NaN` when the mean is zero.
    pub fn coeff_of_variation(&self) -> f64 {
        self.std_dev() / self.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = Summary::new();
        s.push(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64).sqrt())
            .collect();
        let s = Summary::from_slice(&xs);
        let (mean, var) = naive_mean_var(&xs);
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.variance() - var).abs() < 1e-8);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 100.0).collect();
        let whole = Summary::from_slice(&xs);
        for split in [1, 7, 250, 499] {
            let mut a = Summary::from_slice(&xs[..split]);
            let b = Summary::from_slice(&xs[split..]);
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert!((a.mean() - whole.mean()).abs() < 1e-10);
            assert!((a.variance() - whole.variance()).abs() < 1e-8);
            assert_eq!(a.min(), whole.min());
            assert_eq!(a.max(), whole.max());
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut s = Summary::from_slice(&xs);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn std_err_shrinks_with_n() {
        let mut small = Summary::new();
        let mut large = Summary::new();
        for i in 0..10 {
            small.push((i % 3) as f64);
        }
        for i in 0..10_000 {
            large.push((i % 3) as f64);
        }
        assert!(large.std_err() < small.std_err());
    }

    #[test]
    fn constant_sample_has_zero_variance() {
        let s = Summary::from_slice(&[5.0; 64]);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.mean(), 5.0);
    }
}
