//! Exact sufficient statistics for integer-valued samples.
//!
//! Every Monte-Carlo trial in this workspace produces an *integer* — a
//! round count, a step count, a catch time. [`IntMoments`] accumulates the
//! sufficient statistics of such a sample (`count`, `Σx`, `Σx²`, `min`,
//! `max`) in exact integer arithmetic, which buys a property a floating
//! accumulator cannot offer: [`merge`](IntMoments::merge) is exactly
//! associative and commutative. Accumulating trials `0..m` and `m..n` in
//! two processes and merging is **bit-for-bit identical** to one pass over
//! `0..n` — the foundation of the shard protocol in `mrw-core`'s query
//! layer. The derived floating-point views ([`mean`](IntMoments::mean),
//! [`variance`](IntMoments::variance), [`summary`](IntMoments::summary))
//! are pure functions of the integer state, so they too are identical
//! however the sample was partitioned.
//!
//! Contrast with [`Summary`]: Welford's algorithm updates
//! a floating mean and `M2` per observation, so its merge (Chan's variant)
//! agrees with a sequential pass only up to rounding — fine for display,
//! fatal for a byte-identical shard merge.
//!
//! ## Range
//!
//! The second moment is derived from the exact integer `n·Σx² − (Σx)²`,
//! held in `u128`. With samples bounded by `2^40` and sample counts
//! bounded by `2^24` (far beyond any trial cap in this workspace) the
//! intermediate stays below `2^128`; larger inputs would wrap in debug
//! builds and are outside the supported domain.

use crate::summary::Summary;

/// Exact streaming moments of a sample of `u64` observations.
///
/// ```
/// use mrw_stats::IntMoments;
///
/// let mut a = IntMoments::new();
/// let mut b = IntMoments::new();
/// let mut whole = IntMoments::new();
/// for (i, x) in [3u64, 1, 4, 1, 5, 9, 2, 6].into_iter().enumerate() {
///     if i < 3 { a.push(x) } else { b.push(x) }
///     whole.push(x);
/// }
/// a.merge(&b);
/// assert_eq!(a, whole); // exact — not "close"
/// assert_eq!(a.count(), 8);
/// assert_eq!(a.min(), Some(1));
/// assert_eq!(a.max(), Some(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntMoments {
    count: u64,
    sum: u128,
    sum_sq: u128,
    /// `u64::MAX` when empty (identity of `min`).
    min: u64,
    /// `0` when empty (identity of `max`).
    max: u64,
}

impl IntMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        IntMoments {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Reconstructs an accumulator from raw sufficient statistics — the
    /// fallible inverse of the accessors, used when deserializing a shard
    /// report. Rejects statistics inconsistent with *any* sample: an
    /// empty count with nonzero sums, `min > max`, `n·Σx² < (Σx)²`
    /// (violates Cauchy–Schwarz), or values so large the consistency
    /// check itself would overflow `u128` (outside the module's
    /// documented range, so they cannot have come from `push`).
    pub fn try_from_raw(
        count: u64,
        sum: u128,
        sum_sq: u128,
        min: u64,
        max: u64,
    ) -> Result<Self, String> {
        if count == 0 {
            if sum != 0 || sum_sq != 0 {
                return Err("empty sample with nonzero sums".into());
            }
            return Ok(IntMoments::new());
        }
        let lhs = (count as u128)
            .checked_mul(sum_sq)
            .ok_or("moments out of range: n·Σx² overflows u128")?;
        let rhs = sum
            .checked_mul(sum)
            .ok_or("moments out of range: (Σx)² overflows u128")?;
        if lhs < rhs {
            return Err("inconsistent moments: n·Σx² < (Σx)²".into());
        }
        if min > max {
            return Err(format!("min {min} > max {max}"));
        }
        Ok(IntMoments {
            count,
            sum,
            sum_sq,
            min,
            max,
        })
    }

    /// Adds one observation.
    pub fn push(&mut self, x: u64) {
        self.count += 1;
        self.sum += x as u128;
        self.sum_sq += (x as u128) * (x as u128);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one — exactly associative and
    /// commutative (integer sums, integer min/max).
    pub fn merge(&mut self, other: &IntMoments) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum `Σx`.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact sum of squares `Σx²`.
    pub fn sum_sq(&self) -> u128 {
        self.sum_sq
    }

    /// Minimum observation, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sample mean `Σx / n` (0 when empty) — the correctly-rounded `f64`
    /// of the exact rational, identical however the sample was merged.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Centered second moment `M2 = Σ(x − x̄)² = (n·Σx² − (Σx)²) / n`,
    /// derived from the exact integer numerator.
    pub fn m2(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let num = (self.count as u128) * self.sum_sq - self.sum * self.sum;
        num as f64 / self.count as f64
    }

    /// Unbiased sample variance (`M2 / (n − 1)`). Zero when `n < 2`.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let num = (self.count as u128) * self.sum_sq - self.sum * self.sum;
        num as f64 / (self.count as f64 * (self.count - 1) as f64)
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

    /// A [`Summary`] view of the same sample (for CI construction and
    /// [`Precision`](crate::Precision) rule evaluation). A pure function
    /// of the integer state: two partitions of the same sample produce
    /// bit-identical summaries.
    pub fn summary(&self) -> Summary {
        Summary::from_parts(
            self.count,
            self.mean(),
            self.m2(),
            self.min().map_or(f64::INFINITY, |m| m as f64),
            self.max().map_or(f64::NEG_INFINITY, |m| m as f64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_identity() {
        let mut a = IntMoments::new();
        let mut b = IntMoments::new();
        b.push(7);
        let before = b;
        b.merge(&IntMoments::new());
        assert_eq!(b, before);
        a.merge(&before);
        assert_eq!(a, before);
        assert_eq!(IntMoments::new().min(), None);
        assert_eq!(IntMoments::new().mean(), 0.0);
    }

    #[test]
    fn matches_welford_summary_closely() {
        let xs: Vec<u64> = (0..500).map(|i| (i * i * 37) % 1000).collect();
        let mut m = IntMoments::new();
        let mut s = Summary::new();
        for &x in &xs {
            m.push(x);
            s.push(x as f64);
        }
        assert_eq!(m.count(), s.count());
        assert!((m.mean() - s.mean()).abs() < 1e-9);
        assert!((m.variance() - s.variance()).abs() < 1e-6);
        assert_eq!(m.min(), Some(0));
        assert_eq!(m.summary().min(), s.min());
        assert_eq!(m.summary().max(), s.max());
    }

    #[test]
    fn any_partition_merges_bit_identically() {
        let xs: Vec<u64> = (0..257).map(|i| (i * 2654435761u64) >> 40).collect();
        let mut whole = IntMoments::new();
        for &x in &xs {
            whole.push(x);
        }
        for split in [1usize, 13, 128, 256] {
            let mut a = IntMoments::new();
            let mut b = IntMoments::new();
            for &x in &xs[..split] {
                a.push(x);
            }
            for &x in &xs[split..] {
                b.push(x);
            }
            // Both orders: commutative.
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_eq!(ab, whole);
            assert_eq!(ba, whole);
            assert_eq!(ab.summary(), whole.summary());
        }
    }

    #[test]
    fn from_raw_round_trips() {
        let mut m = IntMoments::new();
        for x in [5u64, 10, 15] {
            m.push(x);
        }
        let r = IntMoments::try_from_raw(m.count(), m.sum(), m.sum_sq(), 5, 15);
        assert_eq!(r, Ok(m));
        assert_eq!(
            IntMoments::try_from_raw(0, 0, 0, u64::MAX, 0),
            Ok(IntMoments::new())
        );
    }

    #[test]
    fn try_from_raw_rejects_garbage_without_panicking() {
        // Inconsistent second moment.
        assert!(IntMoments::try_from_raw(2, 10, 40, 5, 5).is_err());
        // min > max.
        assert!(IntMoments::try_from_raw(2, 10, 60, 9, 3).is_err());
        // Empty count with nonzero sums.
        assert!(IntMoments::try_from_raw(0, 1, 1, 0, 0).is_err());
        // Values large enough to overflow the consistency check must be
        // rejected as out of range, not wrapped or panicked on.
        assert!(IntMoments::try_from_raw(2, 1 << 127, u128::MAX, 0, 1).is_err());
        assert!(IntMoments::try_from_raw(u64::MAX, 1, u128::MAX, 0, 1).is_err());
    }

    #[test]
    fn constant_sample_zero_variance() {
        let mut m = IntMoments::new();
        for _ in 0..64 {
            m.push(42);
        }
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.mean(), 42.0);
        assert_eq!(m.summary().std_err(), 0.0);
    }
}
