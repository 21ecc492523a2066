//! Confidence intervals for Monte-Carlo estimates.
//!
//! Cover-time samples are heavy-tailed but have finite variance on finite
//! graphs, so the normal approximation is adequate at the trial counts we
//! use (≥ 32).

use crate::summary::Summary;

/// A two-sided confidence interval `[lo, hi]` around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean).
    pub point: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level in (0, 1), e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// Half-width relative to the point estimate.
    pub fn relative_half_width(&self) -> f64 {
        self.half_width() / self.point.abs()
    }

    /// Whether `x` falls inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Formats as `point [lo, hi]` with the given precision.
    pub fn display(&self, decimals: usize) -> String {
        format!(
            "{:.d$} [{:.d$}, {:.d$}]",
            self.point,
            self.lo,
            self.hi,
            d = decimals
        )
    }
}

/// Two-sided standard-normal quantile `z` such that `P(|Z| ≤ z) = level`.
///
/// Uses the Acklam rational approximation of the inverse normal CDF
/// (max absolute error ≈ 1.15e-9), which is far more accuracy than a
/// Monte-Carlo CI needs.
pub fn z_quantile(level: f64) -> f64 {
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0,1), got {level}"
    );
    // Two-sided: find z with Φ(z) = (1 + level) / 2.
    inverse_normal_cdf((1.0 + level) / 2.0)
}

/// Inverse of the standard normal CDF (Acklam's algorithm).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.50662827745924e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Normal-approximation CI for the mean of a summarized sample.
pub fn normal_ci(summary: &Summary, level: f64) -> ConfidenceInterval {
    let z = z_quantile(level);
    let half = z * summary.std_err();
    ConfidenceInterval {
        point: summary.mean(),
        lo: summary.mean() - half,
        hi: summary.mean() + half,
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_quantile_standard_values() {
        assert!((z_quantile(0.95) - 1.959964).abs() < 1e-4);
        assert!((z_quantile(0.99) - 2.575829).abs() < 1e-4);
        assert!((z_quantile(0.6827) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn inverse_normal_cdf_symmetry() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.4] {
            let lo = inverse_normal_cdf(p);
            let hi = inverse_normal_cdf(1.0 - p);
            assert!((lo + hi).abs() < 1e-8, "asymmetry at p={p}: {lo} vs {hi}");
        }
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn z_quantile_rejects_bad_level() {
        z_quantile(1.0);
    }

    #[test]
    fn normal_ci_brackets_mean() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let ci = normal_ci(&s, 0.95);
        assert!(ci.contains(3.0));
        assert!(ci.lo < 3.0 && ci.hi > 3.0);
        assert!((ci.point - 3.0).abs() < 1e-12);
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let ci95 = normal_ci(&s, 0.95);
        let ci99 = normal_ci(&s, 0.99);
        assert!(ci99.half_width() > ci95.half_width());
    }
}
