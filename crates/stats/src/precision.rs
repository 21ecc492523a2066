//! Sequential stopping rules for adaptive Monte-Carlo trial budgets.
//!
//! Every estimator in this workspace used to burn a fixed trial count
//! whether its confidence interval was already tight or still useless.
//! This module provides the standard alternative from the experimental
//! literature — *sequential stopping*: keep sampling until the CI
//! half-width crosses a requested precision, subject to a minimum-sample
//! floor (so the normal approximation is valid) and a hard cap (so a
//! heavy-tailed instance cannot run forever).
//!
//! Two pieces:
//!
//! * [`Precision`] — the rule itself: an absolute or relative half-width
//!   target at a confidence level, plus the floor and cap, with the wave
//!   schedule ([`Precision::next_wave`]) and the stopping test
//!   ([`Precision::satisfied_by`]).
//! * [`Trials`] — the budget type estimator entry points accept:
//!   [`Trials::Fixed`] (the classical flat count) or [`Trials::Adaptive`]
//!   (a `Precision`).
//!
//! The loop that applies the rule lives in one place, `mrw-core`'s wave
//! driver (`mrw_core::query::waves`), shared by every executor.
//!
//! ## Determinism
//!
//! The rule is a pure function of the observed sample prefix: given the
//! same observations in the same (index) order, [`Precision::satisfied_by`]
//! and [`Precision::next_wave`] always answer the same. A driver that
//! dispatches trials in waves and evaluates the rule only at wave
//! boundaries therefore consumes a trial count that depends only on the
//! rule and the per-index sample values — never on thread count or
//! scheduling.

use crate::ci::z_quantile;
use crate::summary::Summary;

/// The half-width target of a [`Precision`] rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecisionTarget {
    /// Stop when the CI half-width is at most this many absolute units
    /// (rounds, steps, …).
    Absolute(f64),
    /// Stop when the CI half-width is at most this fraction of the point
    /// estimate's magnitude (e.g. `0.05` = ±5%).
    Relative(f64),
}

/// A sequential stopping rule: sample until the normal-approximation CI
/// half-width at [`confidence`](Precision::confidence) crosses the
/// [`target`](Precision::target), but never before
/// [`min_trials`](Precision::min_trials) observations (the normal
/// approximation needs a floor) and never beyond
/// [`max_trials`](Precision::max_trials) (heavy-tailed instances must
/// terminate).
///
/// ```
/// use mrw_stats::precision::Precision;
/// use mrw_stats::Summary;
///
/// let rule = Precision::relative(0.5).with_min_trials(4).with_max_trials(100);
/// let tight = Summary::from_slice(&[10.0, 10.1, 9.9, 10.0]);
/// let loose = Summary::from_slice(&[1.0, 30.0, 2.0, 40.0]);
/// assert!(rule.satisfied_by(&tight));
/// assert!(!rule.satisfied_by(&loose));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Absolute or relative half-width target.
    pub target: PrecisionTarget,
    /// Confidence level in (0, 1) for the interval, e.g. `0.95`.
    pub confidence: f64,
    /// Minimum observations before the rule may fire. The default of 32
    /// matches the floor `mrw_stats::ci` documents for the normal
    /// approximation on cover-time samples.
    pub min_trials: usize,
    /// Hard cap on observations; sampling stops there even if the target
    /// was missed.
    pub max_trials: usize,
}

/// Default minimum-sample floor (see [`Precision::min_trials`]).
pub const DEFAULT_MIN_TRIALS: usize = 32;

/// Default hard trial cap (see [`Precision::max_trials`]).
pub const DEFAULT_MAX_TRIALS: usize = 4096;

impl Precision {
    /// Rule targeting an absolute half-width `h`, at 95% confidence with
    /// the default floor and cap.
    ///
    /// # Panics
    /// If `h` is not positive and finite.
    pub fn absolute(h: f64) -> Self {
        assert!(h > 0.0 && h.is_finite(), "absolute precision {h} invalid");
        Precision {
            target: PrecisionTarget::Absolute(h),
            confidence: 0.95,
            min_trials: DEFAULT_MIN_TRIALS,
            max_trials: DEFAULT_MAX_TRIALS,
        }
    }

    /// Rule targeting a relative half-width `r` (fraction of the mean's
    /// magnitude), at 95% confidence with the default floor and cap.
    ///
    /// # Panics
    /// If `r` is not positive and finite.
    pub fn relative(r: f64) -> Self {
        assert!(r > 0.0 && r.is_finite(), "relative precision {r} invalid");
        Precision {
            target: PrecisionTarget::Relative(r),
            confidence: 0.95,
            min_trials: DEFAULT_MIN_TRIALS,
            max_trials: DEFAULT_MAX_TRIALS,
        }
    }

    /// Sets the confidence level.
    ///
    /// # Panics
    /// If `level` is outside (0, 1).
    pub fn with_confidence(mut self, level: f64) -> Self {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must be in (0,1), got {level}"
        );
        self.confidence = level;
        self
    }

    /// Sets the minimum-sample floor (clamped up to 2 — a half-width needs
    /// a variance estimate).
    pub fn with_min_trials(mut self, floor: usize) -> Self {
        self.min_trials = floor.max(2);
        if self.max_trials < self.min_trials {
            self.max_trials = self.min_trials;
        }
        self
    }

    /// Sets the hard trial cap.
    ///
    /// # Panics
    /// If `cap` is below the current floor.
    pub fn with_max_trials(mut self, cap: usize) -> Self {
        assert!(
            cap >= self.min_trials,
            "cap {cap} below the minimum-sample floor {}",
            self.min_trials
        );
        self.max_trials = cap;
        self
    }

    /// The half-width the rule demands for `summary`'s point estimate:
    /// the absolute target, or the relative target scaled by `|mean|`.
    pub fn demanded_half_width(&self, summary: &Summary) -> f64 {
        match self.target {
            PrecisionTarget::Absolute(h) => h,
            PrecisionTarget::Relative(r) => r * summary.mean().abs(),
        }
    }

    /// Whether `summary` already meets the precision target (floor
    /// included). A pure function of the summary — see the module docs'
    /// determinism contract.
    pub fn satisfied_by(&self, summary: &Summary) -> bool {
        if (summary.count() as usize) < self.min_trials {
            return false;
        }
        let half = z_quantile(self.confidence) * summary.std_err();
        // A zero-mean sample can never satisfy a relative target unless it
        // is exactly degenerate (half == 0 == demanded).
        half <= self.demanded_half_width(summary)
    }

    /// Wave schedule: how many more trials to dispatch after `consumed`
    /// have been observed without the rule firing. The first wave is the
    /// floor; each later wave is half the consumed count (geometric ×1.5
    /// growth, the standard sequential-sampling doubling trick — at most
    /// ~50% overshoot past the stopping point while keeping the number of
    /// rule evaluations logarithmic in the cap). Always clamped so the
    /// total never exceeds [`max_trials`](Precision::max_trials); returns
    /// 0 once the cap is reached.
    pub fn next_wave(&self, consumed: usize) -> usize {
        if consumed >= self.max_trials {
            return 0;
        }
        let want = if consumed == 0 {
            self.min_trials
        } else {
            (consumed / 2).max(1)
        };
        want.min(self.max_trials - consumed)
    }
}

/// A Monte-Carlo trial budget: how many trials an estimator should run.
///
/// ```
/// use mrw_stats::precision::{Precision, Trials};
///
/// let fixed = Trials::Fixed(64);
/// let adaptive = Trials::Adaptive(Precision::relative(0.05).with_max_trials(1024));
/// assert_eq!(fixed.cap(), 64);
/// assert_eq!(adaptive.cap(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trials {
    /// Run exactly this many trials.
    Fixed(usize),
    /// Run until the precision rule fires (or its cap is hit).
    Adaptive(Precision),
}

impl Trials {
    /// The most trials this budget can consume: the fixed count, or the
    /// adaptive rule's hard cap.
    pub fn cap(&self) -> usize {
        match self {
            Trials::Fixed(n) => *n,
            Trials::Adaptive(p) => p.max_trials,
        }
    }

    /// The adaptive rule, if this budget is adaptive.
    pub fn precision(&self) -> Option<&Precision> {
        match self {
            Trials::Fixed(_) => None,
            Trials::Adaptive(p) => Some(p),
        }
    }
}

impl From<usize> for Trials {
    fn from(n: usize) -> Self {
        Trials::Fixed(n)
    }
}

impl From<Precision> for Trials {
    fn from(p: Precision) -> Self {
        Trials::Adaptive(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_blocks_early_stop() {
        // Constant sample: half-width is 0 immediately, but the floor
        // holds the rule back until min_trials.
        let rule = Precision::absolute(1.0)
            .with_min_trials(8)
            .with_max_trials(64);
        let mut s = Summary::new();
        for i in 0..8 {
            assert!(!rule.satisfied_by(&s), "fired at count {i}");
            s.push(7.0);
        }
        assert!(rule.satisfied_by(&s));
    }

    #[test]
    fn absolute_target_uses_half_width() {
        let rule = Precision::absolute(0.5)
            .with_min_trials(2)
            .with_max_trials(1000);
        // std_err of {0,1}*500 alternating is tiny; half-width < 0.5.
        let xs: Vec<f64> = (0..1000).map(|i| (i % 2) as f64).collect();
        assert!(rule.satisfied_by(&Summary::from_slice(&xs)));
        // Two wildly different points: huge half-width.
        assert!(!rule.satisfied_by(&Summary::from_slice(&[0.0, 100.0])));
    }

    #[test]
    fn relative_target_scales_with_mean() {
        let rule = Precision::relative(0.1)
            .with_min_trials(2)
            .with_max_trials(1000);
        // Same spread, mean 1000 → relative half-width tiny.
        let big = Summary::from_slice(&[999.0, 1001.0, 1000.0, 1000.0]);
        assert!(rule.satisfied_by(&big));
        // Same spread, mean 1 → relative half-width huge.
        let small = Summary::from_slice(&[0.0, 2.0, 1.0, 1.0]);
        assert!(!rule.satisfied_by(&small));
    }

    #[test]
    fn zero_mean_relative_never_fires_on_noise() {
        let rule = Precision::relative(0.05)
            .with_min_trials(2)
            .with_max_trials(64);
        let s = Summary::from_slice(&[-1.0, 1.0, -1.0, 1.0]);
        assert!(!rule.satisfied_by(&s));
    }

    #[test]
    fn wave_schedule_floors_then_grows_then_caps() {
        let rule = Precision::absolute(0.1)
            .with_min_trials(16)
            .with_max_trials(100);
        assert_eq!(rule.next_wave(0), 16);
        assert_eq!(rule.next_wave(16), 8);
        assert_eq!(rule.next_wave(24), 12);
        assert_eq!(rule.next_wave(96), 4); // clamped to the cap
        assert_eq!(rule.next_wave(100), 0);
        assert_eq!(rule.next_wave(200), 0);
    }

    #[test]
    fn wave_schedule_never_exceeds_cap() {
        let rule = Precision::absolute(1.0)
            .with_min_trials(32)
            .with_max_trials(333);
        let mut consumed = 0;
        loop {
            let w = rule.next_wave(consumed);
            if w == 0 {
                break;
            }
            consumed += w;
            assert!(consumed <= 333, "overran the cap at {consumed}");
        }
        assert_eq!(consumed, 333);
    }

    #[test]
    fn merged_summaries_decide_like_one_stream() {
        // Two shards' samples, summarized separately and merged, get the
        // verdict the single stream gets — what post-merge certification
        // relies on.
        let rule = Precision::absolute(0.5)
            .with_min_trials(4)
            .with_max_trials(64);
        let xs: Vec<f64> = (0..16).map(|i| 10.0 + (i % 2) as f64).collect();
        let whole = Summary::from_slice(&xs);
        let mut merged = Summary::from_slice(&xs[7..]);
        merged.merge(&Summary::from_slice(&xs[..7]));
        assert_eq!(merged.count(), whole.count());
        assert!(rule.satisfied_by(&whole));
        assert_eq!(rule.satisfied_by(&merged), rule.satisfied_by(&whole));
    }

    #[test]
    fn min_floor_clamps_to_two() {
        let rule = Precision::absolute(1.0).with_min_trials(0);
        assert_eq!(rule.min_trials, 2);
    }

    #[test]
    #[should_panic(expected = "below the minimum-sample floor")]
    fn cap_below_floor_rejected() {
        let _ = Precision::absolute(1.0)
            .with_min_trials(64)
            .with_max_trials(8);
    }

    #[test]
    fn trials_conversions() {
        assert_eq!(Trials::from(7usize), Trials::Fixed(7));
        let p = Precision::relative(0.1);
        assert_eq!(Trials::from(p).precision(), Some(&p));
        assert_eq!(Trials::Fixed(3).precision(), None);
    }
}
