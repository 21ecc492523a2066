//! Property-based tests for the statistics layer.

use mrw_stats::ci::normal_ci;
use mrw_stats::quantile::quantile;
use mrw_stats::regression::{linear_fit, power_law_fit};
use mrw_stats::{Precision, Summary};
use proptest::prelude::*;

fn finite_sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

proptest! {
    #[test]
    fn summary_merge_any_split(xs in finite_sample(), split_frac in 0.0f64..1.0) {
        let split = ((xs.len() as f64) * split_frac) as usize;
        let whole = Summary::from_slice(&xs);
        let mut a = Summary::from_slice(&xs[..split]);
        let b = Summary::from_slice(&xs[split..]);
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance()));
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn summary_mean_within_min_max(xs in finite_sample()) {
        let s = Summary::from_slice(&xs);
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variance() >= 0.0);
    }

    #[test]
    fn quantiles_monotone_and_bounded(xs in finite_sample(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo);
        let b = quantile(&xs, hi);
        prop_assert!(a <= b + 1e-12);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-12 && b <= max + 1e-12);
    }

    #[test]
    fn normal_ci_contains_point_and_scales(xs in prop::collection::vec(-1e3f64..1e3, 3..100)) {
        let s = Summary::from_slice(&xs);
        let ci90 = normal_ci(&s, 0.90);
        let ci99 = normal_ci(&s, 0.99);
        prop_assert!(ci90.contains(s.mean()));
        prop_assert!(ci99.half_width() >= ci90.half_width());
    }

    #[test]
    fn linear_fit_recovers_exact_lines(slope in -100.0f64..100.0, intercept in -100.0f64..100.0) {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = linear_fit(&xs, &ys);
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-6 * (1.0 + intercept.abs()));
    }

    #[test]
    fn power_fit_recovers_exact_laws(exp in -3.0f64..3.0, coeff in 0.01f64..100.0) {
        let xs: Vec<f64> = (1..16).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| coeff * x.powf(exp)).collect();
        let fit = power_law_fit(&xs, &ys);
        prop_assert!((fit.exponent - exp).abs() < 1e-6);
        prop_assert!((fit.coeff - coeff).abs() < 1e-6 * coeff);
    }

    #[test]
    fn precision_wave_schedule_fills_the_cap_exactly(
        floor in 2usize..64,
        cap_extra in 0usize..500,
    ) {
        let cap = floor + cap_extra;
        let rule = Precision::absolute(1.0).with_min_trials(floor).with_max_trials(cap);
        let mut consumed = 0usize;
        let mut waves = 0usize;
        loop {
            let w = rule.next_wave(consumed);
            if w == 0 {
                break;
            }
            consumed += w;
            waves += 1;
            prop_assert!(consumed <= cap, "overran cap: {} > {}", consumed, cap);
            prop_assert!(waves <= 64, "schedule failed to converge");
        }
        // Running the schedule to exhaustion lands exactly on the cap —
        // a run that never satisfies its rule consumes precisely max_trials.
        prop_assert_eq!(consumed, cap);
    }

    #[test]
    fn a_satisfied_rule_certifies_its_half_width(
        xs in prop::collection::vec(0.0f64..1e4, 4..120),
        rel in 0.01f64..1.0,
        floor in 2usize..16,
    ) {
        let rule = Precision::relative(rel)
            .with_min_trials(floor)
            .with_max_trials(1 << 20);
        let s = Summary::from_slice(&xs);
        if rule.satisfied_by(&s) {
            // The rule fires only above its floor, and only once the
            // achieved half-width meets the demanded one.
            prop_assert!(xs.len() >= floor);
            let ci = normal_ci(&s, rule.confidence);
            prop_assert!(ci.half_width() <= rule.demanded_half_width(&s) + 1e-9);
        }
    }

    #[test]
    fn tighter_targets_never_stop_sooner(
        xs in prop::collection::vec(1.0f64..1e4, 8..100),
    ) {
        // satisfied_by is monotone in the target: a 5% rule satisfied
        // implies a 10% rule satisfied on the same sample.
        let s = Summary::from_slice(&xs);
        let tight = Precision::relative(0.05).with_min_trials(4);
        let loose = Precision::relative(0.10).with_min_trials(4);
        if tight.satisfied_by(&s) {
            prop_assert!(loose.satisfied_by(&s));
        }
    }
}
