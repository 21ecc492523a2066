//! Partial coverage: rounds until `k` walks have visited a *fraction* of
//! the graph.
//!
//! The applications motivating the paper — querying, searching, and
//! membership services in ad-hoc and peer-to-peer networks (§1) — rarely
//! need every node: a query is answered once *any* replica is found, and a
//! gossip round succeeds once most of the network is touched. The partial
//! cover time `C^k_γ` (rounds to visit `⌈γn⌉` distinct vertices) is the
//! quantity those applications actually pay for, and its behavior is
//! starkly different from full cover: the last few vertices dominate
//! `C^k` (coupon-collector tail), so `C^k_{0.9} ≪ C^k_1` on every family.
//! The speed-up story changes too — on the cycle, `k` walks reach a
//! constant fraction `k` times faster (each token sweeps its own arc) even
//! though full cover only improves by `Θ(log k)`.
//!
//! The estimate is [`Query::PartialCover`](crate::query::Query::PartialCover),
//! whose trials [`Session`](crate::query::Session) runs on the engine's
//! [`PartialCover`](crate::engine::PartialCover) observer; this module
//! turns a fraction `γ` into its vertex target. One trial by hand:
//!
//! ```
//! use mrw_core::engine::{Engine, PartialCover, SimpleStep};
//! use mrw_core::walk_rng;
//! use mrw_graph::generators;
//!
//! let g = generators::torus_2d(6);
//! let rounds = |target| {
//!     Engine::new(&g, SimpleStep, PartialCover::new(g.n(), target))
//!         .run(&[0, 0], &mut walk_rng(1))
//!         .rounds
//! };
//! assert!(rounds(18) <= rounds(36)); // nested stopping times on the same trajectory
//! ```

/// Converts a coverage fraction `γ ∈ (0, 1]` to a vertex target
/// `max(1, ⌈γn⌉)`.
///
/// # Panics
/// If `γ ∉ (0, 1]`.
pub fn fraction_target(n: usize, gamma: f64) -> usize {
    assert!(gamma > 0.0 && gamma <= 1.0, "fraction {gamma} not in (0,1]");
    ((gamma * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, FullCover, PartialCover, SimpleStep};
    use crate::query::{Budget, Group, Query, Session};
    use crate::walk::walk_rng;
    use mrw_graph::{generators, Graph};
    use mrw_stats::harmonic::harmonic;

    /// Rounds until walks from `starts` have visited `target` distinct
    /// vertices: one partial-cover trial on a default engine.
    fn partial_rounds(g: &Graph, starts: &[u32], target: usize, seed: u64) -> u64 {
        Engine::new(g, SimpleStep, PartialCover::new(g.n(), target))
            .run(starts, &mut walk_rng(seed))
            .rounds
    }

    #[test]
    fn full_target_is_exactly_full_cover_same_seed() {
        let g = generators::torus_2d(5);
        let starts = [0u32, 0, 0];
        let a = partial_rounds(&g, &starts, g.n(), 4);
        let b = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
            .run(&starts, &mut walk_rng(4))
            .rounds;
        assert_eq!(a, b);
    }

    #[test]
    fn target_at_or_below_starts_is_zero() {
        let g = generators::cycle(10);
        assert_eq!(partial_rounds(&g, &[3], 1, 0), 0);
        assert_eq!(partial_rounds(&g, &[3, 7], 2, 0), 0);
    }

    #[test]
    fn partial_is_monotone_in_target_per_trace() {
        // Same seed ⇒ same trace ⇒ rounds non-decreasing in target.
        let g = generators::barbell(13);
        let mut last = 0u64;
        for target in 1..=g.n() {
            let r = partial_rounds(&g, &[6], target, 99);
            assert!(r >= last, "target {target}: {r} < {last}");
            last = r;
        }
    }

    #[test]
    fn clique_partial_cover_matches_truncated_coupon_collector() {
        // On K_n+loops, visiting j new vertices beyond the start takes
        // n·(H_{n−1} − H_{n−1−j}) draws in expectation.
        let n = 24usize;
        let g = generators::complete_with_loops(n);
        let target = 12usize; // half coverage
        let trials = 1200u64;
        let mut total = 0u64;
        for t in 0..trials {
            total += partial_rounds(&g, &[0], target, t);
        }
        let mean = total as f64 / trials as f64;
        let expect = n as f64 * (harmonic(n as u64 - 1) - harmonic((n - target) as u64));
        assert!(
            (mean - expect).abs() < expect * 0.08,
            "mean {mean} vs truncated collector {expect}"
        );
    }

    #[test]
    fn ninety_percent_much_cheaper_than_full_on_torus() {
        let g = generators::torus_2d(8);
        let trials = 120u64;
        let mut p90 = 0u64;
        let mut full = 0u64;
        for t in 0..trials {
            p90 += partial_rounds(&g, &[0], fraction_target(g.n(), 0.9), t);
            full += partial_rounds(&g, &[0], g.n(), 10_000 + t);
        }
        assert!(
            (p90 as f64) < 0.66 * full as f64,
            "90% cover {p90} not ≪ full {full}"
        );
    }

    #[test]
    fn fraction_target_edges() {
        assert_eq!(fraction_target(100, 1.0), 100);
        assert_eq!(fraction_target(100, 0.005), 1);
        assert_eq!(fraction_target(7, 0.5), 4);
    }

    #[test]
    #[should_panic(expected = "not in (0,1]")]
    fn zero_fraction_rejected() {
        fraction_target(10, 0.0);
    }

    /// The per-γ groups of one [`Query::PartialCover`], with the
    /// `(trials, seed)` shape these tests were written against.
    fn profile(
        g: &mrw_graph::Graph,
        start: u32,
        k: usize,
        gammas: &[f64],
        trials: impl Into<mrw_stats::Trials>,
        seed: u64,
    ) -> Vec<Group> {
        let (fixed, precision) = match trials.into() {
            mrw_stats::Trials::Fixed(n) => (n, None),
            mrw_stats::Trials::Adaptive(rule) => (rule.max_trials, Some(rule)),
        };
        let budget = Budget {
            trials: fixed,
            seed,
            precision,
            ..Budget::default()
        };
        let query = Query::PartialCover {
            k,
            start,
            gammas: gammas.to_vec(),
        };
        Session::new(budget).run(g, &query).groups
    }

    #[test]
    fn profile_is_monotone_in_gamma() {
        let g = generators::hypercube(4);
        let profile = profile(&g, 0, 2, &[0.25, 0.5, 0.75, 1.0], 80, 7);
        assert_eq!(profile.len(), 4);
        for w in profile.windows(2) {
            assert!(
                w[1].mean() >= w[0].mean() * 0.95,
                "profile not (statistically) monotone: {} then {}",
                w[0].mean(),
                w[1].mean()
            );
        }
    }

    #[test]
    fn adaptive_profile_stops_within_bounds_and_reproduces() {
        use mrw_stats::Precision;
        let g = generators::torus_2d(6);
        let rule = Precision::relative(0.15)
            .with_min_trials(16)
            .with_max_trials(2048);
        let run = || profile(&g, 0, 2, &[0.5, 1.0], rule, 7);
        let a = run();
        let b = run();
        for (pa, pb) in a.iter().zip(&b) {
            assert!((16..=2048).contains(&pa.trials), "consumed {}", pa.trials);
            assert_eq!(pa, pb, "adaptive profile not reproducible");
            assert!(pa.mean() > 0.0);
        }
        // The easy half target needs no more trials than full cover's
        // coupon-collector tail at the same relative precision.
        assert!(
            a[0].trials <= a[1].trials * 2,
            "{} vs {}",
            a[0].trials,
            a[1].trials
        );
    }

    #[test]
    fn cycle_partial_speedup_is_linear_not_logarithmic() {
        // Theorem 6 caps the FULL-cover speed-up at Θ(log k); partial
        // cover to half the ring is a different story — each of k tokens
        // sweeps its own arc, so the speed-up at γ = 1/2 grows much
        // faster than log k. (Distance covered in t steps ~ √t per token,
        // and k tokens multiply the *rate* of new-vertex discovery.)
        let g = generators::cycle(64);
        let trials = 150u64;
        let target = 32usize;
        let mean = |k: usize| -> f64 {
            let starts = vec![0u32; k];
            let mut total = 0u64;
            for t in 0..trials {
                total += partial_rounds(&g, &starts, target, 700 + t);
            }
            total as f64 / trials as f64
        };
        let s16 = mean(1) / mean(16);
        let log_cap = 2.0 * (16.0f64).ln(); // generous Θ(log k) envelope
        assert!(
            s16 > log_cap,
            "partial speed-up {s16} looks logarithmic (cap {log_cap})"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds n")]
    fn oversized_target_rejected() {
        let g = generators::cycle(5);
        partial_rounds(&g, &[0], 6, 0);
    }
}
