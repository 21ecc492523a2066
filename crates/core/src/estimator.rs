//! Monte-Carlo cover-time estimation — the typed facade over the query
//! layer.
//!
//! [`CoverTimeEstimator`] is a thin, strongly-typed front end: it
//! translates `(graph, k, budget)` into a
//! [`Query::Cover`](crate::query::Query) and hands execution, under the
//! same [`Budget`], to [`Session::run`](crate::query::Session), which
//! owns the engine fan-out, the zero-alloc per-worker workspaces, and
//! the adaptive wave scheduling. The returned [`CoverEstimate`]s are
//! views over the [`Report`] groups.
//!
//! Determinism: per-trial RNG streams are derived from the master seed by
//! counter (never by thread), so an estimate is a pure function of
//! `(graph, k, budget)` regardless of the machine's core count — for an
//! adaptive budget this includes the *consumed trial count*, because the
//! stopping rule is only evaluated at wave boundaries on index-ordered
//! prefixes (see the wave driver, [`crate::query::waves`]).

use mrw_graph::{Graph, GraphBackend};
use mrw_stats::ci::{normal_ci, ConfidenceInterval};
use mrw_stats::Summary;

use crate::query::{Budget, Group, Query, Report, Session};

/// The result of estimating a (k-)cover time from one start vertex: a
/// thin typed view over one start group of a
/// [`Query::Cover`](crate::query::Query) [`Report`].
///
/// The accessor surface matches
/// [`CatchEstimate`](crate::meeting::CatchEstimate) — `mean`,
/// `consumed_trials`, `ci`, `half_width`, `relative_half_width` — so
/// result handling is uniform across estimate kinds.
#[derive(Debug, Clone)]
pub struct CoverEstimate {
    k: usize,
    start: u32,
    group: Group,
    confidence: f64,
}

impl CoverEstimate {
    /// Builds the typed view over one start group of a
    /// [`Query::Cover`](crate::query::Query) report.
    ///
    /// # Panics
    /// If the report is for a different query kind or `group` is out of
    /// range.
    pub fn from_report(report: &Report, group: usize) -> CoverEstimate {
        let (k, start) = match &report.query {
            Query::Cover { k, starts } => (*k, starts[group]),
            other => panic!("not a cover report: {}", other.kind()),
        };
        CoverEstimate::from_group(k, start, report.groups[group].clone(), report.confidence())
    }

    /// Builds a view from a raw group (how the speed-up ladder labels its
    /// per-k cover groups).
    pub(crate) fn from_group(k: usize, start: u32, group: Group, confidence: f64) -> CoverEstimate {
        CoverEstimate {
            k,
            start,
            group,
            confidence,
        }
    }

    /// Number of parallel walks.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Start vertex.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Sample summary of the cover time (in rounds), derived from the
    /// group's exact sufficient statistics.
    pub fn cover_time(&self) -> Summary {
        self.group.summary()
    }

    /// Confidence interval around the mean at the report's level.
    pub fn ci(&self) -> ConfidenceInterval {
        normal_ci(&self.group.summary(), self.confidence)
    }

    /// Point estimate of `C^k` from this start.
    pub fn mean(&self) -> f64 {
        self.group.mean()
    }

    /// Trials actually consumed: the fixed count, or wherever the
    /// adaptive rule stopped.
    pub fn consumed_trials(&self) -> u64 {
        self.group.trials
    }

    /// Achieved CI half-width.
    pub fn half_width(&self) -> f64 {
        self.ci().half_width()
    }

    /// Achieved CI half-width relative to the point estimate.
    pub fn relative_half_width(&self) -> f64 {
        self.ci().relative_half_width()
    }

    /// The underlying report group.
    pub fn group(&self) -> &Group {
        &self.group
    }
}

/// Estimates `C^k_i` — the expected rounds for `k` walks from start `i` to
/// cover the graph.
pub struct CoverTimeEstimator<'g, G: GraphBackend = Graph> {
    g: &'g G,
    k: usize,
    budget: Budget,
}

impl<'g, G: GraphBackend> CoverTimeEstimator<'g, G> {
    /// Creates an estimator for `k` parallel walks on `g` under `budget`:
    /// a fixed trial count, or an adaptive precision rule.
    ///
    /// ```
    /// use mrw_core::{Budget, CoverTimeEstimator};
    /// use mrw_stats::Precision;
    /// use mrw_graph::generators;
    ///
    /// // Estimate the 2-walk cover time of the 4-cycle to ±10% at 95%
    /// // confidence: an easy instance, so the rule stops far below its cap.
    /// let rule = Precision::relative(0.10).with_max_trials(4096);
    /// let budget = Budget { precision: Some(rule), seed: 7, ..Budget::default() };
    /// let est = CoverTimeEstimator::new(&generators::cycle(4), 2, budget).run_from(0);
    /// assert!(est.consumed_trials() < 4096);
    /// assert!(est.ci().half_width() <= 0.10 * est.mean());
    /// ```
    ///
    /// # Panics
    /// If `k = 0`, `trials = 0`, or the graph is disconnected (infinite
    /// cover time).
    pub fn new(g: &'g G, k: usize, budget: Budget) -> Self {
        assert!(k >= 1, "need at least one walk");
        assert!(budget.trials_budget().cap() >= 1, "need at least one trial");
        assert!(
            g.is_connected(),
            "cover time is infinite on a disconnected graph"
        );
        CoverTimeEstimator { g, k, budget }
    }

    /// Estimates `C^k_start`.
    pub fn run_from(&self, start: u32) -> CoverEstimate {
        self.run_from_each(&[start])
            .pop()
            .expect("one start probed")
    }

    /// Estimates the paper's `C^k(G) = max_i C^k_i` over a set of candidate
    /// starts, returning the worst estimate.
    ///
    /// An exhaustive maximum over all `n` starts is run when `n ≤ 16`;
    /// otherwise up to 8 evenly spaced vertices are probed. For the
    /// vertex-transitive families of Table 1 (cycle, torus, hypercube,
    /// clique) every start is equivalent so this loses nothing; for the
    /// barbell the paper itself fixes the start (the center), and the
    /// experiments pass it explicitly via [`run_from`](Self::run_from).
    pub fn run_worst_start(&self) -> CoverEstimate {
        let n = self.g.n();
        let starts: Vec<u32> = if n <= 16 {
            (0..n as u32).collect()
        } else {
            let stride = n / 8;
            (0..8).map(|i| (i * stride) as u32).collect()
        };
        self.run_from_each(&starts)
            .into_iter()
            .max_by(|a, b| {
                a.mean()
                    .partial_cmp(&b.mean())
                    .expect("cover means are finite")
            })
            .expect("at least one start probed")
    }

    /// Estimates `C^k_i` for each start in `starts` — one
    /// [`Query::Cover`](crate::query::Query) through
    /// [`Session::run`](crate::query::Session), one view per group.
    ///
    /// Each sample's RNG stream depends only on `(seed, start, trial)` —
    /// the estimates are identical to probing each start separately, and
    /// the adaptive consumed-trial count depends only on the rule, never
    /// on thread count.
    pub fn run_from_each(&self, starts: &[u32]) -> Vec<CoverEstimate> {
        for &s in starts {
            assert!((s as usize) < self.g.n(), "start {s} out of range");
        }
        let report = Session::new(self.budget.clone()).run(
            self.g,
            &Query::Cover {
                k: self.k,
                starts: starts.to_vec(),
            },
        );
        (0..starts.len())
            .map(|i| CoverEstimate::from_report(&report, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_graph::generators;
    use mrw_stats::harmonic::harmonic;
    use mrw_stats::precision::Precision;

    #[test]
    fn deterministic_across_thread_counts() {
        let g = generators::cycle(24);
        let base = CoverTimeEstimator::new(
            &g,
            2,
            Budget {
                trials: 16,
                seed: 5,
                threads: 1,
                ..Budget::default()
            },
        )
        .run_from(0);
        for threads in [2, 4, 8] {
            let est = CoverTimeEstimator::new(
                &g,
                2,
                Budget {
                    trials: 16,
                    seed: 5,
                    threads,
                    ..Budget::default()
                },
            )
            .run_from(0);
            assert_eq!(
                est.cover_time().mean(),
                base.cover_time().mean(),
                "threads={threads}"
            );
            assert_eq!(est.cover_time().min(), base.cover_time().min());
            assert_eq!(est.cover_time().max(), base.cover_time().max());
        }
    }

    #[test]
    fn batched_estimates_deterministic_across_thread_counts() {
        // k = 64 crosses the Auto threshold, so this exercises the batched
        // sweep inside the worker-reused arenas.
        let g = generators::cycle(24);
        let cfg = |threads| Budget {
            trials: 12,
            seed: 9,
            threads,
            ..Budget::default()
        };
        let base = CoverTimeEstimator::new(&g, 64, cfg(1)).run_from(0);
        for threads in [2, 4, 8] {
            let est = CoverTimeEstimator::new(&g, 64, cfg(threads)).run_from(0);
            assert_eq!(est.cover_time().mean(), base.cover_time().mean());
            assert_eq!(est.cover_time().min(), base.cover_time().min());
            assert_eq!(est.cover_time().max(), base.cover_time().max());
        }
    }

    #[test]
    fn batch_mode_selects_engine_path() {
        use crate::engine::BatchMode;
        let g = generators::cycle(24);
        let run = |batch| {
            CoverTimeEstimator::new(
                &g,
                64,
                Budget {
                    trials: 12,
                    seed: 9,
                    batch,
                    ..Budget::default()
                },
            )
            .run_from(0)
        };
        // Auto at k = 64 takes the batched stream; Never the scalar one.
        // Same law, different draws — the samples differ with overwhelming
        // probability, while each mode stays internally deterministic.
        let auto = run(BatchMode::Auto);
        let always = run(BatchMode::Always);
        let never = run(BatchMode::Never);
        assert_eq!(auto.cover_time().mean(), always.cover_time().mean());
        assert_ne!(auto.cover_time().min(), never.cover_time().min());
        assert_eq!(
            never.cover_time().mean(),
            run(BatchMode::Never).cover_time().mean()
        );
    }

    #[test]
    fn adaptive_stops_early_on_easy_instance() {
        // A small cycle has modest cover-time dispersion: ±15% at 95%
        // needs a few dozen trials, far below the 2048 cap.
        let g = generators::cycle(16);
        let rule = Precision::relative(0.15).with_max_trials(2048);
        let est = CoverTimeEstimator::new(
            &g,
            2,
            Budget {
                precision: Some(rule),
                seed: 3,
                ..Budget::default()
            },
        )
        .run_from(0);
        assert!(
            est.consumed_trials() < 2048,
            "consumed {} — never stopped early",
            est.consumed_trials()
        );
        assert!(est.ci().half_width() <= 0.15 * est.mean());
        assert!(est.consumed_trials() >= rule.min_trials as u64);
    }

    #[test]
    fn adaptive_consumed_count_identical_across_thread_counts() {
        let g = generators::cycle(16);
        let rule = Precision::relative(0.2)
            .with_min_trials(8)
            .with_max_trials(512);
        let run = |threads| {
            CoverTimeEstimator::new(
                &g,
                2,
                Budget {
                    precision: Some(rule),
                    seed: 11,
                    threads,
                    ..Budget::default()
                },
            )
            .run_from(0)
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            let est = run(threads);
            assert_eq!(
                est.consumed_trials(),
                base.consumed_trials(),
                "threads={threads}"
            );
            assert_eq!(est.cover_time().mean(), base.cover_time().mean());
            assert_eq!(est.cover_time().max(), base.cover_time().max());
        }
    }

    #[test]
    fn adaptive_sample_is_prefix_of_fixed_run() {
        // Trial i draws the same stream under either budget, so an
        // adaptive run that consumed m trials reports exactly the
        // fixed-budget estimate at m trials.
        let g = generators::torus_2d(4);
        let rule = Precision::relative(0.25)
            .with_min_trials(8)
            .with_max_trials(256);
        let adaptive = CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                precision: Some(rule),
                seed: 5,
                ..Budget::default()
            },
        )
        .run_from(0);
        let m = adaptive.consumed_trials() as usize;
        let fixed = CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                trials: m,
                seed: 5,
                ..Budget::default()
            },
        )
        .run_from(0);
        assert_eq!(adaptive.cover_time().mean(), fixed.cover_time().mean());
        assert_eq!(adaptive.cover_time().min(), fixed.cover_time().min());
        assert_eq!(adaptive.cover_time().max(), fixed.cover_time().max());
    }

    #[test]
    fn adaptive_cap_bounds_hopeless_precision() {
        // A precision no sample will reach: the run must stop at the cap.
        let g = generators::cycle(12);
        let rule = Precision::relative(1e-6)
            .with_min_trials(4)
            .with_max_trials(64);
        let est = CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                precision: Some(rule),
                seed: 2,
                ..Budget::default()
            },
        )
        .run_from(0);
        assert_eq!(est.consumed_trials(), 64);
    }

    #[test]
    fn different_starts_draw_different_streams() {
        let g = generators::cycle(24);
        let est = CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                trials: 8,
                seed: 5,
                ..Budget::default()
            },
        );
        let a = est.run_from(0);
        let b = est.run_from(1);
        // Vertex-transitive graph: same distribution, but distinct streams
        // mean samples differ with overwhelming probability.
        assert_ne!(a.cover_time().min(), b.cover_time().min());
    }

    #[test]
    fn clique_matches_coupon_collector() {
        let n = 24;
        let g = generators::complete_with_loops(n);
        let est = CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                trials: 600,
                seed: 11,
                ..Budget::default()
            },
        );
        let e = est.run_from(0);
        let expect = n as f64 * harmonic(n as u64);
        assert!(
            e.ci().contains(expect) || (e.mean() - expect).abs() < expect * 0.08,
            "mean {} vs nH_n {expect}",
            e.mean()
        );
    }

    #[test]
    fn ci_shrinks_with_trials() {
        let g = generators::torus_2d(5);
        let small = CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                trials: 16,
                seed: 3,
                ..Budget::default()
            },
        )
        .run_from(0);
        let large = CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                trials: 256,
                seed: 3,
                ..Budget::default()
            },
        )
        .run_from(0);
        assert!(large.ci().half_width() < small.ci().half_width());
    }

    #[test]
    fn worst_start_on_path_dominates_endpoint() {
        // On the path the worst start is interior (the walk must reach both
        // ends: ≈ 1.25·L² from the center vs L² from an endpoint). The
        // exhaustive branch (n ≤ 16) must therefore report a start whose
        // mean is at least the endpoint's.
        let g = generators::path(12);
        let est = CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                trials: 192,
                seed: 4,
                ..Budget::default()
            },
        );
        let worst = est.run_worst_start();
        let endpoint = est.run_from(0);
        assert!(
            worst.mean() >= endpoint.mean(),
            "worst start {} mean {} < endpoint mean {}",
            worst.start(),
            worst.mean(),
            endpoint.mean()
        );
        // And the reported worst start should not be an endpoint.
        assert!(
            worst.start() != 0 && worst.start() != 11,
            "endpoint {} reported as worst; interior starts dominate on a path",
            worst.start()
        );
    }

    #[test]
    fn worst_start_sampled_on_larger_graphs() {
        let g = generators::cycle(64);
        let est = CoverTimeEstimator::new(
            &g,
            2,
            Budget {
                trials: 8,
                seed: 1,
                ..Budget::default()
            },
        );
        let e = est.run_worst_start();
        assert!(e.mean() > 0.0);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_rejected() {
        let mut b = mrw_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build("frag");
        CoverTimeEstimator::new(
            &g,
            1,
            Budget {
                trials: 4,
                seed: 0,
                ..Budget::default()
            },
        );
    }
}
