//! Theorem 24 — the projection argument, made computational.
//!
//! The paper lower-bounds the d-dimensional torus k-walk cover time by
//! *projecting* each token onto one axis: the projected process is a lazy
//! walk on the cycle of size `n^{1/d}` (left ¼, right ¼, stay ½ for
//! d = 2), and the torus cannot be covered before every projected column
//! is, so `C^k(torus) ≥ C^k(lazy cycle)` — which Lemma 21 pins at
//! `Ω(n^{2/d}/log k)`.
//!
//! Three checks, strongest first:
//!
//! 1. **Per-trace domination.** In one simulated trajectory, the round at
//!    which the projections cover the cycle is *never after* the round at
//!    which the torus is covered. This is a deterministic coupling — it
//!    must hold in every single trial, not just in expectation.
//! 2. **Distributional identity.** The projected process *is* the lazy
//!    cycle walk: its mean cover time must match an independently
//!    simulated `Lazy(1/2)` k-walk on the cycle
//!    ([`WalkProcess::Lazy`](crate::process::WalkProcess)).
//! 3. **The Theorem 24 bound.** `C^k(torus) ≥ c·n^{2/d}/log k` across the
//!    k ladder with a fixed small `c`.

use mrw_stats::{ks_two_sample, KsTest, Summary, Table};
use rand::Rng;

use crate::engine::{CompiledProcess, FullCover, Observer, SimpleStep};
use crate::process::WalkProcess;
use crate::query::Budget;
use crate::walk::walk_rng;

/// Configuration for the projection experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Torus side (`n = side²`).
    pub side: usize,
    /// Walk counts.
    pub ks: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            side: 32,
            ks: vec![1, 4, 16, 64],
            budget: Budget {
                trials: 96,
                ..Budget::default()
            },
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            side: 12,
            ks: vec![1, 4, 16],
            budget: Budget {
                trials: 60,
                ..Budget::quick()
            },
        }
    }
}

/// Per-k measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of walks.
    pub k: usize,
    /// Mean torus cover rounds.
    pub torus_cover: Summary,
    /// Mean rounds for the projected tokens to cover the cycle (same
    /// trajectories as `torus_cover`).
    pub projected_cover: Summary,
    /// Mean cover rounds of an independent `Lazy(1/2)` k-walk on the
    /// cycle of the same side.
    pub lazy_cycle_cover: Summary,
    /// Trials in which projection covered after the torus (must be 0).
    pub domination_violations: usize,
    /// Raw projected-cover samples (for the KS identity test).
    pub projected_samples: Vec<f64>,
    /// Raw lazy-cycle samples (for the KS identity test).
    pub lazy_samples: Vec<f64>,
}

impl Row {
    /// Kolmogorov–Smirnov test of the distributional identity "the
    /// projected process IS the Lazy(1/2) cycle walk". Under Theorem 24's
    /// coupling the two samples come from the same law, so this should
    /// not reject at any reasonable level.
    pub fn ks_identity(&self) -> KsTest {
        ks_two_sample(&self.projected_samples, &self.lazy_samples)
    }
}

/// Report over the k ladder.
#[derive(Debug, Clone)]
pub struct Report {
    /// Torus side.
    pub side: usize,
    /// Rows, one per k.
    pub rows: Vec<Row>,
}

impl Report {
    /// Renders the projection table.
    pub fn table(&self) -> Table {
        let n = self.side * self.side;
        let mut t = Table::new(vec![
            "k",
            "C^k torus",
            "proj cover",
            "lazy-cycle C^k",
            "violations",
            "n^(2/d)/ln k ref",
        ])
        .with_title(format!(
            "Theorem 24 — projection lower bound on the {0}x{0} torus",
            self.side
        ));
        for r in &self.rows {
            let reference = if r.k > 1 {
                n as f64 / (r.k as f64).ln()
            } else {
                f64::NAN
            };
            t.push_row(vec![
                r.k.to_string(),
                format!("{:.0}", r.torus_cover.mean()),
                format!("{:.0}", r.projected_cover.mean()),
                format!("{:.0}", r.lazy_cycle_cover.mean()),
                r.domination_violations.to_string(),
                format!("{:.0}", reference),
            ]);
        }
        t
    }

    /// Total domination violations (must be 0 — a per-trace theorem).
    pub fn total_violations(&self) -> usize {
        self.rows.iter().map(|r| r.domination_violations).sum()
    }
}

/// Couples each torus token to its axis-0 projection (`x = v mod side`,
/// since `v = x + side·y`): the engine's one trajectory feeds two cover
/// trackers, so domination is checked per trace, not in distribution.
/// Covering the torus covers its projection, so the run stops on the
/// torus alone and the engine's `rounds` is the torus cover round; the
/// observer records the column's.
struct ProjectionObserver {
    side: u32,
    torus: FullCover,
    column: FullCover,
    round: u64,
    column_round: Option<u64>,
}

impl Observer for ProjectionObserver {
    fn visit(&mut self, token: usize, v: u32) {
        self.torus.visit(token, v);
        self.column.visit(token, v % self.side);
    }

    fn done(&self) -> bool {
        self.torus.done()
    }

    fn end_round<G: mrw_graph::GraphBackend, R: Rng + ?Sized>(
        &mut self,
        _g: &G,
        _positions: &[u32],
        _rng: &mut R,
    ) -> bool {
        self.round += 1;
        if self.column.done() && self.column_round.is_none() {
            self.column_round = Some(self.round);
        }
        self.done()
    }
}

/// One trial: k torus walks from vertex 0; returns
/// `(torus_cover_round, projected_cycle_cover_round)`.
fn coupled_trial(side: usize, k: usize, seed: u64, budget: &Budget) -> (u64, u64) {
    let g = mrw_graph::generators::torus_2d(side);
    let mut rng = walk_rng(seed);
    let observer = ProjectionObserver {
        side: side as u32,
        torus: FullCover::new(g.n()),
        column: FullCover::new(side),
        round: 0,
        column_round: None,
    };
    let out = budget
        .engine(&g, SimpleStep, observer)
        .run(&vec![0u32; k], &mut rng);
    // An interleaved run stops mid-round, before `end_round` could record
    // a column covered in that same last round.
    (out.rounds, out.observer.column_round.unwrap_or(out.rounds))
}

/// Runs the experiment. The per-graph trial loops reuse one generated
/// torus/cycle per call (graphs are regenerated inside `coupled_trial`
/// for seed isolation at experiment sizes this is negligible).
pub fn run(cfg: &Config) -> Report {
    let cycle = mrw_graph::generators::cycle(cfg.side);
    let lazy = CompiledProcess::new(WalkProcess::Lazy(0.5), &cycle);
    let trials = cfg.budget.trials;
    let mut rows = Vec::new();
    for &k in &cfg.ks {
        let mut torus_cover = Summary::new();
        let mut projected_cover = Summary::new();
        let mut lazy_cycle_cover = Summary::new();
        let mut projected_samples = Vec::with_capacity(trials);
        let mut lazy_samples = Vec::with_capacity(trials);
        let mut violations = 0usize;
        for t in 0..trials {
            let seed = cfg.budget.seed ^ ((k as u64) << 36) ^ t as u64;
            let (torus_round, column_round) = coupled_trial(cfg.side, k, seed, &cfg.budget);
            torus_cover.push(torus_round as f64);
            projected_cover.push(column_round as f64);
            projected_samples.push(column_round as f64);
            if column_round > torus_round {
                violations += 1;
            }
            let starts = vec![0u32; k];
            let mut rng = walk_rng(seed ^ 0x1A2B);
            let lazy_rounds = cfg
                .budget
                .engine(&cycle, lazy.clone(), FullCover::new(cycle.n()))
                .run(&starts, &mut rng)
                .rounds as f64;
            lazy_cycle_cover.push(lazy_rounds);
            lazy_samples.push(lazy_rounds);
        }
        rows.push(Row {
            k,
            torus_cover,
            projected_cover,
            lazy_cycle_cover,
            domination_violations: violations,
            projected_samples,
            lazy_samples,
        });
    }
    Report {
        side: cfg.side,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Discipline;

    #[test]
    fn projection_never_covers_after_torus() {
        // Under either discipline: an interleaved run stops mid-round, and
        // both cover rounds must still be recorded (no torus cover of 0).
        for mode in [Discipline::RoundSynchronous, Discipline::Interleaved] {
            let mut cfg = Config::quick();
            cfg.budget.mode = mode;
            let report = run(&cfg);
            assert_eq!(
                report.total_violations(),
                0,
                "{mode:?}: per-trace domination violated:\n{}",
                report.table().render_ascii()
            );
            for r in &report.rows {
                assert!(r.torus_cover.min() > 0.0, "{mode:?} k={}: cover 0", r.k);
            }
        }
    }

    #[test]
    fn projected_process_is_the_lazy_cycle_walk() {
        // Distributional identity: means agree within generous noise.
        let report = run(&Config::quick());
        for r in &report.rows {
            let a = r.projected_cover.mean();
            let b = r.lazy_cycle_cover.mean();
            let rel = (a - b).abs() / b;
            assert!(
                rel < 0.25,
                "k={}: projected {a} vs lazy cycle {b} (rel {rel})",
                r.k
            );
        }
    }

    #[test]
    fn ks_test_does_not_reject_the_identity() {
        // Whole-distribution check, not just means: KS must not reject
        // "projected ≡ Lazy(1/2) cycle" at the 1% level on any row.
        // (3 rows at α = 0.01 → false-positive prob ≈ 3%, and the seed is
        // fixed, so this is a deterministic regression gate.)
        let report = run(&Config::quick());
        for r in &report.rows {
            let t = r.ks_identity();
            assert!(
                !t.rejects_at(0.01),
                "k={}: KS rejects the projection identity (D = {:.3}, p = {:.4})",
                r.k,
                t.statistic,
                t.p_value
            );
        }
    }

    #[test]
    fn torus_cover_dominates_projected_in_mean() {
        let report = run(&Config::quick());
        for r in &report.rows {
            assert!(
                r.torus_cover.mean() >= r.projected_cover.mean(),
                "k={}: mean inversion",
                r.k
            );
        }
    }

    #[test]
    fn thm24_reference_bound_holds() {
        // C^k(torus) ≥ c·n/ln k with c = 1/8 (generous; Lemma 21's
        // constants are loose at finite n).
        let report = run(&Config::quick());
        let n = (report.side * report.side) as f64;
        for r in report.rows.iter().filter(|r| r.k > 1) {
            let bound = n / (r.k as f64).ln() / 8.0;
            assert!(
                r.torus_cover.mean() >= bound,
                "k={}: C^k = {} below n/(8 ln k) = {bound}",
                r.k,
                r.torus_cover.mean()
            );
        }
    }

    #[test]
    fn table_renders() {
        let report = run(&Config::quick());
        assert!(report.table().render_ascii().contains("Theorem 24"));
    }
}
