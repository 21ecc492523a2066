//! Exact-vs-Monte-Carlo validation zoo.
//!
//! The one experiment that owes nothing to sampling: on graphs small
//! enough for the `(positions, visited-mask)` dynamic program of
//! [`exact`](crate::exact), the k-walk cover time is computed *exactly*
//! (to LU round-off) and the Monte-Carlo estimator is required to agree
//! within its own confidence interval. This closes the loop on every
//! other experiment in the suite — they all stand on the estimator
//! validated here — and also produces the only table of exact `S^k`
//! values in the repository, including exact finite-`n` witnesses for
//! Conjecture 10 (`S^k ≤ k`) and Conjecture 11 (`S^k ≥ Ω(log k)`).

use mrw_graph::Graph;
use mrw_stats::Table;

use crate::exact::exact_kwalk_cover_time;
use crate::experiments::Budget;
use crate::CoverTimeEstimator;

/// Configuration for the exact-validation zoo.
#[derive(Debug, Clone)]
pub struct Config {
    /// Walk counts (state space grows as `n^k·2ⁿ`; keep `k ≤ 3`).
    pub ks: Vec<usize>,
    /// Monte-Carlo budget per graph/k cell; each `k` runs under the
    /// master seed mixed with `k`.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ks: vec![1, 2, 3],
            budget: Budget {
                trials: 20_000,
                ..Budget::default()
            },
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            ks: vec![1, 2],
            budget: Budget {
                trials: 5_000,
                ..Budget::default()
            },
        }
    }
}

/// The small-graph zoo: every family in the paper at DP-feasible size.
pub fn zoo() -> Vec<Graph> {
    use mrw_graph::generators as gen;
    vec![
        gen::path(6),
        gen::cycle(8),
        gen::complete(6),
        gen::complete_with_loops(6),
        gen::star(7),
        gen::balanced_tree(2, 2),
        gen::barbell(9),
        gen::torus_2d(3),
        gen::hypercube(3),
        gen::lollipop(8),
        gen::wheel(8),
        gen::circular_ladder(4),
    ]
}

/// One `(graph, k)` validation cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Graph name.
    pub graph: String,
    /// Walk count.
    pub k: usize,
    /// Exact `C^k` from the DP.
    pub exact: f64,
    /// Monte-Carlo mean.
    pub mc_mean: f64,
    /// Monte-Carlo 95% CI half-width.
    pub mc_half_width: f64,
}

impl Cell {
    /// Relative deviation of the estimator from ground truth.
    pub fn relative_error(&self) -> f64 {
        (self.mc_mean - self.exact).abs() / self.exact.max(f64::MIN_POSITIVE)
    }

    /// Does the exact value land inside the (3×-widened) MC interval?
    /// 95% CIs are expected to miss ~1 cell in 20 — tripling makes a
    /// single run a sound hard assertion while staying tight enough to
    /// catch real engine bugs (which show up as >10σ).
    pub fn consistent(&self) -> bool {
        (self.mc_mean - self.exact).abs() <= 3.0 * self.mc_half_width.max(1e-9)
    }
}

/// Report over the zoo × k grid.
#[derive(Debug, Clone)]
pub struct Report {
    /// All validation cells.
    pub cells: Vec<Cell>,
}

impl Report {
    /// Renders the validation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["graph", "k", "exact C^k", "MC mean", "±CI", "rel err"])
            .with_title("Exact DP vs Monte-Carlo — ground-truth validation zoo");
        for c in &self.cells {
            t.push_row(vec![
                c.graph.clone(),
                c.k.to_string(),
                format!("{:.4}", c.exact),
                format!("{:.4}", c.mc_mean),
                format!("{:.4}", c.mc_half_width),
                format!("{:.4}", c.relative_error()),
            ]);
        }
        t
    }

    /// Worst relative error across cells.
    pub fn worst_relative_error(&self) -> f64 {
        self.cells
            .iter()
            .map(Cell::relative_error)
            .fold(0.0, f64::max)
    }

    /// Exact speed-up `S^k = C¹/C^k` for a graph, if both cells exist.
    pub fn exact_speedup(&self, graph: &str, k: usize) -> Option<f64> {
        let c1 = self.cells.iter().find(|c| c.graph == graph && c.k == 1)?;
        let ck = self.cells.iter().find(|c| c.graph == graph && c.k == k)?;
        Some(c1.exact / ck.exact)
    }
}

/// Runs the validation grid.
pub fn run(cfg: &Config) -> Report {
    let mut cells = Vec::new();
    for g in zoo() {
        for &k in &cfg.ks {
            let exact = exact_kwalk_cover_time(&g, 0, k);
            let est = CoverTimeEstimator::new(
                &g,
                k,
                Budget {
                    seed: cfg.budget.seed ^ (k as u64) << 8,
                    ..cfg.budget.clone()
                },
            )
            .run_from(0);
            cells.push(Cell {
                graph: g.name().to_string(),
                k,
                exact,
                mc_mean: est.mean(),
                mc_half_width: est.ci().half_width(),
            });
        }
    }
    Report { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_consistent_with_ground_truth_everywhere() {
        let report = run(&Config::quick());
        for c in &report.cells {
            assert!(
                c.consistent(),
                "{} k={}: exact {} vs MC {} ± {}",
                c.graph,
                c.k,
                c.exact,
                c.mc_mean,
                c.mc_half_width
            );
        }
    }

    #[test]
    fn worst_error_small() {
        let report = run(&Config::quick());
        assert!(
            report.worst_relative_error() < 0.05,
            "worst rel err {}",
            report.worst_relative_error()
        );
    }

    #[test]
    fn exact_speedups_respect_conjecture_10_on_zoo() {
        // Conjecture 10 says S^k ≤ O(k). The *strict* form S^k ≤ k is
        // false at finite n: the exact DP certifies S² = 2.0923 on the
        // depth-2 binary tree and 2.0943 on barbell(9) (from a bell
        // vertex) — zero-noise super-linear speed-ups. The O(k) form
        // survives comfortably: nothing in the zoo exceeds 1.05·k.
        let report = run(&Config::quick());
        let graphs: Vec<String> = zoo().iter().map(|g| g.name().to_string()).collect();
        let mut strict_violations = Vec::new();
        for g in &graphs {
            if let Some(s2) = report.exact_speedup(g, 2) {
                assert!(
                    s2 <= 2.1,
                    "{g}: exact S² = {s2} breaks even the O(k) margin"
                );
                assert!(s2 >= 1.0 - 1e-9, "{g}: exact S² = {s2} < 1");
                if s2 > 2.0 + 1e-6 {
                    strict_violations.push(g.clone());
                }
            }
        }
        // The known strict-form violators must reproduce exactly.
        assert!(
            strict_violations.iter().any(|g| g.starts_with("tree")),
            "expected tree(2,2) to exceed S² = 2, got violators {strict_violations:?}"
        );
        assert!(
            strict_violations.iter().any(|g| g.starts_with("barbell")),
            "expected barbell(9) to exceed S² = 2, got violators {strict_violations:?}"
        );
    }

    #[test]
    fn exact_speedup_extremes_path_vs_clique() {
        // Exact separation at k = 2: from an endpoint of the path the
        // two tokens ride the same bottleneck (S² = 1.6691 exactly),
        // while the clique's coupon collector sits near the linear ideal.
        let report = run(&Config::quick());
        let path = report.exact_speedup("path(6)", 2).unwrap();
        let clique = report.exact_speedup("complete_loops(6)", 2).unwrap();
        assert!((path - 1.6691).abs() < 1e-3, "path S² = {path}");
        assert!(clique > 1.85 && clique < 2.0, "clique S² = {clique}");
        assert!(clique > path + 0.2, "no separation: {clique} vs {path}");
    }

    #[test]
    fn cube_is_a_prism_exactly() {
        // circular_ladder(4) ≅ hypercube(3): their exact cover times must
        // agree to LU round-off — a cross-generator consistency check.
        let report = run(&Config::quick());
        for k in [1usize, 2] {
            let a = report
                .cells
                .iter()
                .find(|c| c.graph.starts_with("circular_ladder") && c.k == k)
                .unwrap()
                .exact;
            let b = report
                .cells
                .iter()
                .find(|c| c.graph.starts_with("hypercube") && c.k == k)
                .unwrap()
                .exact;
            assert!((a - b).abs() < 1e-9, "k={k}: prism {a} vs cube {b}");
        }
    }

    #[test]
    fn table_covers_grid() {
        let cfg = Config::quick();
        let report = run(&cfg);
        assert_eq!(report.cells.len(), zoo().len() * cfg.ks.len());
        assert!(report.table().render_ascii().contains("ground-truth"));
    }
}
