//! Theorem 5 — speed-up from the cover/hitting gap `g(n) = C/h_max`.
//!
//! The paper's most general positive result: *without knowing the cover
//! time's order*, if the gap `g(n) = C(G)/h_max → ∞` then `k ≤ g^{1−ε}`
//! walks achieve `S^k ≥ k − o(k)`. The experiment measures the gap exactly
//! (`h_max` by fundamental matrix, `C` by Monte Carlo), picks
//! `k* = ⌊g^{1−ε}⌋`, measures `S^{k*}`, and reports the efficiency
//! `S^{k*}/k*`. Families are chosen to span the gap spectrum:
//!
//! * large gap (`≈ H_n`): complete graph, hypercube, torus — Theorem 5
//!   predicts near-linear speed-up at `k*`;
//! * gap ≈ 1: the path (`C = h_max`) — Theorem 5 is silent (`k* = 1`),
//!   and indeed that family's speed-up at larger k is poor.
//!
//! Theorem 14's explicit upper bound
//! `C^k ≤ C/k + (3 ln k + 2 f)·h_max` is printed alongside.

use mrw_graph::Graph;
use mrw_spectral::hitting_times_all;
use mrw_stats::Table;

use crate::bounds;
use crate::experiments::worst_start_cover;
use crate::query::{Budget, Query, Session};

/// One family's gap measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph display name.
    pub graph: String,
    /// Vertex count.
    pub n: usize,
    /// Exact maximum hitting time.
    pub hmax: f64,
    /// Measured single-walk cover time (worst probed start).
    pub cover: f64,
    /// The gap `g = C/h_max`.
    pub gap: f64,
    /// `k* = max(1, ⌊g^{1−ε}⌋)`.
    pub k_star: usize,
    /// Measured speed-up at `k*`.
    pub speedup: f64,
    /// Theorem 14's bound on `C^{k*}` (with `f(n) = ln g`).
    pub thm14_bound: f64,
    /// Measured `C^{k*}`.
    pub ck: f64,
}

impl Row {
    /// Efficiency `S^{k*}/k*` — Theorem 5 predicts → 1 when the gap is
    /// large.
    pub fn efficiency(&self) -> f64 {
        self.speedup / self.k_star as f64
    }
}

/// Configuration.
pub struct Config {
    /// Graphs to measure (exact `h_max` ⇒ keep n ≤ ~800).
    pub graphs: Vec<Graph>,
    /// The ε in `k ≤ g^{1−ε}`.
    pub epsilon: f64,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        use mrw_graph::generators as gen;
        Config {
            graphs: vec![
                gen::complete(512),
                gen::hypercube(9),
                gen::torus_2d(22),
                gen::balanced_tree(2, 8),
                gen::cycle(512),
                gen::path(512),
            ],
            epsilon: 0.2,
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        use mrw_graph::generators as gen;
        Config {
            graphs: vec![
                gen::complete(128),
                gen::hypercube(7),
                gen::torus_2d(10),
                gen::path(96),
            ],
            epsilon: 0.2,
            budget: Budget::quick(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-family rows.
    pub rows: Vec<Row>,
    /// The ε used.
    pub epsilon: f64,
}

impl Report {
    /// Row lookup by name prefix.
    pub fn row(&self, prefix: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.graph.starts_with(prefix))
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "graph",
            "n",
            "h_max",
            "C measured",
            "gap g=C/h_max",
            "k*=⌊g^0.8⌋",
            "C^k* measured",
            "Thm14 bound",
            "S^k*",
            "S^k*/k*",
        ])
        .with_title(format!(
            "Theorem 5 — gap-driven speed-up: k ≤ g^{{1−ε}} ⇒ S^k ≥ k − o(k)  (ε = {})",
            self.epsilon
        ));
        for r in &self.rows {
            t.push_row(vec![
                r.graph.clone(),
                r.n.to_string(),
                format!("{:.1}", r.hmax),
                format!("{:.0}", r.cover),
                format!("{:.2}", r.gap),
                r.k_star.to_string(),
                format!("{:.0}", r.ck),
                format!("{:.0}", r.thm14_bound),
                format!("{:.2}", r.speedup),
                format!("{:.3}", r.efficiency()),
            ]);
        }
        t
    }
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Report {
    assert!(
        (0.0..1.0).contains(&cfg.epsilon),
        "ε must be in (0,1), got {}",
        cfg.epsilon
    );
    let rows = cfg
        .graphs
        .iter()
        .map(|g| {
            let ht = hitting_times_all(g);
            let hmax = ht.hmax();
            let cover = worst_start_cover(g, &cfg.budget);
            let gap = bounds::gap(cover, hmax);
            let k_star = (bounds::thm5_k_limit(gap, cfg.epsilon).floor() as usize).max(1);
            let ladder = Session::new(cfg.budget.clone()).run(
                g,
                &Query::SpeedupLadder {
                    start: 0,
                    ks: vec![k_star],
                },
            );
            let (_, rung, speedup) = ladder.speedups()[0];
            Row {
                graph: g.name().to_string(),
                n: g.n(),
                hmax,
                cover,
                gap,
                k_star,
                speedup,
                thm14_bound: bounds::thm14_upper(cover, hmax, k_star as u64, gap.ln().max(1.0)),
                ck: rung.mean(),
            }
        })
        .collect();
    Report {
        rows,
        epsilon: cfg.epsilon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut cfg = Config::quick();
        cfg.budget.trials = 48;
        cfg.budget.seed = 23;
        run(&cfg)
    }

    #[test]
    fn large_gap_families_near_linear_at_k_star() {
        let r = report();
        for fam in ["complete", "hypercube", "torus"] {
            let row = r.row(fam).unwrap();
            assert!(row.gap > 3.0, "{fam}: gap {} unexpectedly small", row.gap);
            assert!(row.k_star >= 2, "{fam}: k* = {}", row.k_star);
            assert!(
                row.efficiency() > 0.6,
                "{fam}: S^k*/k* = {} at k* = {}",
                row.efficiency(),
                row.k_star
            );
        }
    }

    #[test]
    fn path_gap_is_near_one() {
        // C(path) = h_max exactly (end-to-end), so g ≈ 1 and k* = 1:
        // Theorem 5 grants nothing, correctly.
        let r = report();
        let row = r.row("path").unwrap();
        assert!(row.gap < 2.0, "path gap {} should be ≈ 1", row.gap);
        assert_eq!(row.k_star, 1);
    }

    #[test]
    fn thm14_bound_holds() {
        let r = report();
        for row in &r.rows {
            assert!(
                row.ck <= row.thm14_bound * 1.1,
                "{}: C^k* = {} exceeds Theorem 14 bound {}",
                row.graph,
                row.ck,
                row.thm14_bound
            );
        }
    }

    #[test]
    fn gap_ordering_matches_theory() {
        // gap(complete) ≈ H_n ≈ ln n > gap(path) ≈ 1.
        let r = report();
        assert!(r.row("complete").unwrap().gap > 2.0 * r.row("path").unwrap().gap);
    }
}
