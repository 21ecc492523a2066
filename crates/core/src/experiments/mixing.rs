//! Theorem 9 — the mixing-time route to speed-up:
//! on a d-regular graph, `S^k = Ω(k / (t_m ln n))` for `k ≤ n`.
//!
//! For each regular family we compute the exact (lazy-walk) mixing time by
//! distribution evolution, measure `S^k`, and report the implied constant
//! `S^k · t_m · ln n / k`. Theorem 9 predicts it bounded below; fast-mixing
//! families (clique, hypercube, expander) get a useful bound while the
//! slow-mixing torus shows why Theorem 9 is weaker than Theorem 4 there —
//! exactly the paper's point that neither characterization is complete.

use mrw_graph::Graph;
use mrw_spectral::{mixing_time, MixingConfig};
use mrw_stats::Table;

use crate::query::{Budget, Query, Session};

/// One `(family, k)` measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph display name.
    pub graph: String,
    /// Vertex count.
    pub n: usize,
    /// Exact lazy mixing time.
    pub t_m: usize,
    /// Walk count.
    pub k: usize,
    /// Measured speed-up.
    pub speedup: f64,
    /// Theorem 9 reference `k/(t_m ln n)`.
    pub reference: f64,
}

impl Row {
    /// The implied constant `S^k / (k/(t_m ln n))`.
    pub fn implied_constant(&self) -> f64 {
        self.speedup / self.reference
    }
}

/// Configuration: regular graphs and budget.
pub struct Config {
    /// Regular graphs to measure, paired with the walk counts to probe.
    pub graphs: Vec<Graph>,
    /// Walk counts.
    pub ks: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        use mrw_graph::generators as gen;
        Config {
            graphs: vec![
                gen::complete_with_loops(256),
                gen::hypercube(8),
                gen::torus_2d(16),
            ],
            ks: vec![2, 4, 8, 16, 32],
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        use mrw_graph::generators as gen;
        Config {
            graphs: vec![gen::complete_with_loops(64), gen::hypercube(6)],
            ks: vec![2, 8],
            budget: Budget::quick(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-(family, k) rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Smallest implied constant — Theorem 9 predicts it bounded away
    /// from 0.
    pub fn min_implied_constant(&self) -> f64 {
        self.rows
            .iter()
            .map(Row::implied_constant)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "graph",
            "n",
            "t_m (lazy, exact)",
            "k",
            "S^k",
            "k/(t_m·ln n)",
            "implied const",
        ])
        .with_title("Theorem 9 — S^k = Ω(k/(t_m ln n)) on d-regular graphs");
        for r in &self.rows {
            t.push_row(vec![
                r.graph.clone(),
                r.n.to_string(),
                r.t_m.to_string(),
                r.k.to_string(),
                format!("{:.2}", r.speedup),
                format!("{:.4}", r.reference),
                format!("{:.1}", r.implied_constant()),
            ]);
        }
        t
    }
}

/// Runs the experiment.
///
/// # Panics
/// If a supplied graph is not regular (Theorem 9's hypothesis) or fails to
/// mix within the budget.
pub fn run(cfg: &Config) -> Report {
    let mut rows = Vec::new();
    for g in &cfg.graphs {
        assert!(
            g.regular_degree().is_some(),
            "{}: Theorem 9 requires a regular graph",
            g.name()
        );
        let n = g.n();
        // Lazy walk for bipartite-safety; vertex-transitivity of the
        // default families means one start suffices, but sample 2 to be
        // safe on caller-supplied graphs.
        let starts: Vec<u32> = vec![0, (n / 2) as u32];
        let t_m = mixing_time(g, &MixingConfig::lazy().with_starts(starts))
            .unwrap_or_else(|| panic!("{}: did not mix within budget", g.name()));
        let ladder = Session::new(cfg.budget.clone()).run(
            g,
            &Query::SpeedupLadder {
                start: 0,
                ks: cfg.ks.clone(),
            },
        );
        for (k, _, speedup) in ladder.speedups() {
            rows.push(Row {
                graph: g.name().to_string(),
                n,
                t_m,
                k,
                speedup,
                reference: crate::bounds::thm9_speedup_reference(k as u64, t_m as f64, n as u64),
            });
        }
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_constant_bounded_below() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 48;
        cfg.budget.seed = 77;
        let report = run(&cfg);
        // S^k ≥ c·k/(t_m ln n): implied constant comfortably above 1 on
        // fast-mixing families (the bound is loose — that is the point).
        assert!(
            report.min_implied_constant() > 1.0,
            "implied constant {} — Theorem 9 violated?",
            report.min_implied_constant()
        );
    }

    #[test]
    fn fast_mixers_have_tiny_tm() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 8;
        let report = run(&cfg);
        for r in &report.rows {
            assert!(r.t_m < 100, "{}: t_m = {}", r.graph, r.t_m);
        }
    }

    #[test]
    #[should_panic(expected = "regular")]
    fn irregular_graph_rejected() {
        let mut cfg = Config::quick();
        cfg.graphs = vec![mrw_graph::generators::star(16)];
        run(&cfg);
    }
}
