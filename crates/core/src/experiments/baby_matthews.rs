//! Theorem 13 — the Baby Matthews bound:
//! `C^k(G) ≤ (e + o(1))/k · h_max · H_n` for `k ≤ log n`.
//!
//! For each Matthews-tight family we compute `h_max` exactly, measure
//! `C^k` for every `k` up to `⌊ln n⌋`, and report the ratio
//! `C^k / ((e/k)·h_max·H_n)` — Theorem 13 predicts it stays below 1
//! (the dropped `o(1)` only loosens the bound further).

use mrw_graph::Graph;
use mrw_spectral::hitting_times_all;
use mrw_stats::Table;

use crate::bounds;
use crate::query::{Budget, Query, Session};

/// One `(family, k)` measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph display name.
    pub graph: String,
    /// Vertex count.
    pub n: usize,
    /// Walk count.
    pub k: usize,
    /// Exact `h_max`.
    pub hmax: f64,
    /// Measured `C^k` (from vertex 0; the families used are
    /// vertex-transitive or near enough for the bound, which holds from
    /// every start).
    pub ck: f64,
    /// The Theorem 13 bound `(e/k)·h_max·H_n`.
    pub bound: f64,
}

impl Row {
    /// `C^k / bound`; Theorem 13 predicts ≤ 1.
    pub fn ratio(&self) -> f64 {
        self.ck / self.bound
    }
}

/// Configuration: graphs (Matthews-tight families) and budget.
pub struct Config {
    /// Graphs to measure (small enough for exact `h_max`).
    pub graphs: Vec<Graph>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        use mrw_graph::generators as gen;
        Config {
            graphs: vec![
                gen::complete(256),
                gen::torus_2d(16),
                gen::hypercube(8),
                gen::balanced_tree(2, 7),
            ],
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        use mrw_graph::generators as gen;
        Config {
            graphs: vec![gen::complete(64), gen::torus_2d(8), gen::hypercube(6)],
            budget: Budget::quick(),
        }
    }
}

/// Results of the bound check.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-(family, k) rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// The worst (largest) `C^k/bound` ratio.
    pub fn worst_ratio(&self) -> f64 {
        self.rows.iter().map(Row::ratio).fold(0.0, f64::max)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "graph",
            "n",
            "k",
            "h_max (exact)",
            "C^k measured",
            "(e/k)·h_max·H_n",
            "ratio",
        ])
        .with_title("Theorem 13 — Baby Matthews: C^k ≤ (e/k)·h_max·H_n for k ≤ log n");
        for r in &self.rows {
            t.push_row(vec![
                r.graph.clone(),
                r.n.to_string(),
                r.k.to_string(),
                format!("{:.1}", r.hmax),
                format!("{:.0}", r.ck),
                format!("{:.0}", r.bound),
                format!("{:.3}", r.ratio()),
            ]);
        }
        t
    }
}

/// Runs the check: for each graph, sweeps `k = 1..⌊ln n⌋`.
pub fn run(cfg: &Config) -> Report {
    let mut rows = Vec::new();
    for g in &cfg.graphs {
        let ht = hitting_times_all(g);
        let hmax = ht.hmax();
        let n = g.n();
        let k_max = bounds::baby_matthews_k_limit(n as u64) as usize;
        let session = Session::new(cfg.budget.clone());
        let mut k = 1usize;
        while k <= k_max {
            let ck = session.run(g, &Query::Cover { k, starts: vec![0] }).mean();
            rows.push(Row {
                graph: g.name().to_string(),
                n,
                k,
                hmax,
                ck,
                bound: bounds::baby_matthews_upper(hmax, n as u64, k as u64),
            });
            k *= 2;
        }
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_everywhere() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 48;
        cfg.budget.seed = 31;
        let report = run(&cfg);
        assert!(!report.rows.is_empty());
        assert!(
            report.worst_ratio() < 1.0,
            "Baby Matthews violated: worst ratio {}",
            report.worst_ratio()
        );
    }

    #[test]
    fn k_ladder_respects_log_limit() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 4;
        let report = run(&cfg);
        for r in &report.rows {
            assert!(
                r.k as f64 <= (r.n as f64).ln(),
                "{}: k = {} exceeds ln n",
                r.graph,
                r.k
            );
        }
    }

    #[test]
    fn bound_scales_inversely_with_k() {
        let mut cfg = Config::quick();
        cfg.graphs.truncate(1);
        cfg.budget.trials = 4;
        let report = run(&cfg);
        let k1 = report.rows.iter().find(|r| r.k == 1).unwrap();
        let k2 = report.rows.iter().find(|r| r.k == 2).unwrap();
        assert!((k1.bound / k2.bound - 2.0).abs() < 1e-9);
    }
}
