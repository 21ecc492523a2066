//! §8 — the paper's open conjectures, scanned empirically.
//!
//! * **Conjecture 10**: `S^k(G) ≤ O(k)` for every graph and k — with the
//!   known caveat that the barbell *from the center* beats `k` by an
//!   unbounded factor (Theorem 7), which the paper frames as a
//!   start-vertex subtlety ("perhaps the speed-up is limited to k if we
//!   start at other nodes").
//! * **Conjecture 11**: `S^k(G) ≥ Ω(log k)` for every graph and `k ≤ n` —
//!   the cycle attains it, and nothing should do worse.
//!
//! The scan sweeps a zoo of families (including the adversarial ones:
//! path, lollipop, star, barbell from a *non-center* start) and reports
//! `S^k/k` and `S^k/ln k` extremes. It cannot prove the conjectures — but
//! a counterexample inside the zoo would show up immediately, and the
//! barbell-from-center row demonstrates why Conjecture 10 needs its
//! worst-start phrasing.

use mrw_graph::{generators as gen, Graph};
use mrw_stats::Table;

use crate::query::{Budget, Query, Session};

/// One `(graph, start, k)` scan point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph display name.
    pub graph: String,
    /// Start vertex.
    pub start: u32,
    /// Walk count.
    pub k: usize,
    /// Measured speed-up.
    pub speedup: f64,
}

impl Row {
    /// `S^k / k` (Conjecture 10 says bounded above over "normal" starts).
    pub fn per_k(&self) -> f64 {
        self.speedup / self.k as f64
    }

    /// `S^k / ln k` for `k ≥ 2` (Conjecture 11 says bounded below).
    pub fn per_log_k(&self) -> f64 {
        assert!(self.k >= 2);
        self.speedup / (self.k as f64).ln()
    }
}

/// Configuration.
pub struct Config {
    /// `(graph, start)` pairs to scan.
    pub cases: Vec<(Graph, u32)>,
    /// Walk counts (all ≥ 2 so `ln k` is meaningful).
    pub ks: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

fn zoo(scale: usize) -> Vec<(Graph, u32)> {
    let n = scale;
    let odd = if n % 2 == 1 { n } else { n + 1 };
    let barbell = gen::barbell(odd);
    let center = gen::barbell_center(odd);
    vec![
        (gen::cycle(n), 0),
        (gen::path(n), 0),
        (gen::complete(n), 0),
        (gen::torus_2d((n as f64).sqrt() as usize), 0),
        (gen::star(n), 0),
        (gen::lollipop(n), 0),
        (gen::balanced_tree(2, (n as f64).log2() as u32 - 1), 0),
        (barbell.clone(), center), // the Conjecture-10 stress case
        (barbell, 1),              // …and from inside a bell
    ]
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: zoo(256),
            ks: vec![2, 4, 8, 16, 32],
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            cases: zoo(64),
            ks: vec![2, 8],
            budget: Budget::quick(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct Report {
    /// All scan points.
    pub rows: Vec<Row>,
}

impl Report {
    /// Largest `S^k/k` over rows whose start is *not* the flagged
    /// exceptional one (callers filter); here: the raw maximum.
    pub fn max_per_k(&self) -> &Row {
        self.rows
            .iter()
            .max_by(|a, b| a.per_k().partial_cmp(&b.per_k()).expect("finite"))
            .expect("non-empty scan")
    }

    /// Smallest `S^k/ln k` — Conjecture 11's critical quantity.
    pub fn min_per_log_k(&self) -> &Row {
        self.rows
            .iter()
            .min_by(|a, b| a.per_log_k().partial_cmp(&b.per_log_k()).expect("finite"))
            .expect("non-empty scan")
    }

    /// Renders the scan table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["graph", "start", "k", "S^k", "S^k/k", "S^k/ln k"])
            .with_title("§8 — Conjectures 10 (S^k ≤ O(k)) and 11 (S^k ≥ Ω(log k)) scan");
        for r in &self.rows {
            t.push_row(vec![
                r.graph.clone(),
                r.start.to_string(),
                r.k.to_string(),
                format!("{:.2}", r.speedup),
                format!("{:.3}", r.per_k()),
                format!("{:.3}", r.per_log_k()),
            ]);
        }
        t
    }
}

/// Runs the scan.
pub fn run(cfg: &Config) -> Report {
    for &k in &cfg.ks {
        assert!(k >= 2, "conjecture scan needs k ≥ 2 (ln k > 0)");
    }
    let mut rows = Vec::new();
    for (g, start) in &cfg.cases {
        let ladder = Session::new(cfg.budget.clone()).run(
            g,
            &Query::SpeedupLadder {
                start: *start,
                ks: cfg.ks.clone(),
            },
        );
        for (k, _, speedup) in ladder.speedups() {
            rows.push(Row {
                graph: g.name().to_string(),
                start: *start,
                k,
                speedup,
            });
        }
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut cfg = Config::quick();
        cfg.budget.trials = 40;
        cfg.budget.seed = 17;
        run(&cfg)
    }

    #[test]
    fn conjecture11_floor_respected() {
        // No family in the zoo does worse than c·log k, with c not tiny.
        let r = report();
        let worst = r.min_per_log_k();
        assert!(
            worst.per_log_k() > 0.5,
            "{} from {} at k={}: S^k/ln k = {}",
            worst.graph,
            worst.start,
            worst.k,
            worst.per_log_k()
        );
    }

    #[test]
    fn conjecture10_only_barbell_center_exceeds_k() {
        let r = report();
        for row in &r.rows {
            let is_barbell_center = row.graph.starts_with("barbell") && row.start != 1;
            if !is_barbell_center {
                assert!(
                    row.per_k() < 1.6,
                    "{} from {} at k={}: S^k/k = {} — unexpected super-linear",
                    row.graph,
                    row.start,
                    row.k,
                    row.per_k()
                );
            }
        }
        // And the barbell-from-center rows DO exceed k (the paper's
        // Theorem 7 caveat to Conjecture 10).
        let max = r.max_per_k();
        assert!(
            max.graph.starts_with("barbell") && max.per_k() > 1.5,
            "expected barbell-from-center to dominate, got {} ({})",
            max.graph,
            max.per_k()
        );
    }

    #[test]
    fn table_covers_whole_zoo() {
        let cfg = Config::quick();
        let n_cases = cfg.cases.len();
        let n_ks = cfg.ks.len();
        let mut c2 = cfg;
        c2.budget.trials = 6;
        let r = run(&c2);
        assert_eq!(r.rows.len(), n_cases * n_ks);
    }

    #[test]
    #[should_panic(expected = "k ≥ 2")]
    fn k1_rejected() {
        let mut cfg = Config::quick();
        cfg.ks = vec![1, 2];
        run(&cfg);
    }
}
