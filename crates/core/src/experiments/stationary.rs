//! §1.1 / §3 — k walks from the stationary distribution.
//!
//! The related work (Broder–Karlin–Raghavan–Upfal) covers a graph by k
//! walks from stationary starts in `O(m² log³ n / k²)`; the paper remarks
//! that its own machinery improves this where it applies: Lemma 19 gives
//! `O((n log n)/k)` on expanders, and Theorem 9's proof gives
//! `O((n·t_m·log² n)/k)` on any regular graph — both *linear* in `1/k`
//! where the older bound is quadratic.
//!
//! The experiment measures `C^k` from (a) a single worst-ish start (the
//! paper's main setting) and (b) i.i.d. stationary starts, across a k
//! ladder, and reports both against the Broder bound and the paper's
//! `O((n log n)/k)` on an expander. Shape checks: stationary starts are
//! never slower than same-vertex starts, the expander's stationary-start
//! cover time scales like `1/k` (not `1/k²` — the Broder bound is loose),
//! and the measured values sit far below the Broder bound.

use mrw_graph::Graph;
use mrw_par::{par_map, SeedSequence};
use mrw_stats::Summary;

use crate::engine::{FullCover, SimpleStep};
use crate::query::Budget;
use crate::starts::sample_stationary_starts;
use crate::walk::walk_rng;

/// One `(k)` measurement on one graph.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph display name.
    pub graph: String,
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Walk count.
    pub k: usize,
    /// Measured `C^k` with all walks from vertex 0.
    pub same_start: f64,
    /// Measured `C^k` with i.i.d. stationary starts (fresh draw per trial).
    pub stationary_start: f64,
    /// Broder et al. reference `m² ln³ n / k²`.
    pub broder_bound: f64,
    /// The paper's expander-order reference `n ln n / k`.
    pub paper_bound: f64,
}

/// Configuration.
pub struct Config {
    /// Graphs to measure.
    pub graphs: Vec<Graph>,
    /// Walk counts.
    pub ks: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        use mrw_graph::generators as gen;
        let mut rng = walk_rng(0x57A7);
        Config {
            graphs: vec![
                gen::random_regular(1024, 8, &mut rng).expect("regular generation"),
                gen::torus_2d(32),
                gen::cycle(512),
            ],
            ks: vec![1, 2, 4, 8, 16, 32, 64],
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        use mrw_graph::generators as gen;
        let mut rng = walk_rng(0x57A7);
        Config {
            graphs: vec![
                gen::random_regular(256, 8, &mut rng).expect("regular generation"),
                gen::cycle(128),
            ],
            ks: vec![1, 4, 16],
            budget: Budget::quick(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-(graph, k) rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Renders the table.
    pub fn table(&self) -> mrw_stats::Table {
        let mut t = mrw_stats::Table::new(vec![
            "graph",
            "k",
            "C^k same-start",
            "C^k stationary",
            "Broder m²ln³n/k²",
            "paper n·ln n/k",
        ])
        .with_title("§1.1 — stationary-start k-walk cover times vs the Broder et al. bound");
        for r in &self.rows {
            t.push_row(vec![
                r.graph.clone(),
                r.k.to_string(),
                format!("{:.0}", r.same_start),
                format!("{:.0}", r.stationary_start),
                format!("{:.2e}", r.broder_bound),
                format!("{:.0}", r.paper_bound),
            ]);
        }
        t
    }

    /// Rows for a graph whose name starts with `prefix`.
    pub fn rows_for(&self, prefix: &str) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.graph.starts_with(prefix))
            .collect()
    }
}

fn measure(g: &Graph, k: usize, budget: &Budget, seq: SeedSequence, stationary: bool) -> f64 {
    let samples: Vec<f64> = par_map(budget.trials, budget.threads, |t| {
        let mut rng = walk_rng(seq.seed_for(t as u64));
        let starts = if stationary {
            sample_stationary_starts(g, k, &mut rng)
        } else {
            vec![0u32; k]
        };
        budget
            .engine(g, SimpleStep, FullCover::new(g.n()))
            .run(&starts, &mut rng)
            .rounds as f64
    });
    Summary::from_slice(&samples).mean()
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Report {
    let mut rows = Vec::new();
    for g in &cfg.graphs {
        let n = g.n() as f64;
        let m = g.m() as f64;
        for &k in &cfg.ks {
            assert!(k >= 1);
            let seq = SeedSequence::new(cfg.budget.seed).child(k as u64);
            let same = measure(g, k, &cfg.budget, seq.child(1), false);
            let stat = measure(g, k, &cfg.budget, seq.child(2), true);
            rows.push(Row {
                graph: g.name().to_string(),
                n: g.n(),
                m: g.m(),
                k,
                same_start: same,
                stationary_start: stat,
                broder_bound: m * m * n.ln().powi(3) / (k * k) as f64,
                paper_bound: n * n.ln() / k as f64,
            });
        }
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_stats::regression::power_law_fit;

    fn report() -> Report {
        let mut cfg = Config::quick();
        cfg.budget.trials = 40;
        cfg.budget.seed = 11;
        run(&cfg)
    }

    #[test]
    fn stationary_never_slower_in_mean() {
        // Spreading the starts can only help coverage (up to noise). At
        // k = 1 on a vertex-transitive graph the two settings are
        // *identically distributed*, so only k ≥ 2 carries signal.
        for r in report().rows.iter().filter(|r| r.k >= 2) {
            assert!(
                r.stationary_start <= r.same_start * 1.2,
                "{} k={}: stationary {} vs same {}",
                r.graph,
                r.k,
                r.stationary_start,
                r.same_start
            );
        }
    }

    #[test]
    fn expander_scales_inverse_k_not_inverse_k_squared() {
        let report = report();
        let rows = report.rows_for("regular");
        let ks: Vec<f64> = rows.iter().map(|r| r.k as f64).collect();
        let cs: Vec<f64> = rows.iter().map(|r| r.stationary_start).collect();
        let fit = power_law_fit(&ks, &cs);
        // Paper: C^k_π = O(n log n / k) -> exponent ≈ −1; Broder's −2 would
        // be a very different line.
        assert!(
            fit.exponent > -1.45 && fit.exponent < -0.55,
            "stationary-start scaling exponent {} (expect ≈ −1)",
            fit.exponent
        );
    }

    #[test]
    fn measurements_sit_below_broder_bound() {
        for r in &report().rows {
            assert!(
                r.stationary_start < r.broder_bound,
                "{} k={}: {} ≥ Broder {}",
                r.graph,
                r.k,
                r.stationary_start,
                r.broder_bound
            );
        }
    }

    #[test]
    fn expander_within_constant_of_paper_bound() {
        let report = report();
        for r in report.rows_for("regular") {
            let ratio = r.stationary_start / r.paper_bound;
            assert!(ratio < 3.0, "k={}: C^k_π/(n ln n / k) = {ratio}", r.k);
        }
    }
}
