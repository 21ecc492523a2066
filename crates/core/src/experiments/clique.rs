//! Lemma 12 — the clique coupon collector: `S^k(K_n) = k` for `k ≤ n`.
//!
//! On `K_n` with self-loops every step is a uniform coupon draw, and `k`
//! walks are the "fair mom" round-robin of the paper's proof, so
//! `C^k = n·H_n/k` exactly in expectation. This is the cleanest linear
//! speed-up and the calibration experiment for the whole pipeline: if
//! `S^k/k` here is not ≈ 1, something is wrong with the engine, the seeds,
//! or the statistics.

use mrw_stats::{ladder, Table};

use crate::bounds;
use crate::query::{self, Budget, Query, Session};

/// Configuration for the clique experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Clique size `n`.
    pub n: usize,
    /// Walk counts to probe (must all be ≤ n).
    pub ks: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 512,
            ks: ladder::k_ladder(256).iter().map(|&k| k as usize).collect(),
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            n: 64,
            ks: vec![1, 2, 4, 8, 16],
            budget: Budget::quick(),
        }
    }
}

/// Results of the clique experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// The [`Query::SpeedupLadder`] report (baseline + one group per k).
    pub ladder: query::Report,
    /// Clique size.
    pub n: usize,
    /// Coupon-collector prediction `n·H_n`.
    pub predicted_c1: f64,
}

impl Report {
    /// Renders the per-k table: measured `C^k`, Lemma 12 prediction,
    /// measured speed-up, and `S^k/k`.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "k",
            "C^k measured",
            "n·H_n/k (Lemma 12)",
            "S^k",
            "S^k/k",
        ])
        .with_title(format!("Lemma 12 — clique K_{} coupon collector", self.n));
        let level = self.ladder.confidence();
        for (k, group, speedup) in self.ladder.speedups() {
            let pred = bounds::clique_kwalk_cover(self.n as u64, k as u64);
            t.push_row(vec![
                k.to_string(),
                super::fmt_pm(group.mean(), group.ci(level).half_width()),
                format!("{:.1}", pred),
                format!("{:.2}", speedup),
                format!("{:.3}", speedup / k as f64),
            ]);
        }
        t
    }

    /// Worst relative deviation of `S^k/k` from 1 across the ladder
    /// (excluding `k = 1`).
    pub fn worst_linearity_error(&self) -> f64 {
        self.ladder
            .speedups()
            .into_iter()
            .filter(|&(k, ..)| k > 1)
            .map(|(k, _, speedup)| (speedup / k as f64 - 1.0).abs())
            .fold(0.0, f64::max)
    }
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Report {
    for &k in &cfg.ks {
        assert!(k <= cfg.n, "Lemma 12 requires k ≤ n (k={k}, n={})", cfg.n);
    }
    let g = mrw_graph::generators::complete_with_loops(cfg.n);
    let ladder = Session::new(cfg.budget.clone()).run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: cfg.ks.clone(),
        },
    );
    Report {
        n: cfg.n,
        predicted_c1: bounds::coupon_collector(cfg.n as u64),
        ladder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_linear() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 200;
        cfg.budget.seed = 42;
        let report = run(&cfg);
        // Baseline should match n·H_n within a few percent.
        let rel = (report.ladder.mean() - report.predicted_c1).abs() / report.predicted_c1;
        assert!(rel < 0.08, "baseline off by {rel}");
        // Every k: S^k within 25% of k.
        assert!(
            report.worst_linearity_error() < 0.25,
            "worst linearity error {}",
            report.worst_linearity_error()
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let cfg = Config::quick();
        let report = run(&cfg);
        let t = report.table();
        assert_eq!(t.len(), cfg.ks.len());
        let ascii = t.render_ascii();
        assert!(ascii.contains("Lemma 12"));
    }

    #[test]
    #[should_panic(expected = "k ≤ n")]
    fn oversized_k_rejected() {
        let mut cfg = Config::quick();
        cfg.ks.push(cfg.n + 1);
        run(&cfg);
    }
}
