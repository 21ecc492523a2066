//! Theorems 8 & 24 — the full speed-up spectrum on the 2-d torus.
//!
//! The same graph exhibits *both* regimes: for `k ≤ log n` the speed-up is
//! linear (`Ω(k)`, Theorem 8.1 via Matthews-tightness), while for
//! `k ≥ log³ n` it falls strictly below linear (Theorem 8.2, via the
//! projection argument of Theorem 24: the k-walk must still cover a cycle
//! of length `√n`, which costs `Ω(n/log k)` rounds no matter how many
//! walks run).
//!
//! The experiment sweeps `k` across both thresholds on one torus and
//! reports `S^k/k` — the paper predicts it flat (≈ constant) in the low
//! regime and decaying in the high regime.

use mrw_graph::generators::torus_2d;
use mrw_stats::Table;

use crate::bounds;
use crate::query::{self, Budget, Query, Session};

/// Configuration for the torus-spectrum experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Torus side (`n = side²`).
    pub side: usize,
    /// Walk counts to probe, spanning `k ≤ log n` through `k ≥ log³ n`.
    pub ks: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            side: 32, // n = 1024: log n ≈ 6.9, log³ n ≈ 333
            ks: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            side: 16, // n = 256: log n ≈ 5.5, log³ n ≈ 171
            ks: vec![1, 2, 4, 32, 128, 256],
            budget: Budget::quick(),
        }
    }
}

/// Results of the torus experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// `n = side²`.
    pub n: usize,
    /// The [`Query::SpeedupLadder`] report.
    pub ladder: query::Report,
    /// `(log n, log³ n)` regime thresholds.
    pub thresholds: (f64, f64),
}

impl Report {
    /// Mean `S^k/k` over points with `k ≤ log n` (excluding k = 1).
    pub fn low_regime_efficiency(&self) -> f64 {
        let (lo, _) = self.thresholds;
        let pts: Vec<f64> = self
            .ladder
            .speedups()
            .into_iter()
            .filter(|&(k, ..)| k > 1 && (k as f64) <= lo)
            .map(|(k, _, speedup)| speedup / k as f64)
            .collect();
        assert!(!pts.is_empty(), "no sweep points in the k ≤ log n regime");
        pts.iter().sum::<f64>() / pts.len() as f64
    }

    /// `S^k/k` at the largest probed `k`.
    pub fn high_regime_efficiency(&self) -> f64 {
        let (k, _, speedup) = self
            .ladder
            .speedups()
            .into_iter()
            .max_by_key(|&(k, ..)| k)
            .expect("non-empty ladder");
        speedup / k as f64
    }

    /// Renders the per-k table with regime annotations.
    pub fn table(&self) -> Table {
        let (lo, hi) = self.thresholds;
        let mut t = Table::new(vec![
            "k",
            "regime",
            "C^k measured",
            "Thm 24 lower (n^{2/d}/ln k)",
            "S^k",
            "S^k/k",
        ])
        .with_title(format!(
            "Theorem 8 — torus √n×√n (n = {}): linear speed-up for k ≤ log n ≈ {:.1}, sub-linear beyond log³ n ≈ {:.0}",
            self.n, lo, hi
        ));
        let level = self.ladder.confidence();
        for (k, group, speedup) in self.ladder.speedups() {
            let regime = if (k as f64) <= lo {
                "k ≤ log n"
            } else if (k as f64) >= hi {
                "k ≥ log³ n"
            } else {
                "between"
            };
            let lower = if k >= 2 {
                format!(
                    "{:.1}",
                    bounds::torus_kwalk_lower_reference(self.n as u64, 2, k as u64)
                )
            } else {
                "—".to_string()
            };
            t.push_row(vec![
                k.to_string(),
                regime.to_string(),
                super::fmt_pm(group.mean(), group.ci(level).half_width()),
                lower,
                format!("{:.2}", speedup),
                format!("{:.3}", speedup / k as f64),
            ]);
        }
        t
    }
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Report {
    let g = torus_2d(cfg.side);
    let n = cfg.side * cfg.side;
    let ladder = Session::new(cfg.budget.clone()).run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: cfg.ks.clone(),
        },
    );
    Report {
        n,
        ladder,
        thresholds: bounds::torus_spectrum_thresholds(n as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_regimes_visible() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 48;
        cfg.budget.seed = 13;
        let report = run(&cfg);
        let low = report.low_regime_efficiency();
        let high = report.high_regime_efficiency();
        // Low regime: near-linear speed-up (allow generous finite-size slack).
        assert!(low > 0.45, "low-regime S^k/k = {low} — expected near 1");
        // High regime: clearly sub-linear, and clearly worse than low.
        assert!(high < 0.6 * low, "high-regime S^k/k = {high} vs low {low}");
    }

    #[test]
    fn projection_lower_bound_respected() {
        // Theorem 24 with unit constant: C^k ≥ n^{2/d}/ln k should sit below
        // the measurement (it is an order bound; unit constant is safe at
        // these sizes).
        let mut cfg = Config::quick();
        cfg.ks = vec![4, 64];
        cfg.budget.trials = 32;
        let report = run(&cfg);
        for (k, group, _) in report.ladder.speedups() {
            let lower = bounds::torus_kwalk_lower_reference(report.n as u64, 2, k as u64);
            assert!(
                group.mean() > lower,
                "k={k}: C^k = {} below projection bound {lower}",
                group.mean()
            );
        }
    }

    #[test]
    fn table_marks_regimes() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 8;
        let ascii = run(&cfg).table().render_ascii();
        assert!(ascii.contains("k ≤ log n"));
        assert!(ascii.contains("k ≥ log³ n"));
    }
}
