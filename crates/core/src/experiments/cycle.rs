//! Theorem 6 — the cycle: `S^k(L_n) = Θ(log k)`.
//!
//! The family where many walks help *least*: all `k` tokens start at the
//! same vertex and mostly race each other around the ring. The experiment
//! sweeps `k`, compares `C^k` against Lemma 22's upper bound `2n²/ln k`,
//! and fits `S^k ≈ a + b·ln k` — Theorem 6 predicts the log model fits
//! with `b` bounded and the *linear* model `S^k ≈ k` failing badly.

use mrw_stats::regression::{log_fit, LinearFit};
use mrw_stats::{ladder, Table};

use crate::bounds;
use crate::query::{self, Budget, Query, Session};

/// Configuration for the cycle experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cycle length `n`.
    pub n: usize,
    /// Walk counts to probe.
    pub ks: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 512,
            ks: ladder::k_ladder(1024).iter().map(|&k| k as usize).collect(),
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            n: 96,
            ks: vec![1, 2, 4, 8, 16, 32, 64],
            budget: Budget::quick(),
        }
    }
}

/// Results of the cycle experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// Cycle length.
    pub n: usize,
    /// The [`Query::SpeedupLadder`] report.
    pub ladder: query::Report,
    /// Fit of `S^k = a + b·ln k` over `k ≥ 2`.
    pub log_law: LinearFit,
}

impl Report {
    /// Renders the per-k table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "k",
            "C^k measured",
            "2n²/ln k (Lemma 22)",
            "S^k",
            "S^k/ln k",
            "S^k/k",
        ])
        .with_title(format!(
            "Theorem 6 — cycle L_{}: S^k = Θ(log k); exact C = {}",
            self.n,
            bounds::cycle_cover_exact(self.n as u64)
        ));
        let level = self.ladder.confidence();
        for (k, group, speedup) in self.ladder.speedups() {
            let bound = if k >= 3 {
                format!("{:.0}", bounds::cycle_kwalk_upper(self.n as u64, k as u64))
            } else {
                "—".to_string()
            };
            let per_log = if k >= 2 {
                format!("{:.3}", speedup / (k as f64).ln())
            } else {
                "—".to_string()
            };
            t.push_row(vec![
                k.to_string(),
                super::fmt_pm(group.mean(), group.ci(level).half_width()),
                bound,
                format!("{:.2}", speedup),
                per_log,
                format!("{:.3}", speedup / k as f64),
            ]);
        }
        t
    }
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Report {
    let g = mrw_graph::generators::cycle(cfg.n);
    let ladder = Session::new(cfg.budget.clone()).run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: cfg.ks.clone(),
        },
    );
    let fit_pts: Vec<(f64, f64)> = ladder
        .speedups()
        .into_iter()
        .filter(|&(k, ..)| k >= 2)
        .map(|(k, _, speedup)| (k as f64, speedup))
        .collect();
    assert!(
        fit_pts.len() >= 2,
        "need at least two k ≥ 2 points to fit the log law"
    );
    let (ks, ss): (Vec<f64>, Vec<f64>) = fit_pts.into_iter().unzip();
    let log_law = log_fit(&ks, &ss);
    Report {
        n: cfg.n,
        ladder,
        log_law,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> Config {
        let mut cfg = Config::quick();
        cfg.budget.trials = 96;
        cfg.budget.seed = 7;
        cfg
    }

    #[test]
    fn speedup_is_logarithmic_not_linear() {
        let report = run(&test_cfg());
        // Log model should describe the data well...
        assert!(
            report.log_law.r_squared > 0.8,
            "log fit R² = {}",
            report.log_law.r_squared
        );
        // ...with positive slope (more walks do help a bit)...
        assert!(report.log_law.slope > 0.0);
        // ...and the largest-k point must be far below linear speed-up.
        let (k, _, speedup) = *report.ladder.speedups().last().unwrap();
        assert!(
            speedup < 0.5 * k as f64,
            "S^{k} = {speedup} — looks linear, not logarithmic"
        );
    }

    #[test]
    fn lemma22_upper_bound_holds() {
        let report = run(&test_cfg());
        for (k, group, _) in report.ladder.speedups() {
            if k >= 8 {
                // "k large enough" in the lemma.
                let bound = bounds::cycle_kwalk_upper(report.n as u64, k as u64);
                assert!(
                    group.mean() <= bound * 1.05,
                    "k={k}: C^k = {} exceeds Lemma 22 bound {bound}",
                    group.mean()
                );
            }
        }
    }

    #[test]
    fn baseline_matches_gambler_ruin() {
        let report = run(&test_cfg());
        let exact = bounds::cycle_cover_exact(report.n as u64);
        let rel = (report.ladder.mean() - exact).abs() / exact;
        assert!(
            rel < 0.15,
            "C measured {} vs exact {exact}",
            report.ladder.mean()
        );
    }

    #[test]
    fn table_shape() {
        let cfg = Config::quick();
        let report = run(&cfg);
        let t = report.table();
        assert_eq!(t.len(), cfg.ks.len());
        assert!(t.render_ascii().contains("Theorem 6"));
    }
}
