//! Theorems 7 & 26 + Figure 1 — exponential speed-up on the barbell.
//!
//! From the center of `B_n`, one walk falls into a bell and needs `Θ(n²)`
//! steps to escape, so `C_vc = Θ(n²)`; but `k = 20 ln n` walks send
//! `Ω(log n)` tokens into *each* bell immediately and cover both in `O(n)`
//! rounds (Theorem 26). The speed-up `Θ(n²)/O(n) = Ω(n)` is exponential in
//! `k = Θ(log n)`.
//!
//! The experiment sweeps barbell sizes, measuring `C_vc` (single walk) and
//! `C^k_vc` (`k = ⌈20 ln n⌉`), then fits growth exponents: the paper
//! predicts exponent ≈ 2 for the former and ≈ 1 for the latter.

use mrw_graph::generators::{barbell, barbell_center};
use mrw_stats::regression::{power_law_fit, PowerLawFit};
use mrw_stats::Table;

use crate::bounds;
use crate::query::{Budget, Query, Session};

/// Configuration for the barbell experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Barbell sizes (odd, ≥ 7).
    pub sizes: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sizes: vec![65, 129, 257, 513, 1025],
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            sizes: vec![33, 65, 129],
            budget: Budget::quick(),
        }
    }
}

/// One barbell size's measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// Barbell size `n`.
    pub n: usize,
    /// Theorem 26's walk count `⌈20 ln n⌉`.
    pub k: usize,
    /// Measured single-walk cover time from the center.
    pub c1: f64,
    /// Measured k-walk cover time from the center.
    pub ck: f64,
    /// Speed-up `c1/ck`.
    pub speedup: f64,
}

/// Results of the barbell experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-size measurements.
    pub rows: Vec<Row>,
    /// Growth fit of `C_vc` vs `n` (paper: exponent 2).
    pub c1_growth: PowerLawFit,
    /// Growth fit of `C^k_vc` vs `n` (paper: exponent 1).
    pub ck_growth: PowerLawFit,
}

impl Report {
    /// Renders the per-size table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "n",
            "k=⌈20 ln n⌉",
            "C_vc (1 walk)",
            "C^k_vc",
            "S^k",
            "S^k/n",
        ])
        .with_title(
            "Theorem 7/26 — barbell B_n from the center: C = Θ(n²), C^k = O(n), exponential speed-up",
        );
        for r in &self.rows {
            t.push_row(vec![
                r.n.to_string(),
                r.k.to_string(),
                format!("{:.0}", r.c1),
                format!("{:.1}", r.ck),
                format!("{:.1}", r.speedup),
                format!("{:.3}", r.speedup / r.n as f64),
            ]);
        }
        t
    }
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Report {
    assert!(
        cfg.sizes.len() >= 2,
        "need ≥ 2 sizes to fit growth exponents"
    );
    let rows: Vec<Row> = cfg
        .sizes
        .iter()
        .map(|&n| {
            let g = barbell(n);
            let vc = barbell_center(n);
            let k = bounds::barbell_k(n as u64) as usize;
            let session = Session::new(cfg.budget.clone());
            let cover = |k| {
                let starts = vec![vc];
                session.run(&g, &Query::Cover { k, starts }).mean()
            };
            let (c1, ck) = (cover(1), cover(k));
            Row {
                n,
                k,
                c1,
                ck,
                speedup: c1 / ck,
            }
        })
        .collect();
    let ns: Vec<f64> = rows.iter().map(|r| r.n as f64).collect();
    let c1s: Vec<f64> = rows.iter().map(|r| r.c1).collect();
    let cks: Vec<f64> = rows.iter().map(|r| r.ck).collect();
    Report {
        c1_growth: power_law_fit(&ns, &c1s),
        ck_growth: power_law_fit(&ns, &cks),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_speedup_shape() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 40;
        cfg.budget.seed = 99;
        let report = run(&cfg);
        // Single-walk cover grows ≈ quadratically...
        assert!(
            report.c1_growth.exponent > 1.6,
            "C_vc exponent {} — expected ≈ 2",
            report.c1_growth.exponent
        );
        // ...k-walk cover grows ≈ linearly (allow slack up to 1.45)...
        assert!(
            report.ck_growth.exponent < 1.45,
            "C^k_vc exponent {} — expected ≈ 1",
            report.ck_growth.exponent
        );
        // ...and the exponent gap is what makes the speed-up exponential.
        assert!(report.c1_growth.exponent - report.ck_growth.exponent > 0.5);
        // Speed-up grows with n.
        let s: Vec<f64> = report.rows.iter().map(|r| r.speedup).collect();
        assert!(s.last().unwrap() > s.first().unwrap());
    }

    #[test]
    fn speedup_exceeds_k_by_far() {
        // The whole point: S^k ≫ k (here k ≈ 20 ln n).
        let mut cfg = Config::quick();
        cfg.sizes = vec![65, 129];
        cfg.budget.trials = 40;
        let report = run(&cfg);
        let last = report.rows.last().unwrap();
        assert!(
            last.speedup > last.k as f64,
            "S = {} did not beat k = {}",
            last.speedup,
            last.k
        );
    }

    #[test]
    fn table_renders() {
        let mut cfg = Config::quick();
        cfg.sizes = vec![33, 65];
        cfg.budget.trials = 8;
        let t = run(&cfg).table();
        assert_eq!(t.len(), 2);
        assert!(t.render_ascii().contains("barbell"));
    }

    #[test]
    #[should_panic(expected = "≥ 2 sizes")]
    fn single_size_rejected() {
        let mut cfg = Config::quick();
        cfg.sizes = vec![33];
        run(&cfg);
    }
}
