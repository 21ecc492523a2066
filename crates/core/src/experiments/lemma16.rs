//! Lemma 16 — the compositional coverage bound that powers Theorem 14.
//!
//! The lemma: if a single walk of length `T_c` from `u₁` covers `G` with
//! probability ≥ `p_c`, and a walk of length `T_h` from *anywhere* visits
//! any fixed target with probability ≥ `p_h`, then a k-walk of length
//! `T_c/k + ℓ·T_h` covers `G` with probability at least
//!
//! ```text
//! p_c · (1 − k(1 − p_h)^ℓ)
//! ```
//!
//! The proof splits the covering trajectory into `k` segments and charges
//! each walk `ℓ·T_h` extra steps to *reach* its segment's start — this is
//! exactly where the `(3 log k + 2f(n))·h_max` additive term of
//! Theorem 14 comes from.
//!
//! The experiment measures all three probabilities by Monte-Carlo on one
//! graph and verifies the inequality at every `(k, ℓ)` in a grid: the
//! measured k-walk coverage probability must dominate the bound assembled
//! from the measured `p_c` and `p_h`.

use mrw_graph::Graph;
use mrw_spectral::hitting_times_all;
use mrw_stats::Table;

use crate::engine::{FullCover, Hit, SimpleStep};
use crate::query::{Budget, Query, Session};
use crate::walk::walk_rng;

/// Configuration for the Lemma 16 experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Torus side (graph is the √n×√n torus, a Matthews-tight family).
    pub side: usize,
    /// Walk counts `k` to probe.
    pub ks: Vec<usize>,
    /// Retry exponents `ℓ` to probe.
    pub ells: Vec<usize>,
    /// Cover-length multiplier: `T_c = multiplier × (measured C)`.
    pub tc_multiplier: f64,
    /// Trial budget (`trials` is used for each probability estimate).
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            side: 16,
            ks: vec![2, 4, 8, 16],
            ells: vec![1, 2, 4, 8],
            tc_multiplier: 1.5,
            budget: Budget {
                trials: 400,
                ..Budget::default()
            },
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            side: 8,
            ks: vec![2, 4],
            ells: vec![2, 4],
            tc_multiplier: 1.5,
            budget: Budget {
                trials: 150,
                ..Budget::quick()
            },
        }
    }
}

/// One `(k, ℓ)` cell of the grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Number of walks.
    pub k: usize,
    /// Retry exponent.
    pub ell: usize,
    /// k-walk length `T_c/k + ℓ·T_h` in rounds.
    pub length: u64,
    /// Measured coverage probability at that length.
    pub measured: f64,
    /// Lemma 16's lower bound `p_c·(1 − k(1−p_h)^ℓ)` from measured
    /// `p_c`, `p_h`.
    pub bound: f64,
}

impl Cell {
    /// Slack `measured − bound` (must be ≥ −(sampling noise)).
    pub fn slack(&self) -> f64 {
        self.measured - self.bound
    }
}

/// Report of the Lemma 16 grid.
#[derive(Debug, Clone)]
pub struct Report {
    /// Measured single-walk coverage probability at length `T_c`.
    pub p_c: f64,
    /// Measured worst-pair hit probability at length `T_h`.
    pub p_h: f64,
    /// `T_c` (rounds).
    pub t_c: u64,
    /// `T_h = ⌈2·h_max⌉` (rounds).
    pub t_h: u64,
    /// All `(k, ℓ)` cells.
    pub cells: Vec<Cell>,
}

impl Report {
    /// Renders the grid table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["k", "ell", "length", "bound", "measured", "slack"])
            .with_title(format!(
                "Lemma 16 — composition bound (p_c = {:.2} @ T_c = {}, p_h = {:.2} @ T_h = {})",
                self.p_c, self.t_c, self.p_h, self.t_h
            ));
        for c in &self.cells {
            t.push_row(vec![
                c.k.to_string(),
                c.ell.to_string(),
                c.length.to_string(),
                format!("{:.3}", c.bound),
                format!("{:.3}", c.measured),
                format!("{:+.3}", c.slack()),
            ]);
        }
        t
    }

    /// Worst (most negative) slack across cells.
    pub fn worst_slack(&self) -> f64 {
        self.cells
            .iter()
            .map(Cell::slack)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Measures `Pr[walk of length T_h from u visits v]` for the *diametral*
/// pair realizing `h_max` — the worst pair is the binding one in the
/// lemma's `p_h`.
fn measure_ph(g: &Graph, u: u32, v: u32, t_h: u64, budget: &Budget) -> f64 {
    let mut hits = 0usize;
    for t in 0..budget.trials {
        let mut rng = walk_rng(budget.seed ^ 0xF00D ^ (t as u64) << 17);
        let out = budget
            .engine(g, SimpleStep, Hit::new(v))
            .cap(t_h)
            .run(&[u], &mut rng);
        hits += out.stopped as usize;
    }
    hits as f64 / budget.trials as f64
}

/// Runs the Lemma 16 experiment.
pub fn run(cfg: &Config) -> Report {
    let g = mrw_graph::generators::torus_2d(cfg.side);
    let n = g.n();

    // Exact h_max (dense solve is fine at experiment sizes) and the pair
    // that attains it.
    let ht = hitting_times_all(&g);
    let mut hmax = 0.0f64;
    let mut pair = (0u32, 0u32);
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if ht.get(a, b) > hmax {
                hmax = ht.get(a, b);
                pair = (a, b);
            }
        }
    }
    let t_h = (2.0 * hmax).ceil() as u64; // Markov: p_h ≥ 1/2 at 2·h_max

    // Measure C roughly, set T_c, then measure p_c at T_c.
    let cover = Session::new(cfg.budget.clone()).run(
        &g,
        &Query::Cover {
            k: 1,
            starts: vec![0],
        },
    );
    let t_c = (cfg.tc_multiplier * cover.mean()).ceil() as u64;
    let trials = cfg.budget.trials;
    let mut covers = 0usize;
    for t in 0..trials {
        let mut rng = walk_rng(cfg.budget.seed ^ 0xC0FE ^ (t as u64) << 13);
        let out = cfg
            .budget
            .engine(&g, SimpleStep, FullCover::new(n))
            .cap(t_c)
            .run(&[0], &mut rng);
        covers += out.stopped as usize;
    }
    let p_c = covers as f64 / trials as f64;
    let p_h = measure_ph(&g, pair.0, pair.1, t_h, &cfg.budget);

    let mut cells = Vec::new();
    for &k in &cfg.ks {
        for &ell in &cfg.ells {
            let length = t_c / k as u64 + ell as u64 * t_h;
            let starts = vec![0u32; k];
            let mut cover_hits = 0usize;
            for t in 0..trials {
                let mut rng = walk_rng(
                    cfg.budget.seed ^ ((k as u64) << 40) ^ ((ell as u64) << 32) ^ t as u64,
                );
                let out = cfg
                    .budget
                    .engine(&g, SimpleStep, FullCover::new(n))
                    .cap(length)
                    .run(&starts, &mut rng);
                cover_hits += out.stopped as usize;
            }
            let bound = p_c * (1.0 - k as f64 * (1.0 - p_h).powi(ell as i32)).max(0.0);
            cells.push(Cell {
                k,
                ell,
                length,
                measured: cover_hits as f64 / trials as f64,
                bound,
            });
        }
    }
    Report {
        p_c,
        p_h,
        t_c,
        t_h,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_with_sampling_slack() {
        let report = run(&Config::quick());
        // Binomial noise at 150 trials: σ ≤ 0.5/√150 ≈ 0.041; allow 3σ.
        assert!(
            report.worst_slack() > -0.13,
            "Lemma 16 violated beyond noise:\n{}",
            report.table().render_ascii()
        );
    }

    #[test]
    fn markov_gives_ph_at_least_half() {
        let report = run(&Config::quick());
        // T_h = 2·h_max makes p_h ≥ 1/2 by Markov — the measured value
        // must clear it (minus noise).
        assert!(report.p_h > 0.45, "p_h = {}", report.p_h);
    }

    #[test]
    fn larger_ell_never_hurts_the_bound() {
        let report = run(&Config::quick());
        for k in [2usize, 4] {
            let bounds: Vec<f64> = report
                .cells
                .iter()
                .filter(|c| c.k == k)
                .map(|c| c.bound)
                .collect();
            for w in bounds.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "bound not monotone in ℓ for k={k}");
            }
        }
    }

    #[test]
    fn table_has_grid_rows() {
        let cfg = Config::quick();
        let report = run(&cfg);
        assert_eq!(report.cells.len(), cfg.ks.len() * cfg.ells.len());
        assert!(report.table().render_ascii().contains("Lemma 16"));
    }
}
