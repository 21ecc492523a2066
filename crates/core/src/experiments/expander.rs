//! Theorems 3 & 18 — linear speed-up on expanders for `k` up to `n`.
//!
//! The paper's strongest positive result: on an `(n,d,λ)`-graph the
//! speed-up stays `Ω(k)` all the way to `k ≈ n`, not just `k ≤ log n`.
//! We realize the expander as a random d-regular graph, *certify* its λ by
//! power iteration (so the run is on a bona-fide `(n,d,λ)`-graph, not just
//! "probably an expander"), and sweep `k` across four orders of magnitude.
//! Corollary 20's predicted per-walk length `16(b+1)·n ln n / k` is printed
//! alongside for comparison.

use mrw_graph::generators::random_regular;
use mrw_spectral::power::{spectral_profile, SpectralProfile};
use mrw_stats::Table;

use crate::bounds;
use crate::query::{self, Budget, Query, Session};
use crate::walk::walk_rng;

/// Configuration for the expander experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Vertex count.
    pub n: usize,
    /// Degree (8 keeps λ/d ≈ 0.66 per Friedman).
    pub d: usize,
    /// Walk counts to probe (up to ≈ n/2).
    pub ks: Vec<usize>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1024,
            d: 8,
            ks: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            n: 256,
            d: 8,
            ks: vec![1, 2, 4, 8, 16, 32, 64, 128],
            budget: Budget::quick(),
        }
    }
}

/// Results of the expander experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// Vertex count.
    pub n: usize,
    /// The certified spectral profile of the sampled instance.
    pub profile: SpectralProfile,
    /// The [`Query::SpeedupLadder`] report.
    pub ladder: query::Report,
}

impl Report {
    /// Minimum `S^k/k` across the ladder (excluding `k = 1`) — Theorem 18
    /// says this is bounded below by a constant for all `k ≤ n`.
    pub fn min_efficiency(&self) -> f64 {
        self.ladder
            .speedups()
            .into_iter()
            .filter(|&(k, ..)| k > 1)
            .map(|(k, _, speedup)| speedup / k as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the per-k table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "k",
            "C^k measured",
            "Cor 20 length 16(b+1)n·ln n/k",
            "S^k",
            "S^k/k",
        ])
        .with_title(format!(
            "Theorem 18 — random {}-regular expander, n = {}: certified λ = {:.3} (λ/d = {:.3}, b = {:.3})",
            self.profile.d, self.n, self.profile.lambda,
            self.profile.lambda / self.profile.d as f64, self.profile.b
        ));
        let level = self.ladder.confidence();
        for (k, group, speedup) in self.ladder.speedups() {
            t.push_row(vec![
                k.to_string(),
                super::fmt_pm(group.mean(), group.ci(level).half_width()),
                format!(
                    "{:.0}",
                    bounds::expander_walk_length(self.n as u64, self.profile.b, k as u64)
                ),
                format!("{:.2}", speedup),
                format!("{:.3}", speedup / k as f64),
            ]);
        }
        t
    }
}

/// Runs the experiment.
///
/// # Panics
/// If the sampled graph fails expander certification (λ too close to d),
/// which for `d = 8` happens with probability `o(1)` — re-seed if it ever
/// does.
pub fn run(cfg: &Config) -> Report {
    let mut rng = walk_rng(cfg.budget.seed ^ 0xE9A);
    let g = random_regular(cfg.n, cfg.d, &mut rng).expect("regular graph generation failed");
    let profile = spectral_profile(&g, 2000);
    assert!(
        profile.lambda < 0.95 * cfg.d as f64,
        "sampled graph is not a usable expander: λ = {} vs d = {}",
        profile.lambda,
        cfg.d
    );
    let ladder = Session::new(cfg.budget.clone()).run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: cfg.ks.clone(),
        },
    );
    Report {
        n: cfg.n,
        profile,
        ladder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_speedup_up_to_large_k() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 48;
        cfg.budget.seed = 3;
        let report = run(&cfg);
        // Theorem 18: Ω(k) — demand S^k/k ≥ 0.3 everywhere, including the
        // k = n/2 point where log-n-limited families have long collapsed.
        let eff = report.min_efficiency();
        assert!(eff > 0.3, "min S^k/k = {eff} — speed-up collapsed");
    }

    #[test]
    fn certification_is_meaningful() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 4;
        cfg.ks = vec![1, 2];
        let report = run(&cfg);
        // Friedman: λ ≈ 2√7 ≈ 5.29 for d = 8.
        assert!(report.profile.lambda < 6.5);
        assert!(report.profile.lambda > 4.0);
        assert!(report.profile.b > 0.0);
    }

    #[test]
    fn expander_beats_cycle_badly_at_equal_k() {
        // Cross-family sanity: at k = 64 the expander's speed-up dwarfs the
        // cycle's log k ≈ 4.2.
        let mut cfg = Config::quick();
        cfg.ks = vec![64];
        cfg.budget.trials = 32;
        let report = run(&cfg);
        let (k, _, speedup) = report.ladder.speedups()[0];
        assert_eq!(k, 64);
        assert!(speedup > 15.0);
    }

    #[test]
    fn table_renders_certificate() {
        let mut cfg = Config::quick();
        cfg.ks = vec![1, 4];
        cfg.budget.trials = 4;
        let ascii = run(&cfg).table().render_ascii();
        assert!(ascii.contains("certified λ"));
    }
}
