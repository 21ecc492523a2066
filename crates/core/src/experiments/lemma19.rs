//! Lemma 19 & Corollary 20 — the expander hitting machinery, checked
//! probability-by-probability.
//!
//! The [expander experiment](crate::experiments::expander) verifies the
//! *conclusion* (linear speed-up to `k ≈ n`); this one verifies the two
//! probabilistic steps of the proof on a certified `(n,d,λ)`-graph:
//!
//! * **Lemma 19**: a walk of length `2s`, `s = log(2n)/log(d/λ)`, started
//!   anywhere, visits a fixed vertex `v` with probability at least
//!   `s / (2n + 4s + 4bn)` where `b = λ/(d−λ)`. We measure the visit
//!   probability by Monte-Carlo over sampled `(u, v)` pairs and check
//!   every pair clears the bound.
//! * **Corollary 20**: `k` walks of length `t = 16(b+1)·n·ln n / k` from
//!   one vertex miss a fixed `v` with probability `< 1/n²`. At any
//!   affordable trial count a `1/n²` event should essentially never
//!   happen — we count misses and also check the 10×-shorter walk *does*
//!   miss, so the experiment has teeth.
//!
//! Together these are the engine room of Theorem 18 (`S^k = Ω(k)` for
//! `k ≤ n` on expanders).

use mrw_graph::generators::random_regular;
use mrw_graph::Graph;
use mrw_spectral::power::{spectral_profile, SpectralProfile};
use mrw_stats::Table;

use crate::engine::{Hit, SimpleStep};
use crate::query::Budget;
use crate::walk::{walk_rng, WalkRng};

/// Configuration for the Lemma 19 / Corollary 20 experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Vertex count.
    pub n: usize,
    /// Degree.
    pub d: usize,
    /// Number of random `(u, v)` pairs to probe for Lemma 19.
    pub pairs: usize,
    /// Walk counts for the Corollary 20 check.
    pub ks: Vec<usize>,
    /// Trial budget per probability estimate.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1024,
            d: 8,
            pairs: 12,
            ks: vec![4, 16, 64],
            budget: Budget {
                trials: 600,
                ..Budget::default()
            },
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            n: 256,
            d: 8,
            pairs: 6,
            ks: vec![4, 16],
            budget: Budget {
                trials: 250,
                ..Budget::quick()
            },
        }
    }
}

/// One `(u, v)` pair probed for Lemma 19.
#[derive(Debug, Clone, Copy)]
pub struct PairRow {
    /// Walk start.
    pub u: u32,
    /// Target vertex.
    pub v: u32,
    /// Measured `Pr[walk of length 2s visits v]`.
    pub measured: f64,
    /// Lemma 19's lower bound `s/(2n + 4s + 4bn)`.
    pub bound: f64,
}

/// One `k` row of the Corollary 20 check.
#[derive(Debug, Clone, Copy)]
pub struct CorollaryRow {
    /// Number of walks.
    pub k: usize,
    /// Per-walk length `t = 16(b+1)·n·ln n / k`.
    pub t: u64,
    /// Misses of the fixed target over all trials at length `t`.
    pub misses: usize,
    /// Misses at the short control length `n/10` (must be plentiful,
    /// proving the main check is not vacuous).
    pub misses_short: usize,
    /// Trials.
    pub trials: usize,
}

/// Report of both checks.
#[derive(Debug, Clone)]
pub struct Report {
    /// Certified spectral profile of the sampled graph.
    pub profile: SpectralProfile,
    /// Sub-walk length `2s` used by Lemma 19 (rounded up).
    pub two_s: u64,
    /// Lemma 19 rows.
    pub pairs: Vec<PairRow>,
    /// Corollary 20 rows.
    pub corollary: Vec<CorollaryRow>,
    /// `n` for rendering.
    pub n: usize,
}

impl Report {
    /// Lemma 19 table.
    pub fn lemma_table(&self) -> Table {
        let mut t = Table::new(vec!["u", "v", "bound s/(2n+4s+4bn)", "measured Pr[visit]"])
            .with_title(format!(
                "Lemma 19 — length-2s visit probability (s = {:.1}, b = {:.2}, λ = {:.2})",
                self.profile.s, self.profile.b, self.profile.lambda
            ));
        for p in &self.pairs {
            t.push_row(vec![
                p.u.to_string(),
                p.v.to_string(),
                format!("{:.5}", p.bound),
                format!("{:.5}", p.measured),
            ]);
        }
        t
    }

    /// Corollary 20 table.
    pub fn corollary_table(&self) -> Table {
        let mut t = Table::new(vec![
            "k",
            "t = 16(b+1)n ln n/k",
            "k·t / (n ln n)",
            "misses@t",
            "misses@n/10",
            "1/n² budget",
        ])
        .with_title("Corollary 20 — k walks of total length O(n log n) each hit v");
        let nlogn = self.n as f64 * (self.n as f64).ln();
        for r in &self.corollary {
            t.push_row(vec![
                r.k.to_string(),
                r.t.to_string(),
                format!("{:.2}", r.k as f64 * r.t as f64 / nlogn),
                format!("{}/{}", r.misses, r.trials),
                format!("{}/{}", r.misses_short, r.trials),
                format!("{:.2e}", 1.0 / (self.n as f64 * self.n as f64)),
            ]);
        }
        t
    }

    /// Do all Lemma 19 pairs clear the bound?
    pub fn lemma_holds(&self) -> bool {
        self.pairs.iter().all(|p| p.measured >= p.bound)
    }
}

/// Does one walk of length `len` from `u` visit `v`?
fn visits_within(g: &Graph, u: u32, v: u32, len: u64, budget: &Budget, rng: &mut WalkRng) -> bool {
    budget
        .engine(g, SimpleStep, Hit::new(v))
        .cap(len)
        .run(&[u], rng)
        .stopped
}

/// Measures `Pr[walk of length len from u visits v]`.
fn visit_probability(g: &Graph, u: u32, v: u32, len: u64, budget: &Budget) -> f64 {
    let mut hits = 0usize;
    for t in 0..budget.trials {
        let mut rng = walk_rng(budget.seed ^ ((u as u64) << 34) ^ ((v as u64) << 20) ^ t as u64);
        hits += visits_within(g, u, v, len, budget, &mut rng) as usize;
    }
    hits as f64 / budget.trials as f64
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Report {
    let mut rng = walk_rng(cfg.budget.seed);
    let g = random_regular(cfg.n, cfg.d, &mut rng).expect("regular sample");
    let profile = spectral_profile(&g, 3000);
    assert!(
        profile.lambda < cfg.d as f64,
        "sampled graph is disconnected or bipartite (λ = d)"
    );
    let two_s = (2.0 * profile.s).ceil() as u64;
    let bound = profile.s / (2.0 * cfg.n as f64 + 4.0 * profile.s + 4.0 * profile.b * cfg.n as f64);

    // Lemma 19: sample pairs deterministically spread over the graph.
    let trials = cfg.budget.trials;
    let mut pairs = Vec::with_capacity(cfg.pairs);
    for i in 0..cfg.pairs {
        let u = ((i * 2 + 1) * cfg.n / (2 * cfg.pairs)) as u32;
        let v = ((i * 2 + 7) * cfg.n / (2 * cfg.pairs) + 3) as u32 % cfg.n as u32;
        if u == v {
            continue;
        }
        pairs.push(PairRow {
            u,
            v,
            measured: visit_probability(&g, u, v, two_s, &cfg.budget),
            bound,
        });
    }

    // Corollary 20: fixed start 0 and target = antipodal-ish vertex.
    let target = (cfg.n / 2) as u32;
    let mut corollary = Vec::new();
    for &k in &cfg.ks {
        let t_len = (16.0 * (profile.b + 1.0) * cfg.n as f64 * (cfg.n as f64).ln() / k as f64)
            .ceil() as u64;
        let count_misses = |len: u64, salt: u64| -> usize {
            let mut misses = 0usize;
            for trial in 0..trials {
                let mut all_missed = true;
                for walk in 0..k {
                    let mut wrng = walk_rng(
                        cfg.budget.seed
                            ^ salt
                            ^ ((k as u64) << 44)
                            ^ ((walk as u64) << 28)
                            ^ trial as u64,
                    );
                    if visits_within(&g, 0, target, len, &cfg.budget, &mut wrng) {
                        all_missed = false;
                        break;
                    }
                }
                if all_missed {
                    misses += 1;
                }
            }
            misses
        };
        corollary.push(CorollaryRow {
            k,
            t: t_len,
            misses: count_misses(t_len, 0xA11CE),
            misses_short: count_misses((cfg.n as u64 / 10).max(1), 0xB0B),
            trials,
        });
    }

    Report {
        profile,
        two_s,
        pairs,
        corollary,
        n: cfg.n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma19_bound_clears_on_every_pair() {
        let report = run(&Config::quick());
        assert!(
            report.lemma_holds(),
            "Lemma 19 violated:\n{}",
            report.lemma_table().render_ascii()
        );
    }

    #[test]
    fn corollary20_walks_never_miss() {
        let report = run(&Config::quick());
        for r in &report.corollary {
            assert_eq!(
                r.misses, 0,
                "k={}: {} misses at the Corollary 20 length",
                r.k, r.misses
            );
        }
    }

    #[test]
    fn corollary20_total_work_is_n_log_n_independent_of_k() {
        let report = run(&Config::quick());
        let nlogn = report.n as f64 * (report.n as f64).ln();
        let works: Vec<f64> = report
            .corollary
            .iter()
            .map(|r| r.k as f64 * r.t as f64 / nlogn)
            .collect();
        for w in &works {
            // 16(b+1) with b ≈ 0.5: constant ≈ 24, same for every k.
            assert!(*w > 4.0 && *w < 100.0, "k·t/(n ln n) = {w}");
        }
        let spread = works.iter().cloned().fold(0.0f64, f64::max)
            / works.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1.05, "total work varies with k: {works:?}");
    }

    #[test]
    fn short_control_walks_do_miss() {
        // At n/10 steps (≪ h_max ≈ n) even k walks routinely miss;
        // otherwise the main check is vacuous.
        let report = run(&Config::quick());
        let any_short_miss = report.corollary.iter().any(|r| r.misses_short > 0);
        assert!(any_short_miss, "control arm never missed — check lengths");
    }

    #[test]
    fn tables_render() {
        let report = run(&Config::quick());
        assert!(report.lemma_table().render_ascii().contains("Lemma 19"));
        assert!(report
            .corollary_table()
            .render_ascii()
            .contains("Corollary 20"));
    }
}
