//! Experiment drivers: one module per table/figure/theorem of the paper.
//!
//! | Module | Paper artifact | What it regenerates |
//! |--------|----------------|---------------------|
//! | [`table1`] | Table 1 | cover/hitting/mixing times and speed-ups for all seven families |
//! | [`clique`] | Lemma 12 | `S^k(K_n) = k` coupon-collector law |
//! | [`cycle`] | Theorem 6 | `S^k(L_n) = Θ(log k)` and the Lemma 22 bound |
//! | [`barbell`] | Theorem 7/26, Figure 1 | exponential speed-up from the center, `C = Θ(n²) → C^k = O(n)` |
//! | [`torus`] | Theorems 8 & 24 | full speed-up spectrum on the 2-d torus |
//! | [`expander`] | Theorems 3 & 18, Cor 20 | linear speed-up on certified `(n,d,λ)`-graphs up to `k ≈ n` |
//! | [`matthews`] | Theorem 1 | the `h·H_n` sandwich on every family |
//! | [`baby_matthews`] | Theorem 13 | `C^k ≤ (e/k)·h_max·H_n` for `k ≤ log n` |
//! | [`mixing`] | Theorem 9 | `S^k ≳ k/(t_m ln n)` on regular families |
//! | [`gap`] | Theorems 5 & 14 | near-linear speed-up at `k ≤ (C/h_max)^{1−ε}` |
//! | [`concentration`] | Theorem 17 (Aldous) | cover-time cv → 0 iff `C/h_max → ∞` |
//! | [`stationary`] | §1.1 related work | stationary-start `C^k` vs the Broder et al. bound |
//! | [`conjectures`] | §8, Conjectures 10–11 | `S^k ≤ O(k)` / `S^k ≥ Ω(log k)` zoo scan |
//! | [`lemma16`] | Lemma 16 (appendix) | the compositional bound `p_c(1 − k(1−p_h)^ℓ)` on a grid of `(k, ℓ)` |
//! | [`lemma19`] | Lemma 19 & Corollary 20 | expander visit probabilities and the `O(n log n)` total-work law |
//! | [`prop23`] | Proposition 23 (appendix) | exact binomial tail sandwich behind Lemma 22 |
//! | [`barbell_events`] | Theorem 26 proof | the events E1/E2/E3 excluded by the barbell proof |
//! | [`exact_zoo`] | (methodology) | exact DP vs Monte-Carlo on every family at small n |
//! | [`projection`] | Theorem 24 proof | per-trace projection domination and the lazy-cycle identity |
//! | [`hunting`] | §1 motivation | the hunters-vs-prey game: catch-time speed-up next to cover-time speed-up |
//! | [`smallworld`] | §8 open question | Watts–Strogatz β-sweep: the speed-up walking from Theorem 6 to Theorem 18 |
//!
//! Every driver follows one convention: a `Config` struct whose `Default`
//! is paper scale and whose `quick()` is CI scale, a `run(&Config) ->
//! Report` function, and a `Report::table()` that renders the rows the
//! paper reports. Estimates come from
//! [`Session::run`](crate::query::Session::run) and are read off its
//! [`Report`](crate::query::Report) groups; a driver that steps walks
//! itself (`stationary`, `lemma16`, `lemma19`, `projection`,
//! `barbell_events`) builds each engine with
//! [`Budget::engine`], so the budget's `batch` and `mode` reach every
//! trial. Every driver is deterministic given its `Config`: the sampling
//! ones draw every stream from `Config::budget.seed`.

pub mod baby_matthews;
pub mod barbell;
pub mod barbell_events;
pub mod clique;
pub mod concentration;
pub mod conjectures;
pub mod cycle;
pub mod exact_zoo;
pub mod expander;
pub mod gap;
pub mod hunting;
pub mod lemma16;
pub mod lemma19;
pub mod matthews;
pub mod mixing;
pub mod projection;
pub mod prop23;
pub mod smallworld;
pub mod stationary;
pub mod table1;
pub mod torus;

use mrw_graph::Graph;
use mrw_stats::table::fmt_num;

use crate::query::{Budget, Group, Query, Session};
use crate::starts::worst_start_candidates;

/// Formats a measured value with its CI half-width as `x ±h`.
pub(crate) fn fmt_pm(point: f64, half: f64) -> String {
    format!("{} ±{}", fmt_num(point), fmt_num(half))
}

/// The single-walk worst-start cover time `C(G) = max_i C_i`: the largest
/// group mean over the [`worst_start_candidates`].
pub(crate) fn worst_start_cover(g: &Graph, budget: &Budget) -> f64 {
    let query = Query::Cover {
        k: 1,
        starts: worst_start_candidates(g.n()),
    };
    Session::new(budget.clone())
        .run(g, &query)
        .groups
        .iter()
        .map(Group::mean)
        .fold(f64::NEG_INFINITY, f64::max)
}
