//! Visit-count statistics: where do `k` walks actually spend their time?
//!
//! Cover time only asks *when* the last vertex is reached; the
//! applications in the paper's introduction (query processing, gossip,
//! self-stabilization) also care *how evenly* walk visits spread across
//! the network — hot spots mean congestion and battery drain in the
//! sensor-network setting of refs \[8, 31\]. This module runs `k` walks
//! for a fixed horizon and reports the per-vertex visit counts plus
//! summary dispersion measures.
//!
//! The long-run benchmark is the stationary distribution: simple walks
//! visit `v` at rate `k·δ(v)/Σδ`, so irregular graphs are inherently
//! unfair (the barbell's bells absorb almost everything — the same
//! phenomenon that makes its single-walk cover time `Θ(n²)`), while a
//! [`Metropolis`](crate::process::WalkProcess::Metropolis) walk equalizes
//! rates on any topology.

use mrw_graph::Graph;
use rand::Rng;

use crate::engine::{CompiledProcess, Engine, Multicover, SimpleStep, VisitTally};
use crate::process::WalkProcess;

/// Per-vertex visit counts from a fixed-horizon k-walk run.
#[derive(Debug, Clone)]
pub struct VisitCounts {
    counts: Vec<u64>,
    rounds: u64,
    k: usize,
}

impl VisitCounts {
    /// Number of times each vertex was entered (starts are counted once
    /// per token at time 0).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The simulated horizon in rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of walks.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total visits = `k · (rounds + 1)` (each token contributes its start
    /// plus one visit per round).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean visits per vertex.
    pub fn mean(&self) -> f64 {
        self.total() as f64 / self.counts.len() as f64
    }

    /// Maximum visits over vertices (the "hot spot" load).
    pub fn max(&self) -> u64 {
        *self.counts.iter().max().expect("nonempty")
    }

    /// Minimum visits over vertices (0 until the graph is covered).
    pub fn min(&self) -> u64 {
        *self.counts.iter().min().expect("nonempty")
    }

    /// Coefficient of variation of the per-vertex counts (population
    /// standard deviation over mean) — 0 is perfectly balanced load.
    pub fn coefficient_of_variation(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.counts.len() as f64;
        var.sqrt() / mean
    }

    /// Empirical visit frequencies (counts normalized to sum 1).
    pub fn frequencies(&self) -> Vec<f64> {
        let total = self.total() as f64;
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }

    /// Total-variation distance between the empirical visit frequencies
    /// and a reference distribution (e.g. the process's stationary law).
    ///
    /// # Panics
    /// If `reference` has the wrong length.
    pub fn tv_distance_to(&self, reference: &[f64]) -> f64 {
        assert_eq!(reference.len(), self.counts.len(), "length mismatch");
        let freq = self.frequencies();
        0.5 * freq
            .iter()
            .zip(reference)
            .map(|(f, r)| (f - r).abs())
            .sum::<f64>()
    }
}

/// Runs `k` tokens of `process` for exactly `rounds` synchronous rounds
/// from `starts` and tallies per-vertex visit counts.
///
/// # Panics
/// If `starts` is empty or any start is out of range.
pub fn kwalk_visit_counts<R: Rng + ?Sized>(
    g: &Graph,
    starts: &[u32],
    rounds: u64,
    process: WalkProcess,
    rng: &mut R,
) -> VisitCounts {
    assert!(!starts.is_empty(), "need at least one walk");
    for &s in starts {
        assert!((s as usize) < g.n(), "start {s} out of range");
    }
    let out = Engine::new(g, CompiledProcess::new(process, g), VisitTally::new(g.n()))
        .cap(rounds)
        .run(starts, rng);
    VisitCounts {
        counts: out.observer.into_counts(),
        rounds,
        k: starts.len(),
    }
}

/// Rounds until every vertex has been visited at least `b` times by one
/// of the `k` walks — a Monte-Carlo handle on the *blanket-time*
/// generalization of cover time (Winkler–Zuckerman). `b = 1` is the cover
/// time.
///
/// # Panics
/// If `starts` is empty, `b == 0`, any start is out of range, or (debug)
/// the graph is disconnected.
pub fn kwalk_multicover_rounds<R: Rng + ?Sized>(
    g: &Graph,
    starts: &[u32],
    b: u64,
    rng: &mut R,
) -> u64 {
    assert!(!starts.is_empty(), "need at least one walk");
    assert!(b >= 1, "need b ≥ 1 visits");
    for &s in starts {
        assert!((s as usize) < g.n(), "start {s} out of range");
    }
    debug_assert!(
        mrw_graph::algo::is_connected(g),
        "multicover unreachable: disconnected graph"
    );
    Engine::new(g, SimpleStep, Multicover::new(g.n(), b))
        .run(starts, rng)
        .rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kwalk::{kwalk_cover_rounds, KWalkMode};
    use crate::walk::walk_rng;
    use mrw_graph::generators;

    #[test]
    fn totals_add_up() {
        let g = generators::torus_2d(5);
        let vc = kwalk_visit_counts(&g, &[0, 3, 7], 100, WalkProcess::Simple, &mut walk_rng(1));
        assert_eq!(vc.total(), 3 * 101);
        assert_eq!(vc.rounds(), 100);
        assert_eq!(vc.k(), 3);
    }

    #[test]
    fn frequencies_converge_to_stationary_simple() {
        let g = generators::barbell(13);
        let vc = kwalk_visit_counts(&g, &[6, 6], 200_000, WalkProcess::Simple, &mut walk_rng(2));
        let pi = WalkProcess::Simple.stationary(&g);
        assert!(
            vc.tv_distance_to(&pi) < 0.02,
            "TV to stationary = {}",
            vc.tv_distance_to(&pi)
        );
    }

    #[test]
    fn frequencies_converge_to_uniform_metropolis() {
        let g = generators::barbell(13);
        let vc = kwalk_visit_counts(
            &g,
            &[6, 6],
            200_000,
            WalkProcess::Metropolis,
            &mut walk_rng(3),
        );
        let uniform = vec![1.0 / 13.0; 13];
        assert!(
            vc.tv_distance_to(&uniform) < 0.02,
            "TV to uniform = {}",
            vc.tv_distance_to(&uniform)
        );
    }

    #[test]
    fn metropolis_balances_load_better_on_irregular_graph() {
        let g = generators::lollipop(16);
        let simple =
            kwalk_visit_counts(&g, &[0, 0], 100_000, WalkProcess::Simple, &mut walk_rng(4));
        let metro = kwalk_visit_counts(
            &g,
            &[0, 0],
            100_000,
            WalkProcess::Metropolis,
            &mut walk_rng(5),
        );
        assert!(
            metro.coefficient_of_variation() < simple.coefficient_of_variation(),
            "Metropolis CV {} not below simple CV {}",
            metro.coefficient_of_variation(),
            simple.coefficient_of_variation()
        );
    }

    #[test]
    fn cv_near_zero_on_clique_long_run() {
        let g = generators::complete_with_loops(16);
        let vc = kwalk_visit_counts(&g, &[0], 100_000, WalkProcess::Simple, &mut walk_rng(6));
        assert!(vc.coefficient_of_variation() < 0.05);
    }

    #[test]
    fn zero_rounds_counts_only_starts() {
        let g = generators::cycle(8);
        let vc = kwalk_visit_counts(&g, &[2, 2, 5], 0, WalkProcess::Simple, &mut walk_rng(0));
        assert_eq!(vc.counts()[2], 2);
        assert_eq!(vc.counts()[5], 1);
        assert_eq!(vc.total(), 3);
    }

    #[test]
    fn multicover_b1_is_cover_time_same_seed() {
        let g = generators::torus_2d(4);
        let a = kwalk_multicover_rounds(&g, &[0, 0], 1, &mut walk_rng(11));
        let b = kwalk_cover_rounds(&g, &[0, 0], KWalkMode::RoundSynchronous, &mut walk_rng(11));
        assert_eq!(a, b);
    }

    #[test]
    fn multicover_monotone_in_b_per_trace() {
        let g = generators::cycle(12);
        let mut last = 0u64;
        for b in 1..=5u64 {
            let r = kwalk_multicover_rounds(&g, &[0], b, &mut walk_rng(77));
            assert!(r >= last, "b={b}: {r} < {last}");
            last = r;
        }
    }

    #[test]
    fn multicover_blanket_ratio_modest_on_clique() {
        // Winkler–Zuckerman: blanket time = O(cover time); on the clique
        // the b=2 multicover is well under 2× the cover time.
        let g = generators::complete_with_loops(12);
        let trials = 300u64;
        let (mut c1, mut c2) = (0u64, 0u64);
        for t in 0..trials {
            c1 += kwalk_multicover_rounds(&g, &[0], 1, &mut walk_rng(t));
            c2 += kwalk_multicover_rounds(&g, &[0], 2, &mut walk_rng(30_000 + t));
        }
        let ratio = c2 as f64 / c1 as f64;
        assert!(ratio > 1.0 && ratio < 2.0, "blanket ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "b ≥ 1")]
    fn multicover_b0_rejected() {
        let g = generators::cycle(5);
        kwalk_multicover_rounds(&g, &[0], 0, &mut walk_rng(0));
    }
}
