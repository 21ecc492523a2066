//! Generalized walk processes: lazy and Metropolis–Hastings chains.
//!
//! The paper analyzes the *simple* random walk, but two variants appear
//! inside its own proofs and conclusions, so the library supports them as
//! first-class processes:
//!
//! * **Lazy walks** — stay put with probability `p`, else take a simple
//!   step. Theorem 24's lower bound projects a torus k-walk onto one axis,
//!   producing exactly the `(¼ left, ¼ right, ½ stay)` lazy cycle walk;
//!   [`MixingConfig::lazy`](mrw_spectral::mixing::MixingConfig) needs the
//!   same chain to define mixing on bipartite families. Laziness rescales
//!   time but not geometry: every lazy cover/hitting time is the simple
//!   one times `1/(1−p)` in expectation.
//! * **Metropolis walks** — from `v` propose a uniform neighbor `u`,
//!   accept with probability `min(1, δ(v)/δ(u))`, else stay. The chain's
//!   stationary distribution is *uniform* on any connected graph, which is
//!   the natural fix when irregular topologies (barbell, Barabási–Albert)
//!   trap simple walks in high-degree regions — the §8 open question of
//!   what graph property really controls the speed-up, probed from the
//!   algorithm side.
//!
//! [`WalkProcess::Simple`] reproduces [`walk::step`](crate::walk::step)
//! exactly (same RNG consumption), so process-parameterized experiment
//! code can replace direct engine calls without changing any seeded
//! result.
//!
//! [`WalkProcess::step`] is the *uncached reference* kernel. The engine
//! runs [`crate::engine::CompiledProcess`] instead,
//! which pre-builds per-process state: a cached `Bernoulli` for lazy
//! holds (one integer compare per step instead of an `f64` conversion —
//! ~35% faster on torus(64), as measured by the since-removed
//! `bench_unified_engine_ablation` of `benches/engine.rs`) and
//! degree-reciprocal tables for Metropolis acceptance. The lazy cache
//! changes which RNG bits decide a hold, so seeded `Lazy` traces differ
//! from the pre-engine seed implementation — an intentional change; the
//! law is unchanged (KS-tested in `engine::tests`). Compilation happens
//! once per run (regression-pinned by `tests/zero_alloc.rs`), and every
//! compiled kernel additionally carries a batched `step_bits` twin that
//! consumes pre-drawn RNG blocks on the engine's batched sweep — the
//! cached Bernoulli threshold and reciprocal tables are reused there,
//! never re-derived. `WalkProcess` itself stays scalar-only so the
//! reference can never be routed onto the path it is meant to check.

use mrw_graph::{Graph, GraphBackend};
use rand::Rng;

use crate::engine::{CompiledProcess, Engine, FullCover};
use crate::walk::step;

/// A single-token walk process on a graph.
///
/// ```
/// use mrw_core::process::{cover_time_process, WalkProcess};
/// use mrw_core::walk_rng;
/// use mrw_graph::generators;
///
/// let g = generators::cycle(16);
/// let steps = cover_time_process(&g, 0, WalkProcess::Lazy(0.5), &mut walk_rng(7));
/// assert!(steps > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkProcess {
    /// The paper's simple random walk: uniform over neighbors.
    Simple,
    /// Lazy walk: hold with probability `p ∈ [0,1)`, else simple step.
    Lazy(f64),
    /// Metropolis–Hastings walk targeting the uniform distribution.
    Metropolis,
}

impl WalkProcess {
    /// One step of the process from `pos`.
    ///
    /// # Panics
    /// (debug) if `pos` is isolated; `Lazy(p)` asserts `p ∈ [0,1)` —
    /// `p = 1` never moves and would loop forever in cover routines.
    #[inline]
    pub fn step<G: GraphBackend, R: Rng + ?Sized>(&self, g: &G, pos: u32, rng: &mut R) -> u32 {
        match *self {
            WalkProcess::Simple => step(g, pos, rng),
            WalkProcess::Lazy(p) => {
                debug_assert!((0.0..1.0).contains(&p), "hold probability {p} not in [0,1)");
                if rng.gen::<f64>() < p {
                    pos
                } else {
                    step(g, pos, rng)
                }
            }
            WalkProcess::Metropolis => {
                let proposal = step(g, pos, rng);
                if proposal == pos {
                    return pos; // self-loop proposal: always "accepted"
                }
                let dv = g.degree(pos) as f64;
                let du = g.degree(proposal) as f64;
                // Accept with min(1, δ(v)/δ(u)); uphill-in-degree moves are
                // damped so that π is uniform.
                if du <= dv || rng.gen::<f64>() < dv / du {
                    proposal
                } else {
                    pos
                }
            }
        }
    }

    /// The stationary distribution of the process on `g`.
    ///
    /// `Simple` and `Lazy` share `π(v) = δ(v)/Σδ`; `Metropolis` is uniform.
    /// (Laziness changes eigenvalues, never `π`.)
    pub fn stationary(&self, g: &Graph) -> Vec<f64> {
        let n = g.n();
        assert!(n > 0, "stationary distribution of the empty graph");
        match self {
            WalkProcess::Simple | WalkProcess::Lazy(_) => {
                let total = g.degree_sum() as f64;
                (0..n as u32).map(|v| g.degree(v) as f64 / total).collect()
            }
            WalkProcess::Metropolis => vec![1.0 / n as f64; n],
        }
    }

    /// Short label for tables and bench IDs.
    pub fn label(&self) -> String {
        match self {
            WalkProcess::Simple => "simple".into(),
            WalkProcess::Lazy(p) => format!("lazy({p:.2})"),
            WalkProcess::Metropolis => "metropolis".into(),
        }
    }
}

/// Steps for a single token of `process` to cover `g` from `start` — the
/// process-generalized [`cover_time_single`](crate::walk::cover_time_single).
///
/// # Panics
/// If the graph is empty/disconnected or `start` is out of range.
pub fn cover_time_process<G: GraphBackend, R: Rng + ?Sized>(
    g: &G,
    start: u32,
    process: WalkProcess,
    rng: &mut R,
) -> u64 {
    assert!(g.n() > 0, "cover time of the empty graph");
    assert!((start as usize) < g.n(), "start {start} out of range");
    debug_assert!(g.is_connected(), "cover time infinite: disconnected graph");
    if let WalkProcess::Lazy(p) = process {
        // p = 1 never moves: the cover time is infinite.
        assert!((0.0..1.0).contains(&p), "hold probability {p} not in [0,1)");
    }
    Engine::new(g, CompiledProcess::new(process, g), FullCover::new(g.n()))
        .run(&[start], rng)
        .rounds
}

/// Parallel rounds for `k` tokens of `process` (round-synchronous, one
/// start per token) to cover `g` — the process-generalized
/// [`kwalk_cover_rounds`](crate::kwalk::kwalk_cover_rounds).
///
/// # Panics
/// As [`cover_time_process`], plus if `starts` is empty.
pub fn kwalk_cover_rounds_process<G: GraphBackend, R: Rng + ?Sized>(
    g: &G,
    starts: &[u32],
    process: WalkProcess,
    rng: &mut R,
) -> u64 {
    assert!(!starts.is_empty(), "need at least one walk");
    assert!(g.n() > 0, "cover time of the empty graph");
    for &s in starts {
        assert!((s as usize) < g.n(), "start {s} out of range");
    }
    debug_assert!(g.is_connected(), "cover time infinite: disconnected graph");
    if let WalkProcess::Lazy(p) = process {
        // p = 1 never moves: the cover time is infinite.
        assert!((0.0..1.0).contains(&p), "hold probability {p} not in [0,1)");
    }
    Engine::new(g, CompiledProcess::new(process, g), FullCover::new(g.n()))
        .run(starts, rng)
        .rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{cover_time_single, walk_rng};
    use mrw_graph::generators;

    #[test]
    fn simple_process_is_bitwise_the_simple_walk() {
        let g = generators::torus_2d(5);
        let a = cover_time_process(&g, 0, WalkProcess::Simple, &mut walk_rng(8));
        let b = cover_time_single(&g, 0, &mut walk_rng(8));
        assert_eq!(a, b);
    }

    #[test]
    fn lazy_cover_scales_by_one_over_one_minus_p() {
        // E[lazy cover] = E[simple cover]/(1−p): each lazy step advances
        // the embedded simple walk with probability 1−p.
        let g = generators::cycle(24);
        let trials = 400u64;
        let mean = |process: WalkProcess, base: u64| -> f64 {
            let mut total = 0u64;
            for t in 0..trials {
                total += cover_time_process(&g, 0, process, &mut walk_rng(base + t));
            }
            total as f64 / trials as f64
        };
        let simple = mean(WalkProcess::Simple, 100);
        let lazy = mean(WalkProcess::Lazy(0.5), 9000);
        let ratio = lazy / simple;
        assert!(
            (ratio - 2.0).abs() < 0.25,
            "lazy/simple = {ratio}, want ≈ 2"
        );
    }

    #[test]
    fn lazy_zero_behaves_like_simple_in_mean() {
        let g = generators::complete(12);
        let trials = 300u64;
        let mut s = 0u64;
        let mut l = 0u64;
        for t in 0..trials {
            s += cover_time_process(&g, 0, WalkProcess::Simple, &mut walk_rng(t));
            l += cover_time_process(&g, 0, WalkProcess::Lazy(0.0), &mut walk_rng(5000 + t));
        }
        let rel = (s as f64 - l as f64).abs() / s as f64;
        assert!(rel < 0.1, "simple {s} vs lazy(0) {l}");
    }

    #[test]
    fn metropolis_on_regular_graph_is_simple_walk_in_law() {
        // All acceptance ratios are 1 on a regular graph.
        let g = generators::torus_2d(5);
        let trials = 300u64;
        let mut s = 0u64;
        let mut m = 0u64;
        for t in 0..trials {
            s += cover_time_process(&g, 0, WalkProcess::Simple, &mut walk_rng(t));
            m += cover_time_process(&g, 0, WalkProcess::Metropolis, &mut walk_rng(7000 + t));
        }
        let rel = (s as f64 - m as f64).abs() / s as f64;
        assert!(rel < 0.1, "simple {s} vs metropolis {m}");
    }

    #[test]
    fn metropolis_long_run_frequencies_are_uniform_on_star() {
        // Simple walk on a star spends half its time at the hub; the
        // Metropolis walk must flatten that to 1/n each.
        let g = generators::star(9); // hub 0, 8 leaves
        let mut rng = walk_rng(31);
        let mut counts = vec![0u64; g.n()];
        let mut pos = 0u32;
        let steps = 400_000u64;
        for _ in 0..steps {
            pos = WalkProcess::Metropolis.step(&g, pos, &mut rng);
            counts[pos as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            let freq = c as f64 / steps as f64;
            assert!(
                (freq - 1.0 / 9.0).abs() < 0.01,
                "vertex {v}: frequency {freq} ≠ 1/9"
            );
        }
    }

    #[test]
    fn simple_long_run_frequencies_match_degree_stationary() {
        let g = generators::star(9);
        let mut rng = walk_rng(32);
        let mut hub = 0u64;
        let mut pos = 0u32;
        let steps = 200_000u64;
        for _ in 0..steps {
            pos = WalkProcess::Simple.step(&g, pos, &mut rng);
            if pos == 0 {
                hub += 1;
            }
        }
        let freq = hub as f64 / steps as f64;
        assert!((freq - 0.5).abs() < 0.01, "hub frequency {freq} ≠ 1/2");
    }

    #[test]
    fn stationary_vectors() {
        let g = generators::barbell(11);
        for process in [
            WalkProcess::Simple,
            WalkProcess::Lazy(0.3),
            WalkProcess::Metropolis,
        ] {
            let pi = process.stationary(&g);
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{}: Σπ = {sum}", process.label());
        }
        let uniform = WalkProcess::Metropolis.stationary(&g);
        assert!(uniform.iter().all(|&p| (p - 1.0 / 11.0).abs() < 1e-12));
        let simple = WalkProcess::Simple.stationary(&g);
        assert!(
            simple[generators::barbell_center(11) as usize] < simple[0],
            "center must carry less stationary mass than a bell vertex"
        );
    }

    #[test]
    fn kwalk_process_simple_matches_kwalk_engine_moments() {
        let g = generators::hypercube(4);
        let trials = 200u64;
        let mut a = 0u64;
        let mut b = 0u64;
        for t in 0..trials {
            a += kwalk_cover_rounds_process(
                &g,
                &[0, 0, 0, 0],
                WalkProcess::Simple,
                &mut walk_rng(t),
            );
            b += crate::kwalk::kwalk_cover_rounds(
                &g,
                &[0, 0, 0, 0],
                crate::kwalk::KWalkMode::RoundSynchronous,
                &mut walk_rng(40_000 + t),
            );
        }
        let rel = (a as f64 - b as f64).abs() / b as f64;
        assert!(rel < 0.1, "process engine {a} vs kwalk engine {b}");
    }

    #[test]
    fn lazy_cycle_is_thm24_projection_chain() {
        // The Theorem 24 chain: ¼ left, ¼ right, ½ stay = Lazy(1/2) on the
        // cycle. Its cover time should be ≈ 2 × the simple cycle cover.
        let n = 20;
        let g = generators::cycle(n);
        let trials = 400u64;
        let mut total = 0u64;
        for t in 0..trials {
            total += cover_time_process(&g, 0, WalkProcess::Lazy(0.5), &mut walk_rng(t));
        }
        let mean = total as f64 / trials as f64;
        let expect = (n * (n - 1)) as f64; // 2 · n(n−1)/2
        assert!(
            (mean - expect).abs() < expect * 0.12,
            "lazy cycle cover {mean} vs {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "not in [0,1)")]
    fn lazy_one_rejected() {
        let g = generators::cycle(5);
        cover_time_process(&g, 0, WalkProcess::Lazy(1.0), &mut walk_rng(0));
    }

    #[test]
    fn kwalk_process_more_walks_faster() {
        let g = generators::cycle(40);
        let trials = 150u64;
        let mean = |k: usize| -> f64 {
            let starts = vec![0u32; k];
            let mut total = 0u64;
            for t in 0..trials {
                total += kwalk_cover_rounds_process(
                    &g,
                    &starts,
                    WalkProcess::Metropolis,
                    &mut walk_rng(300 + t),
                );
            }
            total as f64 / trials as f64
        };
        assert!(mean(8) < mean(1), "k=8 not faster under Metropolis");
    }
}
