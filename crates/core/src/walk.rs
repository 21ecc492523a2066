//! Single-walk primitives: the one-step sampler and the walk RNG.
//!
//! A walk step picks a uniformly random neighbor of the current vertex —
//! `Pr(v → u) = 1/δ(v)` for `(v,u) ∈ E` (§2 of the paper). [`step`] is
//! that sampler (no allocation, one `gen_range` — or a mask on
//! power-of-two degrees); the engine's scalar loops take every simple
//! step through it. A whole walk — its cover time, hitting time or trace
//! — is an [`Engine`](crate::engine::Engine) run with one token and a
//! [`FullCover`](crate::engine::FullCover), [`Hit`](crate::engine::Hit)
//! or [`Trace`](crate::engine::Trace) observer.

use mrw_graph::GraphBackend;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The RNG used by all walk engines (`SmallRng`: xoshiro256++ — fast,
/// seedable, good enough statistical quality for Monte-Carlo physics, and
/// deterministic across platforms for a fixed rand version).
pub type WalkRng = SmallRng;

/// Creates the walk RNG from a 64-bit seed.
pub fn walk_rng(seed: u64) -> WalkRng {
    SmallRng::seed_from_u64(seed)
}

/// One walk step from `pos`: a uniformly random neighbor.
///
/// Generic over [`GraphBackend`]: the RNG draws depend only on the
/// degree, and implicit rows are sorted identically to their CSR twins,
/// so seeded walks agree bit-for-bit across backends.
///
/// # Panics
/// (debug) if `pos` is isolated — callers must ensure connectivity.
///
/// Always inlined: as a plain `#[inline]` hint LLVM kept it out of line
/// in the scalar engine loops, and where the linker then placed it moved
/// their speed in builds that did not touch them.
#[inline(always)]
pub fn step<G: GraphBackend, R: Rng + ?Sized>(g: &G, pos: u32, rng: &mut R) -> u32 {
    let d = g.degree(pos);
    debug_assert!(d > 0, "walk stuck at isolated vertex {pos}");
    // Power-of-two fast path: mask instead of modulo rejection.
    if d.is_power_of_two() {
        g.neighbor(pos, (rng.gen::<u32>() as usize) & (d - 1))
    } else {
        g.neighbor(pos, rng.gen_range(0..d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, FullCover, Hit, SimpleStep, Trace};
    use mrw_graph::generators;

    /// Steps for one walk from `start` to visit every vertex.
    fn cover<G: GraphBackend>(g: &G, start: u32, rng: &mut WalkRng) -> u64 {
        Engine::new(g, SimpleStep, FullCover::new(g.n()))
            .run(&[start], rng)
            .rounds
    }

    /// Steps for one walk from `from` to reach `to`, `None` past `cap`.
    fn hit<G: GraphBackend>(g: &G, from: u32, to: u32, cap: u64, rng: &mut WalkRng) -> Option<u64> {
        let out = Engine::new(g, SimpleStep, Hit::new(to))
            .cap(cap)
            .run(&[from], rng);
        out.stopped.then_some(out.rounds)
    }

    /// The first `len` positions of one walk, start included.
    fn trace_of<G: GraphBackend>(g: &G, start: u32, len: usize, rng: &mut WalkRng) -> Vec<u32> {
        Engine::new(g, SimpleStep, Trace::new(len))
            .cap(len as u64)
            .run(&[start], rng)
            .observer
            .into_positions()
    }

    #[test]
    fn trace_respects_edges() {
        let g = generators::barbell(13);
        let mut rng = walk_rng(1);
        let trace = trace_of(&g, 0, 500, &mut rng);
        assert_eq!(trace.len(), 501);
        for w in trace.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "illegal move {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn cover_visits_everything() {
        // Re-run the walk with the same seed, tracking visits manually.
        let g = generators::cycle(32);
        let steps = cover(&g, 0, &mut walk_rng(7));
        let trace = trace_of(&g, 0, steps as usize, &mut walk_rng(7));
        let mut seen = std::collections::BTreeSet::new();
        seen.extend(trace.iter().copied());
        assert_eq!(seen.len(), 32, "cover time returned before covering");
        // Minimality: the prefix of length steps-1 must miss some vertex.
        let mut prefix = std::collections::BTreeSet::new();
        prefix.extend(trace[..steps as usize].iter().copied());
        assert_eq!(prefix.len(), 31, "cover time not minimal");
    }

    #[test]
    fn two_vertex_graph_covers_in_one_step() {
        let g = generators::path(2);
        for seed in 0..10 {
            assert_eq!(cover(&g, 0, &mut walk_rng(seed)), 1);
        }
    }

    #[test]
    fn singleton_covers_instantly() {
        let g = generators::path(1);
        assert_eq!(cover(&g, 0, &mut walk_rng(0)), 0);
    }

    #[test]
    fn hit_self_is_zero() {
        let g = generators::cycle(5);
        assert_eq!(hit(&g, 3, 3, 100, &mut walk_rng(0)), Some(0));
    }

    #[test]
    fn hit_cap_respected() {
        let g = generators::cycle(64);
        // 1 step cannot reach the antipode.
        assert_eq!(hit(&g, 0, 32, 1, &mut walk_rng(0)), None);
    }

    #[test]
    fn hit_adjacent_mean_near_theory() {
        // On a cycle of n vertices, E[steps 0 -> 1] = n − 1... no: h(u,v)
        // for adjacent u,v on a cycle is n − 1. Sample mean should be close.
        let n = 16;
        let g = generators::cycle(n);
        let mut rng = walk_rng(42);
        let trials = 4000;
        let mut total = 0u64;
        for _ in 0..trials {
            total += hit(&g, 0, 1, 1_000_000, &mut rng).unwrap();
        }
        let mean = total as f64 / trials as f64;
        let expect = (n - 1) as f64;
        assert!(
            (mean - expect).abs() < expect * 0.1,
            "mean {mean} vs theory {expect}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::torus_2d(6);
        let a = cover(&g, 0, &mut walk_rng(99));
        let b = cover(&g, 0, &mut walk_rng(99));
        assert_eq!(a, b);
        let c = cover(&g, 0, &mut walk_rng(100));
        assert_ne!(a, c); // overwhelmingly likely
    }

    #[test]
    fn power_of_two_degree_fast_path_is_uniform() {
        // Torus: degree 4 everywhere — exercise the mask path and check the
        // one-step distribution is uniform-ish over 4 neighbors.
        let g = generators::torus_2d(5);
        let mut rng = walk_rng(5);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..40_000 {
            let nxt = step(&g, 0, &mut rng);
            *counts.entry(nxt).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4);
        for (&v, &c) in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 500.0,
                "neighbor {v} hit {c} times"
            );
        }
    }

    #[test]
    fn cycle_cover_mean_matches_n_squared_over_two() {
        // C(cycle_n) = n(n−1)/2 exactly (gambler's ruin). n = 24, 600 trials:
        // relative SE ≈ cv/√trials; cover-time cv on a cycle ≈ 0.5.
        let n = 24;
        let g = generators::cycle(n);
        let mut rng = walk_rng(2024);
        let trials = 600;
        let mut total = 0u64;
        for _ in 0..trials {
            total += cover(&g, 0, &mut rng);
        }
        let mean = total as f64 / trials as f64;
        let expect = (n * (n - 1)) as f64 / 2.0; // 276
        assert!(
            (mean - expect).abs() < expect * 0.1,
            "mean {mean} vs theory {expect}"
        );
    }
}
