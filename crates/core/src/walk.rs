//! Single-walk primitives: the one-step sampler and convenience wrappers
//! over the unified [`engine`](crate::engine).
//!
//! A walk step picks a uniformly random neighbor of the current vertex —
//! `Pr(v → u) = 1/δ(v)` for `(v,u) ∈ E` (§2 of the paper). [`step`] is
//! that sampler (no allocation, one `gen_range` — or a mask on
//! power-of-two degrees). Everything else here ([`cover_time_single`],
//! [`steps_to_hit`], [`walk_trace`]) is the k = 1 specialization of the
//! engine and consumes the RNG stream identically to the pre-engine
//! hand-rolled loops.

use mrw_graph::GraphBackend;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Engine, FullCover, Hit, SimpleStep, Trace};

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

/// Number of steps for a single walk from `start` to visit every vertex
/// (the random variable `τ_i` of §2 whose expectation is `C_i`).
///
/// # Panics
/// If the graph is disconnected (`τ = ∞`) or empty.
pub fn cover_time_single<G: GraphBackend, R: Rng + ?Sized>(g: &G, start: u32, rng: &mut R) -> u64 {
    assert!(g.n() > 0, "cover time of the empty graph");
    assert!((start as usize) < g.n(), "start {start} out of range");
    debug_assert!(g.is_connected(), "cover time infinite: disconnected graph");
    Engine::new(g, SimpleStep, FullCover::new(g.n()))
        .run(&[start], rng)
        .rounds
}

/// Number of steps for a walk from `from` to first reach `to`
/// (the random variable behind `h(u,v)`); `0` when `from == to`.
///
/// `cap` bounds the simulation; returns `None` if `to` was not reached
/// within `cap` steps (used to keep Monte-Carlo hitting estimates bounded
/// on slow-mixing graphs).
pub fn steps_to_hit<G: GraphBackend, R: Rng + ?Sized>(
    g: &G,
    from: u32,
    to: u32,
    cap: u64,
    rng: &mut R,
) -> Option<u64> {
    assert!(
        (from as usize) < g.n() && (to as usize) < g.n(),
        "vertex out of range"
    );
    let out = Engine::new(g, SimpleStep, Hit::new(to))
        .cap(cap)
        .run(&[from], rng);
    out.stopped.then_some(out.rounds)
}

/// Records the first `len` positions of a walk (including the start) —
/// used by tests to validate that walks respect the edge set.
pub fn walk_trace<G: GraphBackend, R: Rng + ?Sized>(
    g: &G,
    start: u32,
    len: usize,
    rng: &mut R,
) -> Vec<u32> {
    Engine::new(g, SimpleStep, Trace::new(len))
        .cap(len as u64)
        .run(&[start], rng)
        .observer
        .into_positions()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_graph::generators;

    #[test]
    fn trace_respects_edges() {
        let g = generators::barbell(13);
        let mut rng = walk_rng(1);
        let trace = walk_trace(&g, 0, 500, &mut rng);
        assert_eq!(trace.len(), 501);
        for w in trace.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "illegal move {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn cover_visits_everything() {
        // Re-run the walk with the same seed, tracking visits manually.
        let g = generators::cycle(32);
        let steps = cover_time_single(&g, 0, &mut walk_rng(7));
        let trace = walk_trace(&g, 0, steps as usize, &mut walk_rng(7));
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
            assert_eq!(cover_time_single(&g, 0, &mut walk_rng(seed)), 1);
        }
    }

    #[test]
    fn singleton_covers_instantly() {
        let g = generators::path(1);
        assert_eq!(cover_time_single(&g, 0, &mut walk_rng(0)), 0);
    }

    #[test]
    fn hit_self_is_zero() {
        let g = generators::cycle(5);
        assert_eq!(steps_to_hit(&g, 3, 3, 100, &mut walk_rng(0)), Some(0));
    }

    #[test]
    fn hit_cap_respected() {
        let g = generators::cycle(64);
        // 1 step cannot reach the antipode.
        assert_eq!(steps_to_hit(&g, 0, 32, 1, &mut walk_rng(0)), None);
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
            total += steps_to_hit(&g, 0, 1, 1_000_000, &mut rng).unwrap();
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
        let a = cover_time_single(&g, 0, &mut walk_rng(99));
        let b = cover_time_single(&g, 0, &mut walk_rng(99));
        assert_eq!(a, b);
        let c = cover_time_single(&g, 0, &mut walk_rng(100));
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
            total += cover_time_single(&g, 0, &mut rng);
        }
        let mean = total as f64 / trials as f64;
        let expect = (n * (n - 1)) as f64 / 2.0; // 276
        assert!(
            (mean - expect).abs() < expect * 0.1,
            "mean {mean} vs theory {expect}"
        );
    }
}
