//! The k-parallel-walk entry points — thin wrappers over the unified
//! [`engine`](crate::engine) that preserve the original seeded streams
//! for `k <` [`BATCH_AUTO_MIN_K`](crate::engine::BATCH_AUTO_MIN_K);
//! larger round-synchronous fan-outs route onto the engine's batched
//! sweep, which draws the same walk *law* from a different RNG
//! stream (see the engine's module docs). Construct an
//! [`crate::engine::Engine`] directly with
//! [`BatchMode::Never`](crate::engine::BatchMode) to pin the legacy
//! stream at any `k`.
//!
//! §2.1 of the paper: `k` independent simple random walks all start at the
//! same vertex at `t = 0`; `τ^k_i` is the first time every vertex has been
//! visited by at least one walk, and `C^k_i = E[τ^k_i]`. Time is counted in
//! *parallel rounds* — one unit of time advances every token by one step —
//! so `C^1` coincides with the classical cover time and the speed-up
//! `S^k = C/C^k` compares equal wall-clock, not equal total work.
//!
//! Two stepping disciplines are provided; they define the same process,
//! differing only in when coverage is *detected* inside a round, and the
//! measured `C^k` agrees (`modes_agree_in_mean` below, and the KS test
//! `disciplines_agree_in_distribution_ks` in `tests/engine_equivalence.rs`):
//!
//! * [`KWalkMode::RoundSynchronous`] — advance token 1..k by one step each
//!   round; if coverage completes mid-round the current round counts (all
//!   tokens conceptually move simultaneously).
//! * [`KWalkMode::Interleaved`] — a single global step counter `i` advances
//!   token `i mod k` (exactly the `X_i` indexing used in the paper's proof
//!   of Theorem 9); the reported time is `⌈total/k⌉`.
//!
//! Each function here runs **one** trial on a caller-supplied RNG. The
//! query layer above ([`Session::run`](crate::query::Session::run))
//! repeats trials under a [`Trials`](crate::Trials) budget — a fixed count
//! fanned out flat, or an adaptive precision rule that stops the fan-out
//! once the confidence interval is tight enough.

use mrw_graph::GraphBackend;
use rand::Rng;

use crate::engine::{Engine, FullCover, SimpleStep};

/// Stepping discipline for the k-walk engine — an alias of
/// [`engine::Discipline`](crate::engine::Discipline), kept under its
/// historical name. `RoundSynchronous` advances all tokens once per round
/// (the paper's model); `Interleaved` moves token `i mod k` at global
/// step `i` (Theorem 9's indexing) and reports `⌈steps/k⌉`.
pub use crate::engine::Discipline as KWalkMode;

/// Number of parallel rounds for `k` walks starting at `starts` to cover
/// the graph. `starts.len()` is `k`; the paper's setting is all-equal
/// starts, but Lemma 16 and Theorem 14 allow distinct ones, and so does
/// this engine.
///
/// # Panics
/// If `starts` is empty, any start is out of range, or (debug) the graph is
/// disconnected.
pub fn kwalk_cover_rounds<G: GraphBackend, R: Rng + ?Sized>(
    g: &G,
    starts: &[u32],
    mode: KWalkMode,
    rng: &mut R,
) -> u64 {
    assert!(!starts.is_empty(), "need at least one walk");
    assert!(g.n() > 0, "cover time of the empty graph");
    for &s in starts {
        assert!((s as usize) < g.n(), "start {s} out of range");
    }
    debug_assert!(g.is_connected(), "cover time infinite: disconnected graph");

    Engine::new(g, SimpleStep, FullCover::new(g.n()))
        .discipline(mode)
        .run(starts, rng)
        .rounds
}

/// Convenience: `k` walks all starting at `start` (the paper's canonical
/// setting).
pub fn kwalk_cover_rounds_same_start<G: GraphBackend, R: Rng + ?Sized>(
    g: &G,
    start: u32,
    k: usize,
    mode: KWalkMode,
    rng: &mut R,
) -> u64 {
    assert!(k >= 1, "need at least one walk");
    let starts = vec![start; k];
    kwalk_cover_rounds(g, &starts, mode, rng)
}

/// Does a round-synchronous k-walk from `starts` cover the graph within
/// `rounds` rounds? The fixed-horizon Bernoulli probe behind the
/// Lemma 16 and Corollary 20 experiments, which bound *probabilities* of
/// coverage at a given length rather than expected cover times.
///
/// # Panics
/// If `starts` is empty or any start is out of range.
pub fn kwalk_covers_within<G: GraphBackend, R: Rng + ?Sized>(
    g: &G,
    starts: &[u32],
    rounds: u64,
    rng: &mut R,
) -> bool {
    assert!(!starts.is_empty(), "need at least one walk");
    for &s in starts {
        assert!((s as usize) < g.n(), "start {s} out of range");
    }
    Engine::new(g, SimpleStep, FullCover::new(g.n()))
        .cap(rounds)
        .run(starts, rng)
        .stopped
}

/// Positions of `k` walks after `rounds` synchronous rounds — exposed for
/// tests and for experiments that inspect walk dispersion (e.g. how many
/// tokens entered each barbell bell).
pub fn kwalk_positions_after<G: GraphBackend, R: Rng + ?Sized>(
    g: &G,
    starts: &[u32],
    rounds: u64,
    rng: &mut R,
) -> Vec<u32> {
    Engine::new(g, SimpleStep, ())
        .cap(rounds)
        .run(starts, rng)
        .positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{cover_time_single, walk_rng};
    use mrw_graph::generators;

    #[test]
    fn k1_matches_single_walk_distributionally() {
        // Same seed: k=1 round-synchronous IS the single-walk loop.
        let g = generators::torus_2d(5);
        let a =
            kwalk_cover_rounds_same_start(&g, 0, 1, KWalkMode::RoundSynchronous, &mut walk_rng(3));
        let b = cover_time_single(&g, 0, &mut walk_rng(3));
        assert_eq!(a, b);
    }

    #[test]
    fn all_vertices_as_starts_cover_instantly() {
        let g = generators::cycle(12);
        let starts: Vec<u32> = (0..12).collect();
        let r = kwalk_cover_rounds(&g, &starts, KWalkMode::RoundSynchronous, &mut walk_rng(0));
        assert_eq!(r, 0);
    }

    #[test]
    fn more_walks_never_slower_in_mean() {
        let g = generators::cycle(48);
        let trials = 150;
        let mean = |k: usize| -> f64 {
            let mut total = 0u64;
            for t in 0..trials {
                total += kwalk_cover_rounds_same_start(
                    &g,
                    0,
                    k,
                    KWalkMode::RoundSynchronous,
                    &mut walk_rng(1000 + t),
                );
            }
            total as f64 / trials as f64
        };
        let c1 = mean(1);
        let c4 = mean(4);
        let c16 = mean(16);
        assert!(c4 < c1, "C^4 = {c4} ≥ C^1 = {c1}");
        assert!(c16 < c4, "C^16 = {c16} ≥ C^4 = {c4}");
    }

    #[test]
    fn modes_agree_in_mean() {
        let g = generators::torus_2d(6);
        let trials = 200;
        let mean = |mode: KWalkMode| -> f64 {
            let mut total = 0u64;
            for t in 0..trials {
                total += kwalk_cover_rounds_same_start(&g, 0, 4, mode, &mut walk_rng(50 + t));
            }
            total as f64 / trials as f64
        };
        let sync = mean(KWalkMode::RoundSynchronous);
        let inter = mean(KWalkMode::Interleaved);
        let rel = (sync - inter).abs() / sync;
        assert!(
            rel < 0.1,
            "modes disagree: sync {sync} vs interleaved {inter}"
        );
    }

    #[test]
    fn clique_speedup_is_coupon_collector() {
        // Lemma 12: on K_n(+loops) the k-walk is the k-kids coupon
        // collector; C^k ≈ n H_n / k. Check k = 4 on n = 32.
        let n = 32;
        let g = generators::complete_with_loops(n);
        let trials = 400;
        let mut total = 0u64;
        for t in 0..trials {
            total += kwalk_cover_rounds_same_start(
                &g,
                0,
                4,
                KWalkMode::RoundSynchronous,
                &mut walk_rng(7000 + t),
            );
        }
        let mean = total as f64 / trials as f64;
        let hn: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let expect = n as f64 * hn / 4.0;
        assert!(
            (mean - expect).abs() < expect * 0.12,
            "mean {mean} vs coupon-collector/k {expect}"
        );
    }

    #[test]
    fn distinct_starts_supported() {
        let g = generators::barbell(13);
        // One token in each bell covers far faster than both at center.
        let r = kwalk_cover_rounds(&g, &[1, 7], KWalkMode::RoundSynchronous, &mut walk_rng(1));
        assert!(r > 0);
    }

    #[test]
    fn positions_after_moves_every_token() {
        let g = generators::cycle(10);
        let starts = [0u32, 5];
        let pos = kwalk_positions_after(&g, &starts, 1, &mut walk_rng(9));
        assert_eq!(pos.len(), 2);
        for (s, p) in starts.iter().zip(&pos) {
            assert!(g.has_edge(*s, *p), "token jumped {s} -> {p}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::hypercube(5);
        let a =
            kwalk_cover_rounds_same_start(&g, 0, 8, KWalkMode::RoundSynchronous, &mut walk_rng(4));
        let b =
            kwalk_cover_rounds_same_start(&g, 0, 8, KWalkMode::RoundSynchronous, &mut walk_rng(4));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_walks_rejected() {
        let g = generators::cycle(5);
        kwalk_cover_rounds(&g, &[], KWalkMode::RoundSynchronous, &mut walk_rng(0));
    }
}
