//! k-walk cover times on the engine (§2.1 of the paper): `k` independent
//! simple random walks start at `starts` and advance in parallel rounds;
//! `τ^k` is the first round by which every vertex has been visited.
//! Time counts rounds, so `C^1` is the classical cover time and the
//! speed-up `S^k = C/C^k` compares equal wall-clock, not equal work.
//!
//! The two disciplines define the same process and agree in mean here
//! (in distribution: `engine_equivalence.rs`); the bit-for-bit pins
//! against the pre-engine loops are there too.

use mrw_core::engine::{Engine, FullCover, SimpleStep};
use mrw_core::{walk_rng, Discipline};
use mrw_graph::{generators, Graph};

/// Rounds for walks from `starts` to cover `g` under `discipline`.
fn cover_rounds(g: &Graph, starts: &[u32], discipline: Discipline, seed: u64) -> u64 {
    Engine::new(g, SimpleStep, FullCover::new(g.n()))
        .discipline(discipline)
        .run(starts, &mut walk_rng(seed))
        .rounds
}

const SYNC: Discipline = Discipline::RoundSynchronous;

#[test]
fn all_vertices_as_starts_cover_instantly() {
    let g = generators::cycle(12);
    let starts: Vec<u32> = (0..12).collect();
    assert_eq!(cover_rounds(&g, &starts, SYNC, 0), 0);
}

#[test]
fn more_walks_never_slower_in_mean() {
    let g = generators::cycle(48);
    let trials = 150;
    let mean = |k: usize| -> f64 {
        let mut total = 0u64;
        for t in 0..trials {
            total += cover_rounds(&g, &vec![0; k], SYNC, 1000 + t);
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
    let mean = |mode: Discipline| -> f64 {
        let mut total = 0u64;
        for t in 0..trials {
            total += cover_rounds(&g, &[0; 4], mode, 50 + t);
        }
        total as f64 / trials as f64
    };
    let sync = mean(SYNC);
    let inter = mean(Discipline::Interleaved);
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
        total += cover_rounds(&g, &[0; 4], SYNC, 7000 + t);
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
    assert!(cover_rounds(&g, &[1, 7], SYNC, 1) > 0);
}

#[test]
fn positions_after_moves_every_token() {
    let g = generators::cycle(10);
    let starts = [0u32, 5];
    let pos = Engine::new(&g, SimpleStep, ())
        .cap(1)
        .run(&starts, &mut walk_rng(9))
        .positions;
    assert_eq!(pos.len(), 2);
    for (s, p) in starts.iter().zip(&pos) {
        assert!(g.has_edge(*s, *p), "token jumped {s} -> {p}");
    }
}

#[test]
fn deterministic_per_seed() {
    let g = generators::hypercube(5);
    let a = cover_rounds(&g, &[0; 8], SYNC, 4);
    let b = cover_rounds(&g, &[0; 8], SYNC, 4);
    assert_eq!(a, b);
}

#[test]
#[should_panic(expected = "at least one walk")]
fn zero_walks_rejected() {
    let g = generators::cycle(5);
    cover_rounds(&g, &[], SYNC, 0);
}
