//! End-to-end checks of the paper's headline laws through the facade API.
//!
//! Each test is a miniature version of a paper experiment, run at CI scale
//! with fixed seeds, asserting the *shape* of the law (who wins, by what
//! order) rather than exact constants.

use many_walks::graph::{generators, Graph};
use many_walks::stats::harmonic::harmonic;
use many_walks::walks::starts::worst_start_candidates;
use many_walks::walks::{Budget, Query, Session};

fn cfg(trials: usize, seed: u64) -> Budget {
    Budget {
        trials,
        seed,
        ..Budget::default()
    }
}

/// The largest mean `k`-walk cover time over `starts`.
fn cover(g: &Graph, k: usize, starts: Vec<u32>, budget: Budget) -> f64 {
    Session::new(budget)
        .run(g, &Query::Cover { k, starts })
        .groups
        .iter()
        .map(|group| group.mean())
        .fold(f64::NEG_INFINITY, f64::max)
}

/// `(k, S^k)` for each rung of a speed-up ladder from vertex 0.
fn speedups(g: &Graph, ks: &[usize], budget: Budget) -> Vec<(usize, f64)> {
    let ladder = Query::SpeedupLadder {
        start: 0,
        ks: ks.to_vec(),
    };
    Session::new(budget)
        .run(g, &ladder)
        .speedups()
        .into_iter()
        .map(|(k, _, speedup)| (k, speedup))
        .collect()
}

#[test]
fn lemma12_clique_linear_speedup() {
    let g = generators::complete_with_loops(64);
    for (k, speedup) in speedups(&g, &[2, 4, 8, 16], cfg(160, 1)) {
        let eff = speedup / k as f64;
        assert!((eff - 1.0).abs() < 0.25, "clique S^{k}/{k} = {eff}");
    }
}

#[test]
fn theorem6_cycle_speedup_is_logarithmic() {
    let g = generators::cycle(96);
    let [(4, s4), (16, s16), (64, s64)] = speedups(&g, &[4, 16, 64], cfg(96, 2))[..] else {
        panic!("ladder rungs out of order");
    };
    // Increasing but with rapidly diminishing returns: quadrupling k adds
    // roughly a constant (log-law), nowhere near 4x.
    assert!(s16 > s4 && s64 > s16, "not increasing: {s4} {s16} {s64}");
    assert!(s64 < 2.5 * s16, "jump s16 -> s64 too big for a log law");
    assert!(s64 < 0.45 * 64.0, "S^64 = {s64} looks linear");
}

#[test]
fn theorem7_barbell_exponential_speedup() {
    let n = 129;
    let g = generators::barbell(n);
    let vc = generators::barbell_center(n);
    let k = (20.0 * (n as f64).ln()).ceil() as usize;
    let c1 = cover(&g, 1, vec![vc], cfg(32, 3));
    let ck = cover(&g, k, vec![vc], cfg(32, 3));
    let speedup = c1 / ck;
    // Exponential regime: speed-up far beyond k.
    assert!(
        speedup > 2.0 * k as f64,
        "barbell speed-up {speedup} did not dwarf k = {k}"
    );
    // C^k = O(n): within a small multiple of n.
    assert!(ck < 0.5 * n as f64, "C^k = {ck} not O(n) for n = {n}");
}

#[test]
fn theorem18_expander_linear_up_to_large_k() {
    let mut rng = many_walks::walks::walk_rng(4);
    let g = generators::random_regular(256, 8, &mut rng).unwrap();
    for (k, speedup) in speedups(&g, &[8, 32, 128], cfg(64, 4)) {
        let eff = speedup / k as f64;
        assert!(eff > 0.35, "expander S^{k}/{k} = {eff}");
    }
}

#[test]
fn theorem8_torus_two_regimes() {
    let g = generators::torus_2d(16); // n = 256, log n ≈ 5.5
    let [(4, s4), (128, s128)] = speedups(&g, &[4, 128], cfg(64, 5))[..] else {
        panic!("ladder rungs out of order");
    };
    let low = s4 / 4.0;
    let high = s128 / 128.0;
    assert!(low > 0.55, "low-regime efficiency {low}");
    assert!(
        high < 0.6 * low,
        "no regime separation: low {low}, high {high}"
    );
}

#[test]
fn matthews_sandwich_with_exact_hitting_times() {
    for g in [
        generators::cycle(48),
        generators::complete(48),
        generators::barbell(49),
        generators::balanced_tree(3, 3),
    ] {
        let ht = many_walks::spectral::hitting_times_all(&g);
        let n = g.n() as u64;
        let c = cover(&g, 1, worst_start_candidates(g.n()), cfg(64, 6));
        let upper = ht.hmax() * harmonic(n);
        let lower = ht.hmin() * harmonic(n - 1);
        assert!(
            c <= upper * 1.1,
            "{}: C = {c} above Matthews upper {upper}",
            g.name()
        );
        assert!(
            c >= lower * 0.9,
            "{}: C = {c} below Matthews lower {lower}",
            g.name()
        );
    }
}

#[test]
fn baby_matthews_bound_honored_at_k_log_n() {
    let g = generators::hypercube(6); // n = 64, ln n ≈ 4.16 -> k ≤ 4
    let ht = many_walks::spectral::hitting_times_all(&g);
    let bound = many_walks::walks::bounds::baby_matthews_upper(ht.hmax(), 64, 4);
    let ck = cover(&g, 4, vec![0], cfg(96, 7));
    assert!(
        ck <= bound,
        "C^4 = {ck} exceeds Baby Matthews bound {bound}"
    );
}

#[test]
fn table1_cover_time_orders() {
    // C(cycle) = Θ(n²) ≫ C(complete) = Θ(n log n) ≈ C(hypercube) at equal n.
    let n = 64;
    let c_cycle = cover(&generators::cycle(n), 1, vec![0], cfg(48, 8));
    let c_complete = cover(&generators::complete(n), 1, vec![0], cfg(48, 8));
    let c_cube = cover(&generators::hypercube(6), 1, vec![0], cfg(48, 8));
    assert!(c_cycle > 4.0 * c_complete);
    // Hypercube cover is Θ(n log n) like the clique, within a small factor.
    assert!(c_cube < 6.0 * c_complete);
    assert!(c_cube > c_complete / 6.0);
}
