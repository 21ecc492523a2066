//! Exact k-walk cover and partial cover times on small graphs by dynamic
//! programming.
//!
//! Ground truth for the Monte-Carlo engine: the k-walk process is a Markov
//! chain on states `(positions, visited-mask)`. Since the visited mask only
//! ever gains bits, the chain is acyclic across masks: process masks in
//! decreasing popcount order, and within one mask solve the linear system
//! that couples the position tuples whose moves stay inside the mask.
//!
//! Complexity is `O(2ⁿ · (n^k)³)` — strictly a validator for `n ≲ 12,
//! k ≤ 3` — but on that domain it is *exact*, which no amount of sampling
//! is. The engine's estimators are tested against these values, and the
//! classical identities (`C(K_n) = (n−1)H_{n−1}`, `C(L_n) = n(n−1)/2`,
//! `C^k(K_n+loops) ≈ nH_n/k`) fall out as corollaries.

use mrw_graph::{algo, Graph};
use mrw_spectral::DenseMatrix;

/// Exact expected number of parallel rounds for `k` walks from `start` to
/// cover `g`.
///
/// # Panics
/// If the graph is disconnected, empty, or the state space
/// `2ⁿ·n^k` exceeds [`MAX_STATES`] (this is a brute-force validator, not
/// an estimator).
pub fn exact_kwalk_cover_time(g: &Graph, start: u32, k: usize) -> f64 {
    exact_kwalk_partial_cover_time(g, start, k, g.n())
}

/// Exact expected number of parallel rounds for `k` walks from `start` to
/// visit `target` distinct vertices — the partial cover time `C^k_γ` at
/// `target = ⌈γn⌉`. Every mask with at least `target` vertices is
/// terminal; `target = n` is full cover.
///
/// # Panics
/// As [`exact_kwalk_cover_time`], and if `target > n`.
pub fn exact_kwalk_partial_cover_time(g: &Graph, start: u32, k: usize, target: usize) -> f64 {
    assert!(k >= 1, "need at least one walk");
    assert!(g.n() >= 1, "empty graph");
    assert!((start as usize) < g.n(), "start out of range");
    assert!(
        algo::is_connected(g),
        "cover time infinite on a disconnected graph"
    );
    let n = g.n();
    assert!(n <= 20, "exact solver limited to n ≤ 20, got {n}");
    assert!(target <= n, "target {target} exceeds n = {n}");
    let tuples = (n as u64).pow(k as u32);
    let states = tuples.saturating_mul(1u64 << n);
    assert!(
        states <= MAX_STATES,
        "state space {states} exceeds MAX_STATES = {MAX_STATES}; use the Monte-Carlo estimator"
    );

    if n == 1 {
        return 0.0;
    }

    // E[mask][tuple] = expected remaining rounds given visited `mask` and
    // walker positions encoded in `tuple` (base-n digits). Only tuples
    // whose positions all lie inside `mask` are reachable.
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let n_tuples = tuples as usize;
    let mut e: Vec<Vec<f64>> = vec![Vec::new(); 1usize << n];

    let decode = |tuple: usize| -> Vec<u32> {
        let mut t = tuple;
        (0..k)
            .map(|_| {
                let p = (t % n) as u32;
                t /= n;
                p
            })
            .collect()
    };
    let encode = |positions: &[u32]| -> usize {
        positions
            .iter()
            .rev()
            .fold(0usize, |acc, &p| acc * n + p as usize)
    };

    // Enumerate each walker's joint one-step distribution lazily: the joint
    // move space is the cartesian product of neighbor lists. For each
    // (mask, tuple) we need Σ over joint moves of P(move)·E[next]. Joint
    // move count = Π δ(p_i); bounded by maxdeg^k.
    let masks_by_popcount = {
        let mut m: Vec<u32> = (0..=full).collect();
        m.sort_by_key(|x| std::cmp::Reverse(x.count_ones()));
        m
    };

    for &mask in &masks_by_popcount {
        if mask.count_ones() as usize >= target {
            e[mask as usize] = vec![0.0; n_tuples];
            continue;
        }
        // Reachable tuples: all positions inside mask.
        let member = |p: u32| mask & (1 << p) != 0;
        let tuples_in: Vec<usize> = (0..n_tuples)
            .filter(|&t| decode(t).iter().all(|&p| member(p)))
            .collect();
        if tuples_in.is_empty() {
            e[mask as usize] = vec![f64::NAN; n_tuples];
            continue;
        }
        // BTreeMap, not HashMap: lookup-only here, but the deterministic
        // crates ban hash collections outright (analyzer rule D1).
        let index_of: std::collections::BTreeMap<usize, usize> =
            tuples_in.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let dim = tuples_in.len();
        // (I − Q) x = 1 + r, where Q couples tuples staying in `mask` and
        // r accumulates transitions into strictly larger masks (already
        // solved).
        let mut a = DenseMatrix::identity(dim);
        let mut b = vec![1.0f64; dim];
        for (row, &t) in tuples_in.iter().enumerate() {
            let positions = decode(t);
            // Iterate the cartesian product of neighbor choices.
            let degs: Vec<usize> = positions.iter().map(|&p| g.degree(p)).collect();
            let joint: f64 = 1.0 / degs.iter().product::<usize>() as f64;
            let mut choice = vec![0usize; k];
            loop {
                let next: Vec<u32> = positions
                    .iter()
                    .zip(&choice)
                    .map(|(&p, &c)| g.neighbor(p, c))
                    .collect();
                let new_bits: u32 = next.iter().fold(0u32, |acc, &p| acc | (1 << p));
                let next_mask = mask | new_bits;
                let next_tuple = encode(&next);
                if next_mask == mask {
                    let col = index_of[&next_tuple];
                    a[(row, col)] -= joint;
                } else {
                    b[row] += joint * e[next_mask as usize][next_tuple];
                }
                // Increment the mixed-radix choice vector.
                let mut axis = 0;
                loop {
                    if axis == k {
                        break;
                    }
                    choice[axis] += 1;
                    if choice[axis] < degs[axis] {
                        break;
                    }
                    choice[axis] = 0;
                    axis += 1;
                }
                if axis == k {
                    break;
                }
            }
        }
        let x = a
            .solve(&b)
            .expect("within-mask system is substochastic, hence nonsingular");
        let mut values = vec![f64::NAN; n_tuples];
        for (i, &t) in tuples_in.iter().enumerate() {
            values[t] = x[i];
        }
        e[mask as usize] = values;
    }

    let start_mask = 1u32 << start;
    let start_tuple = encode(&vec![start; k]);
    e[start_mask as usize][start_tuple]
}

/// Hard ceiling on `2ⁿ·n^k` for [`exact_kwalk_cover_time`].
pub const MAX_STATES: u64 = 200_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Budget, Query, Session};
    use mrw_graph::generators;
    use mrw_stats::harmonic::harmonic;

    const TOL: f64 = 1e-9;

    #[test]
    fn two_vertex_path_is_one_round() {
        let g = generators::path(2);
        assert!((exact_kwalk_cover_time(&g, 0, 1) - 1.0).abs() < TOL);
        // Two walks: still exactly 1 round (both must move to the other
        // vertex).
        assert!((exact_kwalk_cover_time(&g, 0, 2) - 1.0).abs() < TOL);
    }

    #[test]
    fn cycle_matches_gamblers_ruin() {
        // C(L_n) = n(n−1)/2 exactly.
        for n in [3usize, 4, 5, 6, 7] {
            let g = generators::cycle(n);
            let exact = exact_kwalk_cover_time(&g, 0, 1);
            let expect = (n * (n - 1)) as f64 / 2.0;
            assert!((exact - expect).abs() < 1e-7, "n={n}: {exact} vs {expect}");
        }
    }

    #[test]
    fn complete_graph_is_coupon_collector() {
        // C(K_n) = (n−1)·H_{n−1} (each step uniform over the other n−1).
        for n in [3usize, 4, 5, 6] {
            let g = generators::complete(n);
            let exact = exact_kwalk_cover_time(&g, 0, 1);
            let expect = (n as f64 - 1.0) * harmonic(n as u64 - 1);
            assert!((exact - expect).abs() < 1e-7, "n={n}: {exact} vs {expect}");
        }
    }

    #[test]
    fn complete_with_loops_k2_halves_coupon_collector_asymptotically() {
        // Lemma 12's mom argument is exact in total steps; in rounds the
        // k=2 time is within one round of nH_n/2.
        let n = 6;
        let g = generators::complete_with_loops(n);
        let exact = exact_kwalk_cover_time(&g, 0, 2);
        let cc = n as f64 * harmonic(n as u64);
        assert!(
            (exact - cc / 2.0).abs() < 1.0,
            "C² = {exact} vs nH_n/2 = {}",
            cc / 2.0
        );
    }

    #[test]
    fn partial_target_on_looped_clique_is_truncated_coupon_collector() {
        // Each step of one walk on K_n+loops is uniform over all n
        // vertices, so reaching the j-th distinct vertex takes n/(n − j + 1)
        // steps on average; target 1 is the start itself.
        let n = 7;
        let g = generators::complete_with_loops(n);
        for target in 1..=n {
            let exact = exact_kwalk_partial_cover_time(&g, 0, 1, target);
            let expect: f64 = (1..target).map(|j| n as f64 / (n - j) as f64).sum();
            assert!(
                (exact - expect).abs() < 1e-7,
                "target {target}: {exact} vs {expect}"
            );
        }
        assert_eq!(
            exact_kwalk_partial_cover_time(&g, 0, 2, n),
            exact_kwalk_cover_time(&g, 0, 2)
        );
    }

    #[test]
    fn star_single_walk_closed_form() {
        // Star S_n from the hub: the walk alternates hub/leaf; covering the
        // n−1 leaves is coupon collecting at 2 rounds per draw minus the
        // first-step subtlety... compare against brute Monte Carlo instead
        // of a human formula.
        let g = generators::star(5);
        let exact = exact_kwalk_cover_time(&g, 0, 1);
        let mc = Session::new(Budget {
            trials: 6000,
            seed: 5,
            ..Budget::default()
        })
        .run(
            &g,
            &Query::Cover {
                k: 1,
                starts: vec![0],
            },
        )
        .mean();
        assert!(
            (exact - mc).abs() < exact * 0.05,
            "exact {exact} vs MC {mc}"
        );
    }

    #[test]
    fn monte_carlo_engine_agrees_with_exact_for_k_walks() {
        // The headline validation: MC estimator vs exact DP, several
        // graphs, k ∈ {1, 2}.
        for g in [
            generators::cycle(6),
            generators::path(6),
            generators::complete(5),
            generators::star(6),
            generators::balanced_tree(2, 2),
        ] {
            for k in [1usize, 2] {
                let exact = exact_kwalk_cover_time(&g, 0, k);
                let mc = Session::new(Budget {
                    trials: 4000,
                    seed: 9,
                    ..Budget::default()
                })
                .run(&g, &Query::Cover { k, starts: vec![0] })
                .mean();
                let rel = (mc - exact).abs() / exact;
                assert!(
                    rel < 0.06,
                    "{} k={k}: exact {exact} vs MC {mc} (rel {rel})",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn k2_strictly_faster_than_k1_exactly() {
        let g = generators::cycle(6);
        let c1 = exact_kwalk_cover_time(&g, 0, 1);
        let c2 = exact_kwalk_cover_time(&g, 0, 2);
        assert!(c2 < c1, "exact C² = {c2} not below C¹ = {c1}");
        // And the speed-up on the cycle is below k = 2 (log-k regime).
        assert!(c1 / c2 < 2.0);
    }

    #[test]
    fn exact_speedup_on_clique_is_linear_even_tiny() {
        let g = generators::complete_with_loops(5);
        let c1 = exact_kwalk_cover_time(&g, 0, 1);
        let c2 = exact_kwalk_cover_time(&g, 0, 2);
        let s2 = c1 / c2;
        assert!((s2 - 2.0).abs() < 0.35, "S² = {s2}");
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_rejected() {
        let mut b = mrw_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        exact_kwalk_cover_time(&b.build("frag"), 0, 1);
    }

    #[test]
    #[should_panic(expected = "n ≤ 20")]
    fn oversized_rejected() {
        let g = generators::cycle(32);
        exact_kwalk_cover_time(&g, 0, 1);
    }
}
