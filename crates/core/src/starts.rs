//! Start-vertex distributions for k-walks.
//!
//! The paper's main setting starts all k walks at one (worst-case) vertex,
//! but §1.1 and §3 discuss the stationary-start variant: Broder et al.'s
//! s-t-connectivity analysis covers from k stationary-distributed starts in
//! `O(m² log³ n / k²)`, and the paper notes its own Lemma 19 improves this
//! to `O((n log n)/k)` on expanders ("our proofs in Section 4 do not depend
//! on the starting distribution"). This module provides the samplers the
//! stationary-start experiment needs, and the probe set behind the
//! worst-start cover time `C(G) = max_i C_i`.

use mrw_graph::Graph;
use rand::Rng;

/// Samples `k` i.i.d. vertices from the walk's stationary distribution
/// `π(v) = δ(v)/2m` by inverse-CDF over the degree prefix sums
/// (`O(n + k log n)`).
pub fn sample_stationary_starts<R: Rng + ?Sized>(g: &Graph, k: usize, rng: &mut R) -> Vec<u32> {
    assert!(k >= 1, "need at least one start");
    assert!(
        g.degree_sum() > 0,
        "stationary distribution undefined on an edgeless graph"
    );
    // Prefix sums of degrees; total = degree_sum.
    let mut prefix = Vec::with_capacity(g.n());
    let mut acc = 0u64;
    for v in 0..g.n() as u32 {
        acc += g.degree(v) as u64;
        prefix.push(acc);
    }
    let total = acc;
    (0..k)
        .map(|_| {
            let x = rng.gen_range(0..total);
            // First index with prefix > x.
            prefix.partition_point(|&p| p <= x) as u32
        })
        .collect()
}

/// The start vertices probed for a worst-start cover time
/// `C^k(G) = max_i C^k_i`: every vertex when `n ≤ 16`, otherwise 8 evenly
/// spaced ones. For the vertex-transitive families of Table 1 (cycle,
/// torus, hypercube, clique) every start is equivalent, so sampling loses
/// nothing; where the start matters (the barbell's center) the
/// experiments fix it explicitly.
pub fn worst_start_candidates(n: usize) -> Vec<u32> {
    if n <= 16 {
        (0..n as u32).collect()
    } else {
        let stride = n / 8;
        (0..8).map(|i| (i * stride) as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk_rng;
    use mrw_graph::generators;

    #[test]
    fn stationary_sampler_matches_degree_profile() {
        // Star: hub has π = 1/2, each leaf π = 1/(2(n−1)).
        let g = generators::star(9); // hub degree 8, 8 leaves
        let mut rng = walk_rng(3);
        let draws = 40_000;
        let starts = sample_stationary_starts(&g, draws, &mut rng);
        let hub_frac = starts.iter().filter(|&&v| v == 0).count() as f64 / draws as f64;
        assert!(
            (hub_frac - 0.5).abs() < 0.02,
            "hub sampled {hub_frac}, expected 0.5"
        );
    }

    #[test]
    fn regular_graph_stationary_is_uniform() {
        let g = generators::cycle(16);
        let mut rng = walk_rng(5);
        let draws = 64_000;
        let starts = sample_stationary_starts(&g, draws, &mut rng);
        let mut counts = [0usize; 16];
        for &s in &starts {
            counts[s as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            let frac = c as f64 / draws as f64;
            assert!((frac - 1.0 / 16.0).abs() < 0.01, "vertex {v}: frac {frac}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::torus_2d(5);
        let a = sample_stationary_starts(&g, 10, &mut walk_rng(9));
        let b = sample_stationary_starts(&g, 10, &mut walk_rng(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn zero_starts_rejected() {
        let g = generators::cycle(5);
        sample_stationary_starts(&g, 0, &mut walk_rng(0));
    }
}
