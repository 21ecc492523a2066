//! Stationary distribution of the simple random walk.
//!
//! On a connected undirected graph the walk's unique stationary
//! distribution is `π(v) = δ(v) / Σ_u δ(u)` (degree-proportional); for
//! regular graphs it is uniform, which is what makes the paper's Theorem 9
//! proof work ("the stationary distribution of a random walk on G is
//! uniform (G is d-regular)").

use mrw_graph::Graph;

/// The stationary distribution `π`.
///
/// # Panics
/// If the graph has no edges (the walk is undefined).
pub fn stationary_distribution(g: &Graph) -> Vec<f64> {
    let total = g.degree_sum();
    assert!(
        total > 0,
        "stationary distribution undefined on an edgeless graph"
    );
    (0..g.n() as u32)
        .map(|v| g.degree(v) as f64 / total as f64)
        .collect()
}

/// The paper's mixing distance: `Σ_v |p(v) − π(v)|` (un-halved L1 norm, as
/// in its definition of `t_m` in §2).
pub fn l1_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_graph::generators;
    use mrw_graph::GraphBuilder;

    #[test]
    fn regular_graph_uniform() {
        let g = generators::cycle(8);
        let pi = stationary_distribution(&g);
        for &x in &pi {
            assert!((x - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn star_is_degree_proportional() {
        let g = generators::star(5); // hub degree 4, leaves degree 1
        let pi = stationary_distribution(&g);
        assert!((pi[0] - 0.5).abs() < 1e-12);
        for &p in &pi[1..5] {
            assert!((p - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn sums_to_one() {
        let g = generators::barbell(11);
        let pi = stationary_distribution(&g);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationarity_fixed_point() {
        // π should be invariant under one transition step.
        let g = generators::lollipop(9);
        let pi = stationary_distribution(&g);
        let op = crate::transition::TransitionOp::new(&g);
        let mut out = vec![0.0; g.n()];
        op.step(&pi, &mut out);
        assert!(l1_distance(&pi, &out) < 1e-12);
    }

    #[test]
    fn distances() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert!((l1_distance(&p, &q) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "edgeless")]
    fn edgeless_rejected() {
        let g = GraphBuilder::new(3).build("empty");
        stationary_distribution(&g);
    }
}
