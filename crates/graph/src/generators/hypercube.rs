//! The d-dimensional hypercube (Table 1 row 4).

use crate::closed::{valid, ClosedForm};
use crate::csr::Graph;

/// The hypercube `Q_d` on `n = 2^d` vertices: `u ~ v` iff their binary
/// encodings differ in exactly one bit.
///
/// `d`-regular, diameter `d`, cover time `Θ(n log n)`, hitting time `Θ(n)`,
/// mixing time `Θ(log n · log log n)` — a Matthews-tight family where
/// Theorem 4 predicts linear speed-up for `k ≤ log n`. Materialized from
/// [`ClosedForm::hypercube`].
///
/// # Panics
/// If `d` is outside `1..=30`.
pub fn hypercube(d: u32) -> Graph {
    valid(ClosedForm::hypercube(d as usize)).to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn q3_shape() {
        let g = hypercube(3);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 12);
        assert_eq!(g.regular_degree(), Some(3));
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn q1_is_an_edge() {
        let g = hypercube(1);
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn neighbors_differ_in_one_bit() {
        let g = hypercube(5);
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                assert_eq!((u ^ v).count_ones(), 1, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn diameter_equals_dimension() {
        for d in 1..=6u32 {
            let g = hypercube(d);
            assert_eq!(algo::diameter(&g), Some(d), "d={d}");
        }
    }

    #[test]
    fn antipodal_distance() {
        let g = hypercube(6);
        let dist = algo::bfs_distances(&g, 0);
        assert_eq!(dist[63], 6);
    }
}
