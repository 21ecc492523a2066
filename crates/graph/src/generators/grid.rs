//! d-dimensional grids and tori (Table 1 rows 2–3; Theorems 8 and 24).
//!
//! Vertices are mixed-radix encodings of coordinate tuples: for dims
//! `[d0, d1, …]`, the vertex for coordinates `(c0, c1, …)` is
//! `c0 + d0·(c1 + d1·(c2 + …))`. The torus wraps every dimension; the open
//! grid does not.

use crate::builder::GraphBuilder;
use crate::closed::{valid, ClosedForm};
use crate::csr::Graph;

fn check_dims(dims: &[usize]) -> usize {
    assert!(!dims.is_empty(), "grid needs at least one dimension");
    let mut n: usize = 1;
    for &d in dims {
        assert!(d >= 1, "every grid dimension must be ≥ 1, got {d}");
        n = n.checked_mul(d).expect("grid size overflows usize");
    }
    assert!(n <= u32::MAX as usize, "grid too large for u32 vertex ids");
    n
}

fn build_lattice(dims: &[usize], wrap: bool, name: String) -> Graph {
    let n = check_dims(dims);
    let mut b = GraphBuilder::with_capacity(n, n * dims.len());
    // strides[i] = product of dims[0..i]
    let mut strides = Vec::with_capacity(dims.len());
    let mut acc = 1usize;
    for &d in dims {
        strides.push(acc);
        acc *= d;
    }
    let mut coords = vec![0usize; dims.len()];
    for v in 0..n {
        for (axis, &d) in dims.iter().enumerate() {
            if d == 1 {
                continue; // no neighbor along a degenerate axis
            }
            let c = coords[axis];
            // +1 neighbor (every edge added once, in the + direction).
            if c + 1 < d {
                let u = v + strides[axis];
                b.add_edge(v as u32, u as u32);
            } else if wrap && d > 2 {
                // wraparound edge from the last to the first coordinate;
                // skipped for d == 2 where it would duplicate the +1 edge.
                let u = v - strides[axis] * (d - 1);
                b.add_edge(v as u32, u as u32);
            } else if wrap && d == 2 && c == 0 {
                // For d == 2 the torus edge coincides with the grid edge;
                // nothing extra to add (handled by the c+1<d branch).
            }
        }
        // Increment mixed-radix coordinates.
        for (axis, &d) in dims.iter().enumerate() {
            coords[axis] += 1;
            if coords[axis] < d {
                break;
            }
            coords[axis] = 0;
        }
    }
    b.build(name)
}

/// Open (non-wrapping) d-dimensional grid with side lengths `dims`.
pub fn grid(dims: &[usize]) -> Graph {
    build_lattice(dims, false, format!("grid{dims:?}"))
}

/// d-dimensional torus with side lengths `dims` (wraps every axis).
///
/// This is the "d-dimensional grid (torus)" of the paper's Theorem 24 and
/// Theorem 8; it is vertex-transitive and `2·dims.len()`-regular whenever
/// every side is ≥ 3.
pub fn torus(dims: &[usize]) -> Graph {
    build_lattice(dims, true, format!("torus{dims:?}"))
}

/// Square open grid `side × side`.
pub fn grid_2d(side: usize) -> Graph {
    let mut g = grid(&[side, side]);
    g.set_name(format!("grid2d({side}x{side})"));
    g
}

/// Square torus `side × side` — the `√n × √n` grid-on-the-torus of
/// Theorem 8. Materialized from [`ClosedForm::torus_2d`], with no arc
/// list: the arrays [`torus`]`(&[side, side])` builds, named
/// `torus2d(SxS)`.
///
/// # Panics
/// If `side` is 0 or `side²` exceeds `u32::MAX`.
pub fn torus_2d(side: usize) -> Graph {
    valid(ClosedForm::torus_2d(side)).to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn grid_2d_counts() {
        let g = grid_2d(4);
        assert_eq!(g.n(), 16);
        // edges: 2 * 4 * 3 = 24
        assert_eq!(g.m(), 24);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(1), 3); // edge
        assert_eq!(g.degree(5), 4); // interior
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn torus_2d_regular() {
        let g = torus_2d(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.regular_degree(), Some(4));
        assert_eq!(g.m(), 32);
        assert!(algo::is_connected(&g));
        // wrap edges exist
        assert!(g.has_edge(0, 3)); // (0,0)-(3,0) along x
        assert!(g.has_edge(0, 12)); // (0,0)-(0,3) along y
    }

    #[test]
    fn torus_3d_regular() {
        let g = torus(&[3, 3, 3]);
        assert_eq!(g.n(), 27);
        assert_eq!(g.regular_degree(), Some(6));
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn grid_1d_is_path_and_torus_1d_is_cycle() {
        let g = grid(&[7]);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 1);
        let t = torus(&[7]);
        assert_eq!(t.m(), 7);
        assert_eq!(t.regular_degree(), Some(2));
        assert!(t.has_edge(0, 6));
    }

    #[test]
    fn side_two_torus_has_no_multi_edges() {
        // On side 2 the wrap edge would duplicate the +1 edge.
        let t = torus(&[2, 2]);
        assert_eq!(t.n(), 4);
        assert_eq!(t.m(), 4); // a 4-cycle
        assert_eq!(t.regular_degree(), Some(2));
    }

    #[test]
    fn degenerate_axis_ignored() {
        let g = torus(&[5, 1]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 5); // just the 5-cycle along the first axis
    }

    #[test]
    fn rectangular_grid() {
        let g = grid(&[2, 3]);
        assert_eq!(g.n(), 6);
        // edges: rows: 3 * 1 = 3 along x (2-side), 2 * 2 = 4 along y (3-side)
        assert_eq!(g.m(), 7);
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn four_dim_torus() {
        let g = torus(&[3, 3, 3, 3]);
        assert_eq!(g.n(), 81);
        assert_eq!(g.regular_degree(), Some(8));
        assert!(algo::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_rejected() {
        grid(&[]);
    }
}
