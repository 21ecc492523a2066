//! Exact hitting times `h(u,v)`.
//!
//! Two independent methods, cross-checked in tests:
//!
//! 1. **Fundamental matrix** (all pairs, one `O(n³)` inversion):
//!    `Z = (I − P + 𝟙πᵀ)⁻¹`, then `h(u,v) = (Z_vv − Z_uv)/π(v)`
//!    (Grinstead & Snell, *Introduction to Probability*, Thm 11.16; valid
//!    for any irreducible chain, periodic ones included — the even cycle
//!    and the hypercube are handled correctly).
//! 2. **Single-target solve**: for a fixed target `v`, the unknowns
//!    `h(u,v)`, `u ≠ v`, satisfy `h(u) = 1 + Σ_{w∈N(u)} h(w)/δ(u)` with
//!    `h(v) = 0` — an `(n−1)×(n−1)` linear system.
//!
//! `h_max = max_{u≠v} h(u,v)` and `h_min` feed Matthews' bound (Theorem 1),
//! the Baby Matthews bound (Theorem 13), and the gap `g(n) = C/h_max` of
//! Theorem 5.

use mrw_graph::{algo, Graph};

use crate::dense::DenseMatrix;
use crate::stationary::stationary_distribution;
use crate::transition::TransitionOp;

/// All-pairs hitting times for a graph.
#[derive(Debug, Clone)]
pub struct HittingTimes {
    n: usize,
    /// Row-major `h[u][v]` = expected steps from `u` to first visit of `v`.
    h: Vec<f64>,
}

impl HittingTimes {
    /// `h(u,v)`; zero when `u == v` (by the first-visit convention
    /// `h(v,v) = 0`; the *return* time would be `1/π(v)`).
    pub fn get(&self, u: u32, v: u32) -> f64 {
        self.h[u as usize * self.n + v as usize]
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum hitting time over ordered pairs `u ≠ v`.
    pub fn hmax(&self) -> f64 {
        let mut best = 0.0f64;
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v {
                    best = best.max(self.h[u * self.n + v]);
                }
            }
        }
        best
    }

    /// Minimum hitting time over ordered pairs `u ≠ v`.
    pub fn hmin(&self) -> f64 {
        let mut best = f64::INFINITY;
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v {
                    best = best.min(self.h[u * self.n + v]);
                }
            }
        }
        best
    }
}

/// Computes all-pairs hitting times via the fundamental matrix.
///
/// `O(n³)` time, `O(n²)` memory — intended for `n` up to ~1500.
///
/// # Panics
/// If the graph is disconnected (hitting times would be infinite) or
/// edgeless.
pub fn hitting_times_all(g: &Graph) -> HittingTimes {
    assert!(
        algo::is_connected(g),
        "hitting times are infinite on a disconnected graph"
    );
    let n = g.n();
    assert!(n >= 1);
    let pi = stationary_distribution(g);
    let p = TransitionOp::new(g).to_dense();
    // M = I − P + 𝟙πᵀ
    let m = DenseMatrix::from_fn(n, n, |r, c| {
        let i = if r == c { 1.0 } else { 0.0 };
        i - p[(r, c)] + pi[c]
    });
    let z = m
        .inverse()
        .expect("I − P + 1πᵀ must be invertible for an irreducible chain");
    let mut h = vec![0.0; n * n];
    for u in 0..n {
        for v in 0..n {
            if u != v {
                h[u * n + v] = (z[(v, v)] - z[(u, v)]) / pi[v];
            }
        }
    }
    HittingTimes { n, h }
}

/// Hitting times to the single target `v` by a direct linear solve:
/// returns `h` with `h[u] = h(u, v)` and `h[v] = 0`.
///
/// # Panics
/// If the graph is disconnected.
pub fn hitting_times_to(g: &Graph, v: u32) -> Vec<f64> {
    assert!(
        algo::is_connected(g),
        "hitting times are infinite on a disconnected graph"
    );
    let n = g.n();
    assert!((v as usize) < n, "target {v} out of range");
    if n == 1 {
        return vec![0.0];
    }
    // Index mapping: vertices != v to 0..n-1 (shift those above v down).
    let idx = |u: usize| -> usize {
        if u < v as usize {
            u
        } else {
            u - 1
        }
    };
    let a = DenseMatrix::from_fn(n - 1, n - 1, |r, c| {
        // Row r corresponds to vertex ur below.
        let ur = if r < v as usize { r } else { r + 1 };
        let uc = if c < v as usize { c } else { c + 1 };
        let i = if r == c { 1.0 } else { 0.0 };
        let p = if g.has_edge(ur as u32, uc as u32) {
            1.0 / g.degree(ur as u32) as f64
        } else {
            0.0
        };
        i - p
    });
    let b = vec![1.0; n - 1];
    let x = a
        .solve(&b)
        .expect("hitting-time system is nonsingular on a connected graph");
    let mut h = vec![0.0; n];
    for u in 0..n {
        if u != v as usize {
            h[u] = x[idx(u)];
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_graph::generators;

    const TOL: f64 = 1e-7;

    #[test]
    fn complete_graph_closed_form() {
        // K_n: h(u,v) = n − 1 for all u ≠ v.
        let g = generators::complete(8);
        let ht = hitting_times_all(&g);
        for u in 0..8u32 {
            for v in 0..8u32 {
                if u != v {
                    assert!(
                        (ht.get(u, v) - 7.0).abs() < TOL,
                        "h({u},{v})={}",
                        ht.get(u, v)
                    );
                }
            }
        }
        assert!((ht.hmax() - 7.0).abs() < TOL);
        assert!((ht.hmin() - 7.0).abs() < TOL);
    }

    #[test]
    fn cycle_closed_form() {
        // L_n: h(0, j) = j(n − j).
        let n = 12;
        let g = generators::cycle(n);
        let ht = hitting_times_all(&g);
        for j in 1..n as u32 {
            let expect = (j as f64) * (n as f64 - j as f64);
            assert!(
                (ht.get(0, j) - expect).abs() < TOL,
                "h(0,{j}) = {} ≠ {expect}",
                ht.get(0, j)
            );
        }
        // Odd cycle is aperiodic; even cycle periodic — try both.
        let g13 = generators::cycle(13);
        let ht13 = hitting_times_all(&g13);
        assert!((ht13.get(0, 6) - (6.0 * 7.0)).abs() < TOL);
    }

    #[test]
    fn path_closed_form() {
        // P_n: for i < j, h(i, j) = j² − i².
        let g = generators::path(9);
        let ht = hitting_times_all(&g);
        for i in 0..9u32 {
            for j in (i + 1)..9u32 {
                let expect = (j * j - i * i) as f64;
                assert!(
                    (ht.get(i, j) - expect).abs() < TOL,
                    "h({i},{j}) = {} ≠ {expect}",
                    ht.get(i, j)
                );
            }
        }
        // h_max on the path: end-to-end = (n−1)².
        assert!((ht.hmax() - 64.0).abs() < TOL);
    }

    #[test]
    fn star_closed_form() {
        // Star on n vertices: h(leaf, hub)=1, h(hub, leaf)=2n−3,
        // h(leaf, leaf')=2n−2.
        let n = 7;
        let g = generators::star(n);
        let ht = hitting_times_all(&g);
        assert!((ht.get(3, 0) - 1.0).abs() < TOL);
        assert!((ht.get(0, 3) - (2 * n - 3) as f64).abs() < TOL);
        assert!((ht.get(1, 2) - (2 * n - 2) as f64).abs() < TOL);
    }

    #[test]
    fn hypercube_hitting_time_is_theta_n() {
        // Q_d: h(u, antipode) ~ n (Table 1: hitting time Θ(n)).
        let g = generators::hypercube(6); // n = 64
        let ht = hitting_times_all(&g);
        let h = ht.get(0, 63);
        assert!(h > 50.0 && h < 200.0, "h(0,antipode) = {h}");
    }

    #[test]
    fn two_methods_agree() {
        for g in [
            generators::barbell(9),
            generators::lollipop(8),
            generators::cycle(10),
            generators::balanced_tree(2, 3),
        ] {
            let all = hitting_times_all(&g);
            for v in [0u32, (g.n() / 2) as u32, (g.n() - 1) as u32] {
                let direct = hitting_times_to(&g, v);
                for u in 0..g.n() as u32 {
                    assert!(
                        (all.get(u, v) - direct[u as usize]).abs() < 1e-6,
                        "{}: h({u},{v}) fundamental={} direct={}",
                        g.name(),
                        all.get(u, v),
                        direct[u as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn hmax_symmetric_bounds() {
        let g = generators::cycle(16);
        let ht = hitting_times_all(&g);
        // max over pairs at distance n/2: h = (n/2)(n/2) = 64
        assert!((ht.hmax() - 64.0).abs() < TOL);
        // hmin = hitting adjacent vertex = n − 1 = 15 on a cycle.
        assert!((ht.hmin() - 15.0).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_rejected() {
        let mut b = mrw_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        hitting_times_all(&b.build("frag"));
    }

    #[test]
    fn barbell_escape_is_quadratic() {
        // From inside a bell to the other bell ~ Θ(n²): check growth.
        let h_small = {
            let g = generators::barbell(17);
            let ht = hitting_times_all(&g);
            ht.get(1, 9) // bell A interior -> bell B attachment
        };
        let h_large = {
            let g = generators::barbell(33);
            let ht = hitting_times_all(&g);
            ht.get(1, 17)
        };
        // Quadratic scaling: doubling n should ≈ quadruple h.
        let ratio = h_large / h_small;
        assert!(ratio > 2.8 && ratio < 5.5, "ratio {ratio}");
    }
}
