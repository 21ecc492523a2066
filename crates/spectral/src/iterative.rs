//! Sparse iterative solvers: Gauss–Seidel hitting times and conjugate
//! gradients on the graph Laplacian.
//!
//! The exact [`hitting`](crate::hitting) pipeline inverts a dense `n×n`
//! matrix — `O(n³)` time and `O(n²)` memory — which caps it near
//! `n ≈ 2000`. But the paper's Table 1 quantities only ever need hitting
//! times *to one target* (`h_max` searches pairs) and effective
//! resistances *of single pairs* (the commute identity of \[15\]). Both are
//! single linear systems with an `O(m)` sparse operator, so iterative
//! methods reach `n` in the hundreds of thousands:
//!
//! * [`hitting_times_to_gs`] — Gauss–Seidel on
//!   `h(v) = 1 + (1/δ(v))·Σ_{u∼v} h(u)`, `h(target) = 0`. The system
//!   matrix `I − Q` is a weakly diagonally dominant M-matrix, for which
//!   Gauss–Seidel converges monotonically from below when started at 0.
//! * [`LaplacianOp`] + [`conjugate_gradient`] — matrix-free CG, used by
//!   [`effective_resistance_cg`] to solve `L x = e_u − e_v` on the
//!   subspace orthogonal to the all-ones kernel.
//!
//! Everything is cross-checked against the LU route in tests.

use mrw_graph::Graph;

/// Convergence report for an iterative solve.
#[derive(Debug, Clone, Copy)]
pub struct IterativeSolve {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual measure (solver-specific; see each solver's doc).
    pub residual: f64,
}

/// Exact-in-the-limit hitting times `h(v, target)` for **all** `v` by
/// Gauss–Seidel, sweeping until the largest per-vertex update falls below
/// `tol`. Returns the solution plus a convergence report, or `None` if
/// `max_sweeps` was exhausted first.
///
/// `h(target) = 0` by definition. The iteration starts from all-zeros and
/// increases monotonically toward the true hitting times.
///
/// # Panics
/// If `target` is out of range or the graph is empty.
pub fn hitting_times_to_gs(
    g: &Graph,
    target: u32,
    tol: f64,
    max_sweeps: usize,
) -> Option<(Vec<f64>, IterativeSolve)> {
    let n = g.n();
    assert!(n > 0, "empty graph");
    assert!((target as usize) < n, "target {target} out of range");
    let mut h = vec![0.0f64; n];
    for sweep in 1..=max_sweeps {
        let mut delta = 0.0f64;
        for v in 0..n as u32 {
            if v == target {
                continue;
            }
            let d = g.degree(v);
            debug_assert!(d > 0, "isolated vertex {v}");
            let mut acc = 0.0;
            for &u in g.neighbors(v) {
                acc += h[u as usize];
            }
            let new = 1.0 + acc / d as f64;
            delta = delta.max((new - h[v as usize]).abs());
            h[v as usize] = new;
        }
        if delta < tol {
            return Some((
                h,
                IterativeSolve {
                    iterations: sweep,
                    residual: delta,
                },
            ));
        }
    }
    None
}

/// The graph Laplacian `L = D − A` as a matrix-free operator.
///
/// Self-loops cancel out of `L` (they add to both `D` and the diagonal of
/// `A`), matching the electrical-network view where a self-loop carries no
/// current.
#[derive(Debug, Clone, Copy)]
pub struct LaplacianOp<'g> {
    g: &'g Graph,
}

impl<'g> LaplacianOp<'g> {
    /// Wraps a graph.
    pub fn new(g: &'g Graph) -> Self {
        Self { g }
    }

    /// `out = L·x` in `O(m)`.
    ///
    /// # Panics
    /// If `x` or `out` has the wrong length.
    pub fn apply(&self, x: &[f64], out: &mut [f64]) {
        let n = self.g.n();
        assert_eq!(x.len(), n, "input length");
        assert_eq!(out.len(), n, "output length");
        for v in 0..n as u32 {
            let mut acc = 0.0;
            let mut deg_no_loop = 0usize;
            for &u in self.g.neighbors(v) {
                if u == v {
                    continue;
                }
                acc += x[u as usize];
                deg_no_loop += 1;
            }
            out[v as usize] = deg_no_loop as f64 * x[v as usize] - acc;
        }
    }

    /// Quadratic form `xᵀLx = Σ_{(u,v)∈E} (x_u − x_v)²` — the electrical
    /// power dissipated by potentials `x`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        self.g
            .edges()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| {
                let d = x[u as usize] - x[v as usize];
                d * d
            })
            .sum()
    }
}

/// Conjugate gradients for a symmetric positive-semidefinite operator
/// given as a closure. Iterates until `‖r‖₂ ≤ tol·‖b‖₂` or `max_iters`.
///
/// Returns the solution and a report (`residual` is the final relative
/// residual), or `None` on non-convergence. When the operator has a
/// kernel (the Laplacian's all-ones vector), `b` must be orthogonal to it
/// and the returned solution is the minimum-norm one *up to* a kernel
/// component determined by the start; callers ground it as needed.
pub fn conjugate_gradient(
    apply: impl Fn(&[f64], &mut [f64]),
    b: &[f64],
    tol: f64,
    max_iters: usize,
) -> Option<(Vec<f64>, IterativeSolve)> {
    let n = b.len();
    let bnorm = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if bnorm == 0.0 {
        return Some((
            vec![0.0; n],
            IterativeSolve {
                iterations: 0,
                residual: 0.0,
            },
        ));
    }
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0f64; n];
    let mut rr: f64 = r.iter().map(|x| x * x).sum();
    for iter in 1..=max_iters {
        apply(&p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        if pap <= 0.0 {
            // Hit the kernel (numerically); the current iterate is as good
            // as CG can do.
            return Some((
                x,
                IterativeSolve {
                    iterations: iter,
                    residual: rr.sqrt() / bnorm,
                },
            ));
        }
        let alpha = rr / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new: f64 = r.iter().map(|x| x * x).sum();
        if rr_new.sqrt() <= tol * bnorm {
            return Some((
                x,
                IterativeSolve {
                    iterations: iter,
                    residual: rr_new.sqrt() / bnorm,
                },
            ));
        }
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
    }
    None
}

/// Effective resistance `R_eff(u, v)` by a single Laplacian CG solve:
/// `L x = e_u − e_v`, `R = x_u − x_v`. Scales to graphs far beyond the
/// dense [`hitting_times_all`](crate::hitting::hitting_times_all) route.
///
/// Returns `None` if CG fails to converge within `max_iters`.
///
/// # Panics
/// If `u == v` or either vertex is out of range.
pub fn effective_resistance_cg(
    g: &Graph,
    u: u32,
    v: u32,
    tol: f64,
    max_iters: usize,
) -> Option<f64> {
    let n = g.n();
    assert!((u as usize) < n && (v as usize) < n, "vertex out of range");
    assert_ne!(u, v, "resistance of a vertex to itself is 0 by convention");
    let mut b = vec![0.0f64; n];
    b[u as usize] = 1.0;
    b[v as usize] = -1.0;
    let op = LaplacianOp::new(g);
    let (x, _) = conjugate_gradient(|p, out| op.apply(p, out), &b, tol, max_iters)?;
    Some(x[u as usize] - x[v as usize])
}

/// Commute time `h(u,v) + h(v,u) = 2m·R_eff(u,v)` via the CG resistance —
/// the sparse counterpart of [`commute_time`](crate::resistance::commute_time).
pub fn commute_time_cg(g: &Graph, u: u32, v: u32, tol: f64, max_iters: usize) -> Option<f64> {
    // Self-loops count in the walk's edge total 2m = Σδ(v) but carry no
    // current, so use the degree sum rather than 2·(edge count).
    let two_m = g.degree_sum() as f64;
    effective_resistance_cg(g, u, v, tol, max_iters).map(|r| two_m * r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitting::{hitting_times_all, hitting_times_to};
    use mrw_graph::generators;

    const TOL: f64 = 1e-10;

    #[test]
    fn gs_matches_lu_on_cycle() {
        let g = generators::cycle(12);
        let (gs, report) = hitting_times_to_gs(&g, 0, TOL, 100_000).expect("converges");
        let lu = hitting_times_to(&g, 0);
        for v in 0..12 {
            assert!(
                (gs[v] - lu[v]).abs() < 1e-6,
                "v={v}: GS {} vs LU {}",
                gs[v],
                lu[v]
            );
        }
        assert!(report.iterations > 1);
    }

    #[test]
    fn gs_matches_lu_on_irregular_families() {
        for g in [
            generators::barbell(11),
            generators::lollipop(10),
            generators::star(9),
            generators::balanced_tree(3, 2),
        ] {
            let (gs, _) = hitting_times_to_gs(&g, 2, TOL, 200_000).expect("converges");
            let lu = hitting_times_to(&g, 2);
            for v in 0..g.n() {
                assert!(
                    (gs[v] - lu[v]).abs() < 1e-5,
                    "{} v={v}: {} vs {}",
                    g.name(),
                    gs[v],
                    lu[v]
                );
            }
        }
    }

    #[test]
    fn gs_target_entry_is_zero_and_others_positive() {
        let g = generators::torus_2d(5);
        let (gs, _) = hitting_times_to_gs(&g, 7, TOL, 100_000).expect("converges");
        assert_eq!(gs[7], 0.0);
        for (v, &h) in gs.iter().enumerate() {
            if v != 7 {
                assert!(h >= 1.0, "h({v}, 7) = {h} < 1");
            }
        }
    }

    #[test]
    fn gs_reports_nonconvergence_when_starved() {
        let g = generators::cycle(64);
        assert!(hitting_times_to_gs(&g, 0, 1e-12, 3).is_none());
    }

    #[test]
    fn laplacian_annihilates_constants() {
        let g = generators::barbell(13);
        let op = LaplacianOp::new(&g);
        let x = vec![3.25; g.n()];
        let mut out = vec![f64::NAN; g.n()];
        op.apply(&x, &mut out);
        for &y in &out {
            assert!(y.abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_quadratic_form_matches_apply() {
        let g = generators::torus_2d(4);
        let op = LaplacianOp::new(&g);
        let x: Vec<f64> = (0..g.n()).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut lx = vec![0.0; g.n()];
        op.apply(&x, &mut lx);
        let xtlx: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        assert!((xtlx - op.quadratic_form(&x)).abs() < 1e-9);
    }

    #[test]
    fn cg_solves_definite_diagonal_system() {
        // 4x + 0 = b — CG on a diagonal SPD operator converges in n steps.
        let b = vec![4.0, 8.0, 12.0];
        let (x, report) = conjugate_gradient(
            |p, out| out.iter_mut().zip(p).for_each(|(o, &v)| *o = 4.0 * v),
            &b,
            1e-12,
            10,
        )
        .expect("converges");
        for (i, &xi) in x.iter().enumerate() {
            assert!((xi - b[i] / 4.0).abs() < 1e-10);
        }
        assert!(report.iterations <= 3);
    }

    #[test]
    fn cg_resistance_path_is_distance() {
        let g = generators::path(10);
        for (u, v, expect) in [(0u32, 9u32, 9.0), (2, 5, 3.0), (0, 1, 1.0)] {
            let r = effective_resistance_cg(&g, u, v, 1e-12, 10_000).expect("cg");
            assert!((r - expect).abs() < 1e-8, "R({u},{v}) = {r}");
        }
    }

    #[test]
    fn cg_resistance_cycle_parallel_paths() {
        let n = 16usize;
        let g = generators::cycle(n);
        for d in 1..n as u32 {
            let r = effective_resistance_cg(&g, 0, d, 1e-12, 10_000).expect("cg");
            let expect = d as f64 * (n as f64 - d as f64) / n as f64;
            assert!((r - expect).abs() < 1e-8, "R(0,{d}) = {r} vs {expect}");
        }
    }

    #[test]
    fn cg_resistance_matches_lu_route_on_barbell() {
        let g = generators::barbell(13);
        let ht = hitting_times_all(&g);
        for (u, v) in [(0u32, 12u32), (1, 6), (6, 12)] {
            let lu = crate::resistance::effective_resistance(&g, &ht, u, v);
            let cg = effective_resistance_cg(&g, u, v, 1e-12, 50_000).expect("cg");
            assert!((lu - cg).abs() < 1e-6, "({u},{v}): LU {lu} vs CG {cg}");
        }
    }

    #[test]
    fn commute_identity_cg_vs_exact_hitting() {
        // h(u,v) + h(v,u) = 2m·R_eff — the CRRS identity, closed by CG.
        let g = generators::lollipop(12);
        let ht = hitting_times_all(&g);
        for (u, v) in [(0u32, 11u32), (3, 8)] {
            let exact = ht.get(u, v) + ht.get(v, u);
            let cg = commute_time_cg(&g, u, v, 1e-12, 50_000).expect("cg");
            assert!(
                (exact - cg).abs() < 1e-5 * exact.max(1.0),
                "({u},{v}): {exact} vs {cg}"
            );
        }
    }

    #[test]
    fn cg_handles_large_sparse_graph() {
        // n = 10_000 torus: far beyond the dense-LU regime; CG finishes and
        // the answer is positive, finite, and symmetric.
        let g = generators::torus_2d(100);
        let a = effective_resistance_cg(&g, 0, 5050, 1e-10, 100_000).expect("cg large");
        let b = effective_resistance_cg(&g, 5050, 0, 1e-10, 100_000).expect("cg large");
        assert!(a.is_finite() && a > 0.0);
        assert!((a - b).abs() < 1e-6, "asymmetry {a} vs {b}");
    }

    #[test]
    fn self_loops_do_not_change_resistance_but_scale_commute() {
        let plain = generators::complete(8);
        let loops = generators::complete_with_loops(8);
        let rp = effective_resistance_cg(&plain, 0, 3, 1e-12, 10_000).expect("cg");
        let rl = effective_resistance_cg(&loops, 0, 3, 1e-12, 10_000).expect("cg");
        assert!(
            (rp - rl).abs() < 1e-9,
            "loop changed resistance: {rp} vs {rl}"
        );
        // Commute times differ exactly by the degree-sum ratio.
        let cp = commute_time_cg(&plain, 0, 3, 1e-12, 10_000).unwrap();
        let cl = commute_time_cg(&loops, 0, 3, 1e-12, 10_000).unwrap();
        let ratio = loops.degree_sum() as f64 / plain.degree_sum() as f64;
        assert!((cl / cp - ratio).abs() < 1e-9);
    }
}
