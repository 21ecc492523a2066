//! Coverage curves: fraction of vertices visited as a function of time.
//!
//! The cover time is the curve's hitting time of 1.0, but the whole curve
//! explains the paper's mechanisms: on the clique it is the smooth coupon-
//! collector saturation; on the barbell with small k it plateaus at ~½
//! (one bell covered, the other starving) before a late second rise; on
//! the cycle with large k all curves collapse onto each other because the
//! walks retread the same ground.

use mrw_graph::{algo, Graph};
use mrw_par::{par_map, SeedSequence};

use crate::engine::{CoverageCurve, Engine, SimpleStep};
use crate::walk::walk_rng;

/// Mean coverage curve over `trials` independent k-walks from `start`
/// (deterministic in `seed`; trials fan out over `threads`):
/// `curve[t]` is the mean fraction of vertices visited after `t` rounds
/// (index 0 = after placing the starts).
pub fn mean_coverage_curve(
    g: &Graph,
    start: u32,
    k: usize,
    rounds: usize,
    trials: usize,
    seed: u64,
    threads: usize,
) -> Vec<f64> {
    assert!(k >= 1 && trials >= 1);
    debug_assert!(algo::is_connected(g), "coverage of a disconnected graph");
    let seq = SeedSequence::new(seed).child(0xC0FE);
    let starts = vec![start; k];
    let curves: Vec<Vec<f64>> = par_map(trials, threads, |t| {
        let mut rng = walk_rng(seq.seed_for(t as u64));
        Engine::new(g, SimpleStep, CoverageCurve::new(g.n(), rounds))
            .cap(rounds as u64)
            .run(&starts, &mut rng)
            .observer
            .into_curve()
    });
    let mut mean = vec![0.0; rounds + 1];
    for curve in &curves {
        for (m, c) in mean.iter_mut().zip(curve) {
            *m += c;
        }
    }
    for m in mean.iter_mut() {
        *m /= trials as f64;
    }
    mean
}

/// First round at which the mean curve reaches `fraction`
/// (`None` if it never does within the horizon).
pub fn rounds_to_fraction(curve: &[f64], fraction: f64) -> Option<usize> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    curve.iter().position(|&c| c >= fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_graph::generators;

    #[test]
    fn curve_is_monotone_and_bounded() {
        let g = generators::torus_2d(6);
        let mut rng = walk_rng(1);
        let curve = Engine::new(&g, SimpleStep, CoverageCurve::new(g.n(), 500))
            .cap(500)
            .run(&[0, 0, 0, 0], &mut rng)
            .observer
            .into_curve();
        assert_eq!(curve.len(), 501);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0], "coverage decreased");
        }
        assert!(curve[0] > 0.0 && curve[0] < 0.1);
        assert!(*curve.last().unwrap() <= 1.0);
    }

    #[test]
    fn full_coverage_reached_on_small_graph() {
        let g = generators::complete(16);
        let curve = mean_coverage_curve(&g, 0, 4, 200, 16, 3, 2);
        assert!((curve.last().unwrap() - 1.0).abs() < 1e-9);
        let t90 = rounds_to_fraction(&curve, 0.9).unwrap();
        let t50 = rounds_to_fraction(&curve, 0.5).unwrap();
        assert!(t90 >= t50);
    }

    #[test]
    fn more_walks_cover_faster_at_fixed_round() {
        let g = generators::torus_2d(8);
        let c1 = mean_coverage_curve(&g, 0, 1, 100, 32, 5, 4);
        let c8 = mean_coverage_curve(&g, 0, 8, 100, 32, 5, 4);
        assert!(
            c8[50] > c1[50] + 0.1,
            "k=8 coverage {} vs k=1 {} at round 50",
            c8[50],
            c1[50]
        );
    }

    #[test]
    fn barbell_small_k_plateaus_at_half() {
        // One walk from the center: by the time one bell is covered the
        // other is (usually) untouched — coverage sits near 0.5 for a
        // long stretch.
        let n = 65;
        let g = generators::barbell(n);
        let vc = generators::barbell_center(n);
        let horizon = 800; // ≪ Θ(n²) escape time
        let curve = mean_coverage_curve(&g, vc, 1, horizon, 48, 7, 4);
        let mid = curve[horizon];
        assert!(
            mid > 0.35 && mid < 0.75,
            "expected ~half coverage plateau, got {mid}"
        );
    }

    #[test]
    fn deterministic() {
        let g = generators::cycle(32);
        let a = mean_coverage_curve(&g, 0, 2, 50, 8, 9, 1);
        let b = mean_coverage_curve(&g, 0, 2, 50, 8, 9, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn rounds_to_fraction_edge_cases() {
        let curve = vec![0.1, 0.5, 0.9, 1.0];
        assert_eq!(rounds_to_fraction(&curve, 0.0), Some(0));
        assert_eq!(rounds_to_fraction(&curve, 0.5), Some(1));
        assert_eq!(rounds_to_fraction(&curve, 1.0), Some(3));
        let partial = vec![0.1, 0.2];
        assert_eq!(rounds_to_fraction(&partial, 0.99), None);
    }
}
