//! Speed-up measurement: `S^k(G) = C(G) / C^k(G)` (Definition 2).
//!
//! A sweep fixes the graph and start vertex, estimates `C^1` once, then
//! estimates `C^k` for each `k` in a ladder, reporting the ratio with
//! delta-method error bars, all under one [`Budget`]. The sweep is the
//! workhorse behind Table 1's speed-up column and the Theorem 6/8/18
//! experiments.

use mrw_graph::Graph;
use mrw_stats::ci::{ratio_ci, ConfidenceInterval};

use crate::estimator::CoverEstimate;
use crate::query::{Budget, Query, Report, Session};

/// One point of a speed-up sweep.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Number of parallel walks.
    pub k: usize,
    /// The k-walk cover estimate.
    pub cover: CoverEstimate,
    /// `S^k = C^1 / C^k` with a delta-method CI.
    pub speedup: ConfidenceInterval,
}

/// A full sweep over `k` values from one start.
#[derive(Debug, Clone)]
pub struct SpeedupSweep {
    /// Graph name (for tables).
    pub graph: String,
    /// Start vertex.
    pub start: u32,
    /// The single-walk baseline `C^1`.
    pub baseline: CoverEstimate,
    /// One point per requested `k`.
    pub points: Vec<SpeedupPoint>,
}

impl SpeedupSweep {
    /// The measured speed-up at `k`, if `k` was in the sweep.
    pub fn speedup_at(&self, k: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.k == k)
            .map(|p| p.speedup.point)
    }

    /// `(k, S^k)` pairs for fitting.
    pub fn series(&self) -> (Vec<f64>, Vec<f64>) {
        let ks = self.points.iter().map(|p| p.k as f64).collect();
        let ss = self.points.iter().map(|p| p.speedup.point).collect();
        (ks, ss)
    }
}

/// Runs a speed-up sweep on `g` from `start` over the walk counts `ks` —
/// one [`Query::SpeedupLadder`] through [`Session::run`] under `budget`,
/// viewed as typed rows.
///
/// `k = 1` need not be in `ks`; the baseline is always estimated. Each `k`
/// draws an independent seed stream, so adding a point to the ladder
/// never perturbs the others.
pub fn speedup_sweep(g: &Graph, start: u32, ks: &[usize], budget: &Budget) -> SpeedupSweep {
    let report = Session::new(budget.clone()).run(
        g,
        &Query::SpeedupLadder {
            start,
            ks: ks.to_vec(),
        },
    );
    SpeedupSweep::from_report(&report)
}

impl SpeedupSweep {
    /// Builds the typed sweep view over a
    /// [`Query::SpeedupLadder`] report: group 0 is the `k = 1` baseline,
    /// group `i + 1` the `ks[i]` rung, with delta-method ratio CIs
    /// derived from the groups' exact statistics.
    ///
    /// # Panics
    /// If the report is for a different query kind.
    pub fn from_report(report: &Report) -> SpeedupSweep {
        let (start, ks) = match &report.query {
            Query::SpeedupLadder { start, ks } => (*start, ks),
            other => panic!("not a speed-up report: {}", other.kind()),
        };
        let level = report.confidence();
        let baseline = CoverEstimate::from_group(1, start, report.groups[0].clone(), level);
        let points = ks
            .iter()
            .zip(&report.groups[1..])
            .map(|(&k, group)| {
                let cover = CoverEstimate::from_group(k, start, group.clone(), level);
                let speedup = ratio_ci(&baseline.cover_time(), &cover.cover_time(), level);
                SpeedupPoint { k, cover, speedup }
            })
            .collect();
        SpeedupSweep {
            graph: report.graph.name.clone(),
            start,
            baseline,
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_graph::generators;

    #[test]
    fn speedup_at_k1_is_one_ish() {
        let g = generators::torus_2d(5);
        let sweep = speedup_sweep(
            &g,
            0,
            &[1],
            &Budget {
                trials: 128,
                seed: 3,
                ..Budget::default()
            },
        );
        let s1 = sweep.speedup_at(1).unwrap();
        assert!(
            (s1 - 1.0).abs() < 0.25,
            "S^1 = {s1} should be ≈ 1 (independent streams, same distribution)"
        );
    }

    #[test]
    fn clique_speedup_linear() {
        // Lemma 12: S^k = k on the clique (up to rounding).
        let g = generators::complete_with_loops(32);
        let sweep = speedup_sweep(
            &g,
            0,
            &[2, 4, 8],
            &Budget {
                trials: 300,
                seed: 17,
                ..Budget::default()
            },
        );
        for p in &sweep.points {
            let rel = (p.speedup.point - p.k as f64).abs() / p.k as f64;
            assert!(
                rel < 0.25,
                "clique S^{} = {} — expected ≈ {}",
                p.k,
                p.speedup.point,
                p.k
            );
        }
    }

    #[test]
    fn cycle_speedup_sublinear() {
        // Theorem 6: S^k = Θ(log k) ≪ k already for moderate k.
        let g = generators::cycle(64);
        let sweep = speedup_sweep(
            &g,
            0,
            &[16],
            &Budget {
                trials: 200,
                seed: 23,
                ..Budget::default()
            },
        );
        let s16 = sweep.speedup_at(16).unwrap();
        assert!(s16 < 9.0, "cycle S^16 = {s16} suspiciously close to linear");
        assert!(s16 > 1.2, "cycle S^16 = {s16} — no speed-up at all?");
    }

    #[test]
    fn series_shape() {
        let g = generators::complete(16);
        let sweep = speedup_sweep(
            &g,
            0,
            &[1, 2, 4],
            &Budget {
                trials: 32,
                seed: 0,
                ..Budget::default()
            },
        );
        let (ks, ss) = sweep.series();
        assert_eq!(ks, vec![1.0, 2.0, 4.0]);
        assert_eq!(ss.len(), 3);
        assert!(sweep.speedup_at(3).is_none());
    }

    #[test]
    fn deterministic() {
        let g = generators::cycle(32);
        let cfg = Budget {
            trials: 32,
            seed: 5,
            ..Budget::default()
        };
        let a = speedup_sweep(&g, 0, &[2, 4], &cfg);
        let b = speedup_sweep(&g, 0, &[2, 4], &cfg);
        assert_eq!(a.speedup_at(4), b.speedup_at(4));
        assert_eq!(a.baseline.mean(), b.baseline.mean());
    }
}
