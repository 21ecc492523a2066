//! Calibration rail: every engine path samples the right law.
//!
//! The byte-identity pins prove that engine paths agree with each other;
//! they cannot see a path that is deterministic but draws from the wrong
//! walk. Here each path estimates a cover time that the exact DP knows
//! (`exact_kwalk_cover_time` on small-graph zoo members) `R` times under
//! independent seeds, and the 95% CIs must cover the exact value at the
//! nominal rate, within a binomial tolerance: at least
//! `0.95·R − 4·sqrt(0.95·0.05·R)` of the `R` intervals.
//!
//! Paths: the scalar loop under both disciplines, and the four batched
//! drivers (regular, flat, row-wise, implicit) forced on with
//! [`BatchMode::Always`]. `Session` reaches every path but the row-wise
//! sweep, which only non-uniform kernels take; that cell drives the
//! [`Engine`] directly with a lazy walk, whose exact value follows from
//! Wald's identity: each simple-walk move of the `k = 1` cover waits a
//! geometric number of holds, so `E[lazy cover] = E[cover] / (1 − p)`.

use mrw_core::engine::{CompiledProcess, Engine, FullCover};
use mrw_core::exact::exact_kwalk_cover_time;
use mrw_core::query::{Budget, Query, Session};
use mrw_core::{walk_rng, BatchMode, KWalkMode, WalkProcess};
use mrw_graph::{generators, Graph, GraphBackend, ImplicitGraph};
use mrw_stats::ci::normal_ci;
use mrw_stats::Summary;

/// Independent estimates per cell.
const R: u64 = 200;
/// Trials per estimate.
const TRIALS: usize = 256;

/// Asserts that at least `0.95·R − 4σ` of the `R` intervals
/// `estimate(r) = (mean, half_width)` cover `exact`.
fn assert_calibrated(label: &str, exact: f64, mut estimate: impl FnMut(u64) -> (f64, f64)) {
    let r = R as f64;
    let need = (0.95 * r - 4.0 * (0.0475 * r).sqrt()).ceil() as usize;
    let covers = (0..R)
        .filter(|&seed| {
            let (mean, half_width) = estimate(seed);
            (mean - exact).abs() <= half_width
        })
        .count();
    assert!(
        covers >= need,
        "{label}: {covers}/{R} CIs cover the exact {exact:.4} (need {need})"
    );
}

/// A cover-query cell run through `Session` from vertex 0 of `g`, whose
/// exact value is computed on its CSR twin `exact_on`.
fn session_cell<G: GraphBackend + Sync>(
    g: &G,
    exact_on: &Graph,
    k: usize,
    batch: BatchMode,
    mode: KWalkMode,
) {
    let exact = exact_kwalk_cover_time(exact_on, 0, k);
    let query = Query::Cover { k, starts: vec![0] };
    let label = format!("{} k={k} {batch:?} {mode:?}", g.name());
    assert_calibrated(&label, exact, |seed| {
        let report = Session::new(Budget {
            trials: TRIALS,
            seed,
            threads: 1,
            batch,
            mode,
            ..Budget::default()
        })
        .run(g, &query);
        (report.mean(), report.half_width())
    });
}

#[test]
fn scalar_loop_is_calibrated_under_both_disciplines() {
    let g = generators::barbell(9);
    for mode in [KWalkMode::RoundSynchronous, KWalkMode::Interleaved] {
        for k in [1, 2] {
            session_cell(&g, &g, k, BatchMode::Never, mode);
        }
    }
}

#[test]
fn regular_sweep_is_calibrated() {
    for g in [
        generators::cycle(8),
        generators::torus_2d(3),
        generators::hypercube(3),
    ] {
        session_cell(&g, &g, 2, BatchMode::Always, KWalkMode::RoundSynchronous);
    }
}

#[test]
fn flat_sweep_is_calibrated() {
    for g in [
        generators::path(6),
        generators::star(7),
        generators::barbell(9),
        generators::lollipop(8),
    ] {
        session_cell(&g, &g, 2, BatchMode::Always, KWalkMode::RoundSynchronous);
    }
}

#[test]
fn implicit_sweep_is_calibrated() {
    let pairs = [
        (ImplicitGraph::cycle(8), generators::cycle(8)),
        (ImplicitGraph::torus_2d(3), generators::torus_2d(3)),
    ];
    for (implicit, csr) in &pairs {
        session_cell(
            implicit,
            csr,
            2,
            BatchMode::Always,
            KWalkMode::RoundSynchronous,
        );
    }
}

#[test]
fn rowwise_sweep_is_calibrated() {
    let g = generators::lollipop(8);
    let hold = 0.5;
    let exact = exact_kwalk_cover_time(&g, 0, 1) / (1.0 - hold);
    let process = CompiledProcess::new(WalkProcess::Lazy(hold), &g);
    let mut cover = FullCover::new(g.n());
    assert_calibrated("lollipop(8) Lazy(0.5) k=1", exact, |seed| {
        let mut rounds = Summary::new();
        for t in 0..TRIALS as u64 {
            cover.reset(g.n());
            let out = Engine::new(&g, process.clone(), &mut cover)
                .batch(BatchMode::Always)
                .run(&[0], &mut walk_rng(seed * TRIALS as u64 + t));
            rounds.push(out.rounds as f64);
        }
        let ci = normal_ci(&rounds, 0.95);
        (ci.point, ci.half_width())
    });
}
