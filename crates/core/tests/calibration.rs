//! Calibration rail: every engine path samples the right law.
//!
//! The byte-identity pins prove that engine paths agree with each other;
//! they cannot see a path that is deterministic but draws from the wrong
//! walk. Here each path estimates a quantity that is known exactly `R`
//! times under independent seeds, and the 95% CIs must cover the exact
//! value at the nominal rate, within a binomial tolerance: at least
//! `0.95·R − 4·sqrt(0.95·0.05·R)` of the `R` intervals. The quantities,
//! all from vertex 0 of small zoo members: cover and partial cover times
//! (`exact_kwalk_partial_cover_time`'s DP) and a hitting time
//! (`hitting_times_to`'s linear solve).
//!
//! Paths: the scalar loop under both disciplines, and the four batched
//! drivers (regular, flat, row-wise, implicit) forced on with
//! [`BatchMode::Always`]. `Session` reaches every path but the row-wise
//! sweep, which only non-uniform kernels take; that cell drives the
//! [`Engine`] directly with a lazy walk, whose exact value follows from
//! Wald's identity: each simple-walk move of the `k = 1` cover waits a
//! geometric number of holds, so `E[lazy cover] = E[cover] / (1 − p)`.

use mrw_core::engine::{CompiledProcess, Engine, FullCover};
use mrw_core::exact::{exact_kwalk_cover_time, exact_kwalk_partial_cover_time};
use mrw_core::query::{Budget, Query, Session};
use mrw_core::{fraction_target, walk_rng, BatchMode, KWalkMode, WalkProcess};
use mrw_graph::{generators, Graph, GraphBackend, ImplicitGraph};
use mrw_spectral::hitting_times_to;
use mrw_stats::ci::normal_ci;
use mrw_stats::Summary;

/// Independent estimates per cell.
const R: u64 = 200;
/// Trials per estimate.
const TRIALS: usize = 256;
const SYNC: KWalkMode = KWalkMode::RoundSynchronous;

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

/// What a cell estimates from vertex 0.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// The `k`-walk cover time.
    Cover(usize),
    /// The two-walk partial cover time to half the vertices.
    HalfCover,
    /// The hitting time of the last vertex, capped far above it.
    HitLast,
}

impl Cell {
    /// The cell's query and its exact value on `g`.
    fn query(self, g: &Graph) -> (Query, f64) {
        match self {
            Cell::Cover(k) => {
                let exact = exact_kwalk_cover_time(g, 0, k);
                (Query::Cover { k, starts: vec![0] }, exact)
            }
            Cell::HalfCover => {
                let exact = exact_kwalk_partial_cover_time(g, 0, 2, fraction_target(g.n(), 0.5));
                let query = Query::PartialCover {
                    k: 2,
                    start: 0,
                    gammas: vec![0.5],
                };
                (query, exact)
            }
            Cell::HitLast => {
                let to = g.n() as u32 - 1;
                let exact = hitting_times_to(g, to)[0];
                let query = Query::Hitting {
                    from: 0,
                    to,
                    cap: 1 << 20,
                };
                (query, exact)
            }
        }
    }
}

/// A cell run through `Session` on `g`, whose exact value is computed on
/// its CSR twin `exact_on`.
fn session_cell<G: GraphBackend + Sync>(
    g: &G,
    exact_on: &Graph,
    cell: Cell,
    batch: BatchMode,
    mode: KWalkMode,
) {
    let (query, exact) = cell.query(exact_on);
    let label = format!("{} {cell:?} {batch:?} {mode:?}", g.name());
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

/// The scalar loop under both disciplines.
fn scalar_cells(cell: Cell) {
    let g = generators::barbell(9);
    for mode in [SYNC, KWalkMode::Interleaved] {
        session_cell(&g, &g, cell, BatchMode::Never, mode);
    }
}

/// The regular-CSR sweep.
fn regular_cells(cell: Cell) {
    for g in [
        generators::cycle(8),
        generators::torus_2d(3),
        generators::hypercube(3),
    ] {
        session_cell(&g, &g, cell, BatchMode::Always, SYNC);
    }
}

/// The flat pick-table sweep over irregular CSR graphs.
fn flat_cells(cell: Cell) {
    for g in [
        generators::path(6),
        generators::star(7),
        generators::barbell(9),
        generators::lollipop(8),
    ] {
        session_cell(&g, &g, cell, BatchMode::Always, SYNC);
    }
}

/// The implicit-backend sweep.
fn implicit_cells(cell: Cell) {
    let pairs = [
        (ImplicitGraph::cycle(8), generators::cycle(8)),
        (ImplicitGraph::torus_2d(3), generators::torus_2d(3)),
    ];
    for (implicit, csr) in &pairs {
        session_cell(implicit, csr, cell, BatchMode::Always, SYNC);
    }
}

#[test]
fn scalar_loop_is_calibrated_under_both_disciplines() {
    for k in [1, 2] {
        scalar_cells(Cell::Cover(k));
    }
}

#[test]
fn regular_sweep_is_calibrated() {
    regular_cells(Cell::Cover(2));
}

#[test]
fn flat_sweep_is_calibrated() {
    flat_cells(Cell::Cover(2));
}

#[test]
fn implicit_sweep_is_calibrated() {
    implicit_cells(Cell::Cover(2));
}

#[test]
fn partial_cover_is_calibrated_on_every_session_path() {
    for path in [scalar_cells, regular_cells, flat_cells, implicit_cells] {
        path(Cell::HalfCover);
    }
}

#[test]
fn hitting_is_calibrated_on_every_session_path() {
    for path in [scalar_cells, regular_cells, flat_cells, implicit_cells] {
        path(Cell::HitLast);
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
