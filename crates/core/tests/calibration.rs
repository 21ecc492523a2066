//! Calibration rail: every engine path samples the right law.
//!
//! The byte-identity pins prove that engine paths agree with each other;
//! they cannot see a path that is deterministic but draws from the wrong
//! walk. Here each path estimates a quantity that is known exactly `R`
//! times under independent seeds, and the 95% CIs must cover the exact
//! value at the nominal rate, within a binomial tolerance: at least
//! `0.95·R − 4·sqrt(0.95·0.05·R)` of the `R` intervals. The quantities,
//! all from vertex 0 of small zoo members: cover and partial cover times
//! (`exact_kwalk_partial_cover_time`'s DP), a hitting time
//! (`hitting_times_to`'s linear solve), and the two-walk hitting time
//! `Σ_{t≥0} P(T₁ > t)²` (substochastic evolution of one walk killed at
//! the target).
//!
//! Paths: the scalar loop under both disciplines, and the three batched
//! drivers (regular, flat, rows) forced on with [`BatchMode::Always`].
//! `Session` reaches the rows driver through implicit graphs; on CSR
//! graphs only two-word kernels take it, and `Session` runs hitting
//! queries with one walk only, so those cells drive the [`Engine`]
//! directly. The CSR rows cells use a lazy walk, on an irregular and on
//! a regular graph, whose exact value follows from Wald's identity: each
//! simple-walk move of the `k = 1` walk waits a geometric number of
//! holds, so `E[lazy time] = E[simple time] / (1 − p)` for the cover and
//! partial cover times alike.

use mrw_core::engine::{CompiledProcess, Engine, FullCover, Hit, PartialCover};
use mrw_core::exact::{exact_kwalk_cover_time, exact_kwalk_partial_cover_time};
use mrw_core::query::{Budget, Query, Session};
use mrw_core::{
    fraction_target, walk_rng, BatchMode, Discipline, SimpleStep, WalkProcess, WalkRng,
};
use mrw_graph::{generators, Graph, GraphBackend, ImplicitGraph};
use mrw_spectral::{hitting_times_to, TransitionOp};
use mrw_stats::ci::normal_ci;
use mrw_stats::Summary;

/// Independent estimates per cell.
const R: u64 = 200;
/// Trials per estimate.
const TRIALS: usize = 256;
const SYNC: Discipline = Discipline::RoundSynchronous;

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

/// The mean and 95% half-width of `TRIALS` engine runs seeded from
/// `seed`, each returning its round count.
fn engine_ci(seed: u64, mut rounds_of: impl FnMut(&mut WalkRng) -> u64) -> (f64, f64) {
    let mut rounds = Summary::new();
    for t in 0..TRIALS as u64 {
        rounds.push(rounds_of(&mut walk_rng(seed * TRIALS as u64 + t)) as f64);
    }
    let ci = normal_ci(&rounds, 0.95);
    (ci.point, ci.half_width())
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
    mode: Discipline,
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

/// `Σ_{t≥0} P(T₁ > t)²`: the expected time until the first of two
/// independent walks from vertex 0 hits `to`, where `P(T₁ > t)` is the
/// mass one walk from 0, killed on arrival at `to`, still holds after `t`
/// steps.
fn two_walk_hitting_time(g: &Graph, to: u32) -> f64 {
    let op = TransitionOp::new(g);
    let (mut alive, mut next) = (vec![0.0; g.n()], vec![0.0; g.n()]);
    alive[0] = 1.0;
    let mut total = 0.0;
    loop {
        let survival: f64 = alive.iter().sum();
        if survival < 1e-15 {
            return total;
        }
        total += survival * survival;
        op.step(&alive, &mut next);
        next[to as usize] = 0.0;
        std::mem::swap(&mut alive, &mut next);
    }
}

/// Two walks from `[0, 0]` hitting the last vertex, on `g`'s batched
/// driver through [`Engine`] (`Session` hits with one walk); the exact
/// value comes from the CSR twin `exact_on`.
fn two_walk_hit_cell<G: GraphBackend>(g: &G, exact_on: &Graph) {
    let to = exact_on.n() as u32 - 1;
    let exact = two_walk_hitting_time(exact_on, to);
    assert_calibrated(&format!("{} k=2 Hit", g.name()), exact, |seed| {
        engine_ci(seed, |rng| {
            Engine::new(g, SimpleStep, Hit::new(to))
                .batch(BatchMode::Always)
                .run(&[0, 0], rng)
                .rounds
        })
    });
}

/// The scalar loop under both disciplines.
fn scalar_cells(cell: Cell) {
    let g = generators::barbell(9);
    for mode in [SYNC, Discipline::Interleaved] {
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

/// The rows driver on the implicit backend.
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
fn two_walk_hitting_is_calibrated_on_every_batched_driver() {
    for g in [
        generators::cycle(8),
        generators::torus_2d(3),
        generators::hypercube(3),
        generators::path(6),
        generators::star(7),
        generators::barbell(9),
        generators::lollipop(8),
    ] {
        two_walk_hit_cell(&g, &g);
    }
    two_walk_hit_cell(&ImplicitGraph::cycle(8), &generators::cycle(8));
    two_walk_hit_cell(&ImplicitGraph::torus_2d(3), &generators::torus_2d(3));
}

#[test]
fn rowwise_sweep_is_calibrated() {
    let hold = 0.5;
    for g in [generators::lollipop(8), generators::torus_2d(3)] {
        let exact = exact_kwalk_cover_time(&g, 0, 1) / (1.0 - hold);
        let process = CompiledProcess::new(WalkProcess::Lazy(hold), &g);
        let mut cover = FullCover::new(g.n());
        assert_calibrated(&format!("{} Lazy(0.5) k=1", g.name()), exact, |seed| {
            engine_ci(seed, |rng| {
                cover.reset(g.n());
                Engine::new(&g, process.clone(), &mut cover)
                    .batch(BatchMode::Always)
                    .run(&[0], rng)
                    .rounds
            })
        });
    }
}

#[test]
fn rowwise_partial_cover_is_calibrated() {
    let g = generators::lollipop(8);
    let hold = 0.5;
    let target = fraction_target(g.n(), 0.5);
    let exact = exact_kwalk_partial_cover_time(&g, 0, 1, target) / (1.0 - hold);
    let process = CompiledProcess::new(WalkProcess::Lazy(hold), &g);
    assert_calibrated("lollipop(8) Lazy(0.5) k=1 half cover", exact, |seed| {
        engine_ci(seed, |rng| {
            Engine::new(&g, process.clone(), PartialCover::new(g.n(), target))
                .batch(BatchMode::Always)
                .run(&[0], rng)
                .rounds
        })
    });
}
