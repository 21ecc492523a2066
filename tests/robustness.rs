//! Failure-injection tests: every documented panic contract in the
//! public API, exercised across crates.
//!
//! Random-walk code fails *silently* when preconditions slip (a walk on a
//! disconnected graph spins forever; an out-of-range start indexes into
//! the wrong adjacency row), so the library's contract is to reject loudly
//! at the boundary. These tests pin the panics — and, just as important,
//! pin the *messages*, which are part of the API surface a user debugs by.

use many_walks::graph::{generators, GraphBuilder};
use many_walks::spectral;
use many_walks::walks::engine::{FullCover, Hit, Multicover, PartialCover, Pursuit};
use many_walks::walks::{
    self, walk_rng, Budget, Discipline, Engine, PreyStrategy, Query, Session, SimpleStep,
    WalkProcess,
};

fn disconnected() -> many_walks::graph::Graph {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1);
    b.add_edge(2, 3);
    b.build("two-islands")
}

#[test]
#[should_panic(expected = "out of range")]
fn cover_start_out_of_range() {
    let g = generators::cycle(5);
    Engine::new(&g, SimpleStep, FullCover::new(g.n())).run(&[5], &mut walk_rng(0));
}

#[test]
#[should_panic(expected = "at least one walk")]
fn kwalk_empty_starts() {
    let g = generators::cycle(5);
    Engine::new(&g, SimpleStep, FullCover::new(g.n())).run(&[], &mut walk_rng(0));
}

#[test]
#[should_panic(expected = "disconnected")]
fn exact_dp_rejects_disconnected() {
    many_walks::walks::exact::exact_kwalk_cover_time(&disconnected(), 0, 1);
}

#[test]
#[should_panic(expected = "exceeds n")]
fn partial_cover_target_too_large() {
    let g = generators::cycle(5);
    Engine::new(&g, SimpleStep, PartialCover::new(g.n(), 6)).run(&[0], &mut walk_rng(0));
}

#[test]
#[should_panic(expected = "not in (0,1]")]
fn fraction_target_rejects_zero() {
    walks::fraction_target(10, 0.0);
}

#[test]
#[should_panic(expected = "not in [0,1)")]
fn lazy_process_rejects_p_one() {
    let g = generators::cycle(5);
    WalkProcess::Lazy(1.0).step(&g, 0, &mut walk_rng(0));
}

#[test]
#[should_panic(expected = "b ≥ 1")]
fn multicover_rejects_zero_visits() {
    let g = generators::cycle(5);
    Engine::new(&g, SimpleStep, Multicover::new(g.n(), 0)).run(&[0], &mut walk_rng(0));
}

/// One fixed-budget trial of a pursuit query on `g`.
fn pursuit_trial(g: &many_walks::graph::Graph, ks: Vec<usize>, prey: u32) {
    let query = Query::Pursuit {
        ks,
        hunters: 0,
        prey,
        strategy: PreyStrategy::Hide,
        cap: 10,
    };
    Session::new(Budget {
        trials: 1,
        seed: 0,
        ..Budget::default()
    })
    .run(g, &query);
}

#[test]
#[should_panic(expected = "prey 9 out of range")]
fn pursuit_prey_out_of_range() {
    pursuit_trial(&generators::cycle(5), vec![1], 9);
}

#[test]
#[should_panic(expected = "at least one hunter")]
fn pursuit_no_hunters() {
    pursuit_trial(&generators::cycle(5), vec![0], 1);
}

#[test]
#[should_panic(expected = "isolated")]
fn walk_spectrum_rejects_isolated_vertex() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1);
    spectral::walk_spectrum(&b.build("isolated-2"));
}

#[test]
#[should_panic(expected = "symmetric")]
fn jacobi_rejects_asymmetric_matrix() {
    let mut a = spectral::DenseMatrix::zeros(2, 2);
    a[(0, 1)] = 1.0;
    spectral::jacobi_eigen(&a);
}

#[test]
#[should_panic(expected = "nonempty")]
fn ks_empty_rejected() {
    many_walks::stats::ks_two_sample(&[], &[1.0]);
}

#[test]
#[should_panic(expected = "odd")]
fn barbell_even_size_rejected() {
    generators::barbell(12);
}

#[test]
#[should_panic(expected = "even")]
fn watts_strogatz_odd_degree_rejected() {
    generators::watts_strogatz(10, 3, 0.1, &mut walk_rng(0));
}

#[test]
#[should_panic(expected = "attach")]
fn barabasi_albert_undersized_rejected() {
    generators::barabasi_albert(2, 3, &mut walk_rng(0));
}

#[test]
#[should_panic(expected = "at least 4")]
fn wheel_too_small_rejected() {
    generators::wheel(3);
}

// Non-panic robustness: estimators degrade loudly (None / explicit
// report), never silently.

#[test]
fn hit_cap_returns_none_not_hang() {
    let g = generators::cycle(1024);
    let out = Engine::new(&g, SimpleStep, Hit::new(512))
        .cap(10)
        .run(&[0], &mut walk_rng(0));
    assert!(!out.stopped);
}

#[test]
fn pursuit_cap_returns_none_not_hang() {
    let g = generators::cycle(1024);
    let out = Engine::new(&g, SimpleStep, Pursuit::new(512, PreyStrategy::Hide))
        .cap(10)
        .run(&[0], &mut walk_rng(0));
    assert!(!out.stopped);
}

#[test]
fn estimator_single_trial_has_degenerate_but_finite_ci() {
    let g = generators::cycle(8);
    let report = Session::new(Budget {
        trials: 1,
        seed: 3,
        ..Budget::default()
    })
    .run(
        &g,
        &Query::Cover {
            k: 1,
            starts: vec![0],
        },
    );
    assert!(report.mean().is_finite());
}

#[test]
fn singleton_graph_is_covered_at_birth() {
    let g = generators::path(1);
    let cover = |starts: &[u32], discipline| {
        Engine::new(&g, SimpleStep, FullCover::new(g.n()))
            .discipline(discipline)
            .run(starts, &mut walk_rng(0))
            .rounds
    };
    assert_eq!(cover(&[0], Discipline::RoundSynchronous), 0);
    assert_eq!(cover(&[0, 0], Discipline::Interleaved), 0);
}
