//! Reproducibility contract: everything is a pure function of its seed.
//!
//! The repro story of this repository depends on estimates being identical
//! across runs, thread counts, and unrelated configuration changes. These
//! tests pin that contract at the integration level.

use many_walks::graph::{generators, Graph};
use many_walks::walks::{Budget, Query, Report, Session};

/// A fixed-budget run of `query` on `g`.
fn run(g: &Graph, query: &Query, trials: usize, seed: u64, threads: usize) -> Report {
    let budget = Budget {
        trials,
        seed,
        threads,
        ..Budget::default()
    };
    Session::new(budget).run(g, query)
}

fn ladder(ks: &[usize]) -> Query {
    Query::SpeedupLadder {
        start: 0,
        ks: ks.to_vec(),
    }
}

#[test]
fn estimates_identical_across_thread_counts() {
    let g = generators::torus_2d(8);
    let q = Query::Cover {
        k: 4,
        starts: vec![0],
    };
    let base = run(&g, &q, 32, 11, 1);
    for threads in [2, 3, 8, 13] {
        let est = run(&g, &q, 32, 11, threads);
        assert_eq!(est.groups, base.groups, "threads={threads}");
    }
}

#[test]
fn sweeps_identical_across_runs() {
    let g = generators::cycle(48);
    let a = run(&g, &ladder(&[2, 8]), 24, 12, 1);
    let b = run(&g, &ladder(&[2, 8]), 24, 12, 1);
    assert_eq!(a, b);
    assert_eq!(a.speedups(), b.speedups());
}

#[test]
fn adding_a_k_point_does_not_perturb_others() {
    // Per-k child seeds: the k=8 estimate must not depend on whether k=2
    // was also measured.
    let g = generators::cycle(48);
    let with_two = run(&g, &ladder(&[2, 8]), 24, 13, 1);
    let alone = run(&g, &ladder(&[8]), 24, 13, 1);
    assert_eq!(with_two.speedups()[1], alone.speedups()[0]);
}

#[test]
fn different_seeds_differ() {
    let g = generators::cycle(48);
    let q = Query::Cover {
        k: 1,
        starts: vec![0],
    };
    let a = run(&g, &q, 16, 1, 1);
    let b = run(&g, &q, 16, 2, 1);
    assert_ne!(a.mean(), b.mean());
}

#[test]
fn random_graphs_reproducible_from_seed() {
    let mut r1 = many_walks::walks::walk_rng(77);
    let mut r2 = many_walks::walks::walk_rng(77);
    let g1 = generators::erdos_renyi(200, 0.05, &mut r1);
    let g2 = generators::erdos_renyi(200, 0.05, &mut r2);
    assert_eq!(g1, g2);
    let e1 = generators::random_regular(100, 6, &mut r1).unwrap();
    let e2 = generators::random_regular(100, 6, &mut r2).unwrap();
    assert_eq!(e1, e2);
}

#[test]
fn experiment_reports_reproducible() {
    use many_walks::walks::experiments::clique;
    use many_walks::walks::Budget;
    let mk = || {
        let mut cfg = clique::Config::quick();
        cfg.budget = Budget {
            trials: 16,
            seed: 21,
            threads: 4,
            ..Budget::default()
        };
        clique::run(&cfg)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.worst_linearity_error(), b.worst_linearity_error());
    assert_eq!(a.table().render_csv(), b.table().render_csv());
}
