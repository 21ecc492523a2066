//! Reproducibility contract: everything is a pure function of its seed.
//!
//! The repro story of this repository depends on estimates being identical
//! across runs, thread counts, and unrelated configuration changes. These
//! tests pin that contract at the integration level.

use many_walks::graph::generators;
use many_walks::walks::{speedup_sweep, Budget, CoverTimeEstimator};

#[test]
fn estimates_identical_across_thread_counts() {
    let g = generators::torus_2d(8);
    let run = |threads: usize| {
        CoverTimeEstimator::new(
            &g,
            4,
            Budget {
                trials: 32,
                seed: 11,
                threads,
                ..Budget::default()
            },
        )
        .run_from(0)
    };
    let base = run(1);
    for threads in [2, 3, 8, 13] {
        let est = run(threads);
        assert_eq!(
            est.cover_time().mean(),
            base.cover_time().mean(),
            "threads={threads}"
        );
        assert_eq!(est.cover_time().variance(), base.cover_time().variance());
        assert_eq!(est.cover_time().min(), base.cover_time().min());
        assert_eq!(est.cover_time().max(), base.cover_time().max());
    }
}

#[test]
fn sweeps_identical_across_runs() {
    let g = generators::cycle(48);
    let cfg = Budget {
        trials: 24,
        seed: 12,
        ..Budget::default()
    };
    let a = speedup_sweep(&g, 0, &[2, 8], &cfg);
    let b = speedup_sweep(&g, 0, &[2, 8], &cfg);
    assert_eq!(a.baseline.mean(), b.baseline.mean());
    assert_eq!(a.speedup_at(2), b.speedup_at(2));
    assert_eq!(a.speedup_at(8), b.speedup_at(8));
}

#[test]
fn adding_a_k_point_does_not_perturb_others() {
    // Per-k child seeds: the k=8 estimate must not depend on whether k=2
    // was also measured.
    let g = generators::cycle(48);
    let cfg = Budget {
        trials: 24,
        seed: 13,
        ..Budget::default()
    };
    let with_two = speedup_sweep(&g, 0, &[2, 8], &cfg);
    let alone = speedup_sweep(&g, 0, &[8], &cfg);
    assert_eq!(with_two.speedup_at(8), alone.speedup_at(8));
}

#[test]
fn different_seeds_differ() {
    let g = generators::cycle(48);
    let a = CoverTimeEstimator::new(
        &g,
        1,
        Budget {
            trials: 16,
            seed: 1,
            ..Budget::default()
        },
    )
    .run_from(0);
    let b = CoverTimeEstimator::new(
        &g,
        1,
        Budget {
            trials: 16,
            seed: 2,
            ..Budget::default()
        },
    )
    .run_from(0);
    assert_ne!(a.cover_time().mean(), b.cover_time().mean());
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
    use many_walks::walks::experiments::{clique, Budget};
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
