//! Bench: Theorems 3/18 — expander linear speed-up, plus the spectral
//! certification step (power iteration) the experiment runs first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrw_core::{Budget, CoverTimeEstimator};
use mrw_graph::generators;
use mrw_spectral::power::second_eigenvalue_regular;

fn bench_expander(c: &mut Criterion) {
    let mut rng = mrw_core::walk_rng(6);
    let g = generators::random_regular(256, 8, &mut rng).unwrap();
    let mut group = c.benchmark_group("thm18_expander");
    group.sample_size(10);
    group.bench_function("certify_lambda_power_iteration", |b| {
        b.iter(|| second_eigenvalue_regular(&g, 500))
    });
    for k in [1usize, 16, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = Budget {
                trials: 12,
                seed: 6,
                ..Budget::default()
            };
            b.iter(|| CoverTimeEstimator::new(&g, k, cfg.clone()).run_from(0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_expander);
criterion_main!(benches);
