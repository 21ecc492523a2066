//! Bench: Theorem 6 — the cycle's Θ(log k) speed-up series.
//!
//! One benchmark per `k` in the ladder; `mrw cycle` prints the series
//! itself. The interesting scaling: `C^k ≈ 2n²/ln k`, so per-trial work
//! shrinks only logarithmically with k while per-round work grows
//! linearly — wall clock is near-flat, unlike the clique bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrw_core::{Budget, CoverTimeEstimator};
use mrw_graph::generators;

fn bench_cycle(c: &mut Criterion) {
    let g = generators::cycle(192);
    let mut group = c.benchmark_group("thm6_cycle");
    group.sample_size(10);
    for k in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = Budget {
                trials: 12,
                seed: 3,
                ..Budget::default()
            };
            b.iter(|| CoverTimeEstimator::new(&g, k, cfg.clone()).run_from(0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cycle);
criterion_main!(benches);
