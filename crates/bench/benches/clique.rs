//! Bench: Lemma 12 — the clique coupon-collector row.
//!
//! Times `C^k(K_n)` estimation across the k ladder. Since `C^k = n·H_n/k`,
//! wall-clock per estimate should *fall* roughly like `1/k` (fewer rounds
//! to simulate) — a useful engine regression canary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrw_core::{Budget, CoverTimeEstimator};
use mrw_graph::generators;

fn bench_clique(c: &mut Criterion) {
    let g = generators::complete_with_loops(256);
    let mut group = c.benchmark_group("lemma12_clique");
    group.sample_size(10);
    for k in [1usize, 4, 16, 64] {
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = Budget {
                trials: 16,
                seed: 2,
                ..Budget::default()
            };
            b.iter(|| CoverTimeEstimator::new(&g, k, cfg.clone()).run_from(0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clique);
criterion_main!(benches);
