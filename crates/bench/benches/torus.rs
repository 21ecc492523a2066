//! Bench: Theorem 8 — the 2-d torus speed-up spectrum.
//!
//! Probes the low regime (`k ≤ log n`), the gap, and the saturated regime
//! (`k ≥ log³ n`). `mrw torus` prints the S^k/k series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrw_core::{Budget, CoverTimeEstimator};
use mrw_graph::generators;

fn bench_torus(c: &mut Criterion) {
    let g = generators::torus_2d(16); // n = 256
    let mut group = c.benchmark_group("thm8_torus_spectrum");
    group.sample_size(10);
    for k in [2usize, 32, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = Budget {
                trials: 12,
                seed: 5,
                ..Budget::default()
            };
            b.iter(|| CoverTimeEstimator::new(&g, k, cfg.clone()).run_from(0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_torus);
criterion_main!(benches);
