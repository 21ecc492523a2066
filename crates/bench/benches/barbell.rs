//! Bench: Theorems 7/26 + Figure 1 — the barbell's exponential speed-up.
//!
//! The 1-walk estimate simulates Θ(n²) steps per trial; the k = 20 ln n
//! estimate only Θ(n·k). The wall-clock gap between the two benchmarks *is*
//! the exponential speed-up, measured in seconds instead of rounds.

use criterion::{criterion_group, criterion_main, Criterion};
use mrw_core::{bounds, Budget, CoverTimeEstimator};
use mrw_graph::generators::{barbell, barbell_center};

fn bench_barbell(c: &mut Criterion) {
    let n = 129;
    let g = barbell(n);
    let vc = barbell_center(n);
    let k = bounds::barbell_k(n as u64) as usize;
    let mut group = c.benchmark_group("thm7_barbell");
    group.sample_size(10);
    group.bench_function("single_walk_from_center", |b| {
        let cfg = Budget {
            trials: 8,
            seed: 4,
            ..Budget::default()
        };
        b.iter(|| CoverTimeEstimator::new(&g, 1, cfg.clone()).run_from(vc))
    });
    group.bench_function("20ln_n_walks_from_center", |b| {
        let cfg = Budget {
            trials: 8,
            seed: 4,
            ..Budget::default()
        };
        b.iter(|| CoverTimeEstimator::new(&g, k, cfg.clone()).run_from(vc))
    });
    group.finish();
}

criterion_group!(benches, bench_barbell);
criterion_main!(benches);
