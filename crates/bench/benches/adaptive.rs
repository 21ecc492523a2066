//! Bench: adaptive (precision-targeted) vs fixed trial budgets.
//!
//! Measures what sequential stopping buys and what it costs:
//!
//! * `adaptive_vs_fixed` — an easy instance (small cycle) estimated to a
//!   ±10% relative half-width against a fixed budget the size of the
//!   adaptive cap. The adaptive run should finish in a small fraction of
//!   the fixed run's time — that ratio *is* the feature.
//! * `wave_overhead` — the same consumed trial count spent through the
//!   flat fan-out vs the wave driver (`mrw_core::query::waves`, one
//!   `par_map_with` per window), so the per-window dispatch +
//!   rule-evaluation overhead stays visible and bounded.

use criterion::{criterion_group, criterion_main, Criterion};
use mrw_core::{Budget, CoverTimeEstimator, Precision};
use mrw_graph::generators;

fn bench_adaptive_vs_fixed(c: &mut Criterion) {
    let g = generators::cycle(64);
    let mut group = c.benchmark_group("adaptive_vs_fixed");
    group.sample_size(10);

    let rule = Precision::relative(0.10).with_max_trials(4096);
    group.bench_function("adaptive_rel10pct", |b| {
        let cfg = Budget {
            precision: Some(rule),
            seed: 3,
            ..Budget::default()
        };
        b.iter(|| CoverTimeEstimator::new(&g, 4, cfg.clone()).run_from(0))
    });
    group.bench_function("fixed_at_cap", |b| {
        let cfg = Budget {
            trials: 4096,
            seed: 3,
            ..Budget::default()
        };
        b.iter(|| CoverTimeEstimator::new(&g, 4, cfg.clone()).run_from(0))
    });
    group.finish();
}

fn bench_wave_overhead(c: &mut Criterion) {
    let g = generators::cycle(64);
    // Pin the adaptive consumed count once, then time a fixed budget of
    // exactly that size through both fan-out paths.
    let rule = Precision::relative(0.10).with_max_trials(4096);
    let consumed = CoverTimeEstimator::new(
        &g,
        4,
        Budget {
            precision: Some(rule),
            seed: 3,
            ..Budget::default()
        },
    )
    .run_from(0)
    .consumed_trials() as usize;

    let mut group = c.benchmark_group("wave_overhead");
    group.sample_size(10);
    group.bench_function(format!("flat_{consumed}_trials"), |b| {
        let cfg = Budget {
            trials: consumed,
            seed: 3,
            ..Budget::default()
        };
        b.iter(|| CoverTimeEstimator::new(&g, 4, cfg.clone()).run_from(0))
    });
    group.bench_function(format!("waves_to_{consumed}_trials"), |b| {
        // An absolute rule no cover-time sample can satisfy, capped at the
        // same consumed count: forces the wave path to run cap trials.
        let hopeless = Precision::absolute(1e-9)
            .with_min_trials(2)
            .with_max_trials(consumed);
        let cfg = Budget {
            precision: Some(hopeless),
            seed: 3,
            ..Budget::default()
        };
        b.iter(|| CoverTimeEstimator::new(&g, 4, cfg.clone()).run_from(0))
    });
    group.finish();
}

criterion_group!(benches, bench_adaptive_vs_fixed, bench_wave_overhead);
criterion_main!(benches);
