//! Bench: regenerating one row of Table 1 per family.
//!
//! Times the full measurement pipeline (graph build → `C` baseline →
//! `C^k` at `k = ⌊ln n⌋`) for each of the paper's seven families at a
//! fixed CI-scale size. The shape itself (who wins, by what factor) is
//! printed by `mrw table1`; this bench tracks the cost of producing it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrw_core::{speedup_sweep, Budget};
use mrw_graph::{generators as gen, Graph};

fn families() -> Vec<(&'static str, Graph)> {
    let mut rng = mrw_core::walk_rng(0x7AB1E);
    vec![
        ("cycle", gen::cycle(144)),
        ("grid2d", gen::torus_2d(12)),
        ("grid3d", gen::torus(&[5, 5, 5])),
        ("hypercube", gen::hypercube(7)),
        ("complete", gen::complete(144)),
        ("expander", gen::random_regular(144, 8, &mut rng).unwrap()),
        ("er", gen::erdos_renyi_connected_regime(144, 3.0, &mut rng)),
    ]
}

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_row");
    group.sample_size(10);
    let cfg = Budget {
        trials: 16,
        seed: 1,
        ..Budget::default()
    };
    for (name, g) in families() {
        let k = ((g.n() as f64).ln().floor() as usize).max(2);
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            b.iter(|| speedup_sweep(g, 0, &[k], &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
