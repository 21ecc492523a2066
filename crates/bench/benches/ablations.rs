//! Ablation benches for the design choices called out in DESIGN.md §4:
//!
//! 1. round-synchronous vs interleaved k-walk stepping,
//! 2. bitset vs byte-array visited sets,
//! 3. masked vs `gen_range` neighbor sampling on power-of-two degrees,
//! 4. dynamic self-scheduling vs static chunking of the trial fan-out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrw_core::kwalk::{kwalk_cover_rounds_same_start, KWalkMode};
use mrw_core::{walk_rng, Budget, CoverTimeEstimator};
use mrw_graph::{generators, Graph, NodeBitSet};
use rand::Rng;

fn bench_stepping_mode(c: &mut Criterion) {
    let g = generators::torus_2d(16);
    let mut group = c.benchmark_group("ablation_stepping");
    group.sample_size(10);
    for (label, mode) in [
        ("round_synchronous", KWalkMode::RoundSynchronous),
        ("interleaved", KWalkMode::Interleaved),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            b.iter(|| {
                let mut rng = walk_rng(11);
                kwalk_cover_rounds_same_start(&g, 0, 8, mode, &mut rng)
            })
        });
    }
    group.finish();
}

/// The production cover loop, but with `Vec<u8>` instead of the bitset —
/// the alternative DESIGN.md §4.2 rejects.
fn cover_bytearray(g: &Graph, start: u32, rng: &mut impl Rng) -> u64 {
    let mut visited = vec![0u8; g.n()];
    visited[start as usize] = 1;
    let mut remaining = g.n() - 1;
    let mut pos = start;
    let mut steps = 0u64;
    while remaining > 0 {
        pos = mrw_core::walk::step(g, pos, rng);
        steps += 1;
        if visited[pos as usize] == 0 {
            visited[pos as usize] = 1;
            remaining -= 1;
        }
    }
    steps
}

fn cover_bitset(g: &Graph, start: u32, rng: &mut impl Rng) -> u64 {
    let mut visited = NodeBitSet::new(g.n());
    visited.insert(start);
    let mut remaining = g.n() - 1;
    let mut pos = start;
    let mut steps = 0u64;
    while remaining > 0 {
        pos = mrw_core::walk::step(g, pos, rng);
        steps += 1;
        if visited.insert(pos) {
            remaining -= 1;
        }
    }
    steps
}

fn bench_visited_repr(c: &mut Criterion) {
    let g = generators::torus_2d(32);
    let mut group = c.benchmark_group("ablation_visited");
    group.sample_size(10);
    group.bench_function("bitset", |b| {
        b.iter(|| cover_bitset(&g, 0, &mut walk_rng(12)))
    });
    group.bench_function("byte_array", |b| {
        b.iter(|| cover_bytearray(&g, 0, &mut walk_rng(12)))
    });
    group.finish();
}

fn bench_neighbor_sampling(c: &mut Criterion) {
    // Degree-4 torus: both paths are legal; compare masked against modulo.
    let g = generators::torus_2d(64);
    let mut group = c.benchmark_group("ablation_sampling");
    const STEPS: usize = 200_000;
    group.bench_function("pow2_mask(production)", |b| {
        b.iter(|| {
            let mut rng = walk_rng(13);
            let mut pos = 0u32;
            for _ in 0..STEPS {
                pos = mrw_core::walk::step(&g, pos, &mut rng); // mask path
            }
            pos
        })
    });
    group.bench_function("gen_range", |b| {
        b.iter(|| {
            let mut rng = walk_rng(13);
            let mut pos = 0u32;
            for _ in 0..STEPS {
                let d = g.degree(pos);
                pos = g.neighbor(pos, rng.gen_range(0..d));
            }
            pos
        })
    });
    group.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    // Heavy-tailed per-trial cost (cycle cover times): dynamic
    // self-scheduling vs static chunking.
    let g = generators::cycle(512);
    let trials = 32;
    let threads = 4;
    let mut group = c.benchmark_group("ablation_scheduling");
    group.sample_size(10);
    group.bench_function("dynamic(production)", |b| {
        let cfg = Budget {
            trials,
            seed: 14,
            threads,
            ..Budget::default()
        };
        b.iter(|| CoverTimeEstimator::new(&g, 1, cfg.clone()).run_from(0))
    });
    group.bench_function("static_chunking", |b| {
        b.iter(|| {
            let seq = mrw_par::SeedSequence::new(14).child(1);
            let chunk = trials / threads;
            let sums: Vec<f64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let g = &g;
                        s.spawn(move || {
                            let mut acc = 0.0;
                            for i in t * chunk..(t + 1) * chunk {
                                let mut rng = walk_rng(seq.seed_for(i as u64));
                                acc += mrw_core::cover_time_single(g, 0, &mut rng) as f64;
                            }
                            acc
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            sums.iter().sum::<f64>() / trials as f64
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stepping_mode,
    bench_visited_repr,
    bench_neighbor_sampling,
    bench_scheduling
);
criterion_main!(benches);
