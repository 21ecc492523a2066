//! Bench: raw engine throughput — walk steps per second on graphs with
//! different degree profiles, thread-pool scaling of the trial fan-out,
//! and the batched-vs-scalar stepping comparison, which additionally
//! emits `BENCH_engine.json` at the workspace root so CI tracks the
//! perf trajectory (see `.github/workflows/ci.yml`, bench-smoke step).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrw_core::engine::{
    BatchMode, CompiledProcess, Engine, EngineArena, FullCover, Process, SimpleStep,
};
use mrw_core::{walk_rng, Budget, CoverTimeEstimator, WalkProcess};
use mrw_graph::generators;
use mrw_par::ThreadPool;

fn bench_step_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk_step_throughput");
    const STEPS: u64 = 100_000;
    group.throughput(Throughput::Elements(STEPS));
    let graphs = vec![
        generators::cycle(1 << 14), // degree 2
        generators::torus_2d(128),  // degree 4 (pow2 fast path)
        generators::hypercube(14),  // degree 14
        generators::complete(4096), // degree 4095
    ];
    for g in graphs {
        group.bench_with_input(
            BenchmarkId::from_parameter(g.name().to_string()),
            &g,
            |b, g| {
                b.iter(|| {
                    let mut rng = walk_rng(1);
                    let mut pos = 0u32;
                    for _ in 0..STEPS {
                        pos = mrw_core::walk::step(g, pos, &mut rng);
                    }
                    pos
                })
            },
        );
    }
    group.finish();
}

fn bench_trial_scaling(c: &mut Criterion) {
    let g = generators::torus_2d(24);
    let mut group = c.benchmark_group("trial_fanout_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let cfg = Budget {
                trials: 32,
                seed: 7,
                threads: t,
                ..Budget::default()
            };
            b.iter(|| CoverTimeEstimator::new(&g, 2, cfg.clone()).run_from(0))
        });
    }
    group.finish();
}

fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_dispatch_overhead");
    group.sample_size(10);
    const JOBS: usize = 10_000;
    group.throughput(Throughput::Elements(JOBS as u64));
    group.bench_function("work_stealing_pool", |b| {
        let pool = ThreadPool::new(4);
        b.iter(|| {
            for _ in 0..JOBS {
                pool.execute(|| {
                    std::hint::black_box(3u64.wrapping_mul(5));
                });
            }
            pool.join();
        })
    });
    group.finish();
}

fn bench_unified_engine_ablation(c: &mut Criterion) {
    // The refactor's two hot-path claims, measured:
    // (1) cached lazy holds (pre-built Bernoulli, one integer compare)
    //     vs the uncached reference (`WalkProcess::step`, a float draw
    //     and compare per hold decision);
    // (2) cached Metropolis acceptance (degree-reciprocal multiply) vs
    //     the uncached reference (divide per proposal).
    let g = generators::torus_2d(64);
    let mut group = c.benchmark_group("unified_engine_ablation");
    group.sample_size(10);
    const STEPS: u64 = 100_000;
    group.throughput(Throughput::Elements(STEPS));

    fn bench_kernel<P: Process>(
        group: &mut criterion::BenchmarkGroup<'_>,
        label: &str,
        g: &mrw_graph::Graph,
        mut kernel: P,
        steps: u64,
    ) {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut rng = walk_rng(1);
                let mut pos = 0u32;
                for _ in 0..steps {
                    pos = kernel.step(g, pos, &mut rng);
                }
                pos
            })
        });
    }

    let lazy = WalkProcess::Lazy(0.5);
    bench_kernel(
        &mut group,
        "lazy_cached_bernoulli",
        &g,
        CompiledProcess::new(lazy, &g),
        STEPS,
    );
    bench_kernel(&mut group, "lazy_uncached_reference", &g, lazy, STEPS);
    let metro = WalkProcess::Metropolis;
    bench_kernel(
        &mut group,
        "metropolis_cached_recip",
        &g,
        CompiledProcess::new(metro, &g),
        STEPS,
    );
    bench_kernel(
        &mut group,
        "metropolis_uncached_reference",
        &g,
        metro,
        STEPS,
    );
    group.finish();

    // End-to-end: the one engine loop under its heaviest observer vs the
    // lightest, same trajectory length, isolating observer overhead.
    let g = generators::torus_2d(24);
    let mut group = c.benchmark_group("engine_observer_overhead");
    group.sample_size(10);
    group.bench_function("full_cover", |b| {
        b.iter(|| {
            Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .run(&[0, 0, 0, 0], &mut walk_rng(3))
                .rounds
        })
    });
    group.bench_function("pure_horizon", |b| {
        b.iter(|| {
            Engine::new(&g, SimpleStep, ())
                .cap(2000)
                .run(&[0, 0, 0, 0], &mut walk_rng(3))
                .rounds
        })
    });
    group.finish();
}

/// Best-of-`reps` ns/step for one engine path (pure horizon run, so the
/// two paths differ only in stepping machinery). Generic over the graph
/// backend so CSR and implicit runs share one measurement harness.
fn engine_ns_per_step<G: mrw_graph::GraphBackend>(
    g: &G,
    start: u32,
    k: usize,
    batch: BatchMode,
    rounds: u64,
    reps: usize,
) -> f64 {
    let starts = vec![start; k];
    let mut arena = EngineArena::new();
    // Warmup: sizes the arena and faults the graph into cache.
    let _ = Engine::new(g, SimpleStep, ())
        .batch(batch)
        .cap(rounds)
        .run_with(&starts, &mut walk_rng(1), &mut arena);
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let t0 = std::time::Instant::now();
        let out = Engine::new(g, SimpleStep, ())
            .batch(batch)
            .cap(rounds)
            .run_with(&starts, &mut walk_rng(2 + rep as u64), &mut arena);
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt * 1e9 / (out.rounds * k as u64) as f64);
    }
    best
}

/// One graph of the perf-trajectory matrix.
struct MatrixCase {
    g: mrw_graph::Graph,
    ks: Vec<usize>,
    /// Regular families feed the CI perf gate (fixed 1.3× floor); the
    /// irregular rows are tracked but gated only against the JSON diff.
    regular: bool,
    /// Implicit twin where one exists: measured batched at the same `k`
    /// and reported as an implicit-vs-CSR column.
    implicit: Option<mrw_graph::ImplicitGraph>,
}

/// The perf-trajectory measurement: batched vs scalar ns/step across the
/// degree-profile matrix (regular: cycle, torus; irregular: barbell,
/// star, a connectivity-regime G(n,p)), plus the implicit backend's
/// batched column where an implicit twin exists. Written to
/// `BENCH_engine.json` (workspace root, or `$BENCH_ENGINE_JSON`) for CI
/// to archive and gate on.
fn bench_batched_vs_scalar(_c: &mut Criterion) {
    use mrw_graph::ImplicitGraph;
    const ROUNDS: u64 = 1_500;
    const REPS: usize = 7;
    let cases = vec![
        MatrixCase {
            g: generators::cycle(1 << 14),
            ks: vec![256],
            regular: true,
            implicit: Some(ImplicitGraph::cycle(1 << 14)),
        },
        MatrixCase {
            g: generators::torus_2d(256),
            ks: vec![256, 1024],
            regular: true,
            implicit: Some(ImplicitGraph::torus_2d(256)),
        },
        MatrixCase {
            g: generators::barbell(201),
            ks: vec![256, 1024],
            regular: false,
            implicit: None,
        },
        MatrixCase {
            g: generators::star(4096),
            ks: vec![256],
            regular: false,
            implicit: None,
        },
        MatrixCase {
            g: generators::erdos_renyi_connected_regime(4096, 1.5, &mut walk_rng(11)),
            ks: vec![256],
            regular: false,
            implicit: None,
        },
    ];
    let mut rows = Vec::new();
    for case in &cases {
        // A G(n,p) draw can leave low-index vertices isolated; start every
        // walk on the first vertex that actually has edges.
        let start = (0..case.g.n() as u32)
            .find(|&v| case.g.degree(v) > 0)
            .expect("matrix graph has at least one edge");
        for &k in &case.ks {
            let scalar = engine_ns_per_step(&case.g, start, k, BatchMode::Never, ROUNDS, REPS);
            let batched = engine_ns_per_step(&case.g, start, k, BatchMode::Always, ROUNDS, REPS);
            let speedup = scalar / batched;
            let mut implicit_col = String::new();
            let mut implicit_note = String::new();
            if let Some(im) = &case.implicit {
                let ib = engine_ns_per_step(im, start, k, BatchMode::Always, ROUNDS, REPS);
                let ratio = ib / batched;
                implicit_col = format!(
                    ", \"implicit_batched_ns_per_step\": {ib:.3}, \
                     \"implicit_over_csr\": {ratio:.3}"
                );
                implicit_note = format!("  implicit {ib:.2} ns/step ({ratio:.2}x csr)");
            }
            println!(
                "engine_batched_vs_scalar/{}/k={k}     scalar {scalar:.2} ns/step  \
                 batched {batched:.2} ns/step  speedup {speedup:.2}x{implicit_note}",
                case.g.name()
            );
            rows.push(format!(
                "    {{\"graph\": \"{}\", \"k\": {k}, \"regular\": {}, \
                 \"scalar_ns_per_step\": {scalar:.3}, \
                 \"batched_ns_per_step\": {batched:.3}, \"speedup\": {speedup:.3}{implicit_col}}}",
                case.g.name(),
                case.regular
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"engine_batched_vs_scalar\",\n  \"unit\": \"ns_per_step\",\n  \
         \"rounds\": {ROUNDS},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| {
        // crates/bench/../../ == the workspace root.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_step_throughput,
    bench_trial_scaling,
    bench_pool_dispatch,
    bench_unified_engine_ablation,
    bench_batched_vs_scalar
);
criterion_main!(benches);
