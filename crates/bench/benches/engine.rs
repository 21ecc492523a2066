//! Bench: batched vs scalar engine stepping, written to
//! `BENCH_engine.json` at the workspace root so CI archives the perf
//! trajectory and gates the regular-family speed-up (see
//! `.github/workflows/ci.yml`, bench-smoke step).
//!
//! A plain `fn main` (`harness = false`): `cargo bench --bench engine`
//! runs it, and the `-- --test` flag the CI smoke step passes is ignored.

use mrw_core::engine::{BatchMode, Engine, EngineArena, SimpleStep};
use mrw_core::walk_rng;
use mrw_graph::{generators, Graph, GraphBackend, ImplicitGraph};

/// Best-of-`reps` ns/step for one engine path (pure horizon run, so the
/// two paths differ only in stepping machinery). Generic over the graph
/// backend so CSR and implicit runs share one measurement harness.
fn engine_ns_per_step<G: GraphBackend>(
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
    g: Graph,
    ks: Vec<usize>,
    /// Regular families feed the CI perf gate (fixed 1.3× floor); the
    /// irregular rows are tracked but gated only against the JSON diff.
    regular: bool,
    /// Implicit twin where one exists: measured batched at the same `k`
    /// and reported as an implicit-vs-CSR column.
    implicit: Option<ImplicitGraph>,
}

/// The perf-trajectory measurement: batched vs scalar ns/step across the
/// degree-profile matrix (regular: cycle, torus; irregular: barbell,
/// star, a connectivity-regime G(n,p)), plus the implicit backend's
/// batched column where an implicit twin exists. Written to
/// `BENCH_engine.json` (workspace root, or `$BENCH_ENGINE_JSON`) for CI
/// to archive and gate on.
fn main() {
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
