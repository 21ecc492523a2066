//! Counting-allocator proof of the zero-alloc trial contract: after one
//! warmup run, an estimator-style trial loop — `Engine::run_with` over a
//! reused [`EngineArena`] with a reset [`FullCover`] — performs **zero**
//! heap allocations in the stepping loop, on both the scalar and the
//! batched path, on a regular torus and on an irregular barbell (whose
//! batched runs sweep the pick table the graph builds once, on its first
//! sweep). Also the compile-once regression: a `CompiledProcess` is
//! built once per run, never per step, so the allocation bill of a run is
//! independent of its length.
//!
//! Everything lives in one `#[test]` because the counter is process-global
//! and the libtest harness runs tests concurrently; a single test keeps
//! the measured windows free of foreign allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mrw_core::engine::{BatchMode, CompiledProcess, Engine, EngineArena, FullCover, SimpleStep};
use mrw_core::{walk_rng, WalkProcess};
use mrw_graph::generators;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// The library crates forbid unsafe code; this test crate hosts the one
// unavoidable unsafe impl (a `GlobalAlloc` shim over `System`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One estimator-style trial: reset the cover observer, rebuild the start
/// vector in place, run through the reused arena.
fn trial(
    g: &mrw_graph::Graph,
    k: usize,
    batch: BatchMode,
    seed: u64,
    arena: &mut EngineArena,
    cover: &mut FullCover,
    starts: &mut Vec<u32>,
) -> u64 {
    starts.clear();
    starts.resize(k, 0);
    cover.reset(g.n());
    Engine::new(g, SimpleStep, cover)
        .batch(batch)
        .run_with(starts, &mut walk_rng(seed), arena)
        .rounds
}

#[test]
fn stepping_loop_is_zero_alloc_after_warmup() {
    let torus = generators::torus_2d(8);
    let barbell = generators::barbell(21);

    // --- estimator trial loop: scalar (k = 2) and batched (k = 128) ---
    for (g, k, batch) in [&torus, &barbell]
        .into_iter()
        .flat_map(|g| [(g, 2usize, BatchMode::Never), (g, 128, BatchMode::Auto)])
    {
        let mut arena = EngineArena::new();
        let mut cover = FullCover::new(g.n());
        let mut starts = Vec::new();
        let warmup = trial(g, k, batch, 0, &mut arena, &mut cover, &mut starts);
        assert!(warmup > 0, "warmup trial must actually cover");

        // Up to three measurement windows: one-time lazy initializations
        // elsewhere in the process (stdout buffers, TLS) may land in the
        // first window; a real per-trial leak allocates in every window.
        let mut leaked = u64::MAX;
        for attempt in 0..3u64 {
            let before = allocations();
            let mut total = 0u64;
            for seed in 1..=20u64 {
                let s = 100 * attempt + seed;
                total += trial(g, k, batch, s, &mut arena, &mut cover, &mut starts);
            }
            assert!(total > 0);
            leaked = allocations() - before;
            if leaked == 0 {
                break;
            }
        }
        assert_eq!(
            leaked,
            0,
            "{} k = {k} ({batch:?}): {leaked} allocations leaked into the trial loop \
             in every measurement window",
            g.name()
        );
    }

    // --- compile-once regression: the allocation bill of a run with a
    // compiled process (Metropolis owns two O(n) tables; Lazy a cached
    // Bernoulli) must not depend on how many steps the run takes. ---
    let g = torus;
    for process in [WalkProcess::Metropolis, WalkProcess::Lazy(0.5)] {
        for batch in [BatchMode::Never, BatchMode::Always] {
            let mut arena = EngineArena::new();
            // Warm the arena at this k so only per-run costs remain.
            let _ = Engine::new(&g, CompiledProcess::new(process, &g), ())
                .batch(batch)
                .cap(4)
                .run_with(&[0; 8], &mut walk_rng(0), &mut arena);

            let cost_of = |cap: u64, arena: &mut EngineArena| {
                let before = allocations();
                let _ = Engine::new(&g, CompiledProcess::new(process, &g), ())
                    .batch(batch)
                    .cap(cap)
                    .run_with(&[0; 8], &mut walk_rng(7), arena);
                allocations() - before
            };
            // Same one-time-noise tolerance as above: compare windows
            // until two agree, so an unrelated lazy init cannot fail the
            // regression; a per-step compile would inflate `long` in
            // every window.
            let mut agreed = false;
            for _ in 0..3 {
                let short = cost_of(16, &mut arena);
                let long = cost_of(4096, &mut arena);
                if short == long {
                    agreed = true;
                    break;
                }
            }
            assert!(
                agreed,
                "{process:?} ({batch:?}): a 256x longer run allocated more in every \
                 window — the process is being recompiled mid-run"
            );
        }
    }
}
