//! Borrowing data-parallel loops with dynamic self-scheduling.
//!
//! `std::thread::scope` lets worker closures borrow the caller's data (the
//! graph, configuration, output buffers) without `Arc`. Work distribution is
//! dynamic: workers repeatedly claim the next chunk of indices from a shared
//! atomic cursor, so an unlucky thread that draws slow trials (cover times
//! are heavy-tailed!) does not become the critical path the way static
//! chunking would.
//!
//! All functions return results **ordered by item index**, never by
//! completion order, preserving determinism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if unknown.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Chunk size heuristic: aim for ~4 chunks per thread to amortize the atomic
/// claim while keeping the tail balanced, clamped to `[1, 64]`.
fn default_chunk(items: usize, threads: usize) -> usize {
    if items == 0 || threads == 0 {
        return 1;
    }
    (items / (threads * 4)).clamp(1, 64)
}

/// Maps `f` over `0..items` with up to `threads` worker threads, returning
/// `Vec<R>` in index order.
///
/// `f` must be `Sync` because several threads call it concurrently; per-item
/// state should be derived from the index (e.g. via
/// [`crate::seeds::SeedSequence`]).
///
/// ```
/// let squares = mrw_par::par_map(10, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// ```
pub fn par_map<R, F>(items: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), i| f(i))
}

/// [`par_map`] with a per-worker scratch workspace: each worker thread
/// calls `init` exactly once, then threads its workspace mutably through
/// every item it processes. This is how the walk estimators keep one
/// `EngineArena` (position buffers, visited bitsets, RNG blocks) per
/// worker and reuse it across a fixed-budget `(start × trial)` fan-out
/// instead of reallocating per trial. (Adaptive budgets call it once
/// per wave window, from `mrw-core`'s wave driver.)
///
/// Determinism contract: which worker (and therefore which workspace
/// instance) processes an item is scheduling-dependent, so `f`'s *result*
/// must be a pure function of the index alone — the workspace is scratch
/// memory, never a carrier of information between items. Results are
/// returned in index order, as with [`par_map`].
///
/// ```
/// let squares = mrw_par::par_map_with(
///     5,
///     2,
///     || Vec::<u64>::new(),
///     |scratch, i| {
///         scratch.clear(); // reused allocation, same answer every time
///         scratch.extend((0..=i as u64).map(|x| x * x));
///         *scratch.last().unwrap()
///     },
/// );
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn par_map_with<S, R, I, F>(items: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    assert!(threads >= 1, "need at least one thread");
    if items == 0 {
        return Vec::new();
    }
    let threads = threads.min(items);
    if threads == 1 {
        let mut state = init();
        return (0..items).map(|i| f(&mut state, i)).collect();
    }
    let chunk = default_chunk(items, threads);
    let cursor = AtomicUsize::new(0);
    // Each worker accumulates (start_index, chunk_results) pairs locally and
    // publishes once at the end: no per-item synchronization.
    let collected: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut state = init();
                let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items {
                        break;
                    }
                    let end = (start + chunk).min(items);
                    let mut out = Vec::with_capacity(end - start);
                    for i in start..end {
                        out.push(f(&mut state, i));
                    }
                    local.push((start, out));
                }
                if !local.is_empty() {
                    collected.lock().expect("poisoned").extend(local);
                }
            });
        }
    });

    let mut parts = collected.into_inner().expect("poisoned");
    parts.sort_by_key(|(start, _)| *start);
    let mut result = Vec::with_capacity(items);
    for (_, chunk_vals) in parts {
        result.extend(chunk_vals);
    }
    debug_assert_eq!(result.len(), items);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        for threads in [1, 2, 3, 8] {
            let v = par_map(100, threads, |i| i * 2);
            assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_empty() {
        let v: Vec<u32> = par_map(0, 4, |_| 1);
        assert!(v.is_empty());
    }

    #[test]
    fn map_single_item() {
        assert_eq!(par_map(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn each_index_visited_exactly_once() {
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        par_map(257, 5, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn result_independent_of_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 7;
        let base = par_map(513, 1, f);
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(par_map(513, threads, f), base, "threads={threads}");
        }
    }

    #[test]
    fn threads_actually_used() {
        // With enough slow items, more than one OS thread should participate.
        let ids = Mutex::new(HashSet::new());
        par_map(64, 4, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        // On a multicore machine this is ≥ 2 effectively always; tolerate 1
        // only if the host really has a single core.
        if available_threads() > 1 {
            assert!(ids.lock().unwrap().len() > 1, "work never parallelized");
        }
    }

    #[test]
    fn map_with_reuses_worker_state() {
        // Count how many times `init` ran: at most once per worker.
        let inits = AtomicU64::new(0);
        let v = par_map_with(
            100,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64 // scratch accumulator, never read into results
            },
            |scratch, i| {
                *scratch += 1;
                i * 3
            },
        );
        assert_eq!(v, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        let ran = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&ran), "init ran {ran} times");
    }

    #[test]
    fn map_with_matches_map_across_thread_counts() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 9;
        let base = par_map(257, 1, f);
        for threads in [1, 2, 3, 8] {
            let got = par_map_with(257, threads, || (), |(), i| f(i));
            assert_eq!(got, base, "threads={threads}");
        }
    }

    #[test]
    fn chunk_heuristic_bounds() {
        assert_eq!(default_chunk(0, 4), 1);
        assert_eq!(default_chunk(10, 4), 1);
        assert!(default_chunk(10_000, 4) <= 64);
        assert!(default_chunk(10_000, 4) >= 1);
    }
}
