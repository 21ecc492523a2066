//! Property-based tests for the parallel substrate: parallel results must
//! equal serial results for arbitrary sizes, thread counts, and workloads.

use mrw_par::{par_map, SeedSequence, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn par_map_equals_serial(items in 0usize..500, threads in 1usize..12, salt in 0u64..1000) {
        let f = |i: usize| (i as u64).wrapping_mul(salt).rotate_left(13);
        let par = par_map(items, threads, f);
        let serial: Vec<u64> = (0..items).map(f).collect();
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn pool_executes_every_job(jobs in 0usize..300, threads in 1usize..6) {
        let pool = ThreadPool::new(threads);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..jobs {
            let c = Arc::clone(&counter);
            pool.execute(move || { c.fetch_add(1, Ordering::Relaxed); });
        }
        pool.join();
        prop_assert_eq!(counter.load(Ordering::Relaxed), jobs as u64);
    }

    #[test]
    fn seed_streams_are_pure_functions(master in any::<u64>(), idx in any::<u64>()) {
        let a = SeedSequence::new(master).seed_for(idx);
        let b = SeedSequence::new(master).seed_for(idx);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn seed_streams_distinct_across_children(master in any::<u64>(), l1 in 0u64..64, l2 in 0u64..64) {
        prop_assume!(l1 != l2);
        let root = SeedSequence::new(master);
        // Children with different labels should disagree on (essentially)
        // every stream index.
        let collisions = (0..32)
            .filter(|&i| root.child(l1).seed_for(i) == root.child(l2).seed_for(i))
            .count();
        prop_assert_eq!(collisions, 0);
    }
}
