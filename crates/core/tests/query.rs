//! Property tests for the query layer and shard protocol: the ISSUE-4
//! contract.
//!
//! * [`Report::merge`] is associative and commutative — the group
//!   statistics are exact integers, so any merge tree over any partition
//!   yields the same value.
//! * Any shard partition of a fixed budget reproduces the single-process
//!   report **exactly** (structural equality *and* byte-identical JSON),
//!   across thread counts.
//! * Sharded adaptive budgets certify their achieved half-width after the
//!   merge.
//! * The typed `Session` convenience entry points are bit-for-bit
//!   equivalent to the `Session::run` reports they view.

use mrw_core::query::{Budget, Query, Report, Session, Shard};
use mrw_core::{CoverTimeEstimator, Precision, PreyStrategy};
use mrw_graph::generators;
use proptest::prelude::*;

/// A fixed-budget cover query with everything randomized that the
/// determinism contract quantifies over.
fn cover_setup(n: usize, k: usize, trials: usize, seed: u64) -> (mrw_graph::Graph, Query, Budget) {
    let g = generators::cycle(n);
    let q = Query::Cover {
        k,
        starts: vec![0, (n / 2) as u32],
    };
    let budget = Budget {
        trials,
        seed,
        ..Budget::default()
    };
    (g, q, budget)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any contiguous 2- or 3-way partition of the trial range merges to
    /// exactly the single-process report — structurally and as JSON —
    /// and the merge is commutative.
    #[test]
    fn any_shard_partition_reproduces_the_whole_run(
        n in 8usize..28,
        k in 1usize..4,
        trials in 4usize..40,
        seed in 0u64..500,
        ways in 2usize..4,
    ) {
        let (g, q, budget) = cover_setup(n, k, trials, seed);
        let whole = Session::new(budget.clone()).run(&g, &q);
        let shards: Vec<Report> = (0..ways)
            .map(|i| {
                Session::new(budget.clone())
                    .with_range(Shard::new(i, ways).slice(trials))
                    .run(&g, &q)
            })
            .collect();
        // Left fold.
        let mut forward = shards[0].clone();
        for s in &shards[1..] {
            forward = Report::merge(&forward, s).unwrap();
        }
        prop_assert_eq!(&forward, &whole);
        prop_assert_eq!(forward.to_json(), whole.to_json());
        // Reverse fold: commutativity + associativity over the partition.
        let mut backward = shards[ways - 1].clone();
        for s in shards[..ways - 1].iter().rev() {
            backward = Report::merge(s, &backward).unwrap();
        }
        prop_assert_eq!(&backward, &whole);
    }

    /// The work-stealing dispatcher's headline guarantee, pinned at the
    /// protocol layer: determinism comes from `Report::merge`'s coverage
    /// accounting, never from chunk *assignment*. Any randomized cut of
    /// the trial space into chunks, merged in any randomized order
    /// (as if chunks were stolen and completed in arbitrary interleaving,
    /// including after retries), reproduces the whole run byte for byte.
    #[test]
    fn any_randomized_chunk_schedule_reproduces_the_whole_run(
        n in 8usize..28,
        k in 1usize..4,
        trials in 8usize..48,
        seed in 0u64..500,
        raw_cuts in prop::collection::vec(0usize..1_000, 0..6),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let (g, q, budget) = cover_setup(n, k, trials, seed);
        let whole = Session::new(budget.clone()).run(&g, &q);
        // Random cut points -> a sorted, deduped chunk partition.
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| 1 + c % trials.max(2)).collect();
        cuts.push(0);
        cuts.push(trials);
        cuts.sort_unstable();
        cuts.dedup();
        let mut chunks: Vec<Report> = cuts
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| {
                Session::new(budget.clone())
                    .with_range(w[0]..w[1])
                    .run(&g, &q)
            })
            .collect();
        // A seeded Fisher–Yates shuffle stands in for the arbitrary
        // completion order of a stealing pool.
        let mut state = shuffle_seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..chunks.len()).rev() {
            chunks.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut merged = chunks[0].clone();
        for c in &chunks[1..] {
            merged = Report::merge(&merged, c).unwrap();
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.to_json(), whole.to_json());
    }

    /// Merging is independent of the merge *tree*: (a ⊕ b) ⊕ c equals
    /// a ⊕ (b ⊕ c) exactly, for shards produced under different thread
    /// counts (thread count must not leak into the statistics).
    #[test]
    fn merge_is_associative_across_thread_counts(
        n in 8usize..24,
        trials in 6usize..30,
        seed in 0u64..500,
    ) {
        let (g, q, budget) = cover_setup(n, 2, trials, seed);
        let shard = |i: usize, threads: usize| {
            Session::new(Budget { threads, ..budget.clone() })
                .with_range(Shard::new(i, 3).slice(trials))
                .run(&g, &q)
        };
        let (a, b, c) = (shard(0, 1), shard(1, 2), shard(2, 4));
        let left = Report::merge(&Report::merge(&a, &b).unwrap(), &c).unwrap();
        let right = Report::merge(&a, &Report::merge(&b, &c).unwrap()).unwrap();
        prop_assert_eq!(&left, &right);
        let whole = Session::new(budget).run(&g, &q);
        prop_assert_eq!(&left, &whole);
    }

    /// A sharded adaptive budget runs its fixed slice of the cap; the
    /// merged report re-evaluates the rule and certifies the achieved
    /// half-width whenever the merged sample is tight enough — and the
    /// certification verdict matches a by-hand check of the rule.
    #[test]
    fn sharded_adaptive_certifies_after_merge(
        n in 8usize..20,
        seed in 0u64..300,
        rel in 0.05f64..0.5,
    ) {
        let g = generators::cycle(n);
        let rule = Precision::relative(rel).with_min_trials(8).with_max_trials(64);
        let q = Query::Cover { k: 2, starts: vec![0] };
        let budget = Budget { precision: Some(rule), seed, ..Budget::default() };
        let a = Session::new(budget.clone()).with_range(Shard::new(0, 2).slice(64)).run(&g, &q);
        let b = Session::new(budget).with_range(Shard::new(1, 2).slice(64)).run(&g, &q);
        // Each shard ran exactly its slice of the cap.
        prop_assert_eq!(a.consumed_trials() + b.consumed_trials(), 64);
        let merged = Report::merge(&a, &b).unwrap();
        let certified = merged.certified().expect("adaptive budgets certify");
        prop_assert_eq!(
            certified,
            rule.satisfied_by(&merged.groups[0].summary()),
            "certification disagrees with the rule"
        );
    }

    /// The JSON codec is lossless on arbitrary fixed-budget reports: a
    /// parsed report is structurally equal and re-renders byte-identically.
    #[test]
    fn report_json_round_trips(
        n in 8usize..24,
        trials in 2usize..20,
        seed in 0u64..500,
    ) {
        let g = generators::torus_2d(3 + n % 4);
        let q = Query::Pursuit {
            ks: vec![1, 3],
            hunters: 0,
            prey: (g.n() / 2) as u32,
            strategy: PreyStrategy::RandomWalk,
            cap: 50_000,
        };
        let report = Session::new(Budget { trials, seed, ..Budget::default() })
            .with_range(Shard::new(0, 2).slice(trials))
            .run(&g, &q);
        let text = report.to_json();
        let back = Report::from_json(&text).unwrap();
        prop_assert_eq!(&back, &report);
        prop_assert_eq!(back.to_json(), text);
    }

    /// The cache-extension soundness lemma, independent of the daemon: a
    /// complete `0..small` run holds exactly the groups of the `0..small`
    /// range of an `m`-trial budget, and merging that range with a fresh
    /// `small..m` range is JSON-byte-identical to the direct `0..m` run —
    /// trials are pure functions of `(seed, group, index)`, never of the
    /// budget's total, so a cached report extends by running only the
    /// missing range.
    #[test]
    fn range_extension_merges_to_the_direct_run(
        n in 6usize..24,
        k in 1usize..4,
        small in 3usize..30,
        extra in 1usize..30,
        seed in 0u64..500,
    ) {
        let (g, q, budget) = cover_setup(n, k, small, seed);
        let m = small + extra;
        let cached = Session::new(budget.clone()).run(&g, &q);
        assert!(cached.is_complete());
        let big_budget = Budget { trials: m, ..budget };
        let direct = Session::new(big_budget.clone()).run(&g, &q);
        let head = Session::new(big_budget.clone()).with_range(0..small).run(&g, &q);
        prop_assert_eq!(&head.groups, &cached.groups);
        prop_assert!(!head.is_complete());
        let tail = Session::new(big_budget).with_range(small..m).run(&g, &q);
        let extended = Report::merge(&head, &tail).unwrap();
        prop_assert_eq!(&extended, &direct);
        prop_assert_eq!(extended.to_json(), direct.to_json());
    }
}

/// The deprecated estimator facade and a raw `Session` run are the same
/// computation — the view must expose identical statistics.
#[test]
fn estimator_facade_equals_session_run() {
    let g = generators::cycle(40);
    let cfg = Budget {
        trials: 24,
        seed: 13,
        ..Budget::default()
    };
    let facade = CoverTimeEstimator::new(&g, 3, cfg).run_from(5);
    let report = Session::new(Budget {
        trials: 24,
        seed: 13,
        ..Budget::default()
    })
    .run(
        &g,
        &Query::Cover {
            k: 3,
            starts: vec![5],
        },
    );
    assert_eq!(facade.cover_time(), report.groups[0].summary());
    assert_eq!(facade.consumed_trials(), report.groups[0].trials);
    assert_eq!(facade.mean(), report.mean());
    assert_eq!(facade.half_width(), report.half_width());
}

/// `speedup_sweep` is a view over `Query::SpeedupLadder`: identical
/// baseline and per-k estimates.
#[test]
fn speedup_sweep_equals_ladder_report() {
    use mrw_core::speedup::{speedup_sweep, SpeedupSweep};
    let g = generators::cycle(32);
    let cfg = Budget {
        trials: 16,
        seed: 7,
        ..Budget::default()
    };
    let sweep = speedup_sweep(&g, 0, &[2, 4], &cfg);
    let report = Session::new(Budget {
        trials: 16,
        seed: 7,
        ..Budget::default()
    })
    .run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: vec![2, 4],
        },
    );
    let view = SpeedupSweep::from_report(&report);
    assert_eq!(sweep.baseline.mean(), view.baseline.mean());
    assert_eq!(sweep.speedup_at(4), view.speedup_at(4));
    assert_eq!(report.groups.len(), 3);
    assert_eq!(report.groups[0].label, "baseline");
    assert_eq!(report.groups[2].label, "k=4");
}

/// `Session::pursuit` is a typed view over `Session::run` with
/// `Query::Pursuit` — same stream, same statistics, same censored tally.
#[test]
fn pursuit_convenience_equals_session_run() {
    let g = generators::torus_2d(6);
    let prey = (g.n() - 1) as u32;
    let budget = Budget {
        trials: 40,
        seed: 21,
        ..Budget::default()
    };
    let direct = Session::new(budget.clone()).pursuit(&g, 0, prey, 2, PreyStrategy::Hide, 100_000);
    let report = Session::new(budget).run(
        &g,
        &Query::Pursuit {
            ks: vec![2],
            hunters: 0,
            prey,
            strategy: PreyStrategy::Hide,
            cap: 100_000,
        },
    );
    let view = mrw_core::CatchEstimate::from_report(&report, 0);
    assert_eq!(view.rounds(), direct.rounds());
    assert_eq!(view.censored(), direct.censored());
    assert_eq!(view.consumed_trials(), direct.consumed_trials());
}

/// `Session::partial_profile` is a typed view over `Session::run` with
/// `Query::PartialCover` — same per-γ means and consumed counts.
#[test]
fn partial_profile_convenience_equals_session_run() {
    let g = generators::torus_2d(5);
    let gammas = [0.25, 0.75, 1.0];
    let budget = Budget {
        trials: 32,
        seed: 9,
        ..Budget::default()
    };
    let direct = Session::new(budget.clone()).partial_profile(&g, 0, 2, &gammas);
    let report = Session::new(budget).run(
        &g,
        &Query::PartialCover {
            start: 0,
            k: 2,
            gammas: gammas.to_vec(),
        },
    );
    assert_eq!(report.groups.len(), direct.len());
    for (a, b) in direct.iter().zip(&report.groups) {
        assert_eq!(a.mean_rounds, b.mean());
        assert_eq!(a.trials as u64, b.trials);
    }
}

/// Hitting reports keep the discard semantics through a shard merge: the
/// censored tallies add, the counted moments stay exact.
#[test]
fn hitting_shards_merge_discards_exactly() {
    let g = generators::cycle(48);
    // A cap low enough that some walks are censored.
    let q = Query::Hitting {
        from: 0,
        to: 24,
        cap: 400,
    };
    let budget = Budget {
        trials: 60,
        seed: 2,
        ..Budget::default()
    };
    let whole = Session::new(budget.clone()).run(&g, &q);
    let parts: Vec<Report> = (0..3)
        .map(|i| {
            Session::new(budget.clone())
                .with_range(Shard::new(i, 3).slice(60))
                .run(&g, &q)
        })
        .collect();
    let merged = Report::merge(&Report::merge(&parts[0], &parts[1]).unwrap(), &parts[2]).unwrap();
    assert_eq!(merged, whole);
    let group = &whole.groups[0];
    assert!(group.censored > 0, "cap chosen to censor some walks");
    assert_eq!(group.moments.count() + group.censored, group.trials);
}
