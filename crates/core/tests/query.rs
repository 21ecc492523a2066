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
//! * Cover reports behave as estimates should: adaptive runs stop early
//!   and extend fixed runs, starts draw distinct streams, and the CI
//!   shrinks with the trial count.

use mrw_core::query::{
    BackendChoice, Budget, GraphSpec, Query, QuerySpec, Report, Session, Shard, MAX_TRIALS,
};
use mrw_core::starts::worst_start_candidates;
use mrw_core::{BatchMode, Discipline, Precision, PreyStrategy};
use mrw_graph::{generators, Graph, GraphBackend};
use mrw_stats::harmonic::harmonic;
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

/// `Report::speedups` knows the ladder's layout: the baseline group first,
/// then one rung per `k` in query order, each `S^k = C^1/C^k`. Every other
/// query has no rungs.
#[test]
fn speedups_follow_the_ladder_layout() {
    let g = generators::complete(16);
    let budget = Budget {
        trials: 32,
        seed: 0,
        ..Budget::default()
    };
    let report = Session::new(budget.clone()).run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: vec![1, 2, 4],
        },
    );
    assert_eq!(report.groups.len(), 4);
    assert_eq!(report.groups[0].label, "baseline");
    let rungs = report.speedups();
    let ks: Vec<usize> = rungs.iter().map(|&(k, ..)| k).collect();
    assert_eq!(ks, vec![1, 2, 4]);
    for (i, &(k, group, speedup)) in rungs.iter().enumerate() {
        assert_eq!(group, &report.groups[i + 1]);
        assert_eq!(group.label, format!("k={k}"));
        assert_eq!(speedup, report.mean() / group.mean());
    }
    let cover = Session::new(budget).run(
        &g,
        &Query::Cover {
            k: 2,
            starts: vec![0],
        },
    );
    assert!(cover.speedups().is_empty());
}

/// A `k = 1` rung draws its own stream, independent of the baseline's, so
/// `S^1` is a ratio of two estimates of the same `C`: close to 1, not 1.
#[test]
fn k1_rung_speedup_is_about_one() {
    let g = generators::torus_2d(5);
    let report = Session::new(Budget {
        trials: 128,
        seed: 3,
        ..Budget::default()
    })
    .run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: vec![1],
        },
    );
    let (_, rung, s1) = report.speedups()[0];
    assert_ne!(
        rung, &report.groups[0],
        "the rung reused the baseline stream"
    );
    assert!(
        (s1 - 1.0).abs() < 0.25,
        "S^1 = {s1} should be ≈ 1 (independent streams, same distribution)"
    );
}

/// Lemma 12: `S^k = k` on the clique (up to sampling noise).
#[test]
fn clique_speedups_are_linear() {
    let g = generators::complete_with_loops(32);
    let report = Session::new(fixed(300, 17)).run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: vec![2, 4, 8],
        },
    );
    for (k, _, speedup) in report.speedups() {
        let rel = (speedup - k as f64).abs() / k as f64;
        assert!(rel < 0.25, "clique S^{k} = {speedup} — expected ≈ {k}");
    }
}

/// Theorem 6: `S^k = Θ(log k) ≪ k` on the cycle already for moderate `k`.
#[test]
fn cycle_speedup_is_sublinear() {
    let g = generators::cycle(64);
    let report = Session::new(fixed(200, 23)).run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: vec![16],
        },
    );
    let (_, _, s16) = report.speedups()[0];
    assert!(s16 < 9.0, "cycle S^16 = {s16} suspiciously close to linear");
    assert!(s16 > 1.2, "cycle S^16 = {s16} — no speed-up at all?");
}

#[test]
fn speedup_ladder_is_deterministic() {
    let g = generators::cycle(32);
    let ladder = Query::SpeedupLadder {
        start: 0,
        ks: vec![2, 4],
    };
    let a = Session::new(fixed(32, 5)).run(&g, &ladder);
    let b = Session::new(fixed(32, 5)).run(&g, &ladder);
    assert_eq!(a, b);
    assert_eq!(a.speedups()[1].2, b.speedups()[1].2);
}

/// A ladder without a `k = 1` rung still leads with the baseline: the
/// groups are `baseline, k=2, k=4`, and `S^4` divides the first mean by
/// the last.
#[test]
fn speedup_ladder_labels_each_rung_by_k() {
    let g = generators::cycle(32);
    let report = Session::new(fixed(16, 7)).run(
        &g,
        &Query::SpeedupLadder {
            start: 0,
            ks: vec![2, 4],
        },
    );
    let labels: Vec<&str> = report
        .groups
        .iter()
        .map(|group| group.label.as_str())
        .collect();
    assert_eq!(labels, ["baseline", "k=2", "k=4"]);
    let (k, _, s4) = report.speedups()[1];
    assert_eq!(k, 4);
    assert_eq!(s4, report.groups[0].mean() / report.groups[2].mean());
}

/// Each group of a multi-rung `Query::Pursuit` equals the one-rung run of
/// its `k`: a game's stream is `seed ⊕ k ⊕ trial`, whatever the rung's
/// position in the ladder.
#[test]
fn pursuit_rungs_equal_one_rung_runs() {
    let g = generators::torus_2d(6);
    let prey = (g.n() - 1) as u32;
    let budget = Budget {
        trials: 40,
        seed: 21,
        ..Budget::default()
    };
    let pursuit = |ks: Vec<usize>| {
        Session::new(budget.clone()).run(
            &g,
            &Query::Pursuit {
                ks,
                hunters: 0,
                prey,
                strategy: PreyStrategy::Hide,
                cap: 100_000,
            },
        )
    };
    let ladder = pursuit(vec![1, 2, 4]);
    for (i, k) in [1, 2, 4].into_iter().enumerate() {
        assert_eq!(ladder.groups[i], pursuit(vec![k]).groups[0], "k={k}");
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

/// The `k`-walk cover report from each of `starts` under `budget`.
fn cover(g: &Graph, k: usize, starts: Vec<u32>, budget: Budget) -> Report {
    Session::new(budget).run(g, &Query::Cover { k, starts })
}

fn fixed(trials: usize, seed: u64) -> Budget {
    Budget {
        trials,
        seed,
        ..Budget::default()
    }
}

#[test]
fn batched_cover_identical_across_thread_counts() {
    // k = 64 crosses the Auto threshold, so this exercises the batched
    // sweep inside the worker-reused arenas.
    let g = generators::cycle(24);
    let run = |threads| {
        cover(
            &g,
            64,
            vec![0],
            Budget {
                threads,
                ..fixed(12, 9)
            },
        )
    };
    let base = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(run(threads).groups, base.groups, "threads={threads}");
    }
}

#[test]
fn batch_mode_selects_engine_path() {
    let g = generators::cycle(24);
    // (query, k ≥ 64): every query kind whose trials run on the engine,
    // each under the budget's batch mode and discipline.
    let inputs = [
        (
            Query::Cover {
                k: 64,
                starts: vec![0],
            },
            true,
        ),
        (
            Query::PartialCover {
                k: 64,
                start: 0,
                gammas: vec![0.5],
            },
            true,
        ),
        (
            Query::Hitting {
                from: 0,
                to: 12,
                cap: 1_000_000,
            },
            false,
        ),
        (
            Query::Meeting {
                a: 0,
                b: 1,
                laziness: Some(0.5),
                cap: 100_000,
            },
            false,
        ),
        (
            Query::Pursuit {
                ks: vec![64],
                hunters: 0,
                prey: 12,
                strategy: PreyStrategy::RandomWalk,
                cap: 100_000,
            },
            true,
        ),
    ];
    for (query, wide) in &inputs {
        let run = |batch, mode| {
            let budget = Budget {
                batch,
                mode,
                ..fixed(12, 9)
            };
            Session::new(budget).run(&g, query).groups
        };
        let sync = Discipline::RoundSynchronous;
        // Always takes the batched stream, Never the scalar one. Same
        // law, different draws — the samples differ with overwhelming
        // probability, while each mode stays internally deterministic.
        let always = run(BatchMode::Always, sync);
        let never = run(BatchMode::Never, sync);
        let kind = query.kind();
        assert_ne!(always, never, "{kind}: batch mode never reached the engine");
        assert_eq!(never, run(BatchMode::Never, sync), "{kind}");
        if *wide {
            // Auto batches at k = 64; the interleaved loop is always
            // scalar and stops in the round the scalar loop does.
            assert_eq!(run(BatchMode::Auto, sync), always, "{kind}");
            let interleaved = run(BatchMode::Auto, Discipline::Interleaved);
            assert_eq!(interleaved, never, "{kind}: mode never reached the engine");
        }
    }
}

#[test]
fn adaptive_cover_stops_early_on_easy_instance() {
    // A small cycle has modest cover-time dispersion: ±15% at 95% needs
    // a few dozen trials, far below the 2048 cap.
    let g = generators::cycle(16);
    let rule = Precision::relative(0.15).with_max_trials(2048);
    let budget = Budget {
        precision: Some(rule),
        seed: 3,
        ..Budget::default()
    };
    let report = cover(&g, 2, vec![0], budget);
    let consumed = report.consumed_trials();
    assert!(consumed < 2048, "consumed {consumed} — never stopped early");
    assert!(report.half_width() <= 0.15 * report.mean());
    assert!(consumed >= rule.min_trials as u64);
}

#[test]
fn cover_identical_across_thread_counts() {
    let g = generators::cycle(24);
    let run = |threads| {
        cover(
            &g,
            2,
            vec![0],
            Budget {
                threads,
                ..fixed(16, 5)
            },
        )
    };
    let base = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(run(threads).groups, base.groups, "threads={threads}");
    }
}

#[test]
fn adaptive_cover_consumed_count_identical_across_thread_counts() {
    let g = generators::cycle(16);
    let rule = Precision::relative(0.2)
        .with_min_trials(8)
        .with_max_trials(512);
    let run = |threads| {
        cover(
            &g,
            2,
            vec![0],
            Budget {
                precision: Some(rule),
                seed: 11,
                threads,
                ..Budget::default()
            },
        )
    };
    let base = run(1);
    for threads in [2, 4, 8] {
        let report = run(threads);
        assert_eq!(
            report.consumed_trials(),
            base.consumed_trials(),
            "threads={threads}"
        );
        assert_eq!(report.groups, base.groups, "threads={threads}");
    }
}

#[test]
fn adaptive_cover_stops_at_the_cap_on_hopeless_precision() {
    // A precision no sample will reach: the run must stop at the cap.
    let g = generators::cycle(12);
    let rule = Precision::relative(1e-6)
        .with_min_trials(4)
        .with_max_trials(64);
    let budget = Budget {
        precision: Some(rule),
        seed: 2,
        ..Budget::default()
    };
    assert_eq!(cover(&g, 1, vec![0], budget).consumed_trials(), 64);
}

#[test]
fn adaptive_cover_is_a_prefix_of_the_fixed_run() {
    // Trial i draws the same stream under either budget, so an adaptive
    // run that consumed m trials holds exactly the fixed-budget sample of
    // m trials.
    let g = generators::torus_2d(4);
    let rule = Precision::relative(0.25)
        .with_min_trials(8)
        .with_max_trials(256);
    let adaptive = cover(
        &g,
        1,
        vec![0],
        Budget {
            precision: Some(rule),
            seed: 5,
            ..Budget::default()
        },
    );
    let m = adaptive.consumed_trials() as usize;
    let fixed = cover(&g, 1, vec![0], fixed(m, 5));
    assert_eq!(adaptive.groups, fixed.groups);
}

#[test]
fn different_starts_draw_different_streams() {
    let g = generators::cycle(24);
    let report = cover(&g, 1, vec![0, 1], fixed(8, 5));
    // Vertex-transitive graph: same distribution, but distinct streams
    // mean samples differ with overwhelming probability.
    assert_ne!(
        report.groups[0].moments.min(),
        report.groups[1].moments.min()
    );
}

#[test]
fn clique_cover_matches_coupon_collector() {
    let n = 24;
    let g = generators::complete_with_loops(n);
    let report = cover(&g, 1, vec![0], fixed(600, 11));
    let expect = n as f64 * harmonic(n as u64);
    let ci = report.groups[0].ci(report.confidence());
    assert!(
        ci.contains(expect) || (report.mean() - expect).abs() < expect * 0.08,
        "mean {} vs nH_n {expect}",
        report.mean()
    );
}

#[test]
fn cover_ci_shrinks_with_trials() {
    let g = generators::torus_2d(5);
    let small = cover(&g, 1, vec![0], fixed(16, 3));
    let large = cover(&g, 1, vec![0], fixed(256, 3));
    assert!(large.half_width() < small.half_width());
}

#[test]
fn worst_start_on_path_is_interior() {
    // On the path the worst start is interior (the walk must reach both
    // ends: ≈ 1.25·L² from the center vs L² from an endpoint). The
    // candidates are exhaustive at n ≤ 16, so the largest group mean must
    // come from an interior start.
    let g = generators::path(12);
    let starts = worst_start_candidates(g.n());
    assert_eq!(starts, (0..12).collect::<Vec<u32>>());
    let report = cover(&g, 1, starts.clone(), fixed(192, 4));
    let (worst, group) = starts
        .iter()
        .zip(&report.groups)
        .max_by(|a, b| a.1.mean().total_cmp(&b.1.mean()))
        .unwrap();
    assert!(group.mean() >= report.groups[0].mean());
    assert!(
        *worst != 0 && *worst != 11,
        "endpoint {worst} reported as worst; interior starts dominate on a path"
    );
}

#[test]
fn worst_start_candidates_sample_eight_starts_on_larger_graphs() {
    let g = generators::cycle(64);
    let starts = worst_start_candidates(g.n());
    assert_eq!(starts, vec![0, 8, 16, 24, 32, 40, 48, 56]);
    let report = cover(&g, 2, starts, fixed(8, 1));
    assert_eq!(report.groups.len(), 8);
    assert!(report.groups.iter().all(|group| group.mean() > 0.0));
}

#[test]
#[should_panic(expected = "disconnected")]
fn disconnected_cover_is_rejected() {
    let mut b = mrw_graph::GraphBuilder::new(4);
    b.add_edge(0, 1);
    b.add_edge(2, 3);
    let g = b.build("frag");
    cover(&g, 1, vec![0], fixed(4, 0));
}

/// `QuerySpec::resolve` is the gate in front of `Session`: every spec
/// `Session::new` or `Session::run` would panic on is an `Err` there (a
/// panic inside the gate fails the test), and one valid spec per query
/// kind resolves and runs.
#[test]
fn the_spec_gate_refuses_every_session_precondition() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let spec = |graph: GraphSpec, query: Query, budget: Budget| QuerySpec {
        graph,
        query,
        budget,
    };
    let cycle = || GraphSpec::new("cycle", 16);
    // gcd(8, 2) = 2: two components.
    let split = || GraphSpec {
        jumps: vec![2],
        ..GraphSpec::new("circulant", 8)
    };
    let on_cycle = |query: Query| spec(cycle(), query, fixed(4, 1));
    let cover = |k, starts| Query::Cover { k, starts };
    let partial = |k, start, gammas| Query::PartialCover { k, start, gammas };
    let hitting = |from, to| Query::Hitting { from, to, cap: 64 };
    let meeting = |a, b, laziness| Query::Meeting {
        a,
        b,
        laziness,
        cap: 64,
    };
    let pursuit = |ks, hunters, prey| Query::Pursuit {
        ks,
        hunters,
        prey,
        strategy: PreyStrategy::RandomWalk,
        cap: 64,
    };
    let ladder = |start, ks| Query::SpeedupLadder { start, ks };
    let walk_cap = 402_653_185;
    let adaptive = |max| Budget {
        precision: Some(Precision::relative(0.1).with_max_trials(max)),
        ..fixed(4, 1)
    };

    let refused = [
        spec(cycle(), cover(2, vec![0]), fixed(0, 1)),
        spec(cycle(), cover(2, vec![0]), fixed(MAX_TRIALS + 1, 1)),
        spec(cycle(), cover(2, vec![0]), adaptive(MAX_TRIALS + 1)),
        on_cycle(cover(2, vec![16])),
        on_cycle(partial(2, 16, vec![0.5])),
        on_cycle(hitting(16, 0)),
        on_cycle(hitting(0, 16)),
        on_cycle(meeting(16, 0, None)),
        on_cycle(meeting(0, 16, None)),
        on_cycle(pursuit(vec![2], 16, 0)),
        on_cycle(pursuit(vec![2], 0, 16)),
        on_cycle(ladder(16, vec![2])),
        on_cycle(cover(0, vec![0])),
        on_cycle(partial(0, 0, vec![0.5])),
        on_cycle(cover(2, vec![])),
        on_cycle(partial(2, 0, vec![])),
        on_cycle(partial(2, 0, vec![0.0])),
        on_cycle(partial(2, 0, vec![1.5])),
        on_cycle(ladder(0, vec![])),
        on_cycle(pursuit(vec![], 0, 8)),
        on_cycle(ladder(0, vec![2, 0])),
        on_cycle(pursuit(vec![2, 0], 0, 8)),
        on_cycle(cover(walk_cap, vec![0])),
        on_cycle(partial(walk_cap, 0, vec![0.5])),
        on_cycle(ladder(0, vec![walk_cap])),
        on_cycle(pursuit(vec![walk_cap], 0, 8)),
        on_cycle(meeting(0, 8, Some(1.0))),
        spec(split(), cover(2, vec![0]), fixed(4, 1)),
        spec(split(), partial(2, 0, vec![1.0]), fixed(4, 1)),
        spec(split(), hitting(0, 1), fixed(4, 1)),
        spec(split(), Query::HMax, fixed(4, 1)),
        spec(split(), ladder(0, vec![2]), fixed(4, 1)),
        spec(GraphSpec::new("cycle", 2), cover(2, vec![0]), fixed(4, 1)),
        spec(
            GraphSpec {
                backend: BackendChoice::Csr,
                ..GraphSpec::new("cycle", 2)
            },
            cover(2, vec![0]),
            fixed(4, 1),
        ),
        spec(
            GraphSpec {
                backend: BackendChoice::Implicit,
                ..GraphSpec::new("cycle", 2)
            },
            cover(2, vec![0]),
            fixed(4, 1),
        ),
    ];
    for spec in &refused {
        match catch_unwind(AssertUnwindSafe(|| spec.resolve())) {
            Ok(Err(_)) => {}
            Ok(Ok(g)) => panic!("{spec:?} resolved to {}", g.name()),
            Err(_) => panic!("{spec:?} panicked in the gate"),
        }
    }

    let valid = [
        on_cycle(cover(2, vec![0, 15])),
        on_cycle(partial(2, 15, vec![0.5, 1.0])),
        on_cycle(hitting(0, 15)),
        on_cycle(Query::HMax),
        on_cycle(meeting(0, 15, Some(0.5))),
        on_cycle(pursuit(vec![1, 2], 0, 15)),
        on_cycle(ladder(15, vec![1, 2])),
        spec(cycle(), cover(2, vec![0]), adaptive(MAX_TRIALS)),
    ];
    for spec in &valid[..7] {
        let g = spec.resolve().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        let report = Session::new(spec.budget.clone()).run(&g, &spec.query);
        assert!(report.is_complete(), "{spec:?}");
    }
    valid[7]
        .resolve()
        .expect("an adaptive cap of exactly 2^24 resolves");
}
