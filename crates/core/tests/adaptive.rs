//! Property tests for the adaptive (precision-targeted) trial budget:
//! the ISSUE-3 contract. Across a randomized cloud of (graph size, walk
//! count, seed, target) an adaptive cover estimate must
//!
//! (a) never consume more trials than the rule's hard cap,
//! (b) achieve the requested half-width whenever it stops below the cap,
//! (c) consume an identical trial count across 1/2/4-thread pools on a
//!     fixed seed — the wave schedule is part of the determinism
//!     contract, not a scheduling accident.
//!
//! The wave driver itself (`query::waves::drive`) is pinned directly
//! against a fake executor backed by a table of outcomes: every group's
//! consumed count, retirement boundary, and cap finalization must match a
//! hand-written per-group sequential loop.

use std::ops::Range;

use mrw_core::query::waves::{self, WaveExecutor};
use mrw_core::query::Group;
use mrw_core::{Budget, Precision, Query, Report, Session};
use mrw_graph::{generators, Graph};
use mrw_stats::{IntMoments, Trials};
use proptest::prelude::*;

/// One recorded `window(active, window, next)` request.
type Call = (Option<Vec<usize>>, Range<usize>, Option<Range<usize>>);

/// A wave executor answering from a table of per-trial outcomes
/// (`table[g][i]` is trial `i` of group `g`), recording every request.
struct TableExecutor {
    table: Vec<Vec<u64>>,
    calls: Vec<Call>,
}

impl WaveExecutor for TableExecutor {
    type Error = String;

    fn window(
        &mut self,
        active: Option<&[usize]>,
        window: Range<usize>,
        next: Option<Range<usize>>,
    ) -> Result<Vec<Group>, String> {
        self.calls
            .push((active.map(<[usize]>::to_vec), window.clone(), next));
        let all: Vec<usize> = (0..self.table.len()).collect();
        Ok(active
            .unwrap_or(&all)
            .iter()
            .map(|&g| prefix(&self.table[g][..window.end]))
            .collect())
    }
}

/// The exact statistics of one group's outcome prefix.
fn prefix(outcomes: &[u64]) -> Group {
    let mut moments = IntMoments::new();
    for &x in outcomes {
        moments.push(x);
    }
    Group {
        label: String::new(),
        trials: outcomes.len() as u64,
        moments,
        censored: 0,
    }
}

/// The per-group sequential loop, written out by hand: sample the next
/// wave, stop once the rule holds on the prefix or the cap is reached.
fn consumed_by_hand(rule: &Precision, outcomes: &[u64]) -> usize {
    let mut consumed = 0;
    loop {
        let wave = rule.next_wave(consumed);
        if wave == 0 {
            return consumed;
        }
        consumed += wave;
        if rule.satisfied_by(&prefix(&outcomes[..consumed]).summary()) {
            return consumed;
        }
    }
}

/// A deterministic outcome table: group `g` draws from
/// `[1000, 1000 + spread_g)`, with spreads varied per group so groups
/// retire at different windows (or never, and finalize at the cap).
fn table(seed: u64, groups: usize, cap: usize) -> Vec<Vec<u64>> {
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..groups)
        .map(|g| {
            let spread = 1 + mix(seed ^ ((g as u64) << 48)) % 4000;
            (0..cap)
                .map(|i| 1000 + mix(seed.wrapping_mul(31) ^ ((g as u64) << 40) ^ i as u64) % spread)
                .collect()
        })
        .collect()
}

/// The `k`-walk cover estimate from vertex 0 under `budget`.
fn cover(g: &Graph, k: usize, budget: Budget) -> Report {
    Session::new(budget).run(g, &Query::Cover { k, starts: vec![0] })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adaptive_run_honors_cap_and_target(
        n in 8usize..32,
        k in 1usize..5,
        seed in 0u64..1_000,
        rel in 0.1f64..0.4,
    ) {
        let g = generators::cycle(n);
        let rule = Precision::relative(rel).with_min_trials(8).with_max_trials(256);
        let budget = Budget { precision: Some(rule), seed, ..Budget::default() };
        let est = cover(&g, k, budget);
        let consumed = est.consumed_trials() as usize;
        // (a) floor ≤ consumed ≤ cap, always.
        prop_assert!(consumed >= rule.min_trials, "below floor: {consumed}");
        prop_assert!(consumed <= rule.max_trials, "cap exceeded: {consumed}");
        // (b) stopping below the cap certifies the target.
        if consumed < rule.max_trials {
            prop_assert!(
                est.half_width() <= rel * est.mean().abs() + 1e-12,
                "stopped at {consumed} with half-width {} > {rel} × {}",
                est.half_width(),
                est.mean()
            );
        }
    }

    #[test]
    fn adaptive_consumed_count_identical_across_pools(
        n in 8usize..24,
        seed in 0u64..1_000,
    ) {
        let g = generators::torus_2d(4 + n % 4);
        let rule = Precision::relative(0.2).with_min_trials(8).with_max_trials(128);
        let run = |threads: usize| {
            cover(&g, 2, Budget { precision: Some(rule), seed, threads, ..Budget::default() })
        };
        // (c) 1-, 2-, and 4-thread pools agree byte-for-byte: same
        // consumed count, same sample moments.
        let base = run(1);
        for threads in [2usize, 4] {
            let est = run(threads);
            prop_assert_eq!(est.consumed_trials(), base.consumed_trials(), "threads={}", threads);
            prop_assert_eq!(&est.groups, &base.groups, "threads={}", threads);
        }
    }

    #[test]
    fn hopeless_targets_stop_exactly_at_cap(
        n in 8usize..24,
        seed in 0u64..1_000,
    ) {
        let g = generators::cycle(n);
        let rule = Precision::absolute(1e-9).with_min_trials(4).with_max_trials(48);
        let budget = Budget { precision: Some(rule), seed, ..Budget::default() };
        let est = cover(&g, 1, budget);
        prop_assert_eq!(est.consumed_trials(), 48);
    }

    #[test]
    fn driver_matches_the_per_group_sequential_loop(
        floor in 2usize..24,
        cap_extra in 0usize..300,
        rel in 0.02f64..0.5,
        groups in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let cap = floor + cap_extra;
        let rule = Precision::relative(rel).with_min_trials(floor).with_max_trials(cap);
        let table = table(seed, groups, cap);
        let mut exec = TableExecutor { table: table.clone(), calls: Vec::new() };
        let finished = waves::drive(Trials::Adaptive(rule), &mut exec).unwrap();
        prop_assert_eq!(finished.len(), groups);
        let expected: Vec<usize> = table.iter().map(|t| consumed_by_hand(&rule, t)).collect();
        for (g, (group, &consumed)) in finished.iter().zip(&expected).enumerate() {
            // Consumed count and statistics: exactly the hand loop's prefix.
            prop_assert_eq!(group, &prefix(&table[g][..consumed]), "group {}", g);
            // Retirement below the cap certifies the rule; otherwise the
            // group was finalized at the cap.
            let satisfied = rule.satisfied_by(&group.summary());
            prop_assert!(satisfied || consumed == cap, "group {} stopped early at {}", g, consumed);
        }
        // The requests: contiguous windows from 0, the first one for every
        // group, later ones only for groups the hand loop still runs there,
        // and each request announcing the window that actually follows.
        let mut end = 0;
        for (i, (active, window, next)) in exec.calls.iter().enumerate() {
            prop_assert_eq!(window.start, end);
            end = window.end;
            let still: Vec<usize> = (0..groups).filter(|&g| expected[g] >= window.end).collect();
            match active {
                None => prop_assert_eq!(i, 0),
                Some(ids) => prop_assert_eq!(ids, &still),
            }
            if let Some((_, following, _)) = exec.calls.get(i + 1) {
                prop_assert_eq!(next.as_ref(), Some(following));
            }
        }
        prop_assert_eq!(end, expected.iter().copied().max().unwrap_or(0));
    }
}

/// A fixed budget is the driver's one-window case: every group is asked
/// once for `[0, n)` and finalized there, with no rule involved — and an
/// empty budget asks for nothing.
#[test]
fn fixed_budget_is_one_window() {
    let table = table(7, 3, 40);
    let mut exec = TableExecutor {
        table: table.clone(),
        calls: Vec::new(),
    };
    let finished = waves::drive(Trials::Fixed(40), &mut exec).unwrap();
    assert_eq!(exec.calls, vec![(None, 0..40, None)]);
    for (g, group) in finished.iter().enumerate() {
        assert_eq!(group, &prefix(&table[g]));
    }
    exec.calls.clear();
    assert!(waves::drive(Trials::Fixed(0), &mut exec)
        .unwrap()
        .is_empty());
    assert!(exec.calls.is_empty());
}

/// An executor answering for the wrong number of groups is a driver error,
/// never a panic (the driver runs on serve's request path).
#[test]
fn inconsistent_executors_are_errors() {
    struct Forgetful;
    impl WaveExecutor for Forgetful {
        type Error = String;
        fn window(
            &mut self,
            active: Option<&[usize]>,
            _window: Range<usize>,
            _next: Option<Range<usize>>,
        ) -> Result<Vec<Group>, String> {
            // Two groups at first, then none at all.
            Ok(match active {
                None => vec![prefix(&[1, 900]), prefix(&[2, 800])],
                Some(_) => Vec::new(),
            })
        }
    }
    let rule = Precision::absolute(1e-9)
        .with_min_trials(2)
        .with_max_trials(8);
    let err = waves::drive(Trials::Adaptive(rule), &mut Forgetful).unwrap_err();
    assert!(err.contains("expected 2"), "{err}");
}
