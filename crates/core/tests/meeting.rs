//! Meeting and pursuit games: two walks until they collide, and `k`
//! hunters against a prey that hides, wanders, or evades (the paper's §1
//! metaphor). Single games run on the engine's [`Meeting`] and
//! [`Pursuit`] observers; estimates run through [`Session`].

use mrw_core::engine::{CompiledProcess, Engine, Meeting, Pursuit, SimpleStep};
use mrw_core::query::{Budget, Query, Report, Session};
use mrw_core::{walk_rng, PreyStrategy, WalkProcess};
use mrw_graph::{generators, Graph};

/// Rounds until two walks of `process` from `a` and `b` meet, or `None`
/// once `cap` rounds pass: one meeting game on a default engine.
fn meeting(g: &Graph, a: u32, b: u32, process: WalkProcess, cap: u64, seed: u64) -> Option<u64> {
    let out = Engine::new(g, CompiledProcess::new(process, g), Meeting::new())
        .cap(cap)
        .run(&[a, b], &mut walk_rng(seed));
    out.stopped.then_some(out.rounds)
}

/// Rounds for simple-walk hunters from `hunters` to catch a prey from
/// `prey`, or `None` once `cap` rounds pass: one pursuit game on a default
/// engine.
fn pursuit(
    g: &Graph,
    hunters: &[u32],
    prey: u32,
    strategy: PreyStrategy,
    cap: u64,
    seed: u64,
) -> Option<u64> {
    let out = Engine::new(g, SimpleStep, Pursuit::new(prey, strategy))
        .cap(cap)
        .run(hunters, &mut walk_rng(seed));
    out.stopped.then_some(out.rounds)
}

/// Plays `trials` pursuit games of `k` hunters from `hunters` through
/// one [`Query::Pursuit`] rung, with the `(trials, seed)` shape these
/// tests were written against.
#[allow(clippy::too_many_arguments)] // one argument per game parameter
fn catch(
    g: &Graph,
    hunters: u32,
    prey: u32,
    k: usize,
    strategy: PreyStrategy,
    cap: u64,
    trials: impl Into<mrw_stats::Trials>,
    seed: u64,
) -> Report {
    let (fixed, precision) = match trials.into() {
        mrw_stats::Trials::Fixed(n) => (n, None),
        mrw_stats::Trials::Adaptive(rule) => (rule.max_trials, Some(rule)),
    };
    let budget = Budget {
        trials: fixed,
        seed,
        precision,
        ..Budget::default()
    };
    let query = Query::Pursuit {
        ks: vec![k],
        hunters,
        prey,
        strategy,
        cap,
    };
    Session::new(budget).run(g, &query)
}

#[test]
fn same_start_meets_instantly() {
    let g = generators::cycle(8);
    assert_eq!(meeting(&g, 3, 3, WalkProcess::Simple, 10, 0), Some(0));
}

#[test]
fn bipartite_parity_blocks_simple_meeting() {
    // Even cycle, odd start distance: simple walks flip sides every
    // round — they can NEVER meet. Deterministic impossibility.
    let g = generators::cycle(8);
    for seed in 0..20 {
        assert_eq!(
            meeting(&g, 0, 1, WalkProcess::Simple, 5_000, seed),
            None,
            "parity violated at seed {seed}"
        );
    }
}

#[test]
fn laziness_breaks_parity() {
    let g = generators::cycle(8);
    let mut met = 0;
    for seed in 0..20 {
        if meeting(&g, 0, 1, WalkProcess::Lazy(0.5), 5_000, seed).is_some() {
            met += 1;
        }
    }
    assert_eq!(met, 20, "lazy walks failed to meet");
}

#[test]
fn clique_meeting_time_is_about_n() {
    // On K_n+loops both walks land uniformly: collision prob 1/n per
    // round ⇒ mean ≈ n.
    let n = 24;
    let g = generators::complete_with_loops(n);
    let trials = 2000u64;
    let mut total = 0u64;
    for t in 0..trials {
        total += meeting(&g, 0, 1, WalkProcess::Simple, 100_000, t).expect("meets");
    }
    let mean = total as f64 / trials as f64;
    assert!(
        (mean - n as f64).abs() < n as f64 * 0.1,
        "mean {mean} vs n = {n}"
    );
}

#[test]
fn hiding_prey_on_clique_is_hitting_time() {
    // One hunter on K_n+loops: catch prob 1/n per round ⇒ mean ≈ n.
    let n = 20;
    let g = generators::complete_with_loops(n);
    let est = catch(&g, 0, 7, 1, PreyStrategy::Hide, 1_000_000, 2000, 1);
    assert_eq!(est.groups[0].censored, 0);
    assert_eq!(est.consumed_trials(), 2000);
    let mean = est.mean();
    assert!((mean - n as f64).abs() < n as f64 * 0.1, "mean {mean}");
}

#[test]
fn k_hunters_catch_hider_about_k_times_faster_on_clique() {
    let n = 32;
    let g = generators::complete_with_loops(n);
    let m1 = catch(&g, 0, 9, 1, PreyStrategy::Hide, 1_000_000, 1500, 2).mean();
    let m8 = catch(&g, 0, 9, 8, PreyStrategy::Hide, 1_000_000, 1500, 3).mean();
    let speedup = m1 / m8;
    // Per-round catch prob goes 1/n → 1−(1−1/n)^8 ≈ 8/n.
    assert!(
        (speedup - 8.0).abs() < 1.6,
        "hunting speed-up {speedup} not ≈ 8"
    );
}

#[test]
fn moving_prey_caught_no_slower_than_half_speed_on_clique() {
    // On the loopy clique a moving prey doubles the collision checks
    // per round; the catch should not be slower than against a hider.
    let n = 24;
    let g = generators::complete_with_loops(n);
    let hide = catch(&g, 0, 5, 2, PreyStrategy::Hide, 1_000_000, 1500, 4).mean();
    let run = catch(&g, 0, 5, 2, PreyStrategy::RandomWalk, 1_000_000, 1500, 5).mean();
    assert!(
        run < hide * 1.1,
        "moving prey survived longer: {run} vs hider {hide}"
    );
}

#[test]
fn adversarial_prey_never_blunders() {
    // On the cycle the evader can always step away from co-located
    // hunters, so a catch requires the hunters to walk onto it —
    // games still end (drift), but slower than against a blundering
    // uniform walker.
    let g = generators::cycle(16);
    let uniform = catch(&g, 0, 8, 3, PreyStrategy::RandomWalk, 1_000_000, 400, 6);
    let evader = catch(&g, 0, 8, 3, PreyStrategy::Adversarial, 1_000_000, 400, 6);
    assert_eq!(uniform.groups[0].censored, 0);
    assert_eq!(evader.groups[0].censored, 0);
    assert!(
        evader.mean() > uniform.mean(),
        "evader {} caught faster than uniform prey {}",
        evader.mean(),
        uniform.mean()
    );
}

#[test]
fn adversarial_prey_on_two_vertex_graph_is_caught_in_one_round() {
    // K₂: the evader's only neighbor carries the hunter, so it is
    // cornered from the start — it must stay, and the hunter walks
    // onto it on the very first half-step. Deterministically Some(1).
    for g in [generators::path(2), generators::complete(2)] {
        for seed in 0..50 {
            assert_eq!(
                pursuit(&g, &[0], 1, PreyStrategy::Adversarial, 1_000, seed),
                Some(1),
                "2-vertex game not deterministic at seed {seed}"
            );
        }
    }
}

#[test]
fn adversarial_prey_at_star_center_with_ringed_leaves_is_caught_in_one_round() {
    // Prey on the hub, one hunter on every leaf: every neighbor is
    // occupied, so the evader is cornered and must stay; all hunters'
    // only move is leaf → hub. Some(1), every seed.
    let n = 7;
    let g = generators::star(n);
    let hunters: Vec<u32> = (1..n as u32).collect();
    for seed in 0..50 {
        assert_eq!(
            pursuit(&g, &hunters, 0, PreyStrategy::Adversarial, 1_000, seed),
            Some(1),
            "ringed star center escaped at seed {seed}"
        );
    }
}

#[test]
fn adversarial_prey_never_blunders_on_the_star() {
    // Hunter on leaf 1, evader on leaf 2 of a star. Round 1 the
    // hunter must step to the hub; the evader's only neighbor (the
    // hub) is then occupied, so it is cornered and stays — a round-1
    // catch is *impossible* unless the prey blunders into the hub.
    // Round 2 the hunter leaves the hub for a uniform leaf (catch iff
    // it picks the evader's); otherwise the hub is free, the evader
    // must move there, and the hunter's round-3 return to the hub
    // always catches it. So: Some(2) or Some(3), never Some(1) —
    // the "never blunders" law as an observable catch-time property.
    let g = generators::star(6);
    let (mut twos, mut threes) = (0, 0);
    for seed in 0..200 {
        match pursuit(&g, &[1], 2, PreyStrategy::Adversarial, 1_000, seed) {
            Some(2) => twos += 1,
            Some(3) => threes += 1,
            other => panic!("adversarial star game ended with {other:?} at seed {seed}"),
        }
    }
    // Round 2 fires with probability 1/5 — both outcomes must occur.
    assert!(twos > 0 && threes > 0, "twos={twos} threes={threes}");

    // The discriminating contrast: a *uniform* prey blunders into the
    // hub-occupying hunter, so round-1 catches do happen.
    let round_one_blunders = (0..200)
        .filter(|&seed| pursuit(&g, &[1], 2, PreyStrategy::RandomWalk, 1_000, seed) == Some(1))
        .count();
    assert!(
        round_one_blunders > 0,
        "uniform prey never blundered — the contrast is vacuous"
    );
}

#[test]
fn adversarial_prey_cornered_by_full_occupation_stays_and_falls() {
    // K₃ with hunters on both non-prey vertices: every neighbor is
    // occupied every round the hunters stay put in aggregate — the
    // evader can only be taken by a hunter stepping onto it, and with
    // 2 hunters picking uniformly from 2 targets each round the game
    // ends fast. Checks the cornered branch under total occupation.
    let g = generators::complete(3);
    for seed in 0..30 {
        let rounds = pursuit(&g, &[0, 1], 2, PreyStrategy::Adversarial, 10_000, seed)
            .expect("cornered evader must fall");
        assert!(rounds >= 1);
    }
}

#[test]
fn adversarial_prey_cornered_on_clique_still_caught() {
    // On K_n every hunter-free vertex is a neighbor, so the evader
    // keeps dodging; the union of k hunters still corners it in
    // roughly coupon-collector time. Mainly checks termination and
    // the cornered branch.
    let g = generators::complete(8);
    let est = catch(&g, 0, 5, 6, PreyStrategy::Adversarial, 100_000, 200, 7);
    assert_eq!(est.groups[0].censored, 0);
    assert!(est.mean() >= 0.0);
}

#[test]
fn cap_censors() {
    let g = generators::cycle(64);
    // 1 round can't reach a distant prey.
    assert_eq!(pursuit(&g, &[0], 32, PreyStrategy::Hide, 1, 0), None);
    let est = catch(&g, 0, 32, 1, PreyStrategy::Hide, 1, 10, 6);
    assert_eq!(est.groups[0].censored, 10);
    assert_eq!(est.mean(), 1.0);
}

#[test]
fn adaptive_pursuit_stops_early_and_is_reproducible() {
    use mrw_stats::Precision;
    let g = generators::complete_with_loops(16);
    let rule = Precision::relative(0.2)
        .with_min_trials(16)
        .with_max_trials(4000);
    let run = || catch(&g, 0, 7, 2, PreyStrategy::Hide, 1_000_000, rule, 8);
    let a = run();
    let b = run();
    assert!(a.consumed_trials() < 4000, "never stopped early");
    assert!(a.consumed_trials() >= 16);
    assert_eq!(a.consumed_trials(), b.consumed_trials());
    assert_eq!(a.mean(), b.mean());
    // The achieved relative half-width is consistent with the rule
    // that stopped the run.
    assert!(a.groups[0].ci(a.confidence()).relative_half_width() <= 0.2);
}

#[test]
fn start_on_prey_is_instant_catch() {
    let g = generators::cycle(6);
    assert_eq!(
        pursuit(&g, &[2, 4], 4, PreyStrategy::RandomWalk, 10, 0),
        Some(0)
    );
}

#[test]
fn deterministic_per_seed() {
    let g = generators::torus_2d(6);
    let a = pursuit(&g, &[0, 0], 20, PreyStrategy::RandomWalk, 100_000, 9);
    let b = pursuit(&g, &[0, 0], 20, PreyStrategy::RandomWalk, 100_000, 9);
    assert_eq!(a, b);
}
