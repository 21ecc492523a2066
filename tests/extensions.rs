//! Cross-crate integration tests for the extension layer: the spectral
//! eigensolver against the exact pipeline, the
//! generalized walk processes against the paper's engine, and partial
//! coverage / visit statistics against known laws.

use many_walks::graph::{algo, generators, Graph};
use many_walks::spectral::{
    hitting_times_all, lazy_spectrum, max_effective_resistance, mixing_time, mixing_time_sandwich,
    stationary_distribution, summarize_spectrum, walk_spectrum, MixingConfig,
};
use many_walks::walks::engine::{CompiledProcess, FullCover, Multicover, PartialCover};
use many_walks::walks::{
    fraction_target, kwalk_visit_counts, walk_rng, Budget, Engine, Query, Session, SimpleStep,
    WalkProcess, WalkRng,
};

/// Rounds for tokens of `process` from `starts` to cover `g`.
fn process_cover_rounds(g: &Graph, starts: &[u32], process: WalkProcess, rng: &mut WalkRng) -> u64 {
    Engine::new(g, CompiledProcess::new(process, g), FullCover::new(g.n()))
        .run(starts, rng)
        .rounds
}

/// Mean `k`-walk cover time from vertex 0 under `budget`.
fn cover_mean(g: &Graph, k: usize, budget: &Budget) -> f64 {
    Session::new(budget.clone())
        .run(g, &Query::Cover { k, starts: vec![0] })
        .mean()
}

#[test]
fn spectral_sandwich_brackets_exact_mixing_on_every_family() {
    let mut rng = walk_rng(3);
    let graphs = vec![
        generators::cycle(32),
        generators::torus_2d(6),
        generators::hypercube(5),
        generators::complete(24),
        generators::random_regular(32, 6, &mut rng).expect("regular"),
        generators::barbell(31),
        generators::wheel(24),
    ];
    for g in graphs {
        let lazy = summarize_spectrum(&lazy_spectrum(&walk_spectrum(&g)));
        let pi_min = stationary_distribution(&g)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let (lo, hi) = mixing_time_sandwich(&lazy, pi_min);
        let tm = mixing_time(&g, &MixingConfig::lazy()).expect("lazy chain mixes") as f64;
        assert!(
            lo <= tm + 1.0 && tm <= hi,
            "{}: t_m = {tm} outside spectral sandwich [{lo}, {hi}]",
            g.name()
        );
    }
}

#[test]
fn relaxation_time_orders_families_like_table1_mixing_column() {
    // Table 1's mixing order (complete < expander < hypercube < torus2d <
    // cycle) must be reproduced by the purely algebraic relaxation time.
    let mut rng = walk_rng(7);
    let trel = |g: &many_walks::graph::Graph| -> f64 {
        summarize_spectrum(&lazy_spectrum(&walk_spectrum(g))).relaxation_time
    };
    let complete = trel(&generators::complete(64));
    let expander = trel(&generators::random_regular(64, 8, &mut rng).expect("regular"));
    let hypercube = trel(&generators::hypercube(6));
    let torus = trel(&generators::torus_2d(8));
    let cycle = trel(&generators::cycle(64));
    assert!(
        complete < expander,
        "complete {complete} vs expander {expander}"
    );
    assert!(
        expander < hypercube,
        "expander {expander} vs hypercube {hypercube}"
    );
    assert!(hypercube < torus, "hypercube {hypercube} vs torus {torus}");
    assert!(torus < cycle, "torus {torus} vs cycle {cycle}");
}

#[test]
fn resistance_diameter_predicts_cover_difficulty() {
    // Chandra et al.: C(G) = Ω(m·R_max). The barbell's R_max ≫ torus's at
    // equal n must show up as a cover-time gap of the same direction.
    let barbell = generators::barbell(49);
    let torus = generators::torus_2d(7);
    let r_barbell = max_effective_resistance(&barbell, &hitting_times_all(&barbell));
    let r_torus = max_effective_resistance(&torus, &hitting_times_all(&torus));
    assert!(
        r_barbell > r_torus,
        "resistance order: {r_barbell} vs {r_torus}"
    );
    let cfg = Budget {
        trials: 48,
        seed: 11,
        ..Budget::default()
    };
    let c_barbell = cover_mean(&barbell, 1, &cfg);
    let c_torus = cover_mean(&torus, 1, &cfg);
    assert!(c_barbell > c_torus, "cover order: {c_barbell} vs {c_torus}");
}

#[test]
fn metropolis_cover_time_finite_and_bounded_on_irregular_zoo() {
    // The uniform-target walk still covers; on strongly irregular graphs
    // it can even beat the simple walk (it refuses to drown in the bell).
    for g in [
        generators::lollipop(20),
        generators::barbell(21),
        generators::star(16),
    ] {
        let trials = 60u64;
        let mut simple = 0u64;
        let mut metro = 0u64;
        for t in 0..trials {
            simple += process_cover_rounds(&g, &[0], WalkProcess::Simple, &mut walk_rng(t));
            metro +=
                process_cover_rounds(&g, &[0], WalkProcess::Metropolis, &mut walk_rng(900 + t));
        }
        let ratio = metro as f64 / simple as f64;
        assert!(
            ratio > 0.05 && ratio < 20.0,
            "{}: metropolis/simple cover ratio {ratio}",
            g.name()
        );
    }
}

#[test]
fn partial_cover_beats_full_cover_proportionally_harder_on_cycle() {
    // The coupon-collector tail is mild on the cycle (the frontier does
    // the work), but on the clique the last 10% costs ~half the total.
    let clique = generators::complete_with_loops(64);
    let trials = 150u64;
    let mut p90 = 0u64;
    let mut full = 0u64;
    let partial = |target, seed| {
        Engine::new(&clique, SimpleStep, PartialCover::new(64, target))
            .run(&[0], &mut walk_rng(seed))
            .rounds
    };
    for t in 0..trials {
        p90 += partial(fraction_target(64, 0.9), t);
        full += partial(64, 5_000 + t);
    }
    let ratio = p90 as f64 / full as f64;
    // n(H_n − H_{0.1n}) / nH_n ≈ (ln 10)/H_64 ≈ 0.485.
    assert!(
        (ratio - 0.485).abs() < 0.08,
        "clique 90%/full ratio {ratio} (theory ≈ 0.485)"
    );
}

#[test]
fn multicover_scales_subadditively_in_b() {
    // E[time for b visits everywhere] ≤ b · E[cover] plus slack: blanket
    // visits amortize (Winkler–Zuckerman flavor).
    let g = generators::torus_2d(6);
    let trials = 80u64;
    let mean_b = |b: u64, base: u64| -> f64 {
        let mut total = 0u64;
        for t in 0..trials {
            total += Engine::new(&g, SimpleStep, Multicover::new(g.n(), b))
                .run(&[0, 0], &mut walk_rng(base + t))
                .rounds;
        }
        total as f64 / trials as f64
    };
    let c1 = mean_b(1, 0);
    let c3 = mean_b(3, 50_000);
    assert!(c3 > c1, "multicover not increasing");
    assert!(c3 < 3.0 * c1, "multicover super-additive: {c3} vs 3×{c1}");
}

#[test]
fn visit_frequencies_match_spectral_stationary_vector() {
    // The empirical long-run visit frequencies (core) must converge to
    // the stationary distribution computed algebraically (spectral).
    let g = generators::lollipop(14);
    let vc = kwalk_visit_counts(&g, &[0], 300_000, WalkProcess::Simple, &mut walk_rng(4));
    let pi = stationary_distribution(&g);
    assert!(
        vc.tv_distance_to(&pi) < 0.02,
        "TV = {}",
        vc.tv_distance_to(&pi)
    );
}

#[test]
fn new_generators_cover_and_speed_up_sanely() {
    // Watts–Strogatz at β = 0.3 and Barabási–Albert must behave like
    // "fast" families: near-linear speed-up at small k.
    let mut rng = walk_rng(12);
    let ws = generators::watts_strogatz(128, 6, 0.3, &mut rng);
    let ba = generators::barabasi_albert(128, 3, &mut rng);
    for g in [&ws, &ba] {
        assert!(algo::is_connected(g), "{} disconnected", g.name());
        let cfg = Budget {
            trials: 48,
            seed: 5,
            ..Budget::default()
        };
        let c1 = cover_mean(g, 1, &cfg);
        let c4 = cover_mean(g, 4, &cfg);
        let s4 = c1 / c4;
        assert!(
            s4 > 2.0 && s4 < 5.0,
            "{}: S⁴ = {s4} outside the plausible band",
            g.name()
        );
    }
}

#[test]
fn small_world_interpolates_cover_time_between_cycle_and_random() {
    // The Watts–Strogatz knob: cover time at β = 0 (lattice) strictly
    // above β = 0.5, itself comparable to an expander of equal degree.
    let n = 96;
    let cfg = Budget {
        trials: 40,
        seed: 9,
        ..Budget::default()
    };
    let mut rng = walk_rng(21);
    let lattice = generators::watts_strogatz(n, 4, 0.0, &mut rng);
    let small_world = generators::watts_strogatz(n, 4, 0.5, &mut rng);
    let c_lattice = cover_mean(&lattice, 1, &cfg);
    let c_sw = cover_mean(&small_world, 1, &cfg);
    assert!(
        c_lattice > 1.5 * c_sw,
        "rewiring did not accelerate cover: {c_lattice} vs {c_sw}"
    );
}

#[test]
fn lazy_walk_speedup_structure_is_preserved() {
    // Laziness rescales time uniformly, so the *speed-up* S^k is
    // unchanged: check on the cycle at k = 4.
    let g = generators::cycle(48);
    let trials = 200u64;
    let mean = |process: WalkProcess, k: usize, base: u64| -> f64 {
        let starts = vec![0u32; k];
        let mut total = 0u64;
        for t in 0..trials {
            total += process_cover_rounds(&g, &starts, process, &mut walk_rng(base + t));
        }
        total as f64 / trials as f64
    };
    let s_simple = mean(WalkProcess::Simple, 1, 0) / mean(WalkProcess::Simple, 4, 10_000);
    let s_lazy = mean(WalkProcess::Lazy(0.5), 1, 20_000) / mean(WalkProcess::Lazy(0.5), 4, 30_000);
    assert!(
        (s_simple - s_lazy).abs() < 0.35,
        "speed-up not lazy-invariant: {s_simple} vs {s_lazy}"
    );
}
