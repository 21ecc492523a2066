//! The engine refactor's contract, pinned: the unified `Engine` with a
//! `Simple` process reproduces the pre-refactor hand-rolled loops
//! **bit-for-bit** on seeded RNGs, and the two stepping disciplines agree
//! in distribution.
//!
//! The `legacy` module below is a frozen copy of the seed
//! implementation's inner loops (single cover, k-walk cover in both
//! modes, partial cover, multicover, fixed-horizon probe). If the engine
//! ever drifts — an extra RNG draw, a reordered token, a stopping rule
//! checked at the wrong boundary — these tests fail on the exact seed
//! that exposes it.

use mrw_core::engine::{FullCover, Multicover, PartialCover};
use mrw_core::starts::worst_start_candidates;
use mrw_core::{walk_rng, Budget, Discipline, Engine, Query, Session, SimpleStep};
use mrw_graph::{generators, Graph};
use mrw_stats::ks_two_sample;

/// Frozen pre-refactor loops (verbatim from the seed, minus doc
/// comments, with the function names shortened) — including the one-step sampler itself, so a future change
/// to `mrw_core::walk::step` (e.g. the ROADMAP's batched/SIMD sampling)
/// breaks these tests instead of silently shifting both sides.
mod legacy {
    use mrw_graph::{Graph, NodeBitSet};
    use rand::Rng;

    pub fn step<R: Rng + ?Sized>(g: &Graph, pos: u32, rng: &mut R) -> u32 {
        let d = g.degree(pos);
        debug_assert!(d > 0, "walk stuck at isolated vertex {pos}");
        if d.is_power_of_two() {
            g.neighbor(pos, (rng.gen::<u32>() as usize) & (d - 1))
        } else {
            g.neighbor(pos, rng.gen_range(0..d))
        }
    }

    pub fn single_cover<R: Rng + ?Sized>(g: &Graph, start: u32, rng: &mut R) -> u64 {
        let mut visited = NodeBitSet::new(g.n());
        visited.insert(start);
        let mut remaining = g.n() - 1;
        let mut pos = start;
        let mut steps = 0u64;
        while remaining > 0 {
            pos = step(g, pos, rng);
            steps += 1;
            if visited.insert(pos) {
                remaining -= 1;
            }
        }
        steps
    }

    #[derive(Clone, Copy)]
    pub enum Mode {
        RoundSynchronous,
        Interleaved,
    }

    pub fn kwalk_cover<R: Rng + ?Sized>(g: &Graph, starts: &[u32], mode: Mode, rng: &mut R) -> u64 {
        let n = g.n();
        let mut visited = NodeBitSet::new(n);
        let mut remaining = n;
        for &s in starts {
            if visited.insert(s) {
                remaining -= 1;
            }
        }
        if remaining == 0 {
            return 0;
        }
        let mut pos: Vec<u32> = starts.to_vec();
        let k = pos.len();
        match mode {
            Mode::RoundSynchronous => {
                let mut rounds = 0u64;
                loop {
                    rounds += 1;
                    for p in pos.iter_mut() {
                        *p = step(g, *p, rng);
                        if visited.insert(*p) {
                            remaining -= 1;
                        }
                    }
                    if remaining == 0 {
                        return rounds;
                    }
                }
            }
            Mode::Interleaved => {
                let mut steps = 0u64;
                let mut token = 0usize;
                loop {
                    let p = &mut pos[token];
                    *p = step(g, *p, rng);
                    steps += 1;
                    if visited.insert(*p) {
                        remaining -= 1;
                        if remaining == 0 {
                            return steps.div_ceil(k as u64);
                        }
                    }
                    token += 1;
                    if token == k {
                        token = 0;
                    }
                }
            }
        }
    }

    pub fn kwalk_partial_cover_rounds<R: Rng + ?Sized>(
        g: &Graph,
        starts: &[u32],
        target: usize,
        rng: &mut R,
    ) -> u64 {
        let mut visited = NodeBitSet::new(g.n());
        let mut seen = 0usize;
        for &s in starts {
            if visited.insert(s) {
                seen += 1;
            }
        }
        if seen >= target {
            return 0;
        }
        let mut pos: Vec<u32> = starts.to_vec();
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            for p in pos.iter_mut() {
                *p = step(g, *p, rng);
                if visited.insert(*p) {
                    seen += 1;
                }
            }
            if seen >= target {
                return rounds;
            }
        }
    }

    pub fn kwalk_multicover<R: Rng + ?Sized>(
        g: &Graph,
        starts: &[u32],
        b: u64,
        rng: &mut R,
    ) -> u64 {
        let n = g.n();
        let mut counts = vec![0u64; n];
        let mut lacking = NodeBitSet::new(n);
        for v in 0..n as u32 {
            lacking.insert(v);
        }
        let mut remaining = n;
        let credit =
            |v: u32, counts: &mut Vec<u64>, lacking: &mut NodeBitSet, remaining: &mut usize| {
                counts[v as usize] += 1;
                if counts[v as usize] == b && lacking.remove(v) {
                    *remaining -= 1;
                }
            };
        for &s in starts {
            credit(s, &mut counts, &mut lacking, &mut remaining);
        }
        if remaining == 0 {
            return 0;
        }
        let mut pos: Vec<u32> = starts.to_vec();
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            for p in pos.iter_mut() {
                *p = step(g, *p, rng);
                credit(*p, &mut counts, &mut lacking, &mut remaining);
            }
            if remaining == 0 {
                return rounds;
            }
        }
    }

    pub fn kwalk_covers_within<R: Rng + ?Sized>(
        g: &Graph,
        starts: &[u32],
        rounds: u64,
        rng: &mut R,
    ) -> bool {
        let mut visited = NodeBitSet::new(g.n());
        let mut remaining = g.n();
        for &s in starts {
            if visited.insert(s) {
                remaining -= 1;
            }
        }
        if remaining == 0 {
            return true;
        }
        let mut pos: Vec<u32> = starts.to_vec();
        for _ in 0..rounds {
            for p in pos.iter_mut() {
                *p = step(g, *p, rng);
                if visited.insert(*p) {
                    remaining -= 1;
                }
            }
            if remaining == 0 {
                return true;
            }
        }
        false
    }
}

/// One cover trial from `starts` on an engine under `discipline`.
fn cover_rounds(g: &Graph, starts: &[u32], discipline: Discipline, seed: u64) -> u64 {
    Engine::new(g, SimpleStep, FullCover::new(g.n()))
        .discipline(discipline)
        .run(starts, &mut walk_rng(seed))
        .rounds
}

/// The four families the acceptance criterion names.
fn families() -> Vec<Graph> {
    vec![
        generators::cycle(48),
        generators::torus_2d(6),
        generators::complete_with_loops(24),
        generators::barbell(13),
    ]
}

#[test]
fn round_synchronous_cover_is_bit_for_bit_legacy() {
    for g in families() {
        for k in [1usize, 2, 4, 8] {
            for seed in 0..24u64 {
                let starts = vec![0u32; k];
                let new = cover_rounds(&g, &starts, Discipline::RoundSynchronous, seed);
                let old = legacy::kwalk_cover(
                    &g,
                    &starts,
                    legacy::Mode::RoundSynchronous,
                    &mut walk_rng(seed),
                );
                assert_eq!(new, old, "{} k={k} seed={seed}", g.name());
            }
        }
    }
}

#[test]
fn interleaved_cover_is_bit_for_bit_legacy() {
    for g in families() {
        for k in [1usize, 3, 8] {
            for seed in 0..24u64 {
                let starts = vec![0u32; k];
                let new = cover_rounds(&g, &starts, Discipline::Interleaved, seed);
                let old = legacy::kwalk_cover(
                    &g,
                    &starts,
                    legacy::Mode::Interleaved,
                    &mut walk_rng(seed),
                );
                assert_eq!(new, old, "{} k={k} seed={seed}", g.name());
            }
        }
    }
}

#[test]
fn distinct_starts_also_bit_for_bit() {
    let g = generators::barbell(13);
    for seed in 0..32u64 {
        let starts = [1u32, 7, 6];
        let new = cover_rounds(&g, &starts, Discipline::RoundSynchronous, seed);
        let old = legacy::kwalk_cover(
            &g,
            &starts,
            legacy::Mode::RoundSynchronous,
            &mut walk_rng(seed),
        );
        assert_eq!(new, old, "seed={seed}");
    }
}

#[test]
fn single_cover_is_bit_for_bit_legacy() {
    for g in families() {
        for seed in 0..32u64 {
            let new = cover_rounds(&g, &[0], Discipline::RoundSynchronous, seed);
            let old = legacy::single_cover(&g, 0, &mut walk_rng(seed));
            assert_eq!(new, old, "{} seed={seed}", g.name());
        }
    }
}

#[test]
fn partial_cover_is_bit_for_bit_legacy() {
    for g in families() {
        let targets = [1, g.n() / 2, g.n()];
        for &target in &targets {
            for seed in 0..16u64 {
                let starts = [0u32, 0];
                let new = Engine::new(&g, SimpleStep, PartialCover::new(g.n(), target))
                    .run(&starts, &mut walk_rng(seed))
                    .rounds;
                let old =
                    legacy::kwalk_partial_cover_rounds(&g, &starts, target, &mut walk_rng(seed));
                assert_eq!(new, old, "{} target={target} seed={seed}", g.name());
            }
        }
    }
}

#[test]
fn multicover_is_bit_for_bit_legacy() {
    for g in families() {
        for b in [1u64, 2, 3] {
            for seed in 0..12u64 {
                let starts = [0u32, 0];
                let new = Engine::new(&g, SimpleStep, Multicover::new(g.n(), b))
                    .run(&starts, &mut walk_rng(seed))
                    .rounds;
                let old = legacy::kwalk_multicover(&g, &starts, b, &mut walk_rng(seed));
                assert_eq!(new, old, "{} b={b} seed={seed}", g.name());
            }
        }
    }
}

#[test]
fn fixed_horizon_probe_is_bit_for_bit_legacy() {
    let g = generators::torus_2d(6);
    for rounds in [0u64, 1, 10, 200] {
        for seed in 0..16u64 {
            let starts = [0u32, 0, 0];
            let new = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .cap(rounds)
                .run(&starts, &mut walk_rng(seed))
                .stopped;
            let old = legacy::kwalk_covers_within(&g, &starts, rounds, &mut walk_rng(seed));
            assert_eq!(new, old, "rounds={rounds} seed={seed}");
        }
    }
}

#[test]
fn engine_scalar_path_is_bit_for_bit_legacy() {
    // `BatchMode::Never` forces `drive_scalar_sync`, the frozen legacy
    // loop. The batched dispatch has been rebuilt around it twice
    // (degree-class buckets, then the flat pick-table sweep); this pins
    // that neither rebuild leaked into the scalar path — including on the
    // irregular families whose *batched* routing changed.
    use mrw_core::engine::BatchMode;
    let graphs = vec![
        generators::cycle(48),
        generators::torus_2d(6),
        generators::barbell(13),
        generators::star(20),
        generators::lollipop(17),
    ];
    for g in &graphs {
        for k in [1usize, 4, 8] {
            for seed in 0..12u64 {
                let starts = vec![0u32; k];
                let engine = Engine::new(g, SimpleStep, FullCover::new(g.n()))
                    .batch(BatchMode::Never)
                    .run(&starts, &mut walk_rng(seed))
                    .rounds;
                let old = legacy::kwalk_cover(
                    g,
                    &starts,
                    legacy::Mode::RoundSynchronous,
                    &mut walk_rng(seed),
                );
                assert_eq!(engine, old, "{} k={k} seed={seed}", g.name());
            }
        }
    }
}

#[test]
fn disciplines_agree_in_distribution_ks() {
    // The two disciplines define the same process; their cover-time
    // samples must pass a two-sample KS test at any sane level.
    let g = generators::torus_2d(6);
    let trials = 400u64;
    let sync: Vec<f64> = (0..trials)
        .map(|t| cover_rounds(&g, &[0, 0, 0, 0], Discipline::RoundSynchronous, t) as f64)
        .collect();
    let inter: Vec<f64> = (0..trials)
        .map(|t| cover_rounds(&g, &[0, 0, 0, 0], Discipline::Interleaved, 100_000 + t) as f64)
        .collect();
    let ks = ks_two_sample(&sync, &inter);
    assert!(
        !ks.rejects_at(0.01),
        "disciplines diverged: D = {}, p = {}",
        ks.statistic,
        ks.p_value
    );
}

#[test]
fn estimator_parallel_fanout_matches_serial_exactly() {
    // The flattened (start × trial) fan-out must not change any estimate:
    // the worst-start probes on 1 thread == 8 threads, sample for sample.
    let g = generators::cycle(32);
    let query = Query::Cover {
        k: 2,
        starts: worst_start_candidates(g.n()),
    };
    let run = |threads: usize| {
        Session::new(Budget {
            trials: 16,
            seed: 3,
            threads,
            ..Budget::default()
        })
        .run(&g, &query)
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.groups.len(), 8);
    assert_eq!(serial, parallel);
}
