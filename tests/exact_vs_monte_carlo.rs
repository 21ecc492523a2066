//! Cross-validation: the spectral (exact) and walk-engine (Monte-Carlo)
//! computations of the same quantities must agree.
//!
//! This is the strongest correctness check in the repository: the two
//! paths share no code below the graph representation.

use many_walks::graph::generators;
use many_walks::spectral::{hitting_times_all, mixing_time, MixingConfig, TransitionOp};
use many_walks::walks::engine::{Engine, SimpleStep, Trace};
use many_walks::walks::{walk_rng, Budget, Query, Session, WalkRng};

/// The first `len` positions of one walk from vertex 0, start included.
fn trace_from_zero(g: &many_walks::graph::Graph, len: usize, rng: &mut WalkRng) -> Vec<u32> {
    Engine::new(g, SimpleStep, Trace::new(len))
        .cap(len as u64)
        .run(&[0], rng)
        .observer
        .into_positions()
}

#[test]
fn hitting_time_mc_matches_fundamental_matrix() {
    for g in [
        generators::cycle(20),
        generators::barbell(21),
        generators::balanced_tree(2, 4),
        generators::torus_2d(5),
    ] {
        let exact = hitting_times_all(&g);
        // A handful of (u, v) pairs per graph.
        let n = g.n() as u32;
        for (u, v) in [(0u32, n / 2), (n / 3, n - 1), (n - 1, 0)] {
            if u == v {
                continue;
            }
            let session = Session::new(Budget {
                trials: 1500,
                seed: 5,
                threads: 4,
                ..Budget::default()
            });
            let mc = session.run(
                &g,
                &Query::Hitting {
                    from: u,
                    to: v,
                    cap: 50_000_000,
                },
            );
            assert_eq!(mc.groups[0].censored, 0, "{}: trials capped", g.name());
            let e = exact.get(u, v);
            let m = mc.mean();
            let rel = (m - e).abs() / e.max(1.0);
            assert!(
                rel < 0.12,
                "{}: h({u},{v}) exact {e} vs MC {m} (rel {rel})",
                g.name()
            );
        }
    }
}

#[test]
fn empirical_occupancy_matches_stationary_distribution() {
    // Long-run fraction of time at v should converge to π(v) = δ(v)/2m.
    let g = generators::lollipop(12);
    let pi = many_walks::spectral::stationary_distribution(&g);
    let mut rng = walk_rng(9);
    let steps = 400_000;
    let trace = trace_from_zero(&g, steps, &mut rng);
    let mut counts = vec![0usize; g.n()];
    // Skip a burn-in prefix.
    for &v in &trace[10_000..] {
        counts[v as usize] += 1;
    }
    let total: usize = counts.iter().sum();
    for v in 0..g.n() {
        let emp = counts[v] as f64 / total as f64;
        assert!(
            (emp - pi[v]).abs() < 0.015,
            "vertex {v}: empirical {emp} vs π {}",
            pi[v]
        );
    }
}

#[test]
fn exact_distribution_evolution_matches_sampled_walks() {
    // p^t_{u,·} from the transition operator vs the empirical distribution
    // of many independent walks at time t.
    let g = generators::barbell(13);
    let t = 7usize;
    let op = TransitionOp::new(&g);
    let exact = op.evolve_from(0, t, false);
    let mut counts = vec![0usize; g.n()];
    let walks = 60_000;
    for w in 0..walks as u64 {
        let mut rng = walk_rng(1_000_000 + w);
        let trace = trace_from_zero(&g, t, &mut rng);
        counts[*trace.last().unwrap() as usize] += 1;
    }
    for v in 0..g.n() {
        let emp = counts[v] as f64 / walks as f64;
        assert!(
            (emp - exact[v]).abs() < 0.01,
            "vertex {v} at t={t}: empirical {emp} vs exact {}",
            exact[v]
        );
    }
}

#[test]
fn mixing_time_consistent_with_hitting_scale() {
    // On the odd cycle both t_m and h_max are Θ(n²); their ratio should be
    // a stable constant across sizes (a coarse but code-path-independent
    // consistency check).
    let r = |n: usize| {
        let g = generators::cycle(n);
        let tm = mixing_time(&g, &MixingConfig::default().with_starts(vec![0]))
            .expect("odd cycle mixes") as f64;
        let hmax = hitting_times_all(&g).hmax();
        tm / hmax
    };
    let r15 = r(15);
    let r31 = r(31);
    assert!(
        (r15 / r31 - 1.0).abs() < 0.35,
        "t_m/h_max drifted: {r15} at n=15 vs {r31} at n=31"
    );
}
