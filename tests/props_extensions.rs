//! Property-based tests for the extension layer: eigensolver invariants
//! on random symmetric matrices, agreement of the exact hitting-time and
//! resistance routes on random graphs, generator invariants for the
//! small-world families, and monotonicity laws of partial/multicover
//! times.

use many_walks::graph::{algo, generators, GraphBuilder};
use many_walks::spectral::{
    effective_resistance, hitting_times_all, hitting_times_to, jacobi_eigen, walk_spectrum,
    DenseMatrix,
};
use many_walks::walks::engine::{Multicover, PartialCover};
use many_walks::walks::{fraction_target, walk_rng, Engine, SimpleStep, WalkProcess};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jacobi_preserves_trace_and_frobenius_norm(
        n in 2usize..10,
        seed in 0u64..1000,
    ) {
        // Random symmetric matrix from a seeded generator.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let x = next();
                a[(i, j)] = x;
                a[(j, i)] = x;
            }
        }
        let eig = jacobi_eigen(&a);
        // Trace = Σλ.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8, "trace {trace} vs Σλ {sum}");
        // Frobenius² = Σλ² (orthogonal invariance).
        let frob: f64 = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| a[(i, j)] * a[(i, j)])
            .sum();
        let sq: f64 = eig.values.iter().map(|l| l * l).sum();
        prop_assert!((frob - sq).abs() < 1e-8, "‖A‖²={frob} vs Σλ²={sq}");
        // Values sorted descending.
        for w in eig.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn walk_spectrum_bounds_and_top_eigenvalue(n in 3usize..24) {
        let g = generators::cycle(n);
        let s = walk_spectrum(&g);
        prop_assert!((s[0] - 1.0).abs() < 1e-8, "λ₁ = {}", s[0]);
        for &l in &s {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&l), "λ = {l} out of [−1,1]");
        }
    }

    #[test]
    fn one_target_hitting_matches_all_pairs_on_random_connected_graphs(
        n in 4usize..16,
        extra in 0usize..20,
        seed in 0u64..500,
    ) {
        // Spanning path + random chords = connected graph.
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(v - 1, v);
        }
        let mut rng = walk_rng(seed);
        for _ in 0..extra {
            use rand::Rng;
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build("prop-conn");
        prop_assert!(algo::is_connected(&g));
        // The fundamental-matrix route against the one-target solve.
        let ht = hitting_times_all(&g);
        let to_zero = hitting_times_to(&g, 0);
        for v in 0..n as u32 {
            prop_assert!(
                (ht.get(v, 0) - to_zero[v as usize]).abs() < 1e-5,
                "v={v}: all pairs {} vs one target {}",
                ht.get(v, 0),
                to_zero[v as usize]
            );
        }
    }

    #[test]
    fn resistance_is_a_metric_sample(
        n in 5usize..14,
        seed in 0u64..200,
    ) {
        // Triangle inequality on effective resistance for a random triple
        // (resistance is a metric on connected graphs).
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(v - 1, v);
        }
        b.add_edge(0, (n - 1) as u32); // ring + chords
        let mut rng = walk_rng(seed);
        use rand::Rng;
        for _ in 0..n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build("prop-metric");
        let (x, y, z) = (0u32, (n as u32) / 2, (n as u32) - 1);
        prop_assume!(x != y && y != z && x != z);
        let ht = hitting_times_all(&g);
        let r = |a: u32, c: u32| effective_resistance(&g, &ht, a, c);
        let (rxy, ryz, rxz) = (r(x, y), r(y, z), r(x, z));
        prop_assert!(rxz <= rxy + ryz + 1e-8, "triangle: {rxz} > {rxy} + {ryz}");
        prop_assert!(rxy > 0.0 && ryz > 0.0 && rxz > 0.0);
    }

    #[test]
    fn watts_strogatz_invariants(
        n in 8usize..64,
        half_deg in 1usize..3,
        beta_pct in 0usize..=100,
        seed in 0u64..300,
    ) {
        let d = 2 * half_deg;
        prop_assume!(d < n);
        let mut rng = walk_rng(seed);
        let g = generators::watts_strogatz(n, d, beta_pct as f64 / 100.0, &mut rng);
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.m(), n * d / 2, "edge count must survive rewiring");
        prop_assert_eq!(g.self_loops(), 0);
        prop_assert_eq!(g.degree_sum(), n * d);
    }

    #[test]
    fn barabasi_albert_invariants(
        n in 5usize..80,
        attach in 1usize..4,
        seed in 0u64..300,
    ) {
        prop_assume!(n > attach);
        let mut rng = walk_rng(seed);
        let g = generators::barabasi_albert(n, attach, &mut rng);
        prop_assert_eq!(g.n(), n);
        let seed_edges = attach * (attach + 1) / 2;
        prop_assert_eq!(g.m(), seed_edges + (n - attach - 1) * attach);
        prop_assert!(algo::is_connected(&g), "BA must be connected");
        prop_assert!(g.min_degree() >= attach);
    }

    #[test]
    fn partial_cover_monotone_and_bounded_by_full(
        n in 6usize..30,
        seed in 0u64..200,
    ) {
        let g = generators::cycle(n);
        let partial = |target| {
            Engine::new(&g, SimpleStep, PartialCover::new(n, target))
                .run(&[0], &mut walk_rng(seed))
                .rounds
        };
        let t25 = partial(fraction_target(n, 0.25));
        let t50 = partial(fraction_target(n, 0.5));
        let t100 = partial(n);
        // Same seed = same trajectory: thresholds are nested stopping times.
        prop_assert!(t25 <= t50 && t50 <= t100);
    }

    #[test]
    fn multicover_monotone_in_b(
        n in 5usize..20,
        seed in 0u64..200,
    ) {
        let g = generators::complete(n);
        let multicover = |b| {
            Engine::new(&g, SimpleStep, Multicover::new(g.n(), b))
                .run(&[0], &mut walk_rng(seed))
                .rounds
        };
        let c1 = multicover(1);
        let c2 = multicover(2);
        prop_assert!(c2 >= c1);
    }

    #[test]
    fn process_steps_stay_on_edges_or_hold(
        n in 4usize..30,
        seed in 0u64..200,
    ) {
        let size = n.max(7);
        let g = generators::barbell(if size.is_multiple_of(2) { size + 1 } else { size });
        let mut rng = walk_rng(seed);
        for process in [WalkProcess::Simple, WalkProcess::Lazy(0.4), WalkProcess::Metropolis] {
            let mut pos = 0u32;
            for _ in 0..200 {
                let next = process.step(&g, pos, &mut rng);
                prop_assert!(
                    next == pos || g.has_edge(pos, next),
                    "{}: illegal move {pos}→{next}",
                    process.label()
                );
                pos = next;
            }
        }
    }

    #[test]
    fn simple_process_never_holds_on_loopless_graphs(
        n in 3usize..30,
        seed in 0u64..200,
    ) {
        let g = generators::cycle(n);
        let mut rng = walk_rng(seed);
        let mut pos = 0u32;
        for _ in 0..100 {
            let next = WalkProcess::Simple.step(&g, pos, &mut rng);
            prop_assert_ne!(next, pos, "simple walk held in place without a loop");
            pos = next;
        }
    }
}
