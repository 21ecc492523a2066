//! Property-based tests (proptest) over the whole stack: randomized graph
//! parameters, randomized seeds — structural invariants must hold for all
//! of them.

use many_walks::graph::{algo, generators, Graph, GraphBuilder};
use many_walks::walks::engine::{Engine, FullCover, SimpleStep, Trace};
use many_walks::walks::walk_rng;
use proptest::prelude::*;

/// Structural invariants every graph in this workspace must satisfy.
fn assert_graph_invariants(g: &Graph) {
    // Adjacency symmetric.
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            assert!(g.has_edge(u, v), "{}: asymmetric {v}-{u}", g.name());
        }
    }
    // Neighbor lists sorted and duplicate-free.
    for v in g.vertices() {
        let ns = g.neighbors(v);
        for w in ns.windows(2) {
            assert!(w[0] < w[1], "{}: unsorted/dup neighbors of {v}", g.name());
        }
    }
    // Degree sum = arcs = 2m − loops.
    let loops = g.self_loops();
    assert_eq!(g.degree_sum(), 2 * g.m() - loops, "{}", g.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn builder_from_arbitrary_edges_is_valid(
        n in 2usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
    ) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u % n as u32, v % n as u32);
        }
        let g = b.build("prop");
        assert_graph_invariants(&g);
    }

    #[test]
    fn deterministic_generators_valid(n in 3usize..64) {
        assert_graph_invariants(&generators::cycle(n));
        assert_graph_invariants(&generators::path(n));
        assert_graph_invariants(&generators::complete(n.min(24)));
        assert_graph_invariants(&generators::star(n));
        if n % 2 == 1 && n >= 7 {
            assert_graph_invariants(&generators::barbell(n));
        }
    }

    #[test]
    fn lattice_generators_valid(a in 2usize..8, b in 2usize..8) {
        let g = generators::grid(&[a, b]);
        assert_graph_invariants(&g);
        prop_assert!(algo::is_connected(&g));
        prop_assert_eq!(g.n(), a * b);
        let t = generators::torus(&[a, b]);
        assert_graph_invariants(&t);
        prop_assert!(algo::is_connected(&t));
    }

    #[test]
    fn hypercube_valid(d in 1u32..9) {
        let g = generators::hypercube(d);
        assert_graph_invariants(&g);
        prop_assert_eq!(g.n(), 1usize << d);
        prop_assert_eq!(g.regular_degree(), Some(d as usize));
        prop_assert!(algo::is_connected(&g));
    }

    #[test]
    fn random_generators_valid(seed in 0u64..5000, n in 10usize..80) {
        let mut rng = walk_rng(seed);
        let g = generators::erdos_renyi(n, 0.15, &mut rng);
        assert_graph_invariants(&g);
        prop_assert_eq!(g.n(), n);

        let d = if n % 2 == 0 { 3 } else { 4 };
        let r = generators::random_regular(n, d, &mut rng).unwrap();
        assert_graph_invariants(&r);
        prop_assert_eq!(r.regular_degree(), Some(d));

        let rgg = generators::random_geometric(n, 0.3, &mut rng);
        assert_graph_invariants(&rgg);
    }

    #[test]
    fn walk_traces_stay_on_edges(seed in 0u64..10_000, n in 3usize..40) {
        let g = generators::cycle(n);
        let mut rng = walk_rng(seed);
        let trace = Engine::new(&g, SimpleStep, Trace::new(200))
            .cap(200)
            .run(&[0], &mut rng)
            .observer
            .into_positions();
        for w in trace.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn kwalk_rounds_positive_and_bounded_by_worst_case(
        seed in 0u64..2000,
        k in 1usize..6,
    ) {
        // On a tiny clique the k-walk must finish fast; sanity-bound it by a
        // generous multiple of the coupon-collector time.
        let g = generators::complete_with_loops(12);
        let mut rng = walk_rng(seed);
        let rounds = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
            .run(&vec![0; k], &mut rng)
            .rounds;
        prop_assert!(rounds >= 1);
        prop_assert!(rounds < 5000, "rounds = {rounds} absurd for K_12");
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(n in 4usize..32, seed in 0u64..1000) {
        let mut rng = walk_rng(seed);
        let g = generators::erdos_renyi_connected_regime(n, 3.0, &mut rng);
        prop_assume!(algo::is_connected(&g));
        let dist = algo::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            let du = dist[u as usize] as i64;
            let dv = dist[v as usize] as i64;
            prop_assert!((du - dv).abs() <= 1, "edge ({u},{v}): dist {du} vs {dv}");
        }
    }

    #[test]
    fn stationary_distribution_is_probability_vector(n in 4usize..48, seed in 0u64..500) {
        let mut rng = walk_rng(seed);
        let g = generators::erdos_renyi_connected_regime(n, 3.0, &mut rng);
        prop_assume!(algo::is_connected(&g));
        let pi = many_walks::spectral::stationary_distribution(&g);
        let total: f64 = pi.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(pi.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn hitting_times_positive_and_symmetric_scale(n in 5usize..24) {
        let g = generators::cycle(n);
        let ht = many_walks::spectral::hitting_times_all(&g);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v {
                    prop_assert!(ht.get(u, v) >= 1.0);
                    // Cycle is vertex-transitive: h(u,v) depends only on the
                    // cyclic distance.
                    let dist = ((v as i64 - u as i64).rem_euclid(n as i64)) as u32;
                    let expect = (dist as f64) * (n as f64 - dist as f64);
                    prop_assert!((ht.get(u, v) - expect).abs() < 1e-6);
                }
            }
        }
    }
}
