//! Golden digests of the CSR arrays every graph family builds.
//!
//! Each line of `fixtures/graph_digests.txt` is one graph: its name, `n`,
//! `m`, and a 64-bit FNV-1a hash of `offsets ++ adjacency` (every offset
//! as a little-endian `u64`, then every adjacency entry as a
//! little-endian `u32`). The set covers every `GraphSpec` family at two
//! or more sizes, the random generators the experiments and examples
//! sample from (fixed seeds), and the remaining deterministic generators.
//! A change to CSR assembly or validation that moves a single array entry
//! of any of them fails here.

use mrw_core::query::GraphSpec;
use mrw_core::walk_rng;
use mrw_graph::{generators, Graph};

/// FNV-1a over `offsets ++ adjacency`.
fn csr_digest(g: &Graph) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET_BASIS;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for v in g.vertices() {
        eat(&(g.row_bounds(v).0 as u64).to_le_bytes());
    }
    eat(&(g.adjacency().len() as u64).to_le_bytes());
    for &u in g.adjacency() {
        eat(&u.to_le_bytes());
    }
    h
}

fn spec(family: &str, n: usize, jumps: &[usize]) -> Graph {
    let mut s = GraphSpec::new(family, n);
    s.jumps = jumps.to_vec();
    s.build().unwrap_or_else(|e| panic!("{family}({n}): {e}"))
}

fn graphs() -> Vec<Graph> {
    let mut gs = vec![
        spec("cycle", 3, &[]),
        spec("cycle", 257, &[]),
        spec("path", 1, &[]),
        spec("path", 100, &[]),
        spec("torus", 1, &[]),
        spec("torus", 2, &[]),
        spec("torus", 17, &[]),
        spec("torus", 128, &[]),
        spec("hypercube", 1, &[]),
        spec("hypercube", 7, &[]),
        spec("clique", 2, &[]),
        spec("clique", 50, &[]),
        spec("clique-loops", 1, &[]),
        spec("clique-loops", 33, &[]),
        spec("barbell", 7, &[]),
        spec("barbell", 401, &[]),
        spec("circulant", 10, &[3]),
        spec("circulant", 64, &[1, 5, 32]),
    ];
    gs.extend([
        generators::random_regular(256, 8, &mut walk_rng(1)).expect("regular"),
        generators::random_regular(1000, 3, &mut walk_rng(2)).expect("regular"),
        generators::erdos_renyi_connected_regime(200, 3.0, &mut walk_rng(3)),
        generators::erdos_renyi(60, 0.1, &mut walk_rng(4)),
        generators::watts_strogatz(128, 4, 0.2, &mut walk_rng(5)),
        generators::random_geometric(150, 0.15, &mut walk_rng(6)),
        generators::barabasi_albert(144, 3, &mut walk_rng(7)),
    ]);
    gs.extend([
        generators::star(9),
        generators::wheel(12),
        generators::circular_ladder(6),
        generators::lollipop(21),
        generators::balanced_tree(3, 4),
        generators::complete_bipartite(4, 7),
        generators::grid(&[3, 4]),
        generators::torus(&[4, 5, 6]),
        generators::torus(&[2, 3]),
    ]);
    gs
}

#[test]
fn csr_arrays_match_their_golden_digests() {
    let got: String = graphs()
        .iter()
        .map(|g| {
            format!(
                "{}\tn={}\tm={}\tfnv={:016x}\n",
                g.name(),
                g.n(),
                g.m(),
                csr_digest(g)
            )
        })
        .collect();
    let want = include_str!("fixtures/graph_digests.txt");
    for (i, (a, b)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(a, b, "digest line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "digest count differs; computed:\n{got}"
    );
}
