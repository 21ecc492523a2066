//! Circulant graphs and complete bipartite graphs — auxiliary families
//! used by tests and by the conjecture scans.
//!
//! A circulant `C_n(S)` connects `i` to `i ± s mod n` for each jump
//! `s ∈ S`. It interpolates between the cycle (`S = {1}`) — the paper's
//! log-k family — and increasingly expander-like graphs as jumps are
//! added, which makes it a handy knob for "how much does a chord help the
//! speed-up" studies. `K_{a,b}` supplies a canonical bipartite fixture for
//! the lazy-mixing code paths.

use crate::builder::GraphBuilder;
use crate::closed::{valid, ClosedForm};
use crate::csr::Graph;

/// The circulant graph `C_n(jumps)`: vertex `i` adjacent to
/// `i ± s (mod n)` for every `s` in `jumps`. Materialized from
/// [`ClosedForm::circulant`].
///
/// # Panics
/// If `n < 3`, `jumps` is empty, any jump is 0 or ≥ n, or jumps repeat
/// modulo the `±`-symmetry (`s` and `n − s` denote the same chord set).
pub fn circulant(n: usize, jumps: &[usize]) -> Graph {
    valid(ClosedForm::circulant(n, jumps)).to_csr()
}

/// The complete bipartite graph `K_{a,b}`: parts `0..a` and `a..a+b`,
/// every cross pair adjacent.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a >= 1 && b >= 1, "both parts must be non-empty ({a},{b})");
    let n = a + b;
    let mut builder = GraphBuilder::with_capacity(n, a * b);
    for u in 0..a as u32 {
        for v in a as u32..n as u32 {
            builder.add_edge(u, v);
        }
    }
    builder.build(format!("bipartite({a},{b})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn single_jump_is_cycle() {
        let c = circulant(10, &[1]);
        let l = crate::generators::cycle(10);
        assert_eq!(c.m(), l.m());
        for v in c.vertices() {
            assert_eq!(c.neighbors(v), l.neighbors(v));
        }
    }

    #[test]
    fn chords_reduce_diameter() {
        let plain = crate::generators::cycle(64);
        let chord = circulant(64, &[1, 8]);
        assert!(algo::is_connected(&chord));
        assert_eq!(chord.regular_degree(), Some(4));
        assert!(algo::diameter(&chord).unwrap() < algo::diameter(&plain).unwrap() / 2);
    }

    #[test]
    fn half_jump_on_even_n_gives_odd_degree() {
        // s = n/2 pairs each vertex with a single antipode: degree 3 total
        // with the cycle jump.
        let g = circulant(8, &[1, 4]);
        assert_eq!(g.regular_degree(), Some(3));
        assert_eq!(g.m(), 8 + 4);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn symmetric_jump_duplicate_rejected() {
        circulant(10, &[3, 7]); // 7 ≡ −3 (mod 10)
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_jump_rejected() {
        circulant(10, &[0]);
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 5);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 15);
        for u in 0..3u32 {
            assert_eq!(g.degree(u), 5);
            // No edges inside a part.
            for v in 0..3u32 {
                assert!(!g.has_edge(u, v), "intra-part edge {u}-{v}");
            }
        }
        for v in 3..8u32 {
            assert_eq!(g.degree(v), 3);
        }
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn star_is_k1b() {
        let g = complete_bipartite(1, 6);
        let s = crate::generators::star(7);
        assert_eq!(g.m(), s.m());
        assert_eq!(g.degree(0), s.degree(0));
    }

    #[test]
    fn bipartite_walk_is_periodic() {
        // Sanity that this really is bipartite: odd closed walks impossible
        // ⇒ plain-walk mixing must fail (checked cheaply via 2-coloring).
        let g = complete_bipartite(4, 4);
        let dist = algo::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            assert_ne!(dist[u as usize] % 2, dist[v as usize] % 2);
        }
    }
}
