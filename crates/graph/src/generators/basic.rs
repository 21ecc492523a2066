//! Elementary deterministic families: path, cycle, complete, star.

use crate::builder::GraphBuilder;
use crate::closed::{valid, ClosedForm};
use crate::csr::Graph;

/// The path `P_n` on vertices `0 — 1 — … — n−1`.
///
/// The paper (§2) notes the path/line has `C(G) = h_max` — Matthews' bound
/// is *not* tight here — making it a useful contrast fixture.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "path needs at least 1 vertex");
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n as u32 {
        b.add_edge(v - 1, v);
    }
    b.build(format!("path({n})"))
}

/// The cycle `L_n` (ring): vertex `i` adjacent to `i±1 mod n`.
///
/// Cover time `Θ(n²)`; the paper's Theorem 6 shows `S^k = Θ(log k)` — the
/// family where many walks help *least*. Materialized from
/// [`ClosedForm::cycle`].
///
/// # Panics
/// On that constructor's errors (`n < 3`, or `n` beyond `u32` ids).
pub fn cycle(n: usize) -> Graph {
    valid(ClosedForm::cycle(n)).to_csr()
}

/// The complete graph `K_n` without self-loops.
///
/// Cover time `Θ(n log n)` (coupon collector); `S^k = k` for `k ≤ n`
/// (Lemma 12).
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "complete graph needs at least 2 vertices, got {n}");
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(u, v);
        }
    }
    b.build(format!("complete({n})"))
}

/// `K_n` with a self-loop at every vertex — the exact coupon-collector
/// chain of the paper's Lemma 12 proof (each step lands uniformly on all
/// `n` vertices including the current one).
pub fn complete_with_loops(n: usize) -> Graph {
    assert!(n >= 1, "complete graph needs at least 1 vertex");
    let mut b = GraphBuilder::with_capacity(n, n * (n + 1) / 2);
    for u in 0..n as u32 {
        for v in u..n as u32 {
            b.add_edge(u, v);
        }
    }
    b.build(format!("complete_loops({n})"))
}

/// The star `S_n`: vertex 0 is the hub, vertices `1..n` are leaves.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs at least 2 vertices, got {n}");
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 1..n as u32 {
        b.add_edge(0, v);
    }
    b.build(format!("star({n})"))
}

/// The wheel `W_n`: a cycle on vertices `1..n` plus a hub (vertex 0)
/// adjacent to every rim vertex.
///
/// A useful zoo member: constant diameter and a dominating hub give it
/// clique-like `Θ(n log n)` cover behavior while staying sparse
/// (`m = 2(n−1)`) — a shape none of Table 1's families has.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel needs at least 4 vertices, got {n}");
    let rim = n - 1;
    let mut b = GraphBuilder::with_capacity(n, 2 * rim);
    for i in 0..rim {
        let v = (1 + i) as u32;
        b.add_edge(0, v);
        b.add_edge(v, (1 + (i + 1) % rim) as u32);
    }
    b.build(format!("wheel({n})"))
}

/// The circular ladder (prism) `CL_r`: two concentric cycles of length
/// `r` joined by rungs — vertex `i` on the inner ring pairs with `r + i`
/// on the outer ring. 3-regular with `n = 2r` vertices.
///
/// Structurally a "thick cycle": cover time `Θ(n²)` like the cycle, so it
/// probes whether Theorem 6's logarithmic speed-up cap is about
/// one-dimensional geometry rather than degree 2.
pub fn circular_ladder(r: usize) -> Graph {
    assert!(r >= 3, "circular ladder needs ring length ≥ 3, got {r}");
    let n = 2 * r;
    let mut b = GraphBuilder::with_capacity(n, 3 * r);
    for i in 0..r {
        let inner = i as u32;
        let outer = (r + i) as u32;
        b.add_edge(inner, ((i + 1) % r) as u32);
        b.add_edge(outer, (r + (i + 1) % r) as u32);
        b.add_edge(inner, outer);
    }
    b.build(format!("circular_ladder({r})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(4), 1);
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn path_singleton() {
        let g = path(1);
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 6);
        assert_eq!(g.regular_degree(), Some(2));
        assert!(g.has_edge(5, 0));
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn cycle_minimum_size() {
        let g = cycle(3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.regular_degree(), Some(2));
    }

    #[test]
    fn complete_shape() {
        let g = complete(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 21);
        assert_eq!(g.regular_degree(), Some(6));
        assert_eq!(g.self_loops(), 0);
        for u in 0..7u32 {
            for v in 0..7u32 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn complete_with_loops_shape() {
        let g = complete_with_loops(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.self_loops(), 5);
        assert_eq!(g.regular_degree(), Some(5)); // 4 others + own loop
        assert_eq!(g.m(), 15); // C(5,2) + 5
        for v in 0..5u32 {
            assert_eq!(g.neighbors(v).len(), 5);
        }
    }

    #[test]
    fn star_shape() {
        let g = star(9);
        assert_eq!(g.degree(0), 8);
        for v in 1..9u32 {
            assert_eq!(g.degree(v), 1);
            assert!(g.has_edge(0, v));
        }
        assert!(algo::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "cycle needs n ≥ 3, got 2")]
    fn tiny_cycle_rejected() {
        cycle(2);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(9);
        assert_eq!(g.n(), 9);
        assert_eq!(g.m(), 16); // 8 spokes + 8 rim edges
        assert_eq!(g.degree(0), 8);
        for v in 1..9u32 {
            assert_eq!(g.degree(v), 3, "rim vertex {v}");
        }
        assert!(g.has_edge(8, 1), "rim wraps around");
        assert!(algo::is_connected(&g));
        assert_eq!(algo::diameter(&g), Some(2));
    }

    #[test]
    fn wheel_smallest() {
        // W_4 = K_4.
        let g = wheel(4);
        assert_eq!(g.m(), 6);
        assert_eq!(g.regular_degree(), Some(3));
    }

    #[test]
    fn circular_ladder_shape() {
        let r = 10;
        let g = circular_ladder(r);
        assert_eq!(g.n(), 2 * r);
        assert_eq!(g.m(), 3 * r);
        assert_eq!(g.regular_degree(), Some(3));
        assert!(g.has_edge(0, r as u32), "rung present");
        assert!(g.has_edge(0, 1) && g.has_edge(r as u32, (r + 1) as u32));
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn circular_ladder_diameter_is_half_ring_plus_rung() {
        let g = circular_ladder(8);
        assert_eq!(algo::diameter(&g), Some(5)); // 4 around + 1 across
    }
}
