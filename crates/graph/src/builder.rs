//! Mutable edge-list builder that finalizes into a CSR [`Graph`].
//!
//! Generators accumulate edges in whatever order is natural, then `build`
//! sorts, deduplicates, symmetrizes, and packs. Building is `O(m log m)`;
//! peak memory is ~2 arcs per edge.

use crate::csr::Graph;

/// Accumulates undirected edges for `n` vertices.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Directed arcs; symmetrized at build time.
    arcs: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many vertices for u32 ids");
        GraphBuilder {
            n,
            arcs: Vec::new(),
        }
    }

    /// Pre-allocates space for `edges` undirected edges.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        let mut b = Self::new(n);
        b.arcs.reserve(edges * 2);
        b
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`. Duplicate additions are merged at
    /// build time; self-loops are allowed.
    ///
    /// # Panics
    /// If either endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.arcs.push((u, v));
        if u != v {
            self.arcs.push((v, u));
        }
    }

    /// Finalizes into a CSR graph named `name`.
    pub fn build(mut self, name: impl Into<String>) -> Graph {
        self.arcs.sort_unstable();
        self.arcs.dedup();
        let mut offsets = vec![0usize; self.n + 1];
        for &(u, _) in &self.arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let adjacency: Vec<u32> = self.arcs.iter().map(|&(_, v)| v).collect();
        Graph::from_csr(offsets, adjacency, name.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_merged() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.build("dup");
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn symmetrization_automatic() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 3);
        let g = b.build("sym");
        assert!(g.has_edge(3, 2));
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn all_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        for v in 0..3 {
            b.add_edge(v, v);
        }
        let g = b.build("loops");
        assert_eq!(g.self_loops(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.m(), 4); // 1 real edge + 3 loops
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(0).build("null");
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = GraphBuilder::new(5);
        let mut b = GraphBuilder::with_capacity(5, 10);
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            a.add_edge(u, v);
            b.add_edge(u, v);
        }
        assert_eq!(a.build("a").m(), b.build("b").m());
    }
}
