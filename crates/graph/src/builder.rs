//! Mutable edge-list builder that finalizes into a CSR [`Graph`].
//!
//! Generators accumulate edges in whatever order is natural; `add_edge`
//! stores both orientations, and `build` packs them by source. One pass
//! counts each vertex's arcs, a second scatters every target straight
//! into its source's row of the adjacency array (the offsets array is
//! the scatter cursor), and then each row is sorted, deduplicated and
//! compacted in place. Building is `O(n + m)` plus one sort per row,
//! which costs little on the paper's bounded-degree families. Peak
//! memory is the arc list (8 bytes per arc) plus the two CSR arrays; the
//! arc list is freed before [`Graph::from_csr`] validates the result.

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
    pub fn build(self, name: impl Into<String>) -> Graph {
        let GraphBuilder { n, arcs } = self;
        // Count each source's arcs, then turn the counts into row ends.
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &arcs {
            offsets[u as usize] += 1;
        }
        let mut total = 0;
        for o in &mut offsets[..n] {
            total += *o;
            *o = total;
        }
        offsets[n] = total;
        // Scatter, filling each row back to front from the last arc, so a
        // row keeps its insertion order and `offsets[u]` ends at its start.
        let mut adjacency = vec![0u32; total];
        for &(u, v) in arcs.iter().rev() {
            let cursor = &mut offsets[u as usize];
            *cursor -= 1;
            adjacency[*cursor] = v;
        }
        drop(arcs);
        // Sort, dedup and compact each row in place. Row `u` still ends
        // at the old `offsets[u + 1]` when `offsets[u]` is rewritten.
        let mut len = 0;
        for u in 0..n {
            let (start, end) = (offsets[u], offsets[u + 1]);
            adjacency[start..end].sort_unstable();
            offsets[u] = len;
            for i in start..end {
                let v = adjacency[i];
                if len == offsets[u] || v != adjacency[len - 1] {
                    adjacency[len] = v;
                    len += 1;
                }
            }
        }
        offsets[n] = len;
        adjacency.truncate(len);
        adjacency.shrink_to_fit();
        Graph::from_csr(offsets, adjacency, name.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference CSR arrays by the global method: sort and dedup every
    /// arc, then count each source's arcs into the offsets.
    fn reference_csr(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
        let mut arcs = Vec::new();
        for &(u, v) in edges {
            arcs.push((u, v));
            if u != v {
                arcs.push((v, u));
            }
        }
        arcs.sort_unstable();
        arcs.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        (offsets, arcs.iter().map(|&(_, v)| v).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random arc lists over few vertices repeat edges in both
        /// orientations and hold self-loops; over many, they leave
        /// vertices isolated. `n` runs from 0.
        #[test]
        fn build_matches_global_sort_reference(
            n in 0usize..24,
            raw in prop::collection::vec((0u32..1000, 0u32..1000), 0..64),
        ) {
            let edges: Vec<(u32, u32)> = if n == 0 {
                Vec::new()
            } else {
                raw.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect()
            };
            let mut b = GraphBuilder::new(n);
            for &(u, v) in &edges {
                b.add_edge(u, v);
            }
            let g = b.build("prop");
            let (offsets, adjacency) = reference_csr(n, &edges);
            prop_assert_eq!(g.adjacency(), &adjacency[..]);
            for v in g.vertices() {
                let (s, e) = g.row_bounds(v);
                prop_assert_eq!((s, e), (offsets[v as usize], offsets[v as usize + 1]));
            }
            prop_assert_eq!(g.n(), n);
        }
    }

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
