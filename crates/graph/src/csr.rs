//! Immutable compressed-sparse-row (CSR) graph storage.
//!
//! A random-walk step is the innermost loop of every experiment, so the
//! representation is optimized for `neighbors(v)[i]`: one offset lookup and
//! one contiguous slice. Neighbor lists are sorted, which additionally gives
//! `O(log δ)` edge queries by binary search.

use std::fmt;
use std::sync::OnceLock;

/// An undirected graph in CSR form.
///
/// * `offsets.len() == n + 1`; the neighbors of `v` occupy
///   `adjacency[offsets[v]..offsets[v+1]]`, sorted ascending.
/// * An undirected edge `{u, v}` with `u != v` appears in both lists; a
///   self-loop `{v, v}` appears once in `v`'s list and contributes one to
///   its degree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adjacency: Vec<u32>,
    /// Number of undirected edges (self-loops count once).
    edges: usize,
    /// `Some(d)` when every vertex has degree `d`, cached at construction
    /// so the walk engine's regular-row fast path costs `O(1)` per run.
    regular: Option<usize>,
    /// Human-readable family name, e.g. `"cycle(64)"`; used in tables.
    name: String,
    /// The flat pick table of [`UniformSweep`](crate::UniformSweep),
    /// built from `offsets` on first use and kept for the graph's
    /// lifetime, so a batched run on an irregular graph neither
    /// allocates nor recomputes it.
    pick_table: Cached<Vec<[u64; 2]>>,
    /// Whether the graph is connected: one BFS on the first
    /// [`GraphBackend::is_connected`](crate::GraphBackend::is_connected)
    /// call, read back by every later one (spec validation runs twice per
    /// `mrw run`, and `mrw serve` validates each request against its
    /// cached graph). A [closed-form](crate::ClosedForm) graph is born
    /// with its arithmetic answer and never runs the BFS.
    connected: Cached<bool>,
}

/// A value computed lazily from the graph's arrays and kept for its
/// lifetime (see [`crate::sweep`] for the pick table). Sound because no
/// `&mut` method touches `offsets` or `adjacency`
/// ([`Graph::set_name`] is the only one).
///
/// Derived from the arrays, so it carries no identity of its own: every
/// cache compares equal and `Debug` shows none of its contents, which
/// keeps `Graph ==` and `{:?}` about the graph alone.
#[derive(Clone, Default)]
struct Cached<T>(OnceLock<T>);

impl<T> PartialEq for Cached<T> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl<T> Eq for Cached<T> {}

impl<T> fmt::Debug for Cached<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Cached")
    }
}

impl Graph {
    /// Builds a graph directly from CSR arrays. Prefer
    /// [`crate::GraphBuilder`]; this constructor validates its input and is
    /// meant for generators that produce CSR natively.
    ///
    /// Validation is `O(n + m)`. One pass checks the offsets and that
    /// every row is strictly sorted, so only a row's last entry needs a
    /// range check. One cursor pass checks symmetry: visiting sources in
    /// increasing order consumes each sorted row front to back, so the
    /// graph is symmetric exactly when every arc `v → u` finds `v` at
    /// `u`'s cursor before the end of `u`'s row. The pass keeps one `u32`
    /// per vertex, freed before this returns. Only a rejected graph pays
    /// a binary search per arc, to name the first arc (in row order)
    /// whose reverse is missing.
    ///
    /// # Panics
    /// If the arrays are inconsistent, a neighbor index is out of range, a
    /// neighbor list is unsorted or contains duplicates, or the structure is
    /// not symmetric.
    pub fn from_csr(offsets: Vec<usize>, adjacency: Vec<u32>, name: String) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        assert_eq!(*offsets.first().unwrap(), 0, "offsets[0] must be 0");
        assert_eq!(
            *offsets.last().unwrap(),
            adjacency.len(),
            "offsets must end at adjacency.len()"
        );
        let n = offsets.len() - 1;
        assert!(n <= u32::MAX as usize, "too many vertices for u32 ids");
        let mut loops = 0usize;
        for v in 0..n {
            let (s, e) = (offsets[v], offsets[v + 1]);
            assert!(s <= e, "offsets must be non-decreasing at {v}");
            let list = &adjacency[s..e];
            for w in list.windows(2) {
                assert!(w[0] < w[1], "neighbors of {v} unsorted or duplicated");
            }
            // A sorted row is in range when its last entry is; the message
            // names the row's first entry that is not.
            if list.last().is_some_and(|&u| u as usize >= n) {
                let u = list
                    .iter()
                    .find(|&&u| u as usize >= n)
                    .expect("the last entry is out of range");
                panic!("neighbor {u} of {v} out of range");
            }
            loops += list.binary_search(&(v as u32)).is_ok() as usize;
        }
        let regular = if n == 0 {
            None
        } else {
            let d = offsets[1] - offsets[0];
            (1..n)
                .all(|v| offsets[v + 1] - offsets[v] == d)
                .then_some(d)
        };
        let g = Graph {
            edges: (adjacency.len() - loops) / 2 + loops,
            offsets,
            adjacency,
            regular,
            name,
            pick_table: Cached::default(),
            connected: Cached::default(),
        };
        // Symmetry: every directed arc must have its reverse.
        if !g.symmetric() {
            for v in g.vertices() {
                for &u in g.neighbors(v) {
                    assert!(
                        g.has_edge(u, v),
                        "asymmetric adjacency: {v}->{u} present but {u}->{v} missing"
                    );
                }
            }
            unreachable!("the cursor pass rejects only asymmetric rows");
        }
        g
    }

    /// The cursor pass of [`from_csr`](Self::from_csr): whether every arc
    /// has its reverse, on rows already known to be sorted, duplicate-free
    /// and in range. Each arc `v → u` must find `v` at `u`'s cursor before
    /// the end of `u`'s row. Every arc then uses up one row entry and no
    /// cursor passes its row's end, so when all arcs match, every cursor
    /// has reached its row's end: no separate end check is needed.
    fn symmetric(&self) -> bool {
        // `used[u]` counts the entries of row `u` consumed so far (`u`'s
        // cursor less its row start); a row has at most `n` entries, so
        // the count fits a `u32`.
        let mut used = vec![0u32; self.n()];
        for v in self.vertices() {
            for &u in self.neighbors(v) {
                let (start, end) = self.row_bounds(u);
                let c = start + used[u as usize] as usize;
                if c == end || self.adjacency[c] != v {
                    return false;
                }
                used[u as usize] += 1;
            }
        }
        true
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (self-loops count once).
    #[inline]
    pub fn m(&self) -> usize {
        self.edges
    }

    /// The graph's display name (family and parameters).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the display name (builders use this).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Degree of `v` (self-loop counts once).
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `i`-th neighbor of `v` — the random-walk hot path.
    #[inline]
    pub fn neighbor(&self, v: u32, i: usize) -> u32 {
        self.adjacency[self.offsets[v as usize] + i]
    }

    /// `(start, end)` of `v`'s row inside [`adjacency`](Self::adjacency).
    /// The flat batched sweep ([`UniformSweep`](crate::UniformSweep))
    /// packs each vertex's row start and degree from these bounds.
    #[inline]
    pub fn row_bounds(&self, v: u32) -> (usize, usize) {
        let v = v as usize;
        (self.offsets[v], self.offsets[v + 1])
    }

    /// The flat sweep's pick table, one entry per vertex, built on the
    /// first call and shared by every later one (and every thread).
    pub(crate) fn pick_table(&self) -> &[[u64; 2]] {
        self.pick_table
            .0
            .get_or_init(|| crate::sweep::build_pick_table(self))
    }

    /// Whether the graph is connected, by BFS on the first call and from
    /// the cache on every later one (and every thread).
    pub(crate) fn connected(&self) -> bool {
        *self
            .connected
            .0
            .get_or_init(|| crate::algo::is_connected(self))
    }

    /// The graph with its connectivity already known, so
    /// [`connected`](Self::connected) never runs the BFS.
    pub(crate) fn with_connected(mut self, connected: bool) -> Graph {
        self.connected = Cached(OnceLock::from(connected));
        self
    }

    /// Sorted neighbor slice of `v` with a single up-front bound check.
    ///
    /// [`neighbors`](Self::neighbors) pays three redundant checks per call
    /// (two offset indexings plus the adjacency range slice); this accessor
    /// checks `v` once and then relies on the CSR invariants — validated
    /// exhaustively at construction ([`from_csr`](Self::from_csr)):
    /// `offsets.len() == n + 1`, offsets non-decreasing, and
    /// `offsets[n] == adjacency.len()` — to elide the rest.
    /// [`GraphBackend::sweep_rows`](crate::GraphBackend::sweep_rows), the
    /// batched engine's row access, fetches every row through this. A
    /// debug assert additionally re-states the offsets invariant on the
    /// fetched window.
    #[inline]
    pub(crate) fn neighbors_unchecked(&self, v: u32) -> &[u32] {
        let v = v as usize;
        assert!(v < self.n(), "vertex {v} out of range");
        // SAFETY: `v < n` was just checked, so `v + 1 <= n < offsets.len()`
        // and both offset loads are in bounds; `from_csr` guarantees
        // `s <= e <= adjacency.len()` for every consecutive offset pair.
        #[allow(unsafe_code)]
        unsafe {
            let s = *self.offsets.get_unchecked(v);
            let e = *self.offsets.get_unchecked(v + 1);
            debug_assert!(s <= e && e <= self.adjacency.len());
            self.adjacency.get_unchecked(s..e)
        }
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.n() as u32
    }

    /// Iterator over undirected edges as `(u, v)` with `u ≤ v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u <= v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree.
    pub fn min_degree(&self) -> usize {
        (0..self.n() as u32)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// True if every vertex has the same degree; returns that degree.
    /// `O(1)`: cached at construction (the engine's batched sweep keys its
    /// regular-row fast path off this every run).
    #[inline]
    pub fn regular_degree(&self) -> Option<usize> {
        self.regular
    }

    /// The full CSR adjacency array: the concatenation of every sorted
    /// neighbor row. On a [`regular`](Self::regular_degree) graph of
    /// degree `d`, row `v` is `adjacency()[v*d .. (v+1)*d]` — the batched
    /// sweep uses that identity to skip the offsets loads entirely.
    #[inline]
    pub fn adjacency(&self) -> &[u32] {
        &self.adjacency
    }

    /// Sum of degrees (= arc count = `2m − loops`... exactly
    /// `adjacency.len()`).
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of self-loops.
    pub fn self_loops(&self) -> usize {
        self.vertices().filter(|&v| self.has_edge(v, v)).count()
    }

    /// Approximate heap footprint in bytes (CSR arrays only).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.adjacency.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.build("triangle")
    }

    #[test]
    fn triangle_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree_sum(), 6);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.regular_degree(), Some(2));
        assert_eq!(g.self_loops(), 0);
    }

    #[test]
    fn neighbors_sorted_and_queries() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbor(0, 1), 2);
    }

    #[test]
    fn neighbors_unchecked_matches_neighbors() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(3, 3); // self-loop
                          // vertices 4 and 5 isolated (empty rows, incl. the last row)
        let g = b.build("mixed");
        for v in 0..g.n() as u32 {
            assert_eq!(g.neighbors_unchecked(v), g.neighbors(v), "row {v}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbors_unchecked_rejects_oob_vertex() {
        let _ = triangle().neighbors_unchecked(3);
    }

    #[test]
    fn edge_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn self_loop_counts_once() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 0);
        let g = b.build("loop");
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2); // neighbor list [0, 1]
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.self_loops(), 1);
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let b = GraphBuilder::new(4);
        let g = b.build("empty");
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(2).is_empty());
        assert_eq!(g.regular_degree(), Some(0));
    }

    #[test]
    #[should_panic(expected = "asymmetric adjacency: 0->1 present but 1->0 missing")]
    fn from_csr_rejects_asymmetry() {
        // 0 -> 1 without 1 -> 0.
        Graph::from_csr(vec![0, 1, 1], vec![1], "bad".into());
    }

    #[test]
    #[should_panic(expected = "asymmetric adjacency: 2->3 present but 3->2 missing")]
    fn from_csr_rejects_extra_arc_at_row_end() {
        // A triangle plus 2 -> 3 at the end of row 2: the arc finds
        // vertex 3's cursor already at the end of its (empty) row.
        Graph::from_csr(vec![0, 2, 4, 7, 7], vec![1, 2, 0, 2, 0, 1, 3], "bad".into());
    }

    #[test]
    #[should_panic(expected = "asymmetric adjacency: 1->2 present but 2->1 missing")]
    fn from_csr_names_reverse_arc_missing_mid_row() {
        // K4 whose row 2 lacks its middle entry 1.
        Graph::from_csr(
            vec![0, 3, 6, 8, 11],
            vec![1, 2, 3, 0, 2, 3, 0, 3, 0, 1, 2],
            "bad".into(),
        );
    }

    #[test]
    #[should_panic(expected = "asymmetric adjacency: 3->1 present but 1->3 missing")]
    fn from_csr_names_a_missing_arc_not_the_misaligned_one() {
        // Row 3 is [0, 1, 2] but row 1 is empty. The cursor pass first
        // fails at 2 -> 3 (vertex 3's cursor sits on the stray 1), whose
        // reverse exists; the message names the arc without a reverse.
        Graph::from_csr(vec![0, 1, 1, 2, 5], vec![3, 3, 0, 1, 2], "bad".into());
    }

    #[test]
    fn from_csr_accepts_self_loops() {
        // Loops at 0 (start of its row) and 1 (middle of its row).
        let g = Graph::from_csr(vec![0, 2, 5, 6], vec![0, 1, 0, 1, 2, 1], "loops".into());
        assert_eq!(g.self_loops(), 2);
        assert_eq!(g.m(), 4);
        assert_eq!(g.neighbors(1), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn from_csr_rejects_unsorted() {
        Graph::from_csr(vec![0, 2, 3, 4], vec![2, 1, 0, 0], "bad".into());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_csr_rejects_out_of_range() {
        Graph::from_csr(vec![0, 1], vec![5], "bad".into());
    }

    #[test]
    #[should_panic(expected = "neighbor 7 of 0 out of range")]
    fn from_csr_names_the_first_out_of_range_neighbor() {
        Graph::from_csr(vec![0, 3, 3], vec![1, 7, 9], "bad".into());
    }

    #[test]
    fn name_roundtrip() {
        let mut g = triangle();
        assert_eq!(g.name(), "triangle");
        g.set_name("renamed");
        assert_eq!(g.name(), "renamed");
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle();
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn cached_regular_degree_matches_scan() {
        let g = triangle();
        assert_eq!(g.regular_degree(), Some(2));
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let path = b.build("path3");
        assert_eq!(path.regular_degree(), None);
        assert_eq!(GraphBuilder::new(0).build("empty").regular_degree(), None);
    }

    #[test]
    fn adjacency_is_row_concatenation() {
        let g = triangle();
        assert_eq!(g.adjacency(), &[1, 2, 0, 2, 0, 1]);
        let d = g.regular_degree().unwrap();
        for v in 0..g.n() {
            assert_eq!(&g.adjacency()[v * d..(v + 1) * d], g.neighbors(v as u32));
        }
    }
}
