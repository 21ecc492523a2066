//! Graph backends: the CSR store and O(1)-state implicit families behind
//! one trait.
//!
//! Every walk primitive in this workspace consumes a graph through two
//! questions — "what is `degree(v)`?" and "what is the `i`-th neighbor of
//! `v`?" — yet historically the answers always came from a materialized
//! [`Graph`] in CSR form, which bounds the vertex count by *memory*
//! (`(n+1)·8 + Σδ·4` bytes) rather than by arithmetic. [`GraphBackend`]
//! abstracts exactly those two questions plus the handful of metadata
//! accessors the engine and query layer need, and [`ImplicitGraph`]
//! answers them *arithmetically* for the structured families whose
//! neighborhoods are closed-form: cycle, 2-d torus, hypercube, and
//! circulant. An implicit backend holds O(1) state, so vertex counts up
//! to the `u32` id ceiling (~4·10⁹) cost nothing but time.
//!
//! ## The determinism contract
//!
//! An implicit family must be **indistinguishable** from its CSR twin to
//! every consumer. Both come from one [`ClosedForm`] value, so this holds
//! by construction: [`ClosedForm::to_csr`] writes each row with the same
//! row code [`ImplicitGraph`] steps along, and the name, vertex count and
//! connectivity are the family's own.
//!
//! * `neighbor(v, i)` returns the `i`-th entry of the *sorted* neighbor
//!   row — exactly the entry `generators::<family>(..).neighbor(v, i)`
//!   returns. Walk streams consume RNG draws identically on both
//!   backends, so every report is byte-identical at sizes where both run.
//! * `name()` and `n()` match the generator's, so
//!   [`GraphInfo`](../../mrw_core/query/struct.GraphInfo.html)-keyed
//!   report merges accept shards from either backend.
//! * `is_connected()` is computed arithmetically (a cycle is always
//!   connected; a circulant iff `gcd(n, s₁, …, s_j) = 1`), matching what
//!   BFS would say without touching all `n` vertices. A materialized
//!   family carries the same answer, so its first `is_connected` runs no
//!   BFS either.
//!
//! The tests that still pin the contract: this module's twin tests check
//! every materialized family against builders that share no row code
//! with it (the d-dimensional lattice `generators::torus` for the cycle,
//! the 2-d torus and the hypercube, and a `GraphBuilder` loop for the
//! circulant) and the implicit accessors, `sweep_rows` included, against
//! the materialized arrays, with connectivity checked by BFS; the golden
//! digests of `mrw-core`'s `graph_digests` test pin the arrays
//! themselves; and `mrw-core`'s `backend_equivalence` suite diffs the
//! rendered reports of both backends.
//!
//! The CSR [`Graph`] implements the trait by delegation, and
//! `csr(&self) -> Option<&Graph>` lets the engine keep its regular-row
//! and flat pick-table batched drivers for plain walks when a
//! materialized adjacency exists.
//!
//! ## Whole-round row access
//!
//! The batched engine's rows driver, which steps every two-word kernel
//! (lazy, Metropolis) on any backend and plain walks on implicit graphs,
//! asks for rows a round at a time through [`GraphBackend::sweep_rows`]:
//! one call replaces every token position with the result of a step
//! closure that sees the position's sorted row. The CSR [`Graph`] fetches
//! each row through its row window with one bounds check per step.
//! [`ImplicitGraph`] matches its family once per call, not once per
//! step, and builds cycle and torus rows in registers in sorted order
//! (one division per torus vertex, compare-wraps instead of `%`); the
//! hypercube and circulant loop over their general row builder with the
//! degree hoisted.

use crate::closed::{cycle_row, torus2_row, torus_row, valid, ClosedForm, Shape};
use crate::csr::Graph;

/// Greatest degree an implicit family may have: hypercube and circulant
/// rows are built into fixed-size stack buffers.
pub const MAX_IMPLICIT_DEGREE: usize = 64;

/// Uniform access to a graph for walk engines: vertex count, degrees,
/// indexed sorted-row neighbors, and the metadata the query layer
/// serializes. Implemented by the materialized CSR [`Graph`] and by
/// [`ImplicitGraph`]. See the module docs for the determinism contract.
pub trait GraphBackend: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Number of undirected edges (self-loops count once).
    fn m(&self) -> usize;

    /// The graph's display name (family and parameters) — must equal the
    /// CSR generator's name for the same parameters.
    fn name(&self) -> &str;

    /// Degree of `v` (self-loop counts once).
    fn degree(&self, v: u32) -> usize;

    /// The `i`-th entry of `v`'s sorted neighbor row.
    fn neighbor(&self, v: u32, i: usize) -> u32;

    /// `Some(d)` when every vertex has degree `d`, in `O(1)`.
    fn regular_degree(&self) -> Option<usize>;

    /// Replaces each entry of `positions`, in index order, with
    /// `step(p, row)`, where `p` is the entry and `row` is `p`'s sorted
    /// neighbor row — the batched engine's whole-round row access. A
    /// backend resolves its shape once per call, so the per-position work
    /// is the row itself; `step` may carry state (draw words) from one
    /// position to the next.
    fn sweep_rows(&self, positions: &mut [u32], step: impl FnMut(u32, &[u32]) -> u32)
    where
        Self: Sized;

    /// Calls `f` on each neighbor of `v` in sorted-row order — the
    /// traversal primitive generic BFS uses (the CSR impl iterates its
    /// row slice; implicit impls compute entries on the fly).
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32))
    where
        Self: Sized,
    {
        for i in 0..self.degree(v) {
            f(self.neighbor(v, i));
        }
    }

    /// The materialized CSR twin, when this backend *is* one. The engine
    /// keys its direct-row batched sweeps off this.
    fn csr(&self) -> Option<&Graph> {
        None
    }

    /// Materializes the CSR twin (the exact graph the family's generator
    /// builds). Used by the exact small-`n` spectral `h_max` path so
    /// implicit-backend reports stay byte-identical to CSR ones.
    ///
    /// # Panics
    /// If the CSR arrays would not fit in memory — callers gate on `n`.
    fn to_csr(&self) -> Graph;

    /// Whether the graph is connected — arithmetic for implicit families,
    /// one BFS per CSR graph (the graph caches the answer).
    fn is_connected(&self) -> bool;

    /// Approximate heap footprint in bytes.
    fn memory_bytes(&self) -> usize;
}

impl GraphBackend for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }

    #[inline]
    fn m(&self) -> usize {
        Graph::m(self)
    }

    fn name(&self) -> &str {
        Graph::name(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn neighbor(&self, v: u32, i: usize) -> u32 {
        Graph::neighbor(self, v, i)
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Graph::regular_degree(self)
    }

    #[inline]
    fn sweep_rows(&self, positions: &mut [u32], mut step: impl FnMut(u32, &[u32]) -> u32) {
        for p in positions {
            *p = step(*p, self.neighbors_unchecked(*p));
        }
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32)) {
        for &u in self.neighbors(v) {
            f(u);
        }
    }

    #[inline]
    fn csr(&self) -> Option<&Graph> {
        Some(self)
    }

    fn to_csr(&self) -> Graph {
        self.clone()
    }

    fn is_connected(&self) -> bool {
        self.connected()
    }

    fn memory_bytes(&self) -> usize {
        Graph::memory_bytes(self)
    }
}

/// An O(1)-state graph whose neighborhoods are computed arithmetically —
/// the implicit backend of a [`ClosedForm`] family (the structured
/// families of the paper's Table 1). Its rows are the family's own, the
/// ones [`ClosedForm::to_csr`] materializes; see the module docs.
///
/// ```
/// use mrw_graph::backend::{GraphBackend, ImplicitGraph};
/// use mrw_graph::generators;
///
/// let implicit = ImplicitGraph::torus_2d(4);
/// let csr = generators::torus_2d(4);
/// assert_eq!(implicit.name(), csr.name());
/// for v in 0..16u32 {
///     for i in 0..4 {
///         assert_eq!(implicit.neighbor(v, i), csr.neighbor(v, i));
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplicitGraph(ClosedForm);

impl ImplicitGraph {
    /// The implicit backend of `family`. It refuses the one-vertex torus
    /// (side 1, no rows to step along) and degrees above
    /// [`MAX_IMPLICIT_DEGREE`]; both stay valid CSR graphs.
    ///
    /// # Errors
    /// On either refusal.
    pub fn new(family: ClosedForm) -> Result<ImplicitGraph, String> {
        if family.shape == (Shape::Torus2d { side: 1 }) {
            return Err("implicit torus needs side ≥ 2, got 1".into());
        }
        if family.degree() > MAX_IMPLICIT_DEGREE {
            return Err(format!(
                "implicit {} has degree {}, above the backend limit {MAX_IMPLICIT_DEGREE}",
                family.name(),
                family.degree()
            ));
        }
        Ok(ImplicitGraph(family))
    }

    /// The implicit cycle `L_n`.
    ///
    /// # Panics
    /// On the errors of [`ClosedForm::cycle`] and [`ImplicitGraph::new`].
    pub fn cycle(n: usize) -> ImplicitGraph {
        valid(ClosedForm::cycle(n).and_then(Self::new))
    }

    /// The implicit square torus `side × side`.
    ///
    /// # Panics
    /// On the errors of [`ClosedForm::torus_2d`] and [`ImplicitGraph::new`].
    pub fn torus_2d(side: usize) -> ImplicitGraph {
        valid(ClosedForm::torus_2d(side).and_then(Self::new))
    }

    /// The implicit hypercube `Q_d`.
    ///
    /// # Panics
    /// On the errors of [`ClosedForm::hypercube`].
    pub fn hypercube(d: u32) -> ImplicitGraph {
        valid(ClosedForm::hypercube(d as usize).and_then(Self::new))
    }

    /// The implicit circulant `C_n(jumps)`.
    ///
    /// # Panics
    /// On the errors of [`ClosedForm::circulant`] and [`ImplicitGraph::new`].
    pub fn circulant(n: usize, jumps: &[usize]) -> ImplicitGraph {
        valid(ClosedForm::circulant(n, jumps).and_then(Self::new))
    }
}

/// Steps every position through a fixed-size row builder.
#[inline]
fn sweep_fixed<const D: usize>(
    positions: &mut [u32],
    row: impl Fn(u32) -> [u32; D],
    mut step: impl FnMut(u32, &[u32]) -> u32,
) {
    for p in positions {
        *p = step(*p, &row(*p));
    }
}

impl GraphBackend for ImplicitGraph {
    #[inline]
    fn n(&self) -> usize {
        self.0.n()
    }

    fn m(&self) -> usize {
        // Regular of degree d with no self-loops: m = n·d/2 (the half
        // jump's odd degree is always paired with an even n).
        self.0.n() * self.0.degree() / 2
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    #[inline]
    fn degree(&self, _v: u32) -> usize {
        self.0.degree()
    }

    #[inline]
    fn neighbor(&self, v: u32, i: usize) -> u32 {
        let d = self.0.degree();
        assert!(i < d, "neighbor index {i} out of range (degree {d})");
        let mut row = [0u32; MAX_IMPLICIT_DEGREE];
        self.0.row_into(v, &mut row);
        row[i]
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Some(self.0.degree())
    }

    #[inline]
    fn sweep_rows(&self, positions: &mut [u32], mut step: impl FnMut(u32, &[u32]) -> u32) {
        match self.0.shape {
            Shape::Cycle => {
                let n = self.0.n() as u32;
                sweep_fixed(positions, |v| cycle_row(v, n), step);
            }
            Shape::Torus2d { side: 2 } => sweep_fixed(positions, torus2_row, step),
            Shape::Torus2d { side } => sweep_fixed(positions, |v| torus_row(v, side), step),
            Shape::Hypercube { .. } | Shape::Circulant { .. } => {
                let d = self.0.degree();
                let mut row = [0u32; MAX_IMPLICIT_DEGREE];
                for p in positions {
                    self.0.row_into(*p, &mut row);
                    *p = step(*p, &row[..d]);
                }
            }
        }
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32)) {
        let mut row = [0u32; MAX_IMPLICIT_DEGREE];
        self.0.row_into(v, &mut row);
        for &u in &row[..self.0.degree()] {
            f(u);
        }
    }

    fn to_csr(&self) -> Graph {
        self.0.to_csr()
    }

    fn is_connected(&self) -> bool {
        self.0.is_connected()
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.0.name().len()
            + match &self.0.shape {
                Shape::Circulant { jumps } => jumps.len() * std::mem::size_of::<usize>(),
                _ => 0,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo, generators, GraphBuilder};

    /// `family` built by code that shares no row code with it: the
    /// d-dimensional lattice builder for the cycle (a 1-d torus), the 2-d
    /// torus and the hypercube (side 2 in every dimension), and for the
    /// circulant the `GraphBuilder` loop its generator used to run.
    fn reference(family: &ClosedForm) -> Graph {
        let n = family.n();
        let mut g = match &family.shape {
            Shape::Cycle => generators::torus(&[n]),
            Shape::Torus2d { side } => generators::torus(&[*side as usize; 2]),
            Shape::Hypercube { d } => generators::torus(&vec![2; *d as usize]),
            Shape::Circulant { jumps } => {
                let mut b = GraphBuilder::with_capacity(n, n * jumps.len());
                for v in 0..n {
                    for &s in jumps {
                        b.add_edge(v as u32, ((v + s) % n) as u32);
                    }
                }
                b.build("")
            }
        };
        g.set_name(family.name());
        g
    }

    /// The family's materialized arrays equal the reference's, and the
    /// connectivity the graph is born with is what BFS says.
    fn assert_materializes(family: &ClosedForm) -> Graph {
        let csr = family.to_csr();
        assert_eq!(csr, reference(family), "arrays of {}", family.name());
        assert_eq!(
            GraphBackend::is_connected(&csr),
            algo::is_connected(&csr),
            "connectivity of {}",
            family.name()
        );
        csr
    }

    /// Exhaustive cross-backend check: the materialized family matches its
    /// reference, and every accessor of the implicit graph agrees with the
    /// materialized arrays.
    fn assert_twin(implicit: &ImplicitGraph) {
        let csr = assert_materializes(&implicit.0);
        assert_eq!(implicit.name(), GraphBackend::name(&csr));
        assert_eq!(GraphBackend::n(implicit), Graph::n(&csr));
        assert_eq!(GraphBackend::m(implicit), Graph::m(&csr));
        assert_eq!(implicit.regular_degree(), csr.regular_degree());
        assert_eq!(implicit.is_connected(), algo::is_connected(&csr));
        for v in 0..Graph::n(&csr) as u32 {
            assert_eq!(
                GraphBackend::degree(implicit, v),
                Graph::degree(&csr, v),
                "degree({v}) on {}",
                implicit.name()
            );
            for i in 0..csr.neighbors(v).len() {
                assert_eq!(implicit.neighbor(v, i), csr.neighbor(v, i));
            }
            let mut seen = Vec::new();
            implicit.for_each_neighbor(v, |u| seen.push(u));
            assert_eq!(seen.as_slice(), csr.neighbors(v));
        }
        // `sweep_rows` visits positions in index order (repeats and a
        // descending run included), hands each its CSR row, and writes the
        // closure's result back in place.
        let n = Graph::n(&csr) as u32;
        let mut positions: Vec<u32> = (0..n).rev().chain(0..n).collect();
        let order = positions.clone();
        let mut visited = Vec::new();
        implicit.sweep_rows(&mut positions, |p, row| {
            assert_eq!(row, csr.neighbors(p), "row {p} on {}", implicit.name());
            visited.push(p);
            visited.len() as u32
        });
        assert_eq!(visited, order, "sweep order on {}", implicit.name());
        assert_eq!(positions, (1..=2 * n).collect::<Vec<_>>());
    }

    #[test]
    fn cycle_matches_generator() {
        for n in (3..=40).chain([64, 100, 257]) {
            assert_twin(&ImplicitGraph::cycle(n));
        }
    }

    #[test]
    fn torus_matches_generator() {
        for side in (2..=17).chain([32, 64]) {
            assert_twin(&ImplicitGraph::torus_2d(side));
        }
        // The one-vertex torus is a valid CSR graph with no rows, and no
        // implicit graph.
        let one = ClosedForm::torus_2d(1).expect("side 1");
        assert_eq!(assert_materializes(&one).n(), 1);
        assert_eq!(
            ImplicitGraph::new(one),
            Err("implicit torus needs side ≥ 2, got 1".into())
        );
    }

    #[test]
    fn hypercube_matches_generator() {
        for d in 1..=10u32 {
            assert_twin(&ImplicitGraph::hypercube(d));
        }
    }

    #[test]
    fn circulant_matches_generator() {
        for (n, jumps) in [
            (10, vec![1]),
            (10, vec![1, 3]),
            (8, vec![1, 4]), // half jump: odd degree
            (12, vec![2, 3, 6]),
            (9, vec![3]), // disconnected (gcd 3)
            (64, vec![1, 8]),
            (64, vec![1, 5, 32]),
            (40, vec![37, 4, 7]), // jumps above n/2, out of order
        ] {
            assert_twin(&ImplicitGraph::circulant(n, &jumps));
        }
        // Degree 66 is above the implicit row buffers but a valid CSR
        // graph.
        let wide = ClosedForm::circulant(200, &(1..=33).collect::<Vec<_>>()).expect("valid");
        assert_eq!(assert_materializes(&wide).regular_degree(), Some(66));
        assert!(ImplicitGraph::new(wide).is_err());
    }

    #[test]
    fn circulant_connectivity_is_the_gcd_rule() {
        assert!(ImplicitGraph::circulant(10, &[3]).is_connected());
        assert!(!ImplicitGraph::circulant(10, &[2]).is_connected());
        assert!(!ImplicitGraph::circulant(9, &[3]).is_connected());
        assert!(ImplicitGraph::circulant(9, &[3, 4]).is_connected());
    }

    /// The rows `sweep_rows` hands out for `vertices`, in order.
    fn swept_rows<G: GraphBackend>(g: &G, vertices: &[u32]) -> Vec<Vec<u32>> {
        let mut rows = Vec::new();
        g.sweep_rows(&mut vertices.to_vec(), |p, row| {
            rows.push(row.to_vec());
            p
        });
        rows
    }

    #[test]
    fn huge_torus_neighbors_computed_without_allocation() {
        // 40_000² = 1.6·10⁹ vertices — far beyond any CSR, trivial here.
        let g = ImplicitGraph::torus_2d(40_000);
        assert_eq!(GraphBackend::n(&g), 1_600_000_000);
        assert!(g.memory_bytes() < 1024);
        assert!(g.is_connected());
        // An interior vertex: neighbors are ±1 in x and ±side in y.
        let v = 40_000u32 * 17 + 5;
        assert_eq!(
            swept_rows(&g, &[v]),
            [[v - 40_000, v - 1, v + 1, v + 40_000]]
        );

        // Side 65535 is the largest with s² ≤ u32::MAX; every corner
        // wraps on both axes, at the top of the id range.
        let s = 65_535u32;
        let g = ImplicitGraph::torus_2d(s as usize);
        let last = s * s - 1;
        assert_eq!(GraphBackend::n(&g), last as usize + 1);
        let corners = [0, s - 1, s * (s - 1), last];
        let expected = [
            [1, s - 1, s, s * (s - 1)],
            [0, s - 2, 2 * s - 1, last],
            [0, s * (s - 2), s * (s - 1) + 1, last],
            [s - 1, s * (s - 1) - 1, s * (s - 1), last - 1],
        ];
        assert_eq!(swept_rows(&g, &corners), expected);
    }

    #[test]
    fn csr_backend_delegates() {
        let csr = generators::barbell(13);
        assert!(GraphBackend::csr(&csr).is_some());
        assert_eq!(GraphBackend::n(&csr), Graph::n(&csr));
        assert!(GraphBackend::is_connected(&csr));
        assert_eq!(swept_rows(&csr, &[0]), [csr.neighbors(0)]);
    }

    #[test]
    #[should_panic(expected = "side ≥ 2")]
    fn degenerate_torus_rejected() {
        ImplicitGraph::torus_2d(1);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn symmetric_jump_duplicate_rejected() {
        ImplicitGraph::circulant(10, &[3, 7]);
    }
}
