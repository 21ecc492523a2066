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
//! every consumer:
//!
//! * `neighbor(v, i)` returns the `i`-th entry of the *sorted* neighbor
//!   row — exactly the entry `generators::<family>(..).neighbor(v, i)`
//!   returns. Walk streams consume RNG draws identically on both
//!   backends, so every report is byte-identical at sizes where both run
//!   (the cross-backend equivalence suite diffs the rendered JSON).
//! * `name()` and `n()` match the generator's, so
//!   [`GraphInfo`](../../mrw_core/query/struct.GraphInfo.html)-keyed
//!   report merges accept shards from either backend.
//! * `is_connected()` is computed arithmetically (a cycle is always
//!   connected; a circulant iff `gcd(n, s₁, …, s_j) = 1`), matching what
//!   BFS would say without touching all `n` vertices.
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

use crate::csr::Graph;
use crate::generators;

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

/// Which implicit family an [`ImplicitGraph`] computes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Family {
    /// The cycle `L_n` (`n ≥ 3`).
    Cycle { n: usize },
    /// The square torus `side × side` (`side ≥ 2`).
    Torus2d { side: usize },
    /// The hypercube `Q_d` (`1 ≤ d ≤ 30`).
    Hypercube { d: u32 },
    /// The circulant `C_n(jumps)` (same parameter rules as
    /// [`generators::circulant`]).
    Circulant {
        n: usize,
        jumps: Vec<usize>,
        degree: usize,
    },
}

/// An O(1)-state graph whose neighborhoods are computed arithmetically —
/// the implicit backend for the structured families of the paper's
/// Table 1. See the module docs for the determinism contract it obeys
/// with respect to the CSR generators.
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
pub struct ImplicitGraph {
    family: Family,
    n: usize,
    name: String,
}

impl ImplicitGraph {
    /// The implicit cycle `L_n`.
    ///
    /// # Panics
    /// If `n < 3` (matching [`generators::cycle`]).
    pub fn cycle(n: usize) -> ImplicitGraph {
        assert!(n >= 3, "cycle needs at least 3 vertices, got {n}");
        assert!(n <= u32::MAX as usize, "too many vertices for u32 ids");
        ImplicitGraph {
            family: Family::Cycle { n },
            n,
            name: format!("cycle({n})"),
        }
    }

    /// The implicit square torus `side × side`.
    ///
    /// # Panics
    /// If `side < 2` (side 1 is a degenerate single vertex) or the vertex
    /// count overflows `u32` ids.
    pub fn torus_2d(side: usize) -> ImplicitGraph {
        assert!(side >= 2, "implicit torus needs side ≥ 2, got {side}");
        let n = side.checked_mul(side).expect("torus size overflows usize");
        assert!(n <= u32::MAX as usize, "torus too large for u32 vertex ids");
        ImplicitGraph {
            family: Family::Torus2d { side },
            n,
            name: format!("torus2d({side}x{side})"),
        }
    }

    /// The implicit hypercube `Q_d`.
    ///
    /// # Panics
    /// If `d` is outside `1..=30` (matching [`generators::hypercube`]).
    pub fn hypercube(d: u32) -> ImplicitGraph {
        assert!(d >= 1, "hypercube needs dimension ≥ 1");
        assert!(d < 31, "hypercube dimension {d} too large for u32 ids");
        ImplicitGraph {
            family: Family::Hypercube { d },
            n: 1usize << d,
            name: format!("hypercube({d})"),
        }
    }

    /// The implicit circulant `C_n(jumps)`.
    ///
    /// # Panics
    /// On the same parameter violations as [`generators::circulant`], or
    /// if the degree would exceed [`MAX_IMPLICIT_DEGREE`].
    pub fn circulant(n: usize, jumps: &[usize]) -> ImplicitGraph {
        assert!(n >= 3, "circulant needs n ≥ 3, got {n}");
        assert!(n <= u32::MAX as usize, "too many vertices for u32 ids");
        assert!(!jumps.is_empty(), "circulant needs at least one jump");
        let mut seen = std::collections::BTreeSet::new();
        let mut degree = 0usize;
        for &s in jumps {
            assert!(s >= 1 && s < n, "jump {s} out of range 1..{n}");
            let canon = s.min(n - s);
            assert!(
                seen.insert(canon),
                "jump {s} duplicates another jump modulo ±-symmetry"
            );
            // The half jump s = n/2 pairs each vertex with one antipode.
            degree += if 2 * s == n { 1 } else { 2 };
        }
        assert!(
            degree <= MAX_IMPLICIT_DEGREE,
            "circulant degree {degree} exceeds the implicit-backend cap {MAX_IMPLICIT_DEGREE}"
        );
        ImplicitGraph {
            family: Family::Circulant {
                n,
                jumps: jumps.to_vec(),
                degree,
            },
            n,
            name: format!("circulant(n={n},jumps={jumps:?})"),
        }
    }

    /// The constant vertex degree (every implicit family is regular).
    #[inline]
    pub fn degree_const(&self) -> usize {
        match &self.family {
            Family::Cycle { .. } => 2,
            Family::Torus2d { side } => {
                if *side >= 3 {
                    4
                } else {
                    2 // side 2: the wrap edge coincides with the +1 edge
                }
            }
            Family::Hypercube { d } => *d as usize,
            Family::Circulant { degree, .. } => *degree,
        }
    }

    /// Writes `v`'s sorted neighbor row into `row` and returns the degree
    /// (`row` must hold at least `degree_const()` entries).
    #[inline]
    fn row_into(&self, v: u32, row: &mut [u32]) -> usize {
        let vu = v as usize;
        debug_assert!(vu < self.n, "vertex {v} out of range");
        match &self.family {
            Family::Cycle { n } => {
                row[..2].copy_from_slice(&cycle_row(v, *n as u32));
                2
            }
            Family::Torus2d { side: 2 } => {
                row[..2].copy_from_slice(&torus2_row(v));
                2
            }
            Family::Torus2d { side } => {
                row[..4].copy_from_slice(&torus_row(v, *side as u32));
                4
            }
            Family::Hypercube { d } => {
                // Sorted row in closed form: flipping a *set* bit lowers
                // the value (highest set bit → smallest neighbor), flipping
                // an *unset* bit raises it (lowest unset bit first).
                let mut i = 0;
                for b in (0..*d).rev() {
                    if v & (1 << b) != 0 {
                        row[i] = v ^ (1 << b);
                        i += 1;
                    }
                }
                for b in 0..*d {
                    if v & (1 << b) == 0 {
                        row[i] = v ^ (1 << b);
                        i += 1;
                    }
                }
                i
            }
            Family::Circulant { n, jumps, degree } => {
                let mut i = 0;
                for &s in jumps {
                    row[i] = ((vu + s) % n) as u32;
                    i += 1;
                    if 2 * s != *n {
                        row[i] = ((vu + n - s) % n) as u32;
                        i += 1;
                    }
                }
                let filled = &mut row[..i];
                filled.sort_unstable();
                debug_assert_eq!(i, *degree);
                i
            }
        }
    }
}

/// The sorted row of `v` on the cycle of `n` vertices.
#[inline]
fn cycle_row(v: u32, n: u32) -> [u32; 2] {
    let next = if v + 1 == n { 0 } else { v + 1 };
    let prev = if v == 0 { n - 1 } else { v - 1 };
    [next.min(prev), next.max(prev)]
}

/// The sorted row of `v` on the 2 × 2 torus: each axis contributes the
/// single edge `x ↔ x ^ 1`, so the neighbors flip bit 0 (x) and bit 1 (y).
#[inline]
fn torus2_row(v: u32) -> [u32; 2] {
    let (a, b) = (v ^ 1, v ^ 2);
    [a.min(b), a.max(b)]
}

/// The sorted row of `v = x + s·y` on the `s × s` torus, `s ≥ 3`. The row
/// is ordered by grid row: a wrap moves a y-neighbor to the other end,
/// and the two x-neighbors share row `y`.
#[inline]
fn torus_row(v: u32, s: u32) -> [u32; 4] {
    let y = v / s;
    let x = v - y * s;
    let left = if x == 0 { v + (s - 1) } else { v - 1 };
    let right = if x + 1 == s { v - (s - 1) } else { v + 1 };
    let (a, b) = (left.min(right), left.max(right));
    let up = if y == 0 { v + s * (s - 1) } else { v - s };
    let down = if y + 1 == s { x } else { v + s };
    if y == 0 {
        [a, b, down, up]
    } else if y + 1 == s {
        [down, up, a, b]
    } else {
        [up, a, b, down]
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
        self.n
    }

    fn m(&self) -> usize {
        // Regular of degree d with no self-loops: m = n·d/2 (the half
        // jump's odd degree is always paired with an even n).
        self.n * self.degree_const() / 2
    }

    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn degree(&self, _v: u32) -> usize {
        self.degree_const()
    }

    #[inline]
    fn neighbor(&self, v: u32, i: usize) -> u32 {
        let mut row = [0u32; MAX_IMPLICIT_DEGREE];
        let d = self.row_into(v, &mut row);
        assert!(i < d, "neighbor index {i} out of range (degree {d})");
        row[i]
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Some(self.degree_const())
    }

    #[inline]
    fn sweep_rows(&self, positions: &mut [u32], mut step: impl FnMut(u32, &[u32]) -> u32) {
        match &self.family {
            Family::Cycle { n } => {
                let n = *n as u32;
                sweep_fixed(positions, |v| cycle_row(v, n), step);
            }
            Family::Torus2d { side: 2 } => sweep_fixed(positions, torus2_row, step),
            Family::Torus2d { side } => {
                let s = *side as u32;
                sweep_fixed(positions, |v| torus_row(v, s), step);
            }
            Family::Hypercube { .. } | Family::Circulant { .. } => {
                let d = self.degree_const();
                let mut row = [0u32; MAX_IMPLICIT_DEGREE];
                for p in positions {
                    self.row_into(*p, &mut row);
                    *p = step(*p, &row[..d]);
                }
            }
        }
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32)) {
        let mut row = [0u32; MAX_IMPLICIT_DEGREE];
        let d = self.row_into(v, &mut row);
        for &u in &row[..d] {
            f(u);
        }
    }

    fn to_csr(&self) -> Graph {
        match &self.family {
            Family::Cycle { n } => generators::cycle(*n),
            Family::Torus2d { side } => generators::torus_2d(*side),
            Family::Hypercube { d } => generators::hypercube(*d),
            Family::Circulant { n, jumps, .. } => generators::circulant(*n, jumps),
        }
    }

    fn is_connected(&self) -> bool {
        match &self.family {
            Family::Cycle { .. } | Family::Torus2d { .. } | Family::Hypercube { .. } => true,
            // The jumps generate the subgroup gcd(n, s₁, …, s_j)·ℤ_n.
            Family::Circulant { n, jumps, .. } => {
                let mut g = *n;
                for &s in jumps {
                    g = gcd(g, s);
                }
                g == 1
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name.len()
            + match &self.family {
                Family::Circulant { jumps, .. } => jumps.len() * std::mem::size_of::<usize>(),
                _ => 0,
            }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    /// Exhaustive cross-backend check: every accessor of the implicit
    /// graph must agree with the materialized generator output.
    fn assert_twin(implicit: &ImplicitGraph) {
        let csr = implicit.to_csr();
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
        for n in [3, 4, 5, 8, 33, 100] {
            assert_twin(&ImplicitGraph::cycle(n));
        }
    }

    #[test]
    fn torus_matches_generator() {
        for side in [2, 3, 4, 5, 9, 16] {
            assert_twin(&ImplicitGraph::torus_2d(side));
        }
    }

    #[test]
    fn hypercube_matches_generator() {
        for d in 1..=8u32 {
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
        ] {
            assert_twin(&ImplicitGraph::circulant(n, &jumps));
        }
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
