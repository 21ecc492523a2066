//! Closed-form families: the cycle, the square torus, the hypercube and
//! the circulant, whose sorted neighbor rows are arithmetic in the vertex
//! id.
//!
//! A [`ClosedForm`] is the one definition of such a family: its parameter
//! rules (checked once, as a `Result`), its display name, its degree, its
//! sorted rows and its connectivity. Both graph backends come from it.
//! [`ClosedForm::to_csr`] writes the rows straight into CSR arrays — the
//! graphs `generators::{cycle, torus_2d, hypercube, circulant}` return —
//! and [`ImplicitGraph`](crate::ImplicitGraph) computes the same rows on
//! demand, so the two backends agree by construction.

use crate::csr::Graph;

/// Largest torus side whose `side²` vertices have `u32` ids.
const MAX_TORUS_SIDE: usize = 65_535;

/// Which family, with the parameters its rows need beyond `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Shape {
    /// The cycle `L_n`.
    Cycle,
    /// The square torus `side × side`.
    Torus2d { side: u32 },
    /// The hypercube `Q_d`.
    Hypercube { d: u32 },
    /// The circulant `C_n(jumps)`.
    Circulant { jumps: Vec<usize> },
}

/// A closed-form graph family with checked parameters: the cycle, the
/// square torus, the hypercube or the circulant.
///
/// ```
/// use mrw_graph::{ClosedForm, Graph};
///
/// let torus = ClosedForm::torus_2d(4).expect("side 4 is valid");
/// assert_eq!((torus.name(), torus.n(), torus.degree()), ("torus2d(4x4)", 16, 4));
/// let g: Graph = torus.to_csr();
/// assert_eq!(g.neighbors(0), &[1, 3, 4, 12]);
/// assert!(ClosedForm::cycle(2).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedForm {
    pub(crate) shape: Shape,
    n: usize,
    degree: usize,
    name: String,
}

impl ClosedForm {
    /// The cycle `L_n` (ring): vertex `i` adjacent to `i ± 1 mod n`.
    ///
    /// # Errors
    /// If `n < 3` or `n > u32::MAX`.
    pub fn cycle(n: usize) -> Result<ClosedForm, String> {
        if n < 3 {
            return Err(format!("cycle needs n ≥ 3, got {n}"));
        }
        fits_u32_ids("cycle", n)?;
        Ok(ClosedForm {
            shape: Shape::Cycle,
            n,
            degree: 2,
            name: format!("cycle({n})"),
        })
    }

    /// The square torus `side × side`: vertex `x + side·y` is adjacent to
    /// `(x ± 1, y)` and `(x, y ± 1)`, wrapping both axes. On side 2 each
    /// wrap edge is the `+1` edge (degree 2); side 1 is one isolated
    /// vertex.
    ///
    /// # Errors
    /// If `side` is 0 or `side²` exceeds `u32::MAX`.
    pub fn torus_2d(side: usize) -> Result<ClosedForm, String> {
        if side < 1 {
            return Err(format!("torus needs side ≥ 1, got {side}"));
        }
        if side > MAX_TORUS_SIDE {
            return Err(format!(
                "torus needs side ≤ {MAX_TORUS_SIDE} (n = side² ≤ u32::MAX), got {side}"
            ));
        }
        Ok(ClosedForm {
            shape: Shape::Torus2d { side: side as u32 },
            n: side * side,
            degree: match side {
                1 => 0,
                2 => 2,
                _ => 4,
            },
            name: format!("torus2d({side}x{side})"),
        })
    }

    /// The hypercube `Q_d` on `2^d` vertices: `u ~ v` iff their binary
    /// encodings differ in exactly one bit.
    ///
    /// # Errors
    /// If `d` is outside `1..=30`.
    pub fn hypercube(d: usize) -> Result<ClosedForm, String> {
        if !(1..=30).contains(&d) {
            return Err(format!("hypercube needs dimension in 1..=30, got {d}"));
        }
        Ok(ClosedForm {
            shape: Shape::Hypercube { d: d as u32 },
            n: 1 << d,
            degree: d,
            name: format!("hypercube({d})"),
        })
    }

    /// The circulant `C_n(jumps)`: vertex `i` adjacent to `i ± s (mod n)`
    /// for every `s` in `jumps`. The half jump `s = n/2` pairs each vertex
    /// with one antipode, so it adds 1 to the degree, every other jump 2.
    ///
    /// # Errors
    /// If `n < 3` or `n > u32::MAX`, `jumps` is empty, a jump is 0 or
    /// ≥ `n`, or two jumps coincide modulo the `±`-symmetry (`s` and
    /// `n − s` denote the same chord set).
    pub fn circulant(n: usize, jumps: &[usize]) -> Result<ClosedForm, String> {
        if n < 3 {
            return Err(format!("circulant needs n ≥ 3, got {n}"));
        }
        fits_u32_ids("circulant", n)?;
        if jumps.is_empty() {
            return Err("circulant needs at least one jump".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut degree = 0;
        for &s in jumps {
            if s == 0 || s >= n {
                return Err(format!("jump {s} out of range 1..{n}"));
            }
            if !seen.insert(s.min(n - s)) {
                return Err(format!(
                    "jump {s} duplicates another jump modulo ±-symmetry"
                ));
            }
            degree += if 2 * s == n { 1 } else { 2 };
        }
        Ok(ClosedForm {
            shape: Shape::Circulant {
                jumps: jumps.to_vec(),
            },
            n,
            degree,
            name: format!("circulant(n={n},jumps={jumps:?})"),
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The degree of every vertex (each family is regular, loop-free and
    /// simple, so it has `n·degree/2` edges).
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The display name, e.g. `"torus2d(4x4)"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the graph is connected, computed arithmetically: the cycle,
    /// the torus and the hypercube always are, and a circulant is exactly
    /// when `gcd(n, s₁, …, s_j) = 1` (its jumps generate the subgroup
    /// `gcd·ℤ_n`).
    pub fn is_connected(&self) -> bool {
        match &self.shape {
            Shape::Circulant { jumps } => jumps.iter().fold(self.n, |g, &s| gcd(g, s)) == 1,
            _ => true,
        }
    }

    /// Writes `v`'s sorted neighbor row into `row[..degree]`.
    #[inline]
    pub(crate) fn row_into(&self, v: u32, row: &mut [u32]) {
        debug_assert!((v as usize) < self.n, "vertex {v} out of range");
        match &self.shape {
            Shape::Cycle => row[..2].copy_from_slice(&cycle_row(v, self.n as u32)),
            Shape::Torus2d { side: 1 } => {}
            Shape::Torus2d { side: 2 } => row[..2].copy_from_slice(&torus2_row(v)),
            Shape::Torus2d { side } => row[..4].copy_from_slice(&torus_row(v, *side)),
            Shape::Hypercube { d } => {
                // Sorted in closed form: flipping a *set* bit lowers the
                // value (highest set bit → smallest neighbor), flipping an
                // *unset* bit raises it (lowest unset bit first).
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
            }
            Shape::Circulant { jumps } => {
                let (v, n) = (v as usize, self.n);
                let mut i = 0;
                for &s in jumps {
                    row[i] = ((v + s) % n) as u32;
                    i += 1;
                    if 2 * s != n {
                        row[i] = ((v + n - s) % n) as u32;
                        i += 1;
                    }
                }
                row[..i].sort_unstable();
            }
        }
    }

    /// Materializes the graph as CSR arrays: `offsets[v] = v·degree`, and
    /// the family's row code writes each sorted row straight into its
    /// window of the adjacency array. [`Graph::from_csr`] validates
    /// the arrays, and the graph's connectivity is seeded with
    /// [`is_connected`](Self::is_connected)'s answer, so no BFS runs for
    /// it. Peak memory is the two arrays plus `from_csr`'s one `u32` per
    /// vertex.
    pub fn to_csr(&self) -> Graph {
        let (n, d) = (self.n, self.degree);
        let offsets = (0..=n).map(|v| v * d).collect();
        let mut adjacency = vec![0u32; n * d];
        // `max(1)`: the one-vertex torus has degree 0 and no rows to write.
        for (v, row) in adjacency.chunks_exact_mut(d.max(1)).enumerate() {
            self.row_into(v as u32, row);
        }
        Graph::from_csr(offsets, adjacency, self.name.clone()).with_connected(self.is_connected())
    }
}

/// Vertex ids are `u32`.
fn fits_u32_ids(family: &str, n: usize) -> Result<(), String> {
    if n > u32::MAX as usize {
        return Err(format!("{family} needs n ≤ {}, got {n}", u32::MAX));
    }
    Ok(())
}

/// The value a family constructor returned, or a panic with its error —
/// the panicking shorthands (`generators::cycle`, `ImplicitGraph::cycle`,
/// …) go through this.
pub(crate) fn valid<T>(family: Result<T, String>) -> T {
    family.unwrap_or_else(|e| panic!("{e}"))
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The sorted row of `v` on the cycle of `n` vertices.
#[inline]
pub(crate) fn cycle_row(v: u32, n: u32) -> [u32; 2] {
    let next = if v + 1 == n { 0 } else { v + 1 };
    let prev = if v == 0 { n - 1 } else { v - 1 };
    [next.min(prev), next.max(prev)]
}

/// The sorted row of `v` on the 2 × 2 torus: each axis contributes the
/// single edge `x ↔ x ^ 1`, so the neighbors flip bit 0 (x) and bit 1 (y).
#[inline]
pub(crate) fn torus2_row(v: u32) -> [u32; 2] {
    let (a, b) = (v ^ 1, v ^ 2);
    [a.min(b), a.max(b)]
}

/// The sorted row of `v = x + s·y` on the `s × s` torus, `s ≥ 3`. The row
/// is ordered by grid row: a wrap moves a y-neighbor to the other end,
/// and the two x-neighbors share row `y`.
#[inline]
pub(crate) fn torus_row(v: u32, s: u32) -> [u32; 4] {
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
