//! The flat batched-sweep kernel for plain uniform walks on irregular
//! CSR graphs.
//!
//! [`UniformSweep`] reads a graph's per-vertex pick table and advances a
//! whole token population one synchronous round per
//! [`round`](UniformSweep::round) call, consuming the engine's
//! counter-expanded draw law: round seed `r` expands through SplitMix64,
//! token `t` takes word `t`. The inner loop is deliberately branch-free
//! and bounds-check-free — see the module-level safety argument below —
//! because on cache-resident irregular graphs the batched walk is
//! throughput-bound on exactly the few instructions in that loop.
//!
//! # The pick table
//!
//! The batched pick law is a mask for power-of-two rows and Lemire's
//! widening multiply otherwise. Selecting between the two per step is a
//! data-dependent branch (mispredicts on degree-mixed graphs) or a
//! `cmov` chain (lengthens the critical path); both measured well above
//! the loop's floor. Instead each vertex stores `(row_start, m, a)` with
//!
//! * Lemire rows: `m = degree`, `a = 0`,
//! * power-of-two rows: `m = 0`, `a = degree - 1`,
//!
//! so both laws collapse into one straight-line expression
//!
//! ```text
//! idx = mulhi64(w, m) | (w & a)
//! ```
//!
//! — the inactive half is identically zero. One 16-byte table load, one
//! widening multiply, two bitwise ops; no select.
//!
//! The table costs `16 · n` bytes. It lives in the [`Graph`] it
//! describes: built from the graph's arrays on the first sweep and kept
//! for the graph's lifetime, so later runs on the same graph (every
//! trial of an estimate) neither allocate nor recompute it.
//!
//! # Safety argument
//!
//! The loop indexes the table and the adjacency array without bounds
//! checks. This is sound because every index is forced in range by
//! invariants checked once, not per step:
//!
//! * [`Graph::from_csr`](crate::Graph::from_csr) validates at
//!   construction that offsets are non-decreasing, end at
//!   `adjacency.len()`, and that every adjacency entry is `< n`. The
//!   arrays are immutable afterwards (`Graph`'s only `&mut` method is
//!   `set_name`), the table is built from them, and [`UniformSweep`]
//!   borrows both, so table and arrays cannot drift apart.
//! * [`UniformSweep::new`] asserts that every entry position is `< n`
//!   with degree `≥ 1`, and that the table has `n` entries. The sweep
//!   then holds the positions `&mut` and lends them out only shared
//!   ([`positions`](UniformSweep::positions)), so only
//!   [`round`](UniformSweep::round) changes them. Each step replaces a
//!   position by an adjacency entry, which is `< n` by construction and
//!   has degree `≥ 1` because adjacency is symmetric (a listed vertex has
//!   at least its reverse edge) — so the preconditions are closed under
//!   stepping.
//! * For degree `d ≥ 1` both pick laws produce `idx < d`, hence
//!   `row_start + idx < row_end ≤ adjacency.len()`.

use crate::csr::Graph;
use rand::rngs::SplitMix64;

/// Per-vertex `[(row_start << 32) | m, a]` entries of `g` — see the
/// module docs. [`Graph`] caches the result; only it calls this.
pub(crate) fn build_pick_table(g: &Graph) -> Vec<[u64; 2]> {
    (0..g.n() as u32)
        .map(|v| {
            let (s, e) = g.row_bounds(v);
            let d = (e - s) as u64;
            if d.is_power_of_two() {
                [(s as u64) << 32, d - 1]
            } else {
                [((s as u64) << 32) | d, 0]
            }
        })
        .collect()
}

/// A token population ready for flat uniform batched sweeps of a graph.
///
/// Cheap to make: [`UniformSweep::new`] borrows the pick table the graph
/// keeps, building it only on the graph's first sweep. The table is
/// gated to CSR sizes where the batched fast path applies at all.
#[derive(Debug)]
pub struct UniformSweep<'a> {
    adj: &'a [u32],
    /// Per-vertex `[(row_start << 32) | m, a]` — see the module docs.
    vtab: &'a [[u64; 2]],
    /// Token `t`'s vertex; checked at creation, changed only by `round`.
    pos: &'a mut [u32],
}

impl<'a> UniformSweep<'a> {
    /// A sweep of the tokens at `pos` over `g`, or `None` when the flat
    /// kernel does not apply: an empty graph, or an adjacency array whose
    /// row starts overflow the packed `u32` field.
    ///
    /// # Panics
    /// If any position is out of range or isolated (see the module-level
    /// safety argument; the walk cannot *reach* an isolated vertex, so
    /// only the entry positions need the check).
    pub fn new(g: &'a Graph, pos: &'a mut [u32]) -> Option<Self> {
        let n = g.n();
        if n == 0 || g.adjacency().len() > u32::MAX as usize {
            return None;
        }
        assert!(
            pos.iter().all(|&p| (p as usize) < n && g.degree(p) > 0),
            "sweep position out of range or isolated"
        );
        let vtab = g.pick_table();
        assert_eq!(vtab.len(), n, "pick table does not match the graph");
        Some(UniformSweep {
            adj: g.adjacency(),
            vtab,
            pos,
        })
    }

    /// The tokens' current vertices (token `t` at index `t`).
    #[inline]
    pub fn positions(&self) -> &[u32] {
        self.pos
    }

    /// Steps every token once, expanding `seed`: token `t` consumes draw
    /// word `t` of the round's block — exactly the word an in-token-order
    /// sweep hands it, so the engine's batched law is preserved no matter
    /// which path steps the tokens.
    #[inline]
    pub fn round(&mut self, seed: u64) {
        let (adj, vtab) = (self.adj, self.vtab);
        // Token t's word index is t, i.e. Weyl state `seed + (t + 1)·GAMMA`:
        // start one GAMMA past the seed and advance by GAMMA per token.
        let mut state = seed.wrapping_add(SplitMix64::GAMMA);
        for p in self.pos.iter_mut() {
            let w = SplitMix64::finalize(state);
            state = state.wrapping_add(SplitMix64::GAMMA);
            // SAFETY: `*p < n == vtab.len()` — asserted in `new` for the
            // entry positions and closed under stepping because every
            // adjacency entry is `< n` (`from_csr`); only this loop writes
            // the positions.
            #[allow(unsafe_code)]
            let t = unsafe { *vtab.get_unchecked(*p as usize) };
            let s = (t[0] >> 32) as usize;
            let m = t[0] & 0xFFFF_FFFF;
            let idx = ((w as u128 * m as u128) >> 64) as usize | (w & t[1]) as usize;
            // SAFETY: the position has degree `d ≥ 1` (asserted in `new`
            // / closed under stepping as above), both pick laws give
            // `idx < d`, and `from_csr` guarantees
            // `s + d ≤ adjacency.len()`.
            #[allow(unsafe_code)]
            {
                // SAFETY: as argued above — both pick laws give
                // `idx < d` and `from_csr` guarantees
                // `s + d ≤ adj.len()`.
                *p = unsafe { *adj.get_unchecked(s + idx) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBackend;
    use rand::{RngCore, SeedableRng};

    /// Reference implementation: per-token `SplitMix64` block draws and
    /// the engine's safe pick law.
    fn reference_round(g: &Graph, pos: &mut [u32], seed: u64) {
        let mut block = SplitMix64::seed_from_u64(seed);
        for p in pos.iter_mut() {
            let row = g.neighbors(*p);
            let d = row.len();
            let w = block.next_u64();
            let idx = if d.is_power_of_two() {
                (w & (d as u64 - 1)) as usize
            } else {
                ((w as u128 * d as u128) >> 64) as usize
            };
            *p = row[idx];
        }
    }

    #[test]
    fn matches_reference_on_irregular_families() {
        let graphs = vec![
            generators::barbell(21),
            generators::star(17),
            generators::lollipop(13),
            generators::path(9),
            generators::complete(5),
        ];
        for g in &graphs {
            let mut pos: Vec<u32> = (0..8).map(|t| (t * 2) % g.n() as u32).collect();
            let mut want = pos.clone();
            let mut sweep = UniformSweep::new(g, &mut pos).expect("kernel applies");
            let mut rng = SplitMix64::seed_from_u64(42);
            for _ in 0..20 {
                let seed = rng.next_u64();
                reference_round(g, &mut want, seed);
                sweep.round(seed);
                assert_eq!(sweep.positions(), want, "{}", g.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range or isolated")]
    fn rejects_out_of_range_start() {
        let g = generators::cycle(8);
        UniformSweep::new(&g, &mut [8]);
    }

    #[test]
    #[should_panic(expected = "out of range or isolated")]
    fn rejects_isolated_start() {
        // Vertex 2 is isolated: edges only between 0 and 1.
        let g = Graph::from_csr(vec![0, 1, 2, 2], vec![1, 0], "iso".into());
        UniformSweep::new(&g, &mut [2]);
    }

    #[test]
    fn pick_table_is_built_once_per_graph_and_invisible() {
        // Vertex 2 of the second graph is isolated.
        let disconnected = Graph::from_csr(vec![0, 1, 2, 2], vec![1, 0], "iso".into());
        for (g, connected) in [(generators::barbell(21), true), (disconnected, false)] {
            let untouched = g.clone();
            let (mut pa, mut pb) = ([0u32], [1u32]);
            let a = UniformSweep::new(&g, &mut pa).unwrap();
            let b = UniformSweep::new(&g, &mut pb).unwrap();
            assert!(
                std::ptr::eq(a.vtab, b.vtab),
                "second sweep rebuilt the table"
            );
            assert_eq!(a.vtab, &build_pick_table(&g)[..]);
            // The cached connectivity answers the same on every call.
            for _ in 0..2 {
                assert_eq!(GraphBackend::is_connected(&g), connected);
            }
            // A built table and a cached connectivity change neither
            // equality nor the debug form.
            assert_eq!(g, untouched);
            assert_eq!(format!("{g:?}"), format!("{untouched:?}"));
        }
    }

    #[test]
    fn declines_empty_graph() {
        let g = Graph::from_csr(vec![0], vec![], "empty".into());
        assert!(UniformSweep::new(&g, &mut []).is_none());
    }
}
