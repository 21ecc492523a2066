//! Graph substrate for the `many-walks` project.
//!
//! Everything here is implemented from scratch (no `petgraph`): a compact
//! immutable [CSR](csr::Graph) adjacency store tuned for random-walk
//! stepping, a mutable [builder](builder::GraphBuilder), the paper's graph
//! families as [generators] (the cycle, torus, hypercube and circulant
//! defined once, as [closed-form](closed::ClosedForm) rows that both the
//! CSR store and the [implicit backend](backend::ImplicitGraph) are built
//! from), classic traversal [algorithms](algo), a
//! [bitset](bitset::NodeBitSet) used for visited-sets, and [DOT](dot)
//! export for figures.
//!
//! The paper (Alon et al., *Many Random Walks Are Faster Than One*, SPAA
//! 2008) evaluates cover-time speed-ups on: cycles, 2-d and d-dimensional
//! grids (tori), hypercubes, complete graphs, expanders (realized here as
//! random regular graphs), Erdős–Rényi random graphs, d-regular balanced
//! trees, and the barbell graph of its Figure 1. All of those families are
//! in [`generators`], plus a few extras (path, star, lollipop, random
//! geometric) used in related-work comparisons and tests.
//!
//! Vertices are dense `u32` indices `0..n`. Graphs are undirected; an
//! optional self-loop contributes one entry to its vertex's adjacency list
//! (the convention under which a clique-with-loops walk is exactly the
//! coupon-collector process of the paper's Lemma 12).

// `deny`, not `forbid`: the scoped exceptions are the crate-private CSR
// row-window accessor (`Graph::neighbors_unchecked`, which
// `Graph::sweep_rows` fetches rows through) and the flat batched-sweep
// kernel ([`sweep::UniformSweep`]), whose safety rests on the
// construction-time CSR invariants plus a position check when a sweep is
// created — see the comments at their definitions.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod backend;
pub mod bitset;
pub mod builder;
pub mod closed;
pub mod csr;
pub mod dot;
pub mod generators;
pub mod sweep;

pub use backend::{GraphBackend, ImplicitGraph, MAX_IMPLICIT_DEGREE};
pub use bitset::NodeBitSet;
pub use builder::GraphBuilder;
pub use closed::ClosedForm;
pub use csr::Graph;
pub use sweep::UniformSweep;
