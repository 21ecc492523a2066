//! Generators for every graph family in the paper (and a few classics used
//! by tests and related work).
//!
//! | Family | Paper role | Function |
//! |--------|-----------|----------|
//! | cycle `L_n` | Θ(log k) speed-up (Theorem 6) | [`cycle`] |
//! | path `P_n` | `C = h_max` tightness example (§2) | [`path`] |
//! | complete `K_n` | coupon collector, `S^k = k` (Lemma 12) | [`complete`], [`complete_with_loops`] |
//! | 2-d grid / torus | linear speed-up, Matthews tight (Thm 4, 8) | [`grid_2d`], [`torus_2d`] |
//! | d-dim grid / torus | Table 1 rows 2–3, Theorem 24 | [`grid`], [`torus`] |
//! | hypercube | Table 1 row 4 | [`hypercube`] |
//! | d-regular balanced tree | Matthews tight (\[33\] in paper) | [`balanced_tree`] |
//! | barbell `B_n` | exponential speed-up (Thm 7/26, Fig. 1) | [`barbell`] |
//! | lollipop | worst-case `Θ(n³)` cover time (§2) | [`lollipop`] |
//! | Erdős–Rényi `G(n,p)` | Table 1 row 7 | [`erdos_renyi`] |
//! | random d-regular | expander surrogate (Thm 3/18) | [`random_regular`] |
//! | random geometric | cover-time literature (\[9\] in paper) | [`random_geometric`] |
//! | star `S_n` | test fixture | [`star`] |
//! | wheel `W_n` | sparse constant-diameter zoo member | [`wheel`] |
//! | circular ladder `CL_r` | 3-regular "thick cycle" (Thm 6 probe) | [`circular_ladder`] |
//! | Watts–Strogatz | cycle→expander interpolation (Conj. 10/11 zoo) | [`watts_strogatz`] |
//! | Barabási–Albert | heavy-tailed degree zoo member | [`barabasi_albert`] |
//!
//! Random generators take an explicit `&mut impl Rng`; deterministic
//! generators are pure functions of their parameters. The cycle, the 2-d
//! torus, the hypercube and the circulant are defined once, as
//! [`ClosedForm`](crate::ClosedForm) families: their generators write the
//! family's sorted rows straight into the CSR arrays, the rows the
//! implicit backend computes on demand. Every other family, the
//! d-dimensional [`torus`] and [`grid`] included, is assembled by
//! [`GraphBuilder`](crate::GraphBuilder) from an edge list.

mod basic;
mod circulant;
mod compound;
mod grid;
mod hypercube;
mod random;
mod smallworld;
mod tree;

pub use basic::{circular_ladder, complete, complete_with_loops, cycle, path, star, wheel};
pub use circulant::{circulant, complete_bipartite};
pub use compound::{barbell, barbell_center, lollipop};
pub use grid::{grid, grid_2d, torus, torus_2d};
pub use hypercube::hypercube;
pub use random::{
    erdos_renyi, erdos_renyi_connected_regime, random_geometric, random_regular, RandomRegularError,
};
pub use smallworld::{barabasi_albert, watts_strogatz};
pub use tree::balanced_tree;
