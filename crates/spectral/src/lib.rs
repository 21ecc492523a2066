//! Exact Markov-chain linear algebra for simple random walks.
//!
//! The paper's quantities — hitting time `h(u,v)`, maximum hitting time
//! `h_max`, mixing time `t_m`, and the spectral data behind the
//! `(n,d,λ)`-graph expander arguments of Section 4.1 — all admit exact
//! computation on finite graphs. This crate provides them:
//!
//! * [`dense`] — a dense matrix with partial-pivot LU (solve / invert),
//!   built from scratch.
//! * [`transition`] — the walk's transition operator `P` applied sparsely
//!   straight off the CSR graph (`O(m)` per application), plus the lazy
//!   variant `(I + P)/2`.
//! * [`stationary`] — the stationary distribution `π(v) = δ(v)/2m`.
//! * [`hitting`] — exact hitting times via the fundamental matrix
//!   `Z = (I − P + 𝟙πᵀ)⁻¹` (all pairs from one `O(n³)` inversion, Grinstead
//!   & Snell Thm 11.16) and via a direct one-target linear solve as a
//!   cross-check.
//! * [`mixing`] — exact total-variation mixing time by evolving the
//!   t-step distribution sparsely, matching the paper's definition
//!   (`Σ_v |p^t_{u,v} − π(v)| < 1/e` for all `u`).
//! * [`power`] — power iteration for the second-largest-in-modulus
//!   eigenvalue `λ` of the adjacency operator, used to certify that a
//!   sampled random regular graph really is an `(n,d,λ)`-expander.
//! * [`eigen`] — full walk spectrum by cyclic Jacobi rotations: an
//!   independent certificate for the power-iteration `λ`, the relaxation
//!   time, and the reversible-chain mixing-time sandwich.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod eigen;
pub mod hitting;
pub mod mixing;
pub mod power;
pub mod resistance;
pub mod stationary;
pub mod transition;

pub use dense::DenseMatrix;
pub use eigen::{
    jacobi_eigen, lazy_spectrum, mixing_time_sandwich, summarize_spectrum, walk_spectrum,
    SymmetricEigen, WalkSpectrumSummary,
};
pub use hitting::{hitting_times_all, hitting_times_to, HittingTimes};
pub use mixing::{mixing_time, mixing_time_from, MixingConfig};
pub use power::{second_eigenvalue_regular, spectral_profile};
pub use resistance::{commute_time, effective_resistance, max_effective_resistance};
pub use stationary::stationary_distribution;
pub use transition::TransitionOp;
