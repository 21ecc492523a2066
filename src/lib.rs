//! # many-walks
//!
//! A reproduction of *Many Random Walks Are Faster Than One*
//! (Alon, Avin, Koucký, Kozma, Lotker, Tuttle — SPAA 2008).
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`graph`] — CSR graph store and the paper's graph families
//!   (cycle, grids/tori, hypercube, complete graph, trees, barbell,
//!   Erdős–Rényi, random-regular expanders, …).
//! * [`walks`] — the paper's contribution: the unified walk **engine**
//!   (`walks::engine` — one k-token stepping loop driving pluggable
//!   processes and observers), cover time `C^k(G)`, speed-up
//!   `S^k(G) = C(G)/C^k(G)`, every theoretical bound stated in the paper,
//!   generalized processes (lazy, Metropolis), partial/multicover
//!   stopping rules, pursuit games, and an exact small-graph DP that
//!   ground-truths the estimators.
//! * [`spectral`] — exact Markov-chain computations: hitting times,
//!   effective resistances, mixing times, the full walk spectrum
//!   (Jacobi), stationary distributions, spectral gap.
//! * [`stats`] — Monte-Carlo summaries, confidence intervals, fits, and a
//!   two-sample Kolmogorov–Smirnov test.
//! * [`par`] — the work-stealing pool used to run trials in parallel.
//!
//! ## Quickstart
//!
//! ```
//! use many_walks::graph::generators;
//! use many_walks::walks::{Budget, Query, Session};
//!
//! // Cover time of a 64-vertex cycle by 1 walk vs 4 parallel walks: one
//! // speed-up ladder from vertex 0. Trials fan out over all cores; results
//! // depend only on the seed, never on the thread count.
//! let g = generators::cycle(64);
//! let budget = Budget { trials: 32, seed: 7, ..Budget::default() };
//! let ladder = Query::SpeedupLadder { start: 0, ks: vec![4] };
//! let report = Session::new(budget).run(&g, &ladder);
//! let (k, four, speedup) = report.speedups()[0];
//! assert_eq!(k, 4);
//! assert!(four.mean() < report.mean()); // C^4 < C^1, the baseline
//! assert!(speedup > 1.0);
//! ```
//!
//! Budgets can also be *adaptive*: instead of a fixed trial count, give
//! the session a precision target and it samples in waves until the CI
//! half-width crosses it (or a hard cap) — consuming an identical trial
//! count on any thread count:
//!
//! ```
//! use many_walks::graph::generators;
//! use many_walks::stats::Precision;
//! use many_walks::walks::{Budget, Query, Session};
//!
//! // Full-cover estimate on the 4-cycle to ±10% at 95% confidence.
//! let g = generators::cycle(4);
//! let rule = Precision::relative(0.10).with_max_trials(4096);
//! let budget = Budget { precision: Some(rule), seed: 1, ..Budget::default() };
//! let report = Session::new(budget).run(&g, &Query::Cover { k: 2, starts: vec![0] });
//! assert!(report.consumed_trials() < 4096); // easy instance: stops early
//! assert!(report.half_width() <= 0.10 * report.mean());
//! ```
//!
//! Every simulation in the crate is one primitive observed through a
//! different lens: `k` tokens stepping over a graph until a stopping rule
//! fires. The engine exposes that primitive directly — pick a process,
//! pick an observer, run:
//!
//! ```
//! use many_walks::graph::generators;
//! use many_walks::walks::engine::{Engine, PartialCover, SimpleStep};
//! use many_walks::walks::walk_rng;
//!
//! // Rounds for 8 walks to touch half of a 16×16 torus.
//! let g = generators::torus_2d(16);
//! let out = Engine::new(&g, SimpleStep, PartialCover::new(g.n(), g.n() / 2))
//!     .run(&[0; 8], &mut walk_rng(1));
//! assert!(out.stopped && out.rounds > 0);
//! ```

#![forbid(unsafe_code)]

pub use mrw_graph as graph;
pub use mrw_par as par;
pub use mrw_spectral as spectral;
pub use mrw_stats as stats;

/// The core crate, re-exported under the paper-facing name `walks`.
pub mod walks {
    pub use mrw_core::*;
}

pub use mrw_core as core;
