//! # mrw-core — many random walks, faster than one
//!
//! The primary contribution of Alon, Avin, Koucký, Kozma, Lotker &
//! Tuttle, *Many Random Walks Are Faster Than One* (SPAA 2008), as a
//! library:
//!
//! * **The unified walk engine** ([`engine`]) — the single entry point
//!   for every simulation in this crate: `k` tokens of a pluggable
//!   [`engine::Process`] step synchronously (round-synchronous
//!   or interleaved) while an [`engine::Observer`] accumulates
//!   statistics and decides when to stop. Cover, partial cover,
//!   multicover, hitting, meeting, pursuit, visit tallies, and coverage
//!   curves are all observers over this one loop.
//! * **k-walk cover times.** `k` independent simple random walks start at
//!   the same vertex and advance in parallel rounds; the k-cover time
//!   `C^k(G)` is the expected number of rounds until every vertex has been
//!   visited by some walk: an [`Engine`] with a
//!   [`FullCover`](engine::FullCover) observer. [`walk`] holds the
//!   one-step sampler and the walk RNG.
//! * **The query layer** ([`query`]) — one typed, serializable
//!   [`Query`] describing any Monte-Carlo estimate (cover,
//!   partial cover, hitting, `h_max`, meeting, pursuit, speed-up
//!   ladders), one [`Session`] executor whose trials all run on engines
//!   from [`Budget::engine`], the one builder that applies the budget's
//!   discipline and batch mode (the experiments that step walks
//!   themselves build theirs there too),
//!   and one [`Report`] whose exact sufficient statistics
//!   merge losslessly — the shard protocol behind `mrw shard`/`mrw merge`.
//!   Every estimate comes back as a `Report`: cover times, hitting and
//!   catch times, partial covers, and the speed-up
//!   `S^k(G) = C(G)/C^k(G)` of Definition 2
//!   ([`Report::speedups`](query::Report::speedups)) are all read from
//!   its groups. [`hitting_mc`] plans the `h_max` search and
//!   [`starts`] the worst-start probes.
//! * **Every closed-form bound stated in the paper** ([`bounds`]):
//!   Matthews (Thm 1), Baby Matthews (Thm 13), the cover/hitting
//!   decomposition (Thm 14), the cycle bounds (Lemmas 21–22), the expander
//!   walk length (Cor 20), and the mixing-time bound (Thm 9).
//! * **The paper's experiments** ([`experiments`]): one driver per
//!   table/figure/theorem, regenerating Table 1, the Figure-1 barbell
//!   demonstration, the cycle log-k law, the torus speed-up spectrum, the
//!   expander linear speed-up, and the bound-sandwich checks — plus the
//!   appendix (Lemma 16, Lemma 19/Corollary 20, Proposition 23, the
//!   Theorem 26 proof events, and the Theorem 24 projection coupling).
//! * **Exact ground truth** ([`exact`]): a `(positions, visited-mask)`
//!   dynamic program computing `C^k` exactly on small graphs, validating
//!   every Monte-Carlo path.
//! * **Generalized processes** ([`process`]): lazy walks (the Theorem 24
//!   projection chain) and Metropolis walks (uniform stationary law), plus
//!   partial cover times `C^k_γ` ([`partial`]) and [`visits`]/multicover
//!   statistics for the applications the paper's introduction motivates.
//!
//! ## Model
//!
//! All walks are *simple random walks*: from `v`, move to a uniform random
//! neighbor (§2 of the paper). The k walks are independent and synchronous;
//! one unit of time advances every walk by one step. Cover time for `k = 1`
//! from the worst start is the classical `C(G)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod coverage;
pub mod engine;
pub mod exact;
pub mod experiments;
pub mod hitting_mc;
pub mod partial;
pub mod process;
pub mod query;
pub mod starts;
pub mod visits;
pub mod walk;

pub use engine::{
    BatchMode, CompiledProcess, Discipline, Engine, EngineArena, Observer, PreyStrategy, Process,
    SimpleStep, BATCH_AUTO_MIN_K,
};
pub use mrw_stats::precision::{Precision, Trials};
pub use partial::fraction_target;
pub use process::WalkProcess;
pub use query::{
    AnyGraph, BackendChoice, Budget, GraphSpec, Group, Ledger, LedgerGroup, Query, QuerySpec,
    Report, Session, Shard,
};
pub use visits::{kwalk_visit_counts, VisitCounts};
pub use walk::{walk_rng, WalkRng};
