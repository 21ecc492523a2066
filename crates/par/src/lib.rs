//! Parallel execution substrate for Monte-Carlo trial fan-out.
//!
//! The estimators in `mrw-core` run hundreds of independent random-walk
//! trials; this crate supplies the machinery to spread them over cores
//! without giving up determinism:
//!
//! * [`ThreadPool`] — a persistent work-stealing pool (crossbeam deques:
//!   one injector, one worker deque per thread, sibling stealing, parked
//!   idle workers) for `'static` jobs. Only tests use it (see [`pool`]).
//! * [`scope`] — borrowing data-parallel helpers ([`par_map`],
//!   [`par_map_with`]) built on
//!   `std::thread::scope` with dynamic self-scheduling, so closures can
//!   borrow the graph without `Arc`. Adaptive (precision-targeted)
//!   estimators call [`par_map_with`] once per wave window; the wave
//!   loop itself is `mrw-core`'s (`mrw_core::query::waves`).
//! * [`seeds`] — counter-based seed derivation (SplitMix64) so that trial
//!   `i` sees the same RNG stream no matter which thread runs it or how many
//!   threads exist. Results are bit-for-bit reproducible across thread
//!   counts.
//!
//! Determinism contract: all `par_*` functions return results indexed by
//! item, not by completion order, and nothing in this crate ever mixes a
//! thread id into a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod scope;
pub mod seeds;

pub use pool::ThreadPool;
pub use scope::{available_threads, par_map, par_map_with};
pub use seeds::SeedSequence;
