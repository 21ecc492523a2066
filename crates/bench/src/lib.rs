//! # mrw-bench — the engine bench
//!
//! This crate exists only for `benches/engine.rs`; the library target is
//! intentionally empty. The bench times pure-horizon engine stepping with
//! the batched sweep forced on and off (cycle, torus, barbell, star and a
//! G(n,p) draw, plus the implicit backend's column where one exists) and
//! writes `BENCH_engine.json`, which CI archives and gates: every
//! regular-family row must keep a batched speed-up of at least 1.3×.
//!
//! ```text
//! cargo bench --bench engine             # writes BENCH_engine.json
//! cargo bench --bench engine -- --test   # the CI smoke step; same run
//! ```
//!
//! End-to-end and per-layer numbers come from `perfbench/`
//! (`BENCHMARK.json`), not from this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
