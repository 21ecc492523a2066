//! # mrw-bench — the Criterion benchmark harness
//!
//! This crate exists only for its `benches/` directory; the library
//! target is intentionally empty. Every benchmark runs against the
//! vendored offline `criterion` stand-in (`vendor/criterion`), which
//! exposes the `criterion_group!`/`criterion_main!` surface the real
//! crate has, so swapping in upstream Criterion requires no source
//! changes.
//!
//! ## Targets
//!
//! | Bench | What it times |
//! |-------|---------------|
//! | `engine` | raw engine throughput (ns/step) per graph shape, thread-pool scaling, and the batched-vs-scalar stepping comparison; `--test` mode emits `BENCH_engine.json`, archived by CI |
//! | `adaptive` | adaptive (precision-targeted) vs fixed trial budgets, and the wave driver's per-window dispatch overhead at a matched trial count |
//! | `ablations` | the DESIGN.md §4 design choices: stepping disciplines, process compilation, observer overhead |
//! | `processes` | simple vs lazy vs Metropolis walks, partial coverage, visit tallies |
//! | `cycle` / `torus` / `clique` / `barbell` / `expander` | one bench per Table 1 family's speed-up experiment |
//! | `table1` | the full one-row measurement pipeline per family |
//! | `bounds` | the closed-form bound computations (Theorems 1/9/13) |
//! | `spectral` | dense-LU vs Gauss–Seidel hitting times, CG resistance, Jacobi spectrum |
//! | `appendix` | Lemma 16 / Lemma 19 / Proposition 23 drivers at quick scale |
//!
//! ## Running
//!
//! ```text
//! cargo bench                   # everything, paper-adjacent sizes
//! cargo bench --bench engine    # one target
//! cargo bench --bench engine -- --test   # smoke mode; writes BENCH_engine.json
//! ```
//!
//! Estimator-driven benches use **fixed** trial budgets
//! ([`Trials::Fixed`](mrw_stats::Trials)) on purpose: an adaptive budget
//! would let the measured work vary with the sample noise, which is
//! exactly what a benchmark must not do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
