//! Streaming statistics, confidence intervals, regression, and table
//! rendering for the `many-walks` project.
//!
//! Every estimator in the workspace is a Monte-Carlo estimator: we run many
//! independent trials of a random process (a cover time, a hitting time) and
//! summarize the sample. This crate provides the numerically careful pieces
//! of that pipeline:
//!
//! * [`Summary`] — single-pass Welford accumulation of count / mean /
//!   variance / min / max, with exact merging so per-thread partial summaries
//!   can be combined deterministically.
//! * [`ci`] — normal-approximation confidence intervals.
//! * [`quantile`] — order statistics on sample vectors.
//! * [`regression`] — ordinary least squares and log–log growth-exponent
//!   fitting, used to verify asymptotic laws such as `C(cycle) ~ n²/2`.
//! * [`harmonic`] — harmonic numbers `H_n` appearing in Matthews' bound.
//! * [`Table`] — ASCII / Markdown / CSV rendering of result tables in the
//!   layout of the paper's Table 1.
//! * [`ladder`] — the geometric `k` ladder of speed-up sweeps.
//! * [`precision`] — sequential stopping rules ([`Precision`], [`Trials`])
//!   for adaptive trial budgets: sample until the CI half-width crosses a
//!   requested target instead of running a fixed count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod harmonic;
pub mod ks;
pub mod ladder;
pub mod moments;
pub mod precision;
pub mod quantile;
pub mod regression;
pub mod summary;
pub mod table;

pub use ci::ConfidenceInterval;
pub use ks::{kolmogorov_q, ks_two_sample, KsTest};
pub use moments::IntMoments;
pub use precision::{Precision, Trials};
pub use regression::{LinearFit, PowerLawFit};
pub use summary::Summary;
pub use table::{Align, Table};
