//! The query layer: one serializable description of every Monte-Carlo
//! estimate, one executor, one mergeable result.
//!
//! The paper's headline objects — cover, hitting, meeting, and pursuit
//! times, and the speed-up ratios between them — are all Monte-Carlo
//! estimates, but they historically entered the crate through seven
//! differently-shaped functions with three incompatible result structs.
//! This module replaces that surface with three values:
//!
//! * [`Query`] — a typed, serializable description of *what* to estimate
//!   (`Cover`, `PartialCover`, `Hitting`, `HMax`, `Meeting`, `Pursuit`,
//!   `SpeedupLadder`).
//! * [`Session`] — the one executor: [`Session::run`] drives the
//!   [`Engine`] through `mrw_par`'s deterministic fan-out for any query,
//!   optionally restricted to a range of trial indices (such as a
//!   [`Shard`]'s slice). Every trial's engine comes from
//!   [`Budget::engine`], which applies the budget's `mode` and `batch`.
//! * [`Report`] — the one result: per-group **exact sufficient
//!   statistics** ([`IntMoments`]) rather than floating summaries, so
//!   [`Report::merge`] is lossless, associative, and commutative.
//!
//! ## The shard protocol
//!
//! A trial is a pure function of `(graph, seed, index)` — per-trial RNG
//! streams are derived by counter, never by thread. A shard is therefore
//! just an index range: shard `i/s` of an `N`-trial budget runs trials
//! `⌊iN/s⌋ .. ⌊(i+1)N/s⌋`. Because group statistics are exact integer
//! sums, merging any partition of the index range reproduces the
//! single-process report **byte-for-byte** (the CI shard smoke step
//! `diff`s the rendered JSON). Adaptive (precision-ruled) budgets shard
//! over the rule's hard cap — each shard runs its fixed slice — and the
//! sequential rule is re-evaluated on the *merged* statistics, certifying
//! the achieved half-width after the fact (see [`Report::certified`]),
//! exactly like on-the-fly evaluation over a stream of mergeable partial
//! results.
//!
//! ## Determinism contract
//!
//! For a fixed `(graph, query, budget-sans-threads)`:
//!
//! * every group's sufficient statistics are identical across thread
//!   counts, shard partitions, and machines;
//! * derived floats (mean, half-width) are pure functions of those
//!   integers, hence equally stable;
//! * an adaptive run's consumed trial count depends only on the rule and
//!   the per-index samples (waves are evaluated on index-ordered
//!   prefixes).
//!
//! The worker-thread count is deliberately *excluded* from the serialized
//! form: it affects wall-clock only.
//!
//! ```
//! use mrw_core::query::{Budget, Query, Report, Session, Shard};
//! use mrw_graph::generators;
//!
//! let g = generators::cycle(32);
//! let q = Query::Cover { k: 4, starts: vec![0] };
//! let budget = Budget { trials: 64, seed: 9, ..Budget::default() };
//!
//! // One process:
//! let whole = Session::new(budget.clone()).run(&g, &q);
//! // Two shards, merged:
//! let a = Session::new(budget.clone()).with_range(Shard::new(0, 2).slice(64)).run(&g, &q);
//! let b = Session::new(budget).with_range(Shard::new(1, 2).slice(64)).run(&g, &q);
//! let merged = Report::merge(&a, &b).unwrap();
//! assert_eq!(merged, whole);                      // exact, not approximate
//! assert_eq!(merged.to_json(), whole.to_json()); // byte-identical
//! ```

pub mod json;
pub mod ledger;
pub mod waves;

pub use ledger::{spec_hash, Ledger, LedgerGroup};

use std::ops::Range;

use mrw_graph::{ClosedForm, Graph, GraphBackend, ImplicitGraph};
use mrw_par::{par_map_with, SeedSequence};
use mrw_stats::ci::{normal_ci, ConfidenceInterval};
use mrw_stats::precision::PrecisionTarget;
use mrw_stats::{IntMoments, Precision, Summary, Trials};

use crate::engine::{
    BatchMode, CompiledProcess, Discipline, Engine, EngineArena, FullCover, Hit, Meeting, Observer,
    PartialCover, PreyStrategy, Process, Pursuit, SimpleStep,
};
use crate::hitting_mc::{hmax_candidates, hmax_mc_cap, HmaxEstimate};
use crate::partial::fraction_target;
use crate::process::WalkProcess;
use crate::walk::walk_rng;

use json::Value;

/// Common resource knobs shared by every estimate: trial budget, master
/// seed, worker threads, engine-path selection, and the optional adaptive
/// stopping rule. [`Budget::engine`] is the one place an engine gets the
/// budget's `mode` and `batch`.
///
/// `==` compares *experiments*: the trial budget, seed, batch, mode, and
/// effective confidence. The thread count only affects wall-clock, so two
/// budgets that differ in nothing else are equal — on any host.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Monte-Carlo trials per estimate (the fixed count — or, when
    /// [`precision`](Budget::precision) is set, ignored in favor of the
    /// rule's own floor and cap).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads. Never serialized and never part of `==`: results
    /// are bit-identical across thread counts.
    pub threads: usize,
    /// Engine path selection for every engine [`Budget::engine`] builds
    /// — every query's trials and the experiments' own (`--batch` /
    /// `--no-batch`; default: batch round-synchronous runs of `k ≥ 64`
    /// walks).
    pub batch: BatchMode,
    /// When set (`--precision` / `--rel-precision` on the CLI), estimators
    /// sample adaptively until this sequential rule fires instead of
    /// running the fixed `trials` count.
    pub precision: Option<Precision>,
    /// Stepping discipline for every engine [`Budget::engine`] builds.
    pub mode: Discipline,
    /// Confidence level for reported intervals when the budget is fixed;
    /// an adaptive budget reports at its rule's own confidence (see
    /// [`effective_confidence`](Budget::effective_confidence)).
    pub confidence: f64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            trials: 64,
            seed: 0x5EED,
            threads: mrw_par::available_threads(),
            batch: BatchMode::Auto,
            precision: None,
            mode: Discipline::RoundSynchronous,
            confidence: 0.95,
        }
    }
}

impl Budget {
    /// A CI-friendly budget (fewer trials).
    pub fn quick() -> Self {
        Budget {
            trials: 24,
            ..Default::default()
        }
    }

    /// The trial budget this configuration describes: adaptive when a
    /// precision rule is set, the fixed count otherwise.
    pub fn trials_budget(&self) -> Trials {
        match self.precision {
            Some(rule) => Trials::Adaptive(rule),
            None => Trials::Fixed(self.trials),
        }
    }

    /// The confidence level reported intervals actually use: the adaptive
    /// rule's own level when one is set (so the reported half-width is the
    /// one the stopping rule certified), the plain
    /// [`confidence`](Budget::confidence) otherwise.
    pub fn effective_confidence(&self) -> f64 {
        self.precision.map_or(self.confidence, |r| r.confidence)
    }

    /// Checks that the budget can run: at least one trial and at most
    /// [`MAX_TRIALS`], counting an adaptive rule's cap, and at least one
    /// thread. [`Session::new`] panics on exactly these conditions;
    /// [`QuerySpec::resolve`] returns them as errors.
    pub fn check(&self) -> Result<(), String> {
        let cap = self.trials_budget().cap();
        if cap < 1 {
            return Err("budget needs at least one trial".into());
        }
        if cap > MAX_TRIALS {
            return Err(format!(
                "budget of {cap} trials exceeds the limit of {MAX_TRIALS}"
            ));
        }
        if self.threads < 1 {
            return Err("need at least one thread".into());
        }
        Ok(())
    }

    /// The engine a trial runs on: `process` and `observer` on `g`,
    /// stepped under this budget's `mode` and `batch`. [`Session`] builds
    /// every query's trials here, and so does every experiment that steps
    /// walks itself, so `--batch`/`--no-batch` reach them all.
    pub fn engine<'g, G: GraphBackend, P: Process, O: Observer>(
        &self,
        g: &'g G,
        process: P,
        observer: O,
    ) -> Engine<'g, G, P, O> {
        Engine::new(g, process, observer)
            .discipline(self.mode)
            .batch(self.batch)
    }
}

impl PartialEq for Budget {
    fn eq(&self, other: &Budget) -> bool {
        self.trials_budget() == other.trials_budget()
            && self.seed == other.seed
            && self.batch == other.batch
            && self.mode == other.mode
            && self.effective_confidence() == other.effective_confidence()
    }
}

/// One contiguous slice `index/of` of a trial-index range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index.
    pub index: usize,
    /// Total shard count.
    pub of: usize,
}

impl Shard {
    /// Shard `index` of `of`.
    ///
    /// # Panics
    /// If `of == 0` or `index >= of`.
    pub fn new(index: usize, of: usize) -> Shard {
        assert!(of >= 1, "shard count must be >= 1");
        assert!(index < of, "shard index {index} out of range 0..{of}");
        Shard { index, of }
    }

    /// Parses the CLI form `i/s`.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (i, s) = text
            .split_once('/')
            .ok_or_else(|| format!("bad shard '{text}' (expected i/s, e.g. 0/2)"))?;
        let index: usize = i.parse().map_err(|_| format!("bad shard index '{i}'"))?;
        let of: usize = s.parse().map_err(|_| format!("bad shard count '{s}'"))?;
        if of == 0 || index >= of {
            return Err(format!("shard {index}/{of} out of range"));
        }
        Ok(Shard { index, of })
    }

    /// This shard's slice of an `n`-trial index range (balanced contiguous
    /// split: `⌊i·n/of⌋ .. ⌊(i+1)·n/of⌋`).
    pub fn slice(&self, n: usize) -> Range<usize> {
        (self.index * n / self.of)..((self.index + 1) * n / self.of)
    }
}

/// Splits a non-empty trial range into at most `parts` non-empty,
/// balanced pieces in index order — how `mrw fanout`'s chunk rule cuts a
/// wave window `[c, c + w)` (a fixed budget is the one window `[0, n)`),
/// or a still-missing gap of one, into the work ranges its worker
/// processes pull.
///
/// `parts` is clamped to the range length, so **no piece is empty** and
/// the pieces partition the range exactly. Piece `i` of `p` is
/// [`Shard::slice`]'s balanced split shifted to the range start, so over
/// `0..n` `mrw shard --shard i/p` and the piece's `--range` describe
/// identical work.
///
/// ```
/// use mrw_core::query::split_range;
///
/// assert_eq!(split_range(0..10, 4), vec![0..2, 2..5, 5..7, 7..10]);
/// // More parts than trials: clamped, never empty.
/// assert_eq!(split_range(0..3, 8).len(), 3);
/// ```
///
/// # Panics
/// If the range is empty or `parts == 0`.
pub fn split_range(range: Range<usize>, parts: usize) -> Vec<Range<usize>> {
    assert!(!range.is_empty(), "cannot split an empty range");
    assert!(parts >= 1, "need at least one part");
    let (len, count) = (range.len(), parts.min(range.len()));
    (0..count)
        .map(|i| {
            let piece = Shard::new(i, count).slice(len);
            (range.start + piece.start)..(range.start + piece.end)
        })
        .collect()
}

/// How a [`GraphSpec`] materializes its graph: explicit CSR arrays, the
/// O(1)-state arithmetic backend, or a size-based automatic choice
/// (`--backend` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// CSR when the arrays are small, implicit once the estimated CSR
    /// footprint passes [`AUTO_IMPLICIT_BYTES`] (structured families
    /// only; families without an implicit twin, or beyond the implicit
    /// backend's limits, always build CSR).
    #[default]
    Auto,
    /// Always materialize the CSR arrays ([`GraphSpec::resolve`] errors
    /// above [`MAX_CSR_BYTES`]).
    Csr,
    /// Always use the arithmetic backend (errors on families without
    /// closed-form neighborhoods).
    Implicit,
}

/// The `--backend` CLI names for [`BackendChoice`].
pub fn backend_to_str(backend: BackendChoice) -> &'static str {
    match backend {
        BackendChoice::Auto => "auto",
        BackendChoice::Csr => "csr",
        BackendChoice::Implicit => "implicit",
    }
}

/// Parses a `--backend` name.
pub fn backend_from_str(s: &str) -> Result<BackendChoice, String> {
    match s {
        "auto" => Ok(BackendChoice::Auto),
        "csr" => Ok(BackendChoice::Csr),
        "implicit" => Ok(BackendChoice::Implicit),
        other => Err(format!("unknown backend '{other}' (auto | csr | implicit)")),
    }
}

/// Estimated CSR footprint above which [`GraphSpec::resolve`] refuses to
/// materialize the arrays (≈1.5 GiB — offsets are 8 bytes per vertex plus
/// 4 bytes per edge endpoint). Structured families get a pointer to
/// `--backend implicit` instead of an allocation failure.
pub const MAX_CSR_BYTES: u128 = 3 << 29; // 1.5 GiB

/// Most walks one trial may run: every trial keeps one `u32` position per
/// walk, and [`Query::validate`] refuses a position vector larger than
/// [`MAX_CSR_BYTES`], the cap on the graph arrays themselves, rather than
/// let the allocation abort the process.
const MAX_WALKS: usize = (MAX_CSR_BYTES / 4) as usize;

/// Most trials one budget may run (2²⁴), fixed or as an adaptive rule's
/// cap: the sample counts over which [`IntMoments`] stays exact (its
/// "Range" section). [`Budget::check`] refuses more.
pub const MAX_TRIALS: usize = 1 << 24;

/// Estimated CSR footprint above which [`BackendChoice::Auto`] switches a
/// structured family to the implicit backend (64 MiB): big enough that
/// every historical CLI invocation keeps its CSR backend (and the exact
/// report bytes it always produced), small enough that nobody pays
/// hundreds of megabytes for arrays a formula replaces.
pub const AUTO_IMPLICIT_BYTES: u128 = 64 << 20;

/// A resolved graph: either backend behind one enum, so the CLI can
/// thread whatever [`GraphSpec::resolve`] picked through the generic
/// [`Session::run`] without a trait object. Implements [`GraphBackend`]
/// by two-variant static dispatch — the engine's batched paths hoist the
/// [`csr`](GraphBackend::csr) probe out of their inner loops, so the
/// per-step cost is one predicted branch on the scalar path only.
#[derive(Debug, Clone)]
pub enum AnyGraph {
    /// Materialized CSR arrays.
    Csr(Graph),
    /// O(1)-state arithmetic neighborhoods.
    Implicit(ImplicitGraph),
}

macro_rules! any_graph_delegate {
    ($self:ident, $g:ident => $e:expr) => {
        match $self {
            AnyGraph::Csr($g) => $e,
            AnyGraph::Implicit($g) => $e,
        }
    };
}

impl GraphBackend for AnyGraph {
    #[inline]
    fn n(&self) -> usize {
        any_graph_delegate!(self, g => g.n())
    }

    #[inline]
    fn m(&self) -> usize {
        any_graph_delegate!(self, g => g.m())
    }

    fn name(&self) -> &str {
        any_graph_delegate!(self, g => GraphBackend::name(g))
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        any_graph_delegate!(self, g => g.degree(v))
    }

    #[inline]
    fn neighbor(&self, v: u32, i: usize) -> u32 {
        any_graph_delegate!(self, g => g.neighbor(v, i))
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        any_graph_delegate!(self, g => g.regular_degree())
    }

    #[inline]
    fn sweep_rows(&self, positions: &mut [u32], step: impl FnMut(u32, &[u32]) -> u32) {
        any_graph_delegate!(self, g => g.sweep_rows(positions, step))
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, f: impl FnMut(u32)) {
        any_graph_delegate!(self, g => g.for_each_neighbor(v, f))
    }

    #[inline]
    fn csr(&self) -> Option<&Graph> {
        any_graph_delegate!(self, g => g.csr())
    }

    fn to_csr(&self) -> Graph {
        any_graph_delegate!(self, g => g.to_csr())
    }

    fn is_connected(&self) -> bool {
        any_graph_delegate!(self, g => g.is_connected())
    }

    fn memory_bytes(&self) -> usize {
        any_graph_delegate!(self, g => g.memory_bytes())
    }
}

/// A buildable description of a graph-family instance — how query spec
/// files and shard workers agree on the graph without shipping an edge
/// list. The families match the `mrw estimate` CLI verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// Family name: `cycle | path | torus | hypercube | clique |
    /// clique-loops | barbell | circulant`.
    pub family: String,
    /// The family's natural size parameter: vertices for most, the side
    /// for `torus`, the *dimension* (1..=30) for `hypercube`.
    pub n: usize,
    /// Chord lengths for `circulant` (vertex `i` adjacent to `i ± s`);
    /// must be empty for every other family.
    pub jumps: Vec<usize>,
    /// Which backend [`resolve`](GraphSpec::resolve) materializes.
    pub backend: BackendChoice,
}

impl GraphSpec {
    /// A spec for `family` at size `n` with the default (automatic)
    /// backend and no jumps.
    pub fn new(family: impl Into<String>, n: usize) -> GraphSpec {
        GraphSpec {
            family: family.into(),
            n,
            jumps: Vec::new(),
            backend: BackendChoice::Auto,
        }
    }

    /// The closed-form family the spec names, its parameters checked, or
    /// `None` for a family without closed-form rows. The jump list is the
    /// circulant's parameter; every other family refuses one.
    fn closed_form(&self) -> Result<Option<ClosedForm>, String> {
        if self.family != "circulant" && !self.jumps.is_empty() {
            return Err(format!("family '{}' takes no jumps", self.family));
        }
        let n = self.n;
        match self.family.as_str() {
            "cycle" => ClosedForm::cycle(n).map(Some),
            "torus" => ClosedForm::torus_2d(n).map(Some),
            "hypercube" => ClosedForm::hypercube(n).map(Some),
            "circulant" => ClosedForm::circulant(n, &self.jumps).map(Some),
            _ => Ok(None),
        }
    }

    /// Builds the described graph as materialized CSR arrays (the
    /// historical path; [`resolve`](GraphSpec::resolve) adds the backend
    /// choice and the memory guard on top). Every size a generator would
    /// assert on is an `Err` here instead: spec files are untrusted input.
    pub fn build(&self) -> Result<Graph, String> {
        use mrw_graph::generators;
        if let Some(family) = self.closed_form()? {
            return Ok(family.to_csr());
        }
        let n = self.n;
        let min = match self.family.as_str() {
            "path" | "clique-loops" => 1,
            "clique" => 2,
            "barbell" => 7,
            _ => 0,
        };
        let barbell = self.family == "barbell";
        if n < min || (barbell && n.is_multiple_of(2)) {
            let parity = if barbell { "odd " } else { "" };
            return Err(format!("{} needs {parity}n ≥ {min}, got {n}", self.family));
        }
        Ok(match self.family.as_str() {
            "path" => generators::path(n),
            "clique" => generators::complete(n),
            "clique-loops" => generators::complete_with_loops(n),
            "barbell" => generators::barbell(n),
            other => {
                return Err(format!(
                    "unknown family '{other}' (cycle | path | torus | hypercube | clique | \
                     clique-loops | barbell | circulant)"
                ))
            }
        })
    }

    /// Estimated CSR footprint in bytes (`(n+1)·8 + Σδ·4`), computed from
    /// the family's closed-form degree sum *without* building anything —
    /// the number the memory guard and the auto-switch compare. A
    /// closed-form family's vertex count and degree are its
    /// [`ClosedForm`]'s own.
    pub fn csr_bytes_estimate(&self) -> u128 {
        let n = self.n as u128;
        let (verts, degree_sum): (u128, u128) = match self.closed_form() {
            Ok(Some(family)) => {
                let verts = family.n() as u128;
                (verts, verts * family.degree() as u128)
            }
            _ => match self.family.as_str() {
                "path" => (n, 2 * n.saturating_sub(1)),
                "clique" => (n, n * n.saturating_sub(1)),
                "clique-loops" => (n, n * n),
                "barbell" => {
                    let m = n.saturating_sub(1) / 2;
                    (n, 2 * m * m.saturating_sub(1) + 4)
                }
                _ => (n, 2 * n),
            },
        };
        (verts + 1) * 8 + degree_sum * 4
    }

    /// The one backend decision behind [`resolve`](GraphSpec::resolve)
    /// and [`resolved_backend`](GraphSpec::resolved_backend): the
    /// arithmetic graph when the spec runs implicit, `None` when it builds
    /// CSR arrays. `implicit` refuses what the backend refuses; `auto`
    /// goes implicit only for a closed-form family whose CSR estimate
    /// passes [`AUTO_IMPLICIT_BYTES`] *and* that the implicit backend
    /// accepts, and falls back to CSR otherwise.
    fn implicit(&self) -> Result<Option<ImplicitGraph>, String> {
        let family = self.closed_form()?;
        match (self.backend, family) {
            (BackendChoice::Implicit, None) => Err(format!(
                "family '{}' has no implicit backend (cycle | torus | hypercube | circulant)",
                self.family
            )),
            (BackendChoice::Implicit, Some(family)) => ImplicitGraph::new(family).map(Some),
            (BackendChoice::Auto, Some(family))
                if self.csr_bytes_estimate() > AUTO_IMPLICIT_BYTES =>
            {
                Ok(ImplicitGraph::new(family).ok())
            }
            _ => Ok(None),
        }
    }

    /// Materializes the graph under the spec's [`BackendChoice`]:
    ///
    /// * `csr` — build the arrays, but refuse (with a pointer to
    ///   `--backend implicit` where the implicit backend accepts the
    ///   family, its refusal otherwise) once the estimated footprint
    ///   passes [`MAX_CSR_BYTES`];
    /// * `implicit` — the arithmetic backend, or an error for families
    ///   without closed-form neighborhoods or beyond the backend's limits;
    /// * `auto` — implicit for structured families whose CSR estimate
    ///   passes [`AUTO_IMPLICIT_BYTES`] and that the implicit backend
    ///   accepts, CSR (with the same hard guard) otherwise.
    ///
    /// A closed-form family's parameters are checked first, so a bad
    /// size gets the same error on every backend.
    pub fn resolve(&self) -> Result<AnyGraph, String> {
        if let Some(g) = self.implicit()? {
            return Ok(AnyGraph::Implicit(g));
        }
        let estimate = self.csr_bytes_estimate();
        if estimate > MAX_CSR_BYTES {
            let hint = match self.closed_form()?.map(ImplicitGraph::new) {
                Some(Ok(_)) => "re-run with --backend implicit (O(1) state at any size)".into(),
                Some(Err(refusal)) => format!("{refusal} — reduce n"),
                None => "this family has no implicit backend — reduce n".into(),
            };
            return Err(format!(
                "family '{}' at n = {} needs ≈{} MiB of CSR arrays \
                 (limit {} MiB); {hint}",
                self.family,
                self.n,
                estimate >> 20,
                MAX_CSR_BYTES >> 20,
            ));
        }
        self.build().map(AnyGraph::Csr)
    }

    /// The backend [`resolve`](GraphSpec::resolve) would materialize,
    /// decided without building anything — `Auto` collapses to the
    /// concrete choice; a spec that does not resolve keeps its own. This
    /// is the graph-cache identity `mrw serve` keys on: two specs with
    /// equal family/size parameters and equal resolved backends share one
    /// resident graph.
    pub fn resolved_backend(&self) -> BackendChoice {
        match self.implicit() {
            Ok(Some(_)) => BackendChoice::Implicit,
            Ok(None) => BackendChoice::Csr,
            Err(_) => self.backend,
        }
    }

    /// A canonical string identity for the *resolved* graph: family, size
    /// parameter, jump set, and the concrete backend `resolve` picks.
    /// Equal keys build identical graph objects, so a cache may share one
    /// resident instance across them.
    pub fn cache_key(&self) -> String {
        let jumps: Vec<String> = self.jumps.iter().map(|j| j.to_string()).collect();
        format!(
            "{}:{}:[{}]:{}",
            self.family,
            self.n,
            jumps.join(","),
            backend_to_str(self.resolved_backend())
        )
    }
}

/// A typed, serializable description of one Monte-Carlo estimate — the
/// *what*, with the *how much* carried by [`Budget`].
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// k-walk full cover time `C^k` from each listed start (one report
    /// group per start).
    Cover {
        /// Number of parallel walks.
        k: usize,
        /// Start vertices (one group each).
        starts: Vec<u32>,
    },
    /// Partial cover time `C^k_γ` from one start at each listed fraction
    /// (one group per `γ`; independent runs per fraction, unbiased per-γ).
    PartialCover {
        /// Number of parallel walks.
        k: usize,
        /// Start vertex.
        start: u32,
        /// Coverage fractions in `(0, 1]`.
        gammas: Vec<f64>,
    },
    /// Hitting time `h(from, to)` by simulation. Walks that exceed `cap`
    /// steps are *discarded* (reported as censored, excluded from the
    /// moments), so the estimate is biased low unless `cap ≫ h`.
    Hitting {
        /// Source vertex.
        from: u32,
        /// Target vertex.
        to: u32,
        /// Per-walk step cap.
        cap: u64,
    },
    /// Monte-Carlo `h_max` lower bound over deterministic candidate pairs
    /// (BFS-diametral endpoints plus strided far pairs; one group per
    /// pair). For the exact small-graph path see
    /// [`Session::hmax`].
    HMax,
    /// Meeting time of two simultaneous walks (censored games counted at
    /// `cap`). `laziness` selects a lazy walk to break bipartite parity;
    /// `None` is the simple walk.
    Meeting {
        /// First walk's start.
        a: u32,
        /// Second walk's start.
        b: u32,
        /// Hold probability for a lazy walk, `None` for simple.
        laziness: Option<f64>,
        /// Round cap (censoring bound).
        cap: u64,
    },
    /// The §1 hunting game: for each `k` in `ks`, `k` hunters from one
    /// vertex chase a prey (one group per `k`; censored games counted at
    /// `cap`).
    Pursuit {
        /// Hunter-count ladder (one group each).
        ks: Vec<usize>,
        /// Common hunter start vertex.
        hunters: u32,
        /// Prey start vertex.
        prey: u32,
        /// What the prey does each round.
        strategy: PreyStrategy,
        /// Round cap (censoring bound).
        cap: u64,
    },
    /// A speed-up sweep `S^k = C^1/C^k` from one start: a `baseline` group
    /// (`k = 1`, independent seed stream) plus one group per `k` in `ks`.
    SpeedupLadder {
        /// Start vertex.
        start: u32,
        /// Walk counts to probe.
        ks: Vec<usize>,
    },
}

impl Query {
    /// Checks the query against a concrete graph: vertex ranges, walk
    /// counts, fractions, and connectivity (for quantities whose
    /// expectation is infinite on a disconnected graph, and for partial
    /// cover, whose target may lie outside the start's component).
    /// [`Session::run`] panics on exactly these conditions;
    /// [`QuerySpec::resolve`] runs this check after resolving the graph,
    /// so untrusted input (spec files) gets the error instead.
    pub fn validate<G: GraphBackend>(&self, g: &G) -> Result<(), String> {
        let n = g.n();
        let vertex = |label: &str, v: u32| {
            if (v as usize) < n {
                Ok(())
            } else {
                Err(format!("{label} {v} out of range (n = {n})"))
            }
        };
        let connected = |error: &str| {
            if g.is_connected() {
                Ok(())
            } else {
                Err(error.to_string())
            }
        };
        let within_cap = |ks: &[usize]| match ks.iter().find(|&&k| k > MAX_WALKS) {
            Some(k) => Err(format!(
                "k = {k} walks exceed the cap of {MAX_WALKS} \
                 (one u32 position each, limit {} MiB)",
                MAX_CSR_BYTES >> 20
            )),
            None => Ok(()),
        };
        match self {
            Query::Cover { k, starts } => {
                if *k < 1 {
                    return Err("need at least one walk".into());
                }
                within_cap(&[*k])?;
                if starts.is_empty() {
                    return Err("need at least one start".into());
                }
                for &s in starts {
                    vertex("start", s)?;
                }
                connected("cover time is infinite on a disconnected graph")
            }
            Query::PartialCover { k, start, gammas } => {
                if *k < 1 {
                    return Err("need at least one walk".into());
                }
                within_cap(&[*k])?;
                if gammas.is_empty() {
                    return Err("need at least one fraction".into());
                }
                for &gamma in gammas {
                    if !(gamma > 0.0 && gamma <= 1.0) {
                        return Err(format!("fraction {gamma} not in (0,1]"));
                    }
                }
                vertex("start", *start)?;
                // Walks never leave their start's component, so a target
                // beyond it is never reached: the run would not stop.
                connected("partial cover needs a connected graph")
            }
            Query::Hitting { from, to, .. } => {
                vertex("from", *from)?;
                vertex("to", *to)?;
                connected("hitting time is infinite on a disconnected graph")
            }
            Query::HMax => connected("h_max is infinite on a disconnected graph"),
            Query::Meeting { a, b, laziness, .. } => {
                vertex("start", *a)?;
                vertex("start", *b)?;
                if let Some(p) = laziness {
                    if !(*p >= 0.0 && *p < 1.0) {
                        return Err(format!("laziness {p} not in [0, 1)"));
                    }
                }
                Ok(())
            }
            Query::Pursuit {
                ks, hunters, prey, ..
            } => {
                if ks.is_empty() {
                    return Err("need at least one hunter count".into());
                }
                if ks.iter().any(|&k| k < 1) {
                    return Err("need at least one hunter per rung".into());
                }
                within_cap(ks)?;
                vertex("hunter start", *hunters)?;
                vertex("prey", *prey)
            }
            Query::SpeedupLadder { start, ks } => {
                if ks.is_empty() {
                    return Err("empty k ladder".into());
                }
                if ks.iter().any(|&k| k < 1) {
                    return Err("k must be ≥ 1".into());
                }
                within_cap(ks)?;
                vertex("start", *start)?;
                connected("cover time is infinite on a disconnected graph")
            }
        }
    }

    /// A short verb-like name for tables and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Cover { .. } => "cover",
            Query::PartialCover { .. } => "partial-cover",
            Query::Hitting { .. } => "hitting",
            Query::HMax => "hmax",
            Query::Meeting { .. } => "meeting",
            Query::Pursuit { .. } => "pursuit",
            Query::SpeedupLadder { .. } => "speedup-ladder",
        }
    }
}

/// One breakdown row of a [`Report`]: a labeled sample with exact
/// sufficient statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Which slice of the query this is (`start=0`, `gamma=0.5`, `k=4`,
    /// `h(0->32)`, `baseline`, …).
    pub label: String,
    /// Trials dispatched for this group (= observations + discarded
    /// censored walks for [`Query::Hitting`]; censored pursuit/meeting
    /// games are *counted at the cap* and included in the moments).
    pub trials: u64,
    /// Exact sufficient statistics of the counted observations.
    pub moments: IntMoments,
    /// Games/walks that hit the cap.
    pub censored: u64,
}

impl Group {
    /// A group with no trials: the identity of [`merge`](Group::merge),
    /// and what a filtered-out group keeps so a report's structure stays
    /// mergeable.
    pub fn empty(label: String) -> Group {
        Group {
            label,
            trials: 0,
            moments: IntMoments::new(),
            censored: 0,
        }
    }

    /// The sample as a [`Summary`] (a pure function of the exact
    /// statistics — identical however the sample was sharded).
    pub fn summary(&self) -> Summary {
        self.moments.summary()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Normal-approximation CI around the mean at `level`.
    pub fn ci(&self, level: f64) -> ConfidenceInterval {
        normal_ci(&self.summary(), level)
    }

    /// Losslessly combines this group's sample with `other`'s (exact
    /// integer sums). The caller owns disjointness: this is the per-group
    /// kernel of [`Report::merge`] (which checks coverage) and of the
    /// serve-layer report cache (whose segment ledger tracks disjoint
    /// trial prefixes itself).
    pub fn merge(&self, other: &Group) -> Group {
        let mut moments = self.moments;
        moments.merge(&other.moments);
        Group {
            label: self.label.clone(),
            trials: self.trials + other.trials,
            moments,
            censored: self.censored + other.censored,
        }
    }

    /// The group's exact statistics as serialized fields, in schema
    /// order: `trials`, `count`, `sum`, `sum_sq`, `min`, `max` (`null`
    /// when nothing was counted), `censored`. Report groups
    /// (`mrw-report-v1`, also on a ledger's frontier) and ledger windows
    /// (`mrw-ledger-v1`) both write exactly these.
    pub(crate) fn stat_fields(&self) -> [(&'static str, Value); 7] {
        let m = &self.moments;
        [
            ("trials", Value::num(self.trials)),
            ("count", Value::num(m.count())),
            ("sum", Value::num(m.sum())),
            ("sum_sq", Value::num(m.sum_sq())),
            ("min", m.min().map_or(Value::Null, Value::num)),
            ("max", m.max().map_or(Value::Null, Value::num)),
            ("censored", Value::num(self.censored)),
        ]
    }

    /// Parses the fields [`stat_fields`](Group::stat_fields) writes out
    /// of `v`, rejecting moments no sample could have produced.
    pub(crate) fn from_stat_fields(label: String, v: &Value) -> Result<Group, String> {
        let int = |key: &str| {
            v.req(key)?
                .as_u64()
                .ok_or_else(|| format!("{key} must be an integer"))
        };
        let wide = |key: &str| {
            v.req(key)?
                .as_u128()
                .ok_or_else(|| format!("{key} must be an integer"))
        };
        let bound = |key: &str, empty: u64| match v.req(key)? {
            Value::Null => Ok(empty),
            _ => int(key),
        };
        Ok(Group {
            label,
            trials: int("trials")?,
            moments: IntMoments::try_from_raw(
                int("count")?,
                wide("sum")?,
                wide("sum_sq")?,
                bound("min", u64::MAX)?,
                bound("max", 0)?,
            )?,
            censored: int("censored")?,
        })
    }
}

/// The graph a report was measured on (name + size; enough to check merge
/// compatibility and label tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphInfo {
    /// Generator-assigned name, e.g. `cycle(64)`.
    pub name: String,
    /// Vertex count.
    pub n: usize,
}

impl GraphInfo {
    /// The identity of `g`.
    pub fn of<G: GraphBackend>(g: &G) -> GraphInfo {
        GraphInfo {
            name: g.name().to_string(),
            n: g.n(),
        }
    }

    /// The `{name, n}` object reports and ledgers carry.
    pub(crate) fn to_value(&self) -> Value {
        Value::obj(vec![
            ("name", Value::str(&self.name)),
            ("n", Value::num(self.n)),
        ])
    }

    pub(crate) fn from_value(v: &Value) -> Result<GraphInfo, String> {
        let name = v
            .req("name")?
            .as_str()
            .ok_or("graph.name must be a string")?;
        let n = v.req("n")?.as_usize().ok_or("graph.n must be an integer")?;
        Ok(GraphInfo {
            name: name.to_string(),
            n,
        })
    }
}

/// The set of trial indices a report covers, as sorted, disjoint,
/// half-open `[lo, hi)` ranges. This is what makes [`Report::merge`]
/// *sound*, not just associative: merging rejects overlapping coverage,
/// so the same shard cannot be counted twice, and a merged report only
/// presents itself as the complete run when its coverage really is
/// `[0, N)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage(Vec<(u64, u64)>);

impl Coverage {
    /// The whole `[0, total)` index range.
    pub fn full(total: u64) -> Coverage {
        Coverage(vec![(0, total)])
    }

    /// An arbitrary contiguous `[lo, hi)` trial range (the `mrw shard
    /// --range` form `mrw fanout` dispatches).
    ///
    /// # Panics
    /// If the range is empty.
    pub fn of_range(range: Range<usize>) -> Coverage {
        assert!(!range.is_empty(), "empty coverage range");
        Coverage(vec![(range.start as u64, range.end as u64)])
    }

    /// The covered ranges (sorted, disjoint, non-empty unless the whole
    /// coverage is empty).
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.0
    }

    /// Whether this coverage is exactly the whole `[0, total)` range.
    pub fn is_full(&self, total: u64) -> bool {
        self.0 == [(0, total)]
    }

    /// Builds a coverage from raw ranges, validating shape (each
    /// `lo < hi ≤ total`, strictly increasing, disjoint).
    pub fn from_ranges(ranges: Vec<(u64, u64)>, total: u64) -> Result<Coverage, String> {
        if ranges.is_empty() {
            return Err("empty coverage".into());
        }
        let mut prev_hi = 0u64;
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            if lo >= hi || hi > total {
                return Err(format!("bad coverage range [{lo}, {hi}) of {total}"));
            }
            if i > 0 && lo < prev_hi {
                return Err(format!(
                    "coverage ranges overlap or are unsorted at [{lo}, {hi})"
                ));
            }
            prev_hi = hi;
        }
        Ok(Coverage(ranges))
    }

    /// Number of trial indices covered.
    pub fn covered_trials(&self) -> u64 {
        self.0.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    /// The complement within an arbitrary `[lo, hi)` window: which
    /// sub-ranges of the window this coverage does not contain (over
    /// `[0, total)`, what a partial run still lacks). The resumable fanout
    /// driver replans an interrupted wave by asking the window's frontier
    /// report which slices of the window still have to run.
    pub fn missing_within(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut gaps = Vec::new();
        let mut cursor = lo;
        for &(a, b) in &self.0 {
            if b <= cursor {
                continue;
            }
            if a >= hi {
                break;
            }
            if cursor < a {
                gaps.push((cursor, a.min(hi)));
            }
            cursor = cursor.max(b);
            if cursor >= hi {
                return gaps;
            }
        }
        if cursor < hi {
            gaps.push((cursor, hi));
        }
        gaps
    }

    /// The disjoint union of two coverages (coalescing adjacent ranges).
    /// Fails if any trial index is covered by both — the double-counting
    /// guard behind [`Report::merge`].
    pub fn union(&self, other: &Coverage) -> Result<Coverage, String> {
        let mut all: Vec<(u64, u64)> = self.0.iter().chain(&other.0).copied().collect();
        all.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(all.len());
        for (lo, hi) in all {
            match merged.last_mut() {
                Some((_, prev_hi)) if lo < *prev_hi => {
                    return Err(format!(
                        "overlapping shard coverage: trials [{lo}, {}) are counted twice",
                        hi.min(*prev_hi)
                    ));
                }
                Some((_, prev_hi)) if lo == *prev_hi => *prev_hi = hi,
                _ => merged.push((lo, hi)),
            }
        }
        Ok(Coverage(merged))
    }
}

/// The unified result of [`Session::run`]: the query echoed back, the
/// budget that produced it, and per-group exact statistics. Self-
/// describing (serializes with [`to_json`](Report::to_json)) and
/// losslessly mergeable ([`merge`](Report::merge)).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The measured graph.
    pub graph: GraphInfo,
    /// The query this report answers.
    pub query: Query,
    /// The budget that produced it (threads excluded from serialization
    /// and from `==`).
    pub budget: Budget,
    /// The trial-index ranges this report covers. A fresh unsharded run
    /// (and any merge whose pieces add up to the whole budget) covers
    /// `[0, N)`; partial merges carry their exact union so double
    /// counting is impossible.
    pub coverage: Coverage,
    /// Per-start / per-γ / per-k breakdown.
    pub groups: Vec<Group>,
}

impl Report {
    /// The confidence level of reported intervals.
    pub fn confidence(&self) -> f64 {
        self.budget.effective_confidence()
    }

    /// Point estimate of the report's first group: the only group for
    /// single-quantity queries, and the `k = 1` baseline `C^1` of a
    /// [`Query::SpeedupLadder`].
    pub fn mean(&self) -> f64 {
        self.groups[0].mean()
    }

    /// CI half-width of the first group at the report's confidence level.
    pub fn half_width(&self) -> f64 {
        self.groups[0].ci(self.confidence()).half_width()
    }

    /// Each [`Query::SpeedupLadder`] rung as `(k, group, S^k)`, where
    /// `S^k = C^1/C^k` divides the baseline's mean by the rung's (the
    /// speed-up of Definition 2). Empty for every other query.
    pub fn speedups(&self) -> Vec<(usize, &Group, f64)> {
        // Layout: the baseline group first, then one group per rung.
        let (Query::SpeedupLadder { ks, .. }, Some((baseline, rungs))) =
            (&self.query, self.groups.split_first())
        else {
            return Vec::new();
        };
        ks.iter()
            .zip(rungs)
            .map(|(&k, group)| (k, group, baseline.mean() / group.mean()))
            .collect()
    }

    /// Total trials dispatched across all groups.
    pub fn consumed_trials(&self) -> u64 {
        self.groups.iter().map(|g| g.trials).sum()
    }

    /// The size of the trial-index space the coverage refers to: the
    /// fixed count, or the adaptive rule's hard cap.
    pub fn trial_space(&self) -> u64 {
        self.budget.trials_budget().cap() as u64
    }

    /// Whether this report covers the whole trial range (an unsharded
    /// run, or a merge whose shards add up to the full budget).
    pub fn is_complete(&self) -> bool {
        self.coverage.is_full(self.trial_space())
    }

    /// For adaptive budgets: whether every group's (possibly merged)
    /// sample satisfies the precision rule — the post-merge certification
    /// of the achieved half-width. `None` for fixed budgets.
    pub fn certified(&self) -> Option<bool> {
        let rule = self.budget.precision?;
        Some(self.groups.iter().all(|g| rule.satisfied_by(&g.summary())))
    }

    /// Losslessly merges two shard reports of the same experiment.
    /// Associative and commutative: the group statistics are exact
    /// integer sums, so merging any partition of the trial-index range
    /// reproduces the single-process report bit-for-bit.
    ///
    /// Fails when the reports describe different experiments (graph,
    /// query, seed, trial budget, or group structure disagree) — or when
    /// their coverages overlap (the same shard passed twice, or shards
    /// from incompatible partitions), which would double-count trials.
    pub fn merge(a: &Report, b: &Report) -> Result<Report, String> {
        if a.graph != b.graph {
            return Err(format!(
                "graph mismatch: {} (n={}) vs {} (n={})",
                a.graph.name, a.graph.n, b.graph.name, b.graph.n
            ));
        }
        if a.query != b.query {
            return Err("query mismatch".into());
        }
        if a.budget != b.budget {
            return Err("budget mismatch (seed / trials / mode / batch / confidence)".into());
        }
        if a.groups.len() != b.groups.len()
            || a.groups
                .iter()
                .zip(&b.groups)
                .any(|(ga, gb)| ga.label != gb.label)
        {
            return Err("group structure mismatch".into());
        }
        let coverage = a.coverage.union(&b.coverage)?;
        Ok(Report {
            graph: a.graph.clone(),
            query: a.query.clone(),
            budget: a.budget.clone(),
            coverage,
            groups: a
                .groups
                .iter()
                .zip(&b.groups)
                .map(|(ga, gb)| ga.merge(gb))
                .collect(),
        })
    }

    /// Serializes to the canonical JSON shard-report schema
    /// (`mrw-report-v1`). Equal reports render byte-identically; see the
    /// module docs' determinism contract.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    pub(crate) fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schema", Value::str("mrw-report-v1")),
            ("graph", self.graph.to_value()),
            ("query", query_to_value(&self.query)),
            ("budget", budget_to_value(&self.budget)),
            (
                // `null` = the complete run; partial reports carry their
                // exact covered [lo, hi) trial ranges so merges can
                // reject double counting.
                "coverage",
                if self.is_complete() {
                    Value::Null
                } else {
                    Value::Arr(
                        self.coverage
                            .ranges()
                            .iter()
                            .map(|&(lo, hi)| Value::Arr(vec![Value::num(lo), Value::num(hi)]))
                            .collect(),
                    )
                },
            ),
        ];
        if let Some(certified) = self.certified() {
            fields.push(("certified", Value::Bool(certified)));
        }
        let level = self.confidence();
        fields.push((
            "groups",
            Value::Arr(
                self.groups
                    .iter()
                    .map(|g| {
                        let mut group = vec![("label", Value::str(&g.label))];
                        group.extend(g.stat_fields());
                        group.push(("mean", Value::float(g.mean())));
                        group.push(("half_width", Value::float(g.ci(level).half_width())));
                        Value::obj(group)
                    })
                    .collect(),
            ),
        ));
        Value::obj(fields)
    }

    /// Parses a report from its JSON form. Derived fields (`mean`,
    /// `half_width`, `certified`) are ignored and recomputed from the
    /// exact statistics.
    pub fn from_json(text: &str) -> Result<Report, String> {
        Report::from_value(&json::parse(text)?)
    }

    pub(crate) fn from_value(v: &Value) -> Result<Report, String> {
        if v.req("schema")?.as_str() != Some("mrw-report-v1") {
            return Err("unknown schema (expected mrw-report-v1)".into());
        }
        let graph = GraphInfo::from_value(v.req("graph")?)?;
        let query = query_from_value(v.req("query")?)?;
        let budget = budget_from_value(v.req("budget")?)?;
        let total = budget.trials_budget().cap() as u64;
        let coverage = match v.req("coverage")? {
            Value::Null => Coverage::full(total),
            ranges => {
                let ranges = ranges
                    .as_arr()
                    .ok_or("coverage must be null or an array of [lo, hi] pairs")?
                    .iter()
                    .map(|r| {
                        let pair = r.as_arr().filter(|p| p.len() == 2);
                        let pair = pair.ok_or("coverage entries must be [lo, hi] pairs")?;
                        Ok((
                            pair[0].as_u64().ok_or("bad coverage bound")?,
                            pair[1].as_u64().ok_or("bad coverage bound")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Coverage::from_ranges(ranges, total)?
            }
        };
        let groups = v
            .req("groups")?
            .as_arr()
            .ok_or("groups must be an array")?
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let label = g
                    .req("label")?
                    .as_str()
                    .ok_or("group.label must be a string")?;
                Group::from_stat_fields(label.to_string(), g)
                    .map_err(|e| format!("groups[{i}]: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            graph,
            query,
            budget,
            coverage,
            groups,
        })
    }
}

/// A complete experiment spec — graph + query + budget — as stored in the
/// plain-text files `mrw run` / `mrw shard` consume.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The graph to build.
    pub graph: GraphSpec,
    /// What to estimate.
    pub query: Query,
    /// How hard to try.
    pub budget: Budget,
}

impl QuerySpec {
    /// The gate in front of [`Session`]: checks the budget
    /// ([`Budget::check`]), resolves the graph ([`GraphSpec::resolve`]) and
    /// validates the query against it ([`Query::validate`]). Every
    /// condition on the spec that [`Session::new`] or [`Session::run`]
    /// panics on is an `Err` here, so a spec that resolves runs.
    pub fn resolve(&self) -> Result<AnyGraph, String> {
        self.budget.check()?;
        let g = self.graph.resolve()?;
        self.query.validate(&g)?;
        Ok(g)
    }

    /// Serializes to the canonical spec-file JSON. `jumps` and `backend`
    /// appear only when non-default, so every pre-backend spec file keeps
    /// its exact historical bytes.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    pub(crate) fn to_value(&self) -> Value {
        let mut graph = vec![
            ("family", Value::str(&self.graph.family)),
            ("n", Value::num(self.graph.n)),
        ];
        if !self.graph.jumps.is_empty() {
            graph.push((
                "jumps",
                Value::Arr(self.graph.jumps.iter().map(|&j| Value::num(j)).collect()),
            ));
        }
        if self.graph.backend != BackendChoice::Auto {
            graph.push(("backend", Value::str(backend_to_str(self.graph.backend))));
        }
        Value::obj(vec![
            ("graph", Value::obj(graph)),
            ("query", query_to_value(&self.query)),
            ("budget", budget_to_value(&self.budget)),
        ])
    }

    /// The report-cache identity of this spec: a canonical rendering of
    /// everything that determines per-trial outcomes — graph family,
    /// size, and jumps; the query; and the budget's seed, stepping mode,
    /// and batch discipline — and *nothing* that doesn't. Trial count,
    /// precision rule, confidence, thread count, and backend are all
    /// excluded: trial `i` of a group is a pure function of
    /// `(seed, group, i)`, so two specs with equal keys draw identical
    /// outcome streams and a report cached under one serves the other at
    /// any budget (by running only the missing index ranges).
    pub fn report_key(&self) -> String {
        Value::obj(vec![
            (
                "graph",
                Value::obj(vec![
                    ("family", Value::str(&self.graph.family)),
                    ("n", Value::num(self.graph.n)),
                    (
                        "jumps",
                        Value::Arr(self.graph.jumps.iter().map(|&j| Value::num(j)).collect()),
                    ),
                ]),
            ),
            ("query", query_to_value(&self.query)),
            ("seed", Value::num(self.budget.seed)),
            ("mode", Value::str(mode_to_str(self.budget.mode))),
            ("batch", Value::str(batch_to_str(self.budget.batch))),
        ])
        .render()
    }

    /// Parses a spec file. The `budget` object (and any of its fields)
    /// may be omitted; [`Budget::default`] fills the gaps. Every object
    /// accepts only the keys it reads: a misspelled key is an error that
    /// names it, never a silently different experiment.
    pub fn from_json(text: &str) -> Result<QuerySpec, String> {
        QuerySpec::from_value(&json::parse(text)?)
    }

    pub(crate) fn from_value(v: &Value) -> Result<QuerySpec, String> {
        only_keys(v, "spec", &["graph", "query", "budget"])?;
        let graph = v.req("graph")?;
        only_keys(graph, "graph", &["family", "n", "jumps", "backend"])?;
        let graph = GraphSpec {
            family: graph
                .req("family")?
                .as_str()
                .ok_or("graph.family must be a string")?
                .to_string(),
            n: graph
                .req("n")?
                .as_usize()
                .ok_or("graph.n must be an integer")?,
            jumps: match graph.get("jumps") {
                None => Vec::new(),
                Some(v) => v
                    .as_arr()
                    .ok_or("graph.jumps must be an array")?
                    .iter()
                    .map(|j| j.as_usize().ok_or_else(|| "jump must be an integer".into()))
                    .collect::<Result<Vec<_>, String>>()?,
            },
            backend: match graph.get("backend") {
                None => BackendChoice::Auto,
                Some(v) => backend_from_str(v.as_str().ok_or("graph.backend must be a string")?)?,
            },
        };
        let query = query_from_value(v.req("query")?)?;
        let budget = match v.get("budget") {
            None => Budget::default(),
            Some(b) => budget_from_value(b)?,
        };
        Ok(QuerySpec {
            graph,
            query,
            budget,
        })
    }
}

// ---------------------------------------------------------------------------
// Serialization of the sub-structures.

fn mode_to_str(mode: Discipline) -> &'static str {
    match mode {
        Discipline::RoundSynchronous => "round-synchronous",
        Discipline::Interleaved => "interleaved",
    }
}

fn mode_from_str(s: &str) -> Result<Discipline, String> {
    match s {
        "round-synchronous" => Ok(Discipline::RoundSynchronous),
        "interleaved" => Ok(Discipline::Interleaved),
        other => Err(format!("unknown mode '{other}'")),
    }
}

fn batch_to_str(batch: BatchMode) -> &'static str {
    match batch {
        BatchMode::Auto => "auto",
        BatchMode::Never => "never",
        BatchMode::Always => "always",
    }
}

fn batch_from_str(s: &str) -> Result<BatchMode, String> {
    match s {
        "auto" => Ok(BatchMode::Auto),
        "never" => Ok(BatchMode::Never),
        "always" => Ok(BatchMode::Always),
        other => Err(format!("unknown batch mode '{other}'")),
    }
}

/// The `--prey` CLI names for [`PreyStrategy`].
pub fn prey_to_str(strategy: PreyStrategy) -> &'static str {
    match strategy {
        PreyStrategy::Hide => "stationary",
        PreyStrategy::RandomWalk => "uniform",
        PreyStrategy::Adversarial => "adversarial",
    }
}

/// Parses a `--prey` name.
pub fn prey_from_str(s: &str) -> Result<PreyStrategy, String> {
    match s {
        "stationary" => Ok(PreyStrategy::Hide),
        "uniform" => Ok(PreyStrategy::RandomWalk),
        "adversarial" => Ok(PreyStrategy::Adversarial),
        other => Err(format!(
            "unknown prey strategy '{other}' (stationary | uniform | adversarial)"
        )),
    }
}

fn precision_to_value(rule: &Precision) -> Value {
    let target = match rule.target {
        PrecisionTarget::Absolute(h) => Value::obj(vec![("absolute", Value::float(h))]),
        PrecisionTarget::Relative(r) => Value::obj(vec![("relative", Value::float(r))]),
    };
    Value::obj(vec![
        ("target", target),
        ("confidence", Value::float(rule.confidence)),
        ("min_trials", Value::num(rule.min_trials)),
        ("max_trials", Value::num(rule.max_trials)),
    ])
}

// Untrusted input: every value is range-checked *before* reaching the
// `Precision` constructors, whose assertions would otherwise turn a
// malformed spec/report into a panic instead of an `Err`.
fn precision_from_value(v: &Value) -> Result<Precision, String> {
    const KEYS: [&str; 4] = ["target", "confidence", "min_trials", "max_trials"];
    only_keys(v, "precision", &KEYS)?;
    let target = v.req("target")?;
    only_keys(target, "precision target", &["absolute", "relative"])?;
    let positive_finite = |what: &str, x: &Value| match x.as_f64() {
        Some(x) if x > 0.0 && x.is_finite() => Ok(x),
        Some(x) => Err(format!("{what} target {x} must be positive and finite")),
        None => Err(format!("{what} target must be a number")),
    };
    let mut rule = match (target.get("absolute"), target.get("relative")) {
        (Some(h), None) => Precision::absolute(positive_finite("absolute", h)?),
        (None, Some(r)) => Precision::relative(positive_finite("relative", r)?),
        _ => return Err("precision target takes exactly one of 'absolute' and 'relative'".into()),
    };
    if let Some(c) = v.get("confidence") {
        let c = c.as_f64().ok_or("confidence must be a number")?;
        if !(c > 0.0 && c < 1.0) {
            return Err(format!("confidence {c} not in (0, 1)"));
        }
        rule = rule.with_confidence(c);
    }
    if let Some(m) = v.get("min_trials") {
        rule = rule.with_min_trials(m.as_usize().ok_or("min_trials must be an integer")?);
    }
    if let Some(m) = v.get("max_trials") {
        let m = m.as_usize().ok_or("max_trials must be an integer")?;
        if m < rule.min_trials {
            return Err(format!(
                "max_trials {m} below the minimum-sample floor {}",
                rule.min_trials
            ));
        }
        rule = rule.with_max_trials(m);
    }
    Ok(rule)
}

fn budget_to_value(b: &Budget) -> Value {
    let trials = match b.precision {
        Some(rule) => Value::obj(vec![("adaptive", precision_to_value(&rule))]),
        None => Value::obj(vec![("fixed", Value::num(b.trials))]),
    };
    Value::obj(vec![
        ("trials", trials),
        ("seed", Value::num(b.seed)),
        ("mode", Value::str(mode_to_str(b.mode))),
        ("batch", Value::str(batch_to_str(b.batch))),
        ("confidence", Value::float(b.confidence)),
    ])
}

fn budget_from_value(v: &Value) -> Result<Budget, String> {
    const KEYS: [&str; 5] = ["trials", "seed", "mode", "batch", "confidence"];
    only_keys(v, "budget", &KEYS)?;
    let mut b = Budget::default();
    if let Some(t) = v.get("trials") {
        // Hand-written spec shorthand: "trials": 512.
        if let Some(n) = t.as_usize() {
            b.trials = n;
        } else {
            only_keys(t, "trials", &["fixed", "adaptive"])?;
            match (t.get("fixed"), t.get("adaptive")) {
                (Some(n), None) => {
                    b.trials = n.as_usize().ok_or("fixed trials must be an integer")?
                }
                (None, Some(rule)) => b.precision = Some(precision_from_value(rule)?),
                _ => return Err("trials takes exactly one of 'fixed' and 'adaptive'".into()),
            }
        }
    }
    if let Some(s) = v.get("seed") {
        b.seed = s.as_u64().ok_or("seed must be an integer")?;
    }
    if let Some(m) = v.get("mode") {
        b.mode = mode_from_str(m.as_str().ok_or("mode must be a string")?)?;
    }
    if let Some(m) = v.get("batch") {
        b.batch = batch_from_str(m.as_str().ok_or("batch must be a string")?)?;
    }
    if let Some(c) = v.get("confidence") {
        b.confidence = c.as_f64().ok_or("confidence must be a number")?;
        if !(b.confidence > 0.0 && b.confidence < 1.0) {
            return Err(format!("confidence {} not in (0, 1)", b.confidence));
        }
    }
    Ok(b)
}

fn query_to_value(q: &Query) -> Value {
    match q {
        Query::Cover { k, starts } => Value::obj(vec![
            ("type", Value::str("cover")),
            ("k", Value::num(*k)),
            (
                "starts",
                Value::Arr(starts.iter().map(|&s| Value::num(s)).collect()),
            ),
        ]),
        Query::PartialCover { k, start, gammas } => Value::obj(vec![
            ("type", Value::str("partial-cover")),
            ("k", Value::num(*k)),
            ("start", Value::num(*start)),
            (
                "gammas",
                Value::Arr(gammas.iter().map(|&g| Value::float(g)).collect()),
            ),
        ]),
        Query::Hitting { from, to, cap } => Value::obj(vec![
            ("type", Value::str("hitting")),
            ("from", Value::num(*from)),
            ("to", Value::num(*to)),
            ("cap", Value::num(*cap)),
        ]),
        Query::HMax => Value::obj(vec![("type", Value::str("hmax"))]),
        Query::Meeting {
            a,
            b,
            laziness,
            cap,
        } => Value::obj(vec![
            ("type", Value::str("meeting")),
            ("a", Value::num(*a)),
            ("b", Value::num(*b)),
            ("laziness", laziness.map_or(Value::Null, Value::float)),
            ("cap", Value::num(*cap)),
        ]),
        Query::Pursuit {
            ks,
            hunters,
            prey,
            strategy,
            cap,
        } => Value::obj(vec![
            ("type", Value::str("pursuit")),
            (
                "ks",
                Value::Arr(ks.iter().map(|&k| Value::num(k)).collect()),
            ),
            ("hunters", Value::num(*hunters)),
            ("prey", Value::num(*prey)),
            ("strategy", Value::str(prey_to_str(*strategy))),
            ("cap", Value::num(*cap)),
        ]),
        Query::SpeedupLadder { start, ks } => Value::obj(vec![
            ("type", Value::str("speedup-ladder")),
            ("start", Value::num(*start)),
            (
                "ks",
                Value::Arr(ks.iter().map(|&k| Value::num(k)).collect()),
            ),
        ]),
    }
}

fn query_from_value(v: &Value) -> Result<Query, String> {
    let kind = v
        .req("type")?
        .as_str()
        .ok_or("query.type must be a string")?;
    let fields: &[&str] = match kind {
        "cover" => &["type", "k", "starts"],
        "partial-cover" => &["type", "k", "start", "gammas"],
        "hitting" => &["type", "from", "to", "cap"],
        "hmax" => &["type"],
        "meeting" => &["type", "a", "b", "laziness", "cap"],
        "pursuit" => &["type", "ks", "hunters", "prey", "strategy", "cap"],
        "speedup-ladder" => &["type", "start", "ks"],
        other => return Err(format!("unknown query type '{other}'")),
    };
    only_keys(v, &format!("{kind} query"), fields)?;
    let u32_field = |key: &str| -> Result<u32, String> {
        v.req(key)?
            .as_u32()
            .ok_or_else(|| format!("{key} must be an integer"))
    };
    let u64_field = |key: &str| -> Result<u64, String> {
        v.req(key)?
            .as_u64()
            .ok_or_else(|| format!("{key} must be an integer"))
    };
    let usize_list = |key: &str| -> Result<Vec<usize>, String> {
        v.req(key)?
            .as_arr()
            .ok_or_else(|| format!("{key} must be an array"))?
            .iter()
            .map(|x| {
                x.as_usize()
                    .ok_or_else(|| format!("{key} entries must be integers"))
            })
            .collect()
    };
    match kind {
        "cover" => Ok(Query::Cover {
            k: v.req("k")?.as_usize().ok_or("k must be an integer")?,
            starts: v
                .req("starts")?
                .as_arr()
                .ok_or("starts must be an array")?
                .iter()
                .map(|s| s.as_u32().ok_or_else(|| "bad start".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
        }),
        "partial-cover" => Ok(Query::PartialCover {
            k: v.req("k")?.as_usize().ok_or("k must be an integer")?,
            start: u32_field("start")?,
            gammas: v
                .req("gammas")?
                .as_arr()
                .ok_or("gammas must be an array")?
                .iter()
                .map(|g| g.as_f64().ok_or_else(|| "bad gamma".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
        }),
        "hitting" => Ok(Query::Hitting {
            from: u32_field("from")?,
            to: u32_field("to")?,
            cap: u64_field("cap")?,
        }),
        "hmax" => Ok(Query::HMax),
        "meeting" => Ok(Query::Meeting {
            a: u32_field("a")?,
            b: u32_field("b")?,
            laziness: match v.req("laziness")? {
                Value::Null => None,
                l => Some(l.as_f64().ok_or("laziness must be a number or null")?),
            },
            cap: u64_field("cap")?,
        }),
        "pursuit" => Ok(Query::Pursuit {
            ks: usize_list("ks")?,
            hunters: u32_field("hunters")?,
            prey: u32_field("prey")?,
            strategy: prey_from_str(
                v.req("strategy")?
                    .as_str()
                    .ok_or("strategy must be a string")?,
            )?,
            cap: u64_field("cap")?,
        }),
        // "speedup-ladder": the key check above refused every other type.
        _ => Ok(Query::SpeedupLadder {
            start: u32_field("start")?,
            ks: usize_list("ks")?,
        }),
    }
}

/// Rejects an object with any key outside `accepted` — the keys its
/// parser reads — naming the key and the accepted set: a misspelled key
/// must be an error, never a silently different experiment.
fn only_keys(v: &Value, what: &str, accepted: &[&str]) -> Result<(), String> {
    let Value::Obj(fields) = v else {
        return Err(format!("{what} must be an object"));
    };
    match fields.iter().find(|(k, _)| !accepted.contains(&k.as_str())) {
        Some((k, _)) => Err(format!(
            "unknown {what} key '{k}' (accepted: {})",
            accepted.join(", ")
        )),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Execution.

/// What one trial produced.
enum Outcome {
    /// An observation, counted in the moments.
    Value(u64),
    /// The trial hit its cap; counted in the moments *at the cap* and in
    /// the censored tally (pursuit/meeting semantics — the mean is a
    /// lower bound whenever any game was censored).
    CensoredAt(u64),
    /// The trial hit its cap and is *excluded* from the moments (hitting
    /// semantics — capped walks are discarded, only tallied).
    Discarded,
}

/// The group statistics of a run of trial outcomes.
fn collect(label: String, outcomes: &[Outcome]) -> Group {
    let mut group = Group::empty(label);
    group.trials = outcomes.len() as u64;
    for o in outcomes {
        match *o {
            Outcome::Value(x) => group.moments.push(x),
            Outcome::CensoredAt(x) => {
                group.moments.push(x);
                group.censored += 1;
            }
            Outcome::Discarded => group.censored += 1,
        }
    }
    group
}

/// Per-worker scratch state for cover trials: engine buffers, a reusable
/// cover observer, and the repeated-start vector — one per worker thread,
/// reused across every trial that worker claims (zero-alloc after
/// warmup).
struct CoverWorkspace {
    arena: EngineArena,
    cover: FullCover,
    starts: Vec<u32>,
}

impl CoverWorkspace {
    fn new(n: usize) -> Self {
        CoverWorkspace {
            arena: EngineArena::new(),
            cover: FullCover::new(n),
            starts: Vec::new(),
        }
    }
}

/// The in-process wave executor for one group: `run` executes a window's
/// trial range through `mrw_par`, and `total` folds the windows into the
/// group's running statistics.
struct InProcess<R> {
    run: R,
    total: Group,
}

impl<R: FnMut(Range<usize>) -> Group> waves::WaveExecutor for InProcess<R> {
    type Error = String;

    fn window(
        &mut self,
        _active: Option<&[usize]>,
        window: Range<usize>,
    ) -> Result<Vec<Group>, String> {
        self.total = self.total.merge(&(self.run)(window));
        Ok(vec![self.total.clone()])
    }
}

/// The one executor: runs any [`Query`] against a graph under a
/// [`Budget`], optionally restricted to a range of trial indices, and
/// optionally to a subset of the query's groups. See the module docs for
/// the determinism and shard contracts.
#[derive(Debug, Clone)]
pub struct Session {
    budget: Budget,
    range: Option<Range<usize>>,
    groups: Option<Vec<usize>>,
}

impl Session {
    /// A session executing under `budget` (no shard: the whole trial
    /// range).
    ///
    /// # Panics
    /// If [`Budget::check`] refuses the budget.
    pub fn new(budget: Budget) -> Session {
        if let Err(e) = budget.check() {
            panic!("{e}");
        }
        Session {
            budget,
            range: None,
            groups: None,
        }
    }

    /// Restricts the session to a trial-index range: a shard's balanced
    /// slice ([`Shard::slice`]) or any other window, such as an adaptive
    /// fan-out wave. The range must be non-empty and lie inside
    /// `[0, budget cap)`. A restricted *adaptive* budget runs its fixed
    /// range of the rule's hard cap; the rule is re-evaluated on the
    /// merged statistics ([`Report::certified`]).
    ///
    /// # Panics
    /// If the range is empty or extends past the budget's trial cap
    /// (checked at [`run`](Session::run)).
    pub fn with_range(mut self, range: Range<usize>) -> Session {
        assert!(!range.is_empty(), "trial range {range:?} is empty");
        self.range = Some(range);
        self
    }

    /// Restricts execution to the given group indices (positions in the
    /// report's group list). Excluded groups still appear in the report —
    /// with their labels, zero trials, and empty moments — so reports
    /// from the same range with the same filter keep a mergeable
    /// structure. This is how `mrw fanout` avoids re-running groups whose
    /// adaptive rule already fired. Callers must use a consistent filter
    /// across the reports they merge: merging differently-filtered
    /// reports of disjoint ranges silently leaves holes in the excluded
    /// groups' samples.
    ///
    /// # Panics
    /// If `groups` is empty.
    pub fn with_groups(mut self, groups: Vec<usize>) -> Session {
        assert!(!groups.is_empty(), "empty group filter");
        self.groups = Some(groups);
        self
    }

    /// Whether group `idx` should actually run (true without a filter).
    fn wants(&self, idx: usize) -> bool {
        self.groups.as_ref().is_none_or(|gs| gs.contains(&idx))
    }

    /// The trial-index range this session executes of an `total`-trial
    /// budget.
    ///
    /// # Panics
    /// If an explicit range extends past `total`.
    fn slice_range(&self, total: usize) -> Range<usize> {
        match &self.range {
            None => 0..total,
            Some(r) => {
                assert!(
                    r.end <= total,
                    "trial range {}..{} extends past the {total}-trial budget",
                    r.start,
                    r.end
                );
                r.clone()
            }
        }
    }

    /// The session's budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Executes `query` on `g`.
    ///
    /// Trial `i` of every group draws an RNG stream that is a pure
    /// function of `(budget.seed, group, i)`, never of the budget's total
    /// or the range, so any partition of the index range merges back to
    /// the whole run bit-for-bit.
    ///
    /// ```
    /// use mrw_core::query::{Budget, Query, Session};
    /// use mrw_core::Precision;
    /// use mrw_graph::generators;
    ///
    /// // Estimate the 2-walk cover time of the 4-cycle to ±10% at 95%
    /// // confidence: an easy instance, so the rule stops far below its cap.
    /// let rule = Precision::relative(0.10).with_max_trials(4096);
    /// let budget = Budget { precision: Some(rule), seed: 7, ..Budget::default() };
    /// let q = Query::Cover { k: 2, starts: vec![0] };
    /// let report = Session::new(budget).run(&generators::cycle(4), &q);
    /// assert!(report.consumed_trials() < 4096);
    /// assert!(report.half_width() <= 0.10 * report.mean());
    /// ```
    ///
    /// # Panics
    /// On invalid queries — anything [`Query::validate`] rejects:
    /// out-of-range vertices, `k = 0`, empty ladders, fractions outside
    /// `(0, 1]`, or a disconnected graph for queries whose expectation
    /// would be infinite. A graph that [`QuerySpec::resolve`] returned
    /// has passed that check for its spec's query.
    pub fn run<G: GraphBackend>(&self, g: &G, query: &Query) -> Report {
        if let Err(e) = query.validate(g) {
            panic!("{e}");
        }
        let total = self.budget.trials_budget().cap();
        let range = self.slice_range(total);
        let groups = match query {
            Query::Cover { k, starts } => self.cover_groups(g, *k, starts, None, 0),
            Query::PartialCover { k, start, gammas } => self.partial_groups(g, *k, *start, gammas),
            Query::Hitting { from, to, cap } => {
                vec![self.hitting_group(g, *from, *to, *cap, self.budget.seed, 0)]
            }
            Query::HMax => self.hmax_groups(g),
            Query::Meeting {
                a,
                b,
                laziness,
                cap,
            } => vec![self.meeting_group(g, *a, *b, *laziness, *cap)],
            Query::Pursuit {
                ks,
                hunters,
                prey,
                strategy,
                cap,
            } => ks
                .iter()
                .enumerate()
                .map(|(i, &k)| self.pursuit_group(g, k, *hunters, *prey, *strategy, *cap, i))
                .collect(),
            Query::SpeedupLadder { start, ks } => self.ladder_groups(g, *start, ks),
        };
        Report {
            graph: GraphInfo::of(g),
            query: query.clone(),
            budget: self.budget.clone(),
            coverage: if self.range.is_none() {
                Coverage::full(total as u64)
            } else {
                Coverage::of_range(range)
            },
            groups,
        }
    }

    /// Runs report group `idx` (labeled `label`) under the session's
    /// budget, shard, and group filter: adaptive budgets go through the
    /// wave driver until the rule fires (whole-range sessions only);
    /// everything else fans the (sliced) index range out flat. A
    /// filtered-out group stays empty. `sample(ws, i)` must be a pure
    /// function of `i`.
    fn run_group<S: Send>(
        &self,
        idx: usize,
        label: String,
        init: impl Fn() -> S + Sync,
        sample: impl Fn(&mut S, usize) -> Outcome + Sync,
    ) -> Group {
        if !self.wants(idx) {
            return Group::empty(label);
        }
        let threads = self.budget.threads;
        let trials = self.budget.trials_budget();
        let run = |range: Range<usize>| {
            let lo = range.start;
            let outcomes = par_map_with(range.len(), threads, &init, |ws, i| sample(ws, lo + i));
            collect(label.clone(), &outcomes)
        };
        if !matches!((trials, &self.range), (Trials::Adaptive(_), None)) {
            return run(self.slice_range(trials.cap()));
        }
        let mut exec = InProcess {
            run,
            total: Group::empty(label.clone()),
        };
        if let Err(e) = waves::drive(trials, &mut exec) {
            panic!("{e}");
        }
        // The driver stops asking once the group retires, so the running
        // total is the group's final sample.
        exec.total
    }

    /// Cover groups, one per start. `seed_override` lets the speed-up
    /// ladder keep its historical independent per-k streams; `base` is
    /// the report-wide index of the first produced group (for the group
    /// filter).
    fn cover_groups<G: GraphBackend>(
        &self,
        g: &G,
        k: usize,
        starts: &[u32],
        seed_override: Option<u64>,
        base: usize,
    ) -> Vec<Group> {
        let seed = seed_override.unwrap_or(self.budget.seed);
        starts
            .iter()
            .enumerate()
            .map(|(i, &start)| {
                assert!((start as usize) < g.n(), "start {start} out of range");
                // The stream every cover estimator has always used:
                // seed → child(start+1) → trial.
                let seq = SeedSequence::new(seed).child(start as u64 + 1);
                self.run_group(
                    base + i,
                    format!("start={start}"),
                    || CoverWorkspace::new(g.n()),
                    |ws, trial| {
                        let mut rng = walk_rng(seq.seed_for(trial as u64));
                        ws.starts.clear();
                        ws.starts.resize(k, start);
                        ws.cover.reset(g.n());
                        let out = self.budget.engine(g, SimpleStep, &mut ws.cover).run_with(
                            &ws.starts,
                            &mut rng,
                            &mut ws.arena,
                        );
                        Outcome::Value(out.rounds)
                    },
                )
            })
            .collect()
    }

    fn partial_groups<G: GraphBackend>(
        &self,
        g: &G,
        k: usize,
        start: u32,
        gammas: &[f64],
    ) -> Vec<Group> {
        assert!(k >= 1, "need at least one walk");
        let starts = vec![start; k];
        let seed = self.budget.seed;
        gammas
            .iter()
            .enumerate()
            .map(|(gi, &gamma)| {
                let target = fraction_target(g.n(), gamma);
                // Decorrelate (γ, trial) pairs without coupling to position
                // in the sweep (the historical partial-profile stream).
                self.run_group(
                    gi,
                    format!("gamma={gamma}"),
                    || (),
                    |(), t| {
                        let mut rng = walk_rng(
                            seed ^ (gi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ (t as u64) << 20,
                        );
                        let observer = PartialCover::new(g.n(), target);
                        let out = self
                            .budget
                            .engine(g, SimpleStep, observer)
                            .run(&starts, &mut rng);
                        Outcome::Value(out.rounds)
                    },
                )
            })
            .collect()
    }

    fn hitting_group<G: GraphBackend>(
        &self,
        g: &G,
        from: u32,
        to: u32,
        cap: u64,
        seed: u64,
        idx: usize,
    ) -> Group {
        // The historical hitting stream: seed → child("HIT!") → trial.
        let seq = SeedSequence::new(seed).child(0x48495421);
        self.run_group(
            idx,
            format!("h({from}->{to})"),
            || (),
            |(), t| {
                let mut rng = walk_rng(seq.seed_for(t as u64));
                let out = self
                    .budget
                    .engine(g, SimpleStep, Hit::new(to))
                    .cap(cap)
                    .run(&[from], &mut rng);
                if out.stopped {
                    Outcome::Value(out.rounds)
                } else {
                    Outcome::Discarded
                }
            },
        )
    }

    fn hmax_groups<G: GraphBackend>(&self, g: &G) -> Vec<Group> {
        let cap = hmax_mc_cap(g);
        hmax_candidates(g)
            .into_iter()
            .enumerate()
            .map(|(i, (u, v))| {
                // Per-pair seed offset, as hmax_estimate always used.
                self.hitting_group(g, u, v, cap, self.budget.seed ^ (i as u64) << 32, i)
            })
            .collect()
    }

    fn meeting_group<G: GraphBackend>(
        &self,
        g: &G,
        a: u32,
        b: u32,
        laziness: Option<f64>,
        cap: u64,
    ) -> Group {
        let process = laziness.map_or(WalkProcess::Simple, WalkProcess::Lazy);
        let process = CompiledProcess::new(process, g);
        let seq = SeedSequence::new(self.budget.seed).child(0x4D45_4554); // "MEET"
        self.run_group(
            0,
            "meeting".to_string(),
            || (),
            |(), t| {
                let mut rng = walk_rng(seq.seed_for(t as u64));
                let out = self
                    .budget
                    .engine(g, process.clone(), Meeting::new())
                    .cap(cap)
                    .run(&[a, b], &mut rng);
                if out.stopped {
                    Outcome::Value(out.rounds)
                } else {
                    Outcome::CensoredAt(cap)
                }
            },
        )
    }

    #[allow(clippy::too_many_arguments)] // private; mirrors Query::Pursuit's fields plus the group index
    fn pursuit_group<G: GraphBackend>(
        &self,
        g: &G,
        k: usize,
        hunters_start: u32,
        prey: u32,
        strategy: PreyStrategy,
        cap: u64,
        idx: usize,
    ) -> Group {
        assert!(k >= 1, "need at least one hunter");
        let hunters = vec![hunters_start; k];
        let seed = self.budget.seed;
        self.run_group(
            idx,
            format!("k={k}"),
            || (),
            |(), t| {
                // The historical mean_catch_time stream: seed ⊕ k ⊕ t.
                let mut rng = walk_rng(seed ^ ((k as u64) << 40) ^ t as u64);
                let out = self
                    .budget
                    .engine(g, SimpleStep, Pursuit::new(prey, strategy))
                    .cap(cap)
                    .run(&hunters, &mut rng);
                if out.stopped {
                    Outcome::Value(out.rounds)
                } else {
                    Outcome::CensoredAt(cap)
                }
            },
        )
    }

    fn ladder_groups<G: GraphBackend>(&self, g: &G, start: u32, ks: &[usize]) -> Vec<Group> {
        // Baseline C^1 on its historical independent stream (seed ⊕ 0xBA5E);
        // each k draws seed + k, so adding a rung never perturbs the others.
        let mut groups = self.cover_groups(g, 1, &[start], Some(self.budget.seed ^ 0xBA5E), 0);
        groups[0].label = "baseline".to_string();
        for (i, &k) in ks.iter().enumerate() {
            assert!(k >= 1, "k must be ≥ 1");
            let mut gk = self.cover_groups(
                g,
                k,
                &[start],
                Some(self.budget.seed.wrapping_add(k as u64)),
                i + 1,
            );
            gk[0].label = format!("k={k}");
            groups.append(&mut gk);
        }
        groups
    }

    /// `h_max(G)`: the exact `O(n³)` solver below
    /// [`EXACT_HMAX_LIMIT`](crate::hitting_mc::EXACT_HMAX_LIMIT), a
    /// [`Query::HMax`] Monte-Carlo lower bound over candidate pairs
    /// otherwise.
    pub fn hmax<G: GraphBackend>(&self, g: &G) -> HmaxEstimate {
        assert!(
            g.is_connected(),
            "h_max is infinite on a disconnected graph"
        );
        if g.n() <= crate::hitting_mc::EXACT_HMAX_LIMIT {
            // The spectral solver wants materialized arrays; n ≤ 800 here,
            // so building the implicit backend's CSR twin is trivial — and
            // it is the *exact* generator output, so the answer is the one
            // the CSR backend reports.
            let ht = match g.csr() {
                Some(csr) => mrw_spectral::hitting_times_all(csr),
                None => mrw_spectral::hitting_times_all(&g.to_csr()),
            };
            return HmaxEstimate {
                hmax: ht.hmax(),
                exact: true,
            };
        }
        let report = self.run(g, &Query::HMax);
        let hmax = report
            .groups
            .iter()
            .filter(|group| !group.moments.is_empty())
            .map(Group::mean)
            .fold(0.0, f64::max);
        HmaxEstimate { hmax, exact: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_graph::generators;

    #[test]
    fn shard_slices_partition_the_range() {
        for n in [0usize, 1, 7, 512, 513] {
            for s in [1usize, 2, 3, 5] {
                let mut covered = 0;
                for i in 0..s {
                    let r = Shard::new(i, s).slice(n);
                    assert_eq!(r.start, covered, "gap at shard {i}/{s} of {n}");
                    covered = r.end;
                }
                assert_eq!(covered, n, "shards of {n} into {s} don't cover");
            }
        }
    }

    #[test]
    fn shard_parse() {
        assert_eq!(Shard::parse("0/2"), Ok(Shard::new(0, 2)));
        assert_eq!(Shard::parse("2/3"), Ok(Shard::new(2, 3)));
        assert!(Shard::parse("2/2").is_err());
        assert!(Shard::parse("0").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert!(Shard::parse("0/0").is_err());
    }

    #[test]
    fn shard_plan_partitions_without_empty_ranges() {
        for total in [1usize, 2, 7, 64, 513] {
            for requested in [1usize, 2, 4, 9, 1000] {
                let plan = split_range(0..total, requested);
                assert!(!plan.is_empty() && plan.len() <= total.max(1));
                assert_eq!(plan.len(), requested.clamp(1, total));
                let mut cursor = 0;
                for r in plan {
                    assert_eq!(r.start, cursor, "gap in plan({total}, {requested})");
                    assert!(!r.is_empty(), "empty range in plan({total}, {requested})");
                    cursor = r.end;
                }
                assert_eq!(cursor, total);
            }
        }
    }

    #[test]
    fn shard_plan_ranges_match_shard_slices() {
        // --shard i/s and --range from the plan must describe the same work.
        let plan = split_range(0..100, 3);
        for (i, range) in plan.into_iter().enumerate() {
            assert_eq!(range, Shard::new(i, 3).slice(100));
        }
    }

    #[test]
    fn shard_plan_split_covers_subrange() {
        for (range, parts) in [(10..20, 3), (0..1, 5), (7..8, 1), (3..103, 7)] {
            let pieces = split_range(range.clone(), parts);
            assert!(pieces.len() <= parts);
            let mut cursor = range.start;
            for p in &pieces {
                assert_eq!(p.start, cursor);
                assert!(!p.is_empty());
                cursor = p.end;
            }
            assert_eq!(cursor, range.end);
        }
    }

    #[test]
    fn coverage_missing_is_the_complement() {
        let total = 20;
        let c = Coverage::from_ranges(vec![(2, 5), (9, 12)], total).unwrap();
        assert_eq!(c.missing_within(0, total), vec![(0, 2), (5, 9), (12, 20)]);
        assert_eq!(c.covered_trials(), 6);
        assert_eq!(
            Coverage::full(total).missing_within(0, total),
            Vec::<(u64, u64)>::new()
        );
        let edge = Coverage::from_ranges(vec![(0, 20)], total).unwrap();
        assert!(edge.is_full(total));
        assert!(edge.missing_within(0, total).is_empty());
    }

    #[test]
    fn coverage_missing_within_restricts_to_the_window() {
        let c = Coverage::from_ranges(vec![(2, 5), (9, 12), (14, 16)], 20).unwrap();
        // Window == whole space: the complement.
        assert_eq!(
            c.missing_within(0, 20),
            vec![(0, 2), (5, 9), (12, 14), (16, 20)]
        );
        // Window cut mid-range on both sides.
        assert_eq!(c.missing_within(3, 15), vec![(5, 9), (12, 14)]);
        // Window entirely inside one covered range: nothing missing.
        assert_eq!(c.missing_within(9, 12), Vec::<(u64, u64)>::new());
        assert_eq!(c.missing_within(10, 11), Vec::<(u64, u64)>::new());
        // Window entirely inside a gap: everything missing.
        assert_eq!(c.missing_within(6, 8), vec![(6, 8)]);
        // Window past every covered range.
        assert_eq!(c.missing_within(16, 20), vec![(16, 20)]);
        // Empty window.
        assert_eq!(c.missing_within(7, 7), Vec::<(u64, u64)>::new());
        // Coverage that ends exactly at the window start is skipped.
        assert_eq!(c.missing_within(5, 9), vec![(5, 9)]);
    }

    #[test]
    fn range_sessions_merge_like_shards() {
        let g = generators::cycle(24);
        let q = Query::Cover {
            k: 2,
            starts: vec![0, 5],
        };
        let budget = Budget {
            trials: 30,
            seed: 11,
            ..Budget::default()
        };
        let whole = Session::new(budget.clone()).run(&g, &q);
        // An arbitrary (unbalanced) partition into explicit ranges.
        let parts: Vec<Report> = [0..7, 7..8, 8..30]
            .into_iter()
            .map(|r| Session::new(budget.clone()).with_range(r).run(&g, &q))
            .collect();
        let merged = parts
            .iter()
            .skip(1)
            .try_fold(parts[0].clone(), |acc, r| Report::merge(&acc, r))
            .unwrap();
        assert_eq!(merged, whole);
        assert_eq!(merged.to_json(), whole.to_json());
    }

    #[test]
    fn group_filter_runs_only_selected_groups() {
        let g = generators::cycle(16);
        let q = Query::Cover {
            k: 2,
            starts: vec![0, 3, 7],
        };
        let budget = Budget {
            trials: 8,
            seed: 2,
            ..Budget::default()
        };
        let whole = Session::new(budget.clone()).run(&g, &q);
        let filtered = Session::new(budget).with_groups(vec![1]).run(&g, &q);
        assert_eq!(filtered.groups.len(), 3);
        // Selected group: identical stats (streams are per-group).
        assert_eq!(filtered.groups[1], whole.groups[1]);
        // Excluded groups: present, labeled, empty.
        for idx in [0, 2] {
            assert_eq!(filtered.groups[idx].label, whole.groups[idx].label);
            assert_eq!(filtered.groups[idx].trials, 0);
            assert!(filtered.groups[idx].moments.is_empty());
        }
        // The filtered report still serializes and round-trips.
        let back = Report::from_json(&filtered.to_json()).unwrap();
        assert_eq!(back, filtered);
    }

    #[test]
    fn group_filter_matches_ladder_indices() {
        let g = generators::cycle(12);
        let q = Query::SpeedupLadder {
            start: 0,
            ks: vec![2, 4],
        };
        let budget = Budget {
            trials: 6,
            seed: 3,
            ..Budget::default()
        };
        let whole = Session::new(budget.clone()).run(&g, &q);
        // Index 0 is the baseline, 1.. are the rungs.
        let filtered = Session::new(budget).with_groups(vec![0, 2]).run(&g, &q);
        assert_eq!(filtered.groups[0], whole.groups[0]);
        assert_eq!(filtered.groups[2], whole.groups[2]);
        assert_eq!(filtered.groups[1].trials, 0);
        assert_eq!(filtered.groups[1].label, "k=2");
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn empty_shard_slice_panics_instead_of_degenerate_coverage() {
        let g = generators::cycle(8);
        let budget = Budget {
            trials: 1,
            seed: 1,
            ..Budget::default()
        };
        let _ = Session::new(budget)
            .with_range(Shard::new(0, 2).slice(1))
            .run(
                &g,
                &Query::Cover {
                    k: 1,
                    starts: vec![0],
                },
            );
    }

    #[test]
    fn two_way_shard_merge_is_bit_identical() {
        let g = generators::cycle(24);
        let q = Query::Cover {
            k: 2,
            starts: vec![0, 5],
        };
        let budget = Budget {
            trials: 32,
            seed: 11,
            ..Budget::default()
        };
        let whole = Session::new(budget.clone()).run(&g, &q);
        let a = Session::new(budget.clone())
            .with_range(Shard::new(0, 2).slice(32))
            .run(&g, &q);
        let b = Session::new(budget)
            .with_range(Shard::new(1, 2).slice(32))
            .run(&g, &q);
        let merged = Report::merge(&a, &b).unwrap();
        assert_eq!(merged, whole);
        assert_eq!(merged.to_json(), whole.to_json());
    }

    #[test]
    fn merge_rejects_mismatched_experiments() {
        let g = generators::cycle(16);
        let q = Query::Cover {
            k: 1,
            starts: vec![0],
        };
        let budget = Budget {
            trials: 8,
            seed: 1,
            ..Budget::default()
        };
        let a = Session::new(budget.clone()).run(&g, &q);
        let other_seed = Session::new(Budget {
            seed: 2,
            ..budget.clone()
        })
        .run(&g, &q);
        assert!(Report::merge(&a, &other_seed).is_err());
        let other_query = Session::new(budget).run(
            &g,
            &Query::Cover {
                k: 2,
                starts: vec![0],
            },
        );
        assert!(Report::merge(&a, &other_query).is_err());
    }

    #[test]
    fn merge_rejects_double_counted_coverage() {
        let g = generators::cycle(16);
        let q = Query::Cover {
            k: 1,
            starts: vec![0],
        };
        let budget = Budget {
            trials: 12,
            seed: 1,
            ..Budget::default()
        };
        let half = |i| {
            Session::new(budget.clone())
                .with_range(Shard::new(i, 2).slice(12))
                .run(&g, &q)
        };
        let (a, b) = (half(0), half(1));
        // The same shard twice: would count trials [0, 6) twice.
        assert!(Report::merge(&a, &a).is_err());
        // A complete report merged with anything overlaps by definition.
        let whole = Report::merge(&a, &b).unwrap();
        assert!(whole.is_complete());
        assert!(Report::merge(&whole, &a).is_err());
        // Shards from incompatible partitions overlap partially.
        let third = Session::new(budget)
            .with_range(Shard::new(0, 3).slice(12))
            .run(&g, &q);
        assert!(Report::merge(&a, &third).is_err());
        // Partial merges say so: a lone shard is not the complete run.
        assert!(!a.is_complete());
    }

    #[test]
    fn from_json_rejects_malformed_reports_without_panicking() {
        let g = generators::cycle(8);
        let report = Session::new(Budget {
            trials: 4,
            seed: 1,
            ..Budget::default()
        })
        .run(
            &g,
            &Query::Cover {
                k: 1,
                starts: vec![0],
            },
        );
        let text = report.to_json();
        // Coverage out of range / overlapping.
        for bad in [
            r#""coverage": [[0, 99]]"#,
            r#""coverage": [[2, 1]]"#,
            r#""coverage": [[0, 3], [2, 4]]"#,
        ] {
            let mutated = text.replace(r#""coverage": null"#, bad);
            assert!(Report::from_json(&mutated).is_err(), "accepted {bad}");
        }
        // Moments violating Cauchy–Schwarz must be a parse error, not a
        // panic.
        let mutated = text.replace(r#""sum_sq": "#, r#""sum_sq": 1 , "ignored": "#);
        assert!(Report::from_json(&mutated).is_err());
    }

    #[test]
    fn report_json_round_trips() {
        let g = generators::torus_2d(4);
        let q = Query::Pursuit {
            ks: vec![1, 2],
            hunters: 0,
            prey: 9,
            strategy: PreyStrategy::RandomWalk,
            cap: 100_000,
        };
        let report = Session::new(Budget {
            trials: 8,
            seed: 3,
            ..Budget::default()
        })
        .run(&g, &q);
        let text = report.to_json();
        let back = Report::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn spec_round_trips_and_builds() {
        let spec = QuerySpec {
            graph: GraphSpec::new("cycle", 64),
            query: Query::SpeedupLadder {
                start: 0,
                ks: vec![2, 4],
            },
            budget: Budget {
                trials: 16,
                seed: 5,
                ..Budget::default()
            },
        };
        let back = QuerySpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.graph.build().unwrap().n(), 64);
    }

    #[test]
    fn spec_budget_defaults_and_shorthand() {
        let spec = QuerySpec::from_json(
            r#"{"graph": {"family": "cycle", "n": 8},
                "query": {"type": "cover", "k": 1, "starts": [0]},
                "budget": {"trials": 512, "seed": 7}}"#,
        )
        .unwrap();
        assert_eq!(spec.budget.trials, 512);
        assert_eq!(spec.budget.seed, 7);
        assert_eq!(spec.budget.confidence, 0.95);
        // No budget at all.
        let spec = QuerySpec::from_json(
            r#"{"graph": {"family": "cycle", "n": 8},
                "query": {"type": "hmax"}}"#,
        )
        .unwrap();
        assert_eq!(spec.budget, Budget::default());
    }

    #[test]
    fn adaptive_spec_round_trips() {
        let budget = Budget {
            precision: Some(
                Precision::relative(0.05)
                    .with_confidence(0.99)
                    .with_min_trials(16)
                    .with_max_trials(512),
            ),
            seed: 1,
            ..Budget::default()
        };
        let spec = QuerySpec {
            graph: GraphSpec::new("torus", 8),
            query: Query::Hitting {
                from: 0,
                to: 9,
                cap: 1_000_000,
            },
            budget,
        };
        let back = QuerySpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn certified_reports_adaptive_rule_status() {
        let g = generators::cycle(12);
        let rule = Precision::relative(0.2)
            .with_min_trials(8)
            .with_max_trials(512);
        let budget = Budget {
            precision: Some(rule),
            seed: 4,
            ..Budget::default()
        };
        let q = Query::Cover {
            k: 1,
            starts: vec![0],
        };
        let report = Session::new(budget.clone()).run(&g, &q);
        assert_eq!(report.certified(), Some(true));
        // Fixed budgets don't certify.
        let fixed = Session::new(Budget {
            precision: None,
            trials: 8,
            ..budget
        })
        .run(&g, &q);
        assert_eq!(fixed.certified(), None);
    }

    #[test]
    fn walk_counts_past_the_position_cap_are_rejected() {
        let g = generators::cycle(8);
        let queries = |k: usize| {
            [
                Query::Cover { k, starts: vec![0] },
                Query::PartialCover {
                    k,
                    start: 0,
                    gammas: vec![0.5],
                },
                Query::Pursuit {
                    ks: vec![2, k],
                    hunters: 0,
                    prey: 4,
                    strategy: PreyStrategy::Hide,
                    cap: 10,
                },
                Query::SpeedupLadder {
                    start: 0,
                    ks: vec![k, 2],
                },
            ]
        };
        assert_eq!(MAX_WALKS, 402_653_184);
        for q in queries(MAX_WALKS) {
            assert_eq!(q.validate(&g), Ok(()), "{}", q.kind());
        }
        for q in queries(MAX_WALKS + 1) {
            let err = q.validate(&g).unwrap_err();
            assert!(err.contains("cap of 402653184"), "{}: {err}", q.kind());
        }
    }
}
