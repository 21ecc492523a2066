//! The unified k-token walk engine — the one stepping loop in this crate.
//!
//! Every quantity this library measures is the same primitive observed
//! through a different lens: `k` tokens step synchronously over a graph
//! until a stopping rule fires. The seed implemented that inner loop eight
//! separate times (single-walk cover, k-walk cover, process cover, partial
//! cover, multicover, visit tallies, meeting, pursuit), each with its own
//! visited-bitset and round-accounting code. This module owns the loop
//! once:
//!
//! * [`Engine`] drives `k` tokens of a [`Process`] under a [`Discipline`]
//!   and reports to an [`Observer`], which accumulates statistics and
//!   decides when to stop. An optional round cap bounds every run.
//! * [`Process`] is the per-step kernel. [`SimpleStep`] is the paper's
//!   simple random walk; [`CompiledProcess`] is a
//!   [`crate::process::WalkProcess`] compiled against a graph
//!   with its per-run state cached — a pre-built `Bernoulli` for lazy
//!   holds (one integer compare per step instead of a float conversion)
//!   and degree/reciprocal tables for Metropolis acceptance (multiply
//!   instead of divide on the CSR hot path).
//! * [`Observer`]s: [`FullCover`], [`PartialCover`], [`Multicover`],
//!   [`Hit`], [`Meeting`], [`Pursuit`], [`VisitTally`], [`CoverageCurve`],
//!   [`Trace`], and `()` (a pure horizon run).
//!
//! Callers run the engine directly; no wrapper stands between them and
//! it. Everything that runs under a [`Budget`](crate::query::Budget) —
//! every [`Session`](crate::query::Session) trial and every experiment
//! that steps walks itself — builds its engine with
//! [`Budget::engine`](crate::query::Budget::engine), the one place the
//! budget's discipline and [`BatchMode`] are applied.
//!
//! ## Batched vs scalar stepping
//!
//! The engine owns two inner loops and picks between them per run:
//!
//! * **Scalar** — tokens advance one at a time in index order, one RNG
//!   draw sequence per token per round. This is the legacy stream the
//!   equivalence suite pins bit-for-bit.
//! * **Batched** — each round, *one* word of the master stream is
//!   expanded into a whole block of per-token draws through a
//!   counter-mode `SplitMix64` (no loop-carried multiply chain, so the
//!   core overlaps many tokens' draws where xoshiro serializes them), and
//!   the tokens are swept in one tight pass with the per-step kernel
//!   consuming pre-drawn words through [`Process::step_bits`]. Three
//!   drivers step a round, one per shape a run can take. A plain walk
//!   (one word per token) on a regular CSR graph (cycle, torus,
//!   hypercube, clique — every Table 1 family) addresses the row of `v`
//!   directly as `adjacency[v·d..(v+1)·d]` with **zero** offset loads and
//!   the degree hoisted out of the loop; a plain walk on an irregular CSR
//!   graph steps through the flat pick table of [`UniformSweep`]; every
//!   other run (a two-word kernel on any backend, a plain walk on an
//!   implicit graph) steps each round through one
//!   [`GraphBackend::sweep_rows`] call, which resolves the backend once
//!   and hands the kernel every token's row (a one-check window into the
//!   CSR arrays, or built arithmetically, in registers on the implicit
//!   cycle and torus).
//!
//! An earlier sorted-bucket design (re-sort tokens by vertex each round,
//! one row fetch and RNG block per co-located bucket) was measured and
//! rejected: on every hostable graph size the per-round sort costs
//! 5–30 ns/token (insertion on the nearly-sorted carried-over order, or
//! `O(k log k)` pdqsort) against a ~2.3 ns scalar step, a 2–10× *loss*;
//! co-location is also rare outside the first rounds of a same-start run
//! (`k ≪ n` makes buckets singletons). The counter-expansion sweep keeps
//! the batching wins that survive measurement — block RNG, hoisted
//! degree/bounds logic, branch-free row addressing — without paying for
//! an ordering the access pattern cannot exploit.
//!
//! Selection is governed by [`BatchMode`] ([`Engine::batch`]):
//! the default [`BatchMode::Auto`] batches only when **all** of
//!
//! 1. the discipline is [`Discipline::RoundSynchronous`] (the interleaved
//!    discipline checks its stopping rule after every *step*, which a
//!    batched sweep cannot honor),
//! 2. the process has a batched kernel
//!    ([`Process::bits_per_step`] is `Some` — true for [`SimpleStep`] and
//!    every [`CompiledProcess`], false for the uncached
//!    [`crate::process::WalkProcess`] reference), and
//! 3. `k ≥` [`BATCH_AUTO_MIN_K`] tokens (below that the per-round
//!    block-expansion bookkeeping is not worth routing off the pinned
//!    legacy stream),
//!
//! hold. [`BatchMode::Never`] forces the scalar loop (the CLI's
//! `--no-batch`); [`BatchMode::Always`] lifts the `k` threshold but still
//! yields to conditions 1–2. The batched path consumes the RNG stream
//! differently from the scalar path (counter-expanded `u64` blocks
//! instead of per-token master-stream draws), so seeded results differ
//! between the two paths; the *law* of every process is unchanged
//! (KS-tested below). Trial fan-outs reuse an [`EngineArena`] via
//! [`Engine::run_with`] so a warmed-up trial performs no heap allocation.
//!
//! ## Round-granular observers
//!
//! Token placement and the three batched drivers step (or place) the
//! whole round first and then hand every position to
//! [`Observer::visit_round`] once, so their per-token loops do nothing
//! but step. The hook's default calls [`Observer::visit`] for each token
//! in order; [`FullCover`] and [`PartialCover`] override it with one
//! branch-free marking pass ([`NodeBitSet::insert_all`]). No output
//! changes: a round-synchronous run polls its stopping rule only at
//! round boundaries, and `visit` never draws from the RNG, so marking at
//! the boundary does the same work in the same order.
//!
//! Two loops keep a `visit` call per step. The interleaved loop polls its
//! rule after every step, so it must see each arrival as it happens. The
//! scalar round-synchronous loop runs small `k` (below
//! [`BATCH_AUTO_MIN_K`] under [`BatchMode::Auto`]), and there the bulk
//! hook measured slower (numbers in `docs/ARCHITECTURE.md`).
//!
//! ## Determinism contract
//!
//! For [`SimpleStep`] (and `CompiledProcess::Simple`) the engine consumes
//! the RNG stream *identically* to the legacy loops: one draw per token
//! per round, tokens in index order, a full round always completed under
//! [`Discipline::RoundSynchronous`] even when the stopping rule fires
//! mid-round. Seeded results are therefore bit-for-bit equal to the
//! pre-refactor implementations (`tests/engine_equivalence.rs` pins this
//! against a frozen copy of the legacy loop). For `Lazy(p)` the cached
//! `Bernoulli` draws one `u64` per hold decision where the legacy code
//! drew one `f64`; the *law* of the walk is unchanged (KS-tested) but
//! seeded traces differ from the seed implementation — an intentional,
//! benchmarked trade (about 35% faster on torus(64); measured by the
//! since-removed `bench_unified_engine_ablation` of `benches/engine.rs`).

use mrw_graph::{Graph, GraphBackend, NodeBitSet, UniformSweep};
use rand::distributions::{Bernoulli, Distribution};
use rand::Rng;

use crate::process::WalkProcess;
use crate::walk::step;

/// Stepping discipline for the k-token loop.
///
/// Both define the same process and agree in distribution (the KS
/// equivalence test confirms it); they differ only in when
/// the stopping rule is *checked* inside a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// All tokens advance once per round; the stopping rule is evaluated
    /// at round boundaries (the paper's model — a round that completes
    /// coverage mid-round still counts in full).
    #[default]
    RoundSynchronous,
    /// A single global step counter `i` advances token `i mod k` (the
    /// `X_i` indexing of the paper's Theorem 9 proof); the stopping rule
    /// is checked after every step and the reported time is `⌈steps/k⌉`.
    Interleaved,
}

/// A per-step walk kernel: where does a token at `pos` go next?
pub trait Process {
    /// Advances one token by one step.
    fn step<G: GraphBackend, R: Rng + ?Sized>(&mut self, g: &G, pos: u32, rng: &mut R) -> u32;

    /// Uniform `u64` words consumed per token by
    /// [`step_bits`](Self::step_bits), or `None` when the process has only a scalar
    /// kernel (the engine then keeps the scalar loop even when batching is
    /// requested). Currently `Some(1)` or `Some(2)`.
    ///
    /// `Some(1)` is a contract: [`step_bits`](Self::step_bits) must be
    /// exactly `pick(row, b0)`, a plain uniform neighbor pick with no hold
    /// or acceptance logic. The batched engine then steps CSR graphs
    /// without calling `step_bits` at all — direct regular-row addressing,
    /// or the flat pick table ([`UniformSweep`]) — and the result must be
    /// bit-identical to it. [`SimpleStep`] and `CompiledProcess::Simple`
    /// are the two kernels that advertise it; a one-word kernel of any
    /// other kind would be stepped as a simple walk.
    fn bits_per_step(&self) -> Option<usize> {
        None
    }

    /// Advances one token using pre-drawn uniform words instead of the
    /// RNG — the batched-sweep kernel. `row` is the sorted neighbor row
    /// of `pos`, which the engine fetches a round at a time through
    /// [`GraphBackend::sweep_rows`]; `b0`/`b1` are the token's words from
    /// the round's counter-expanded draw block (`b1` is garbage when
    /// [`bits_per_step`](Self::bits_per_step) is `Some(1)`).
    ///
    /// Only called when `bits_per_step` returns `Some`; the default
    /// panics so a scalar-only process that is accidentally routed here
    /// fails loudly instead of stepping wrong.
    fn step_bits(&mut self, row: &[u32], pos: u32, b0: u64, b1: u64) -> u32 {
        let _ = (row, pos, b0, b1);
        unreachable!("process advertises no batched kernel (bits_per_step() == None)")
    }
}

/// Uniform pick from a neighbor row using 64 pre-drawn bits: a mask on
/// power-of-two rows (the predictable common case — torus, hypercube,
/// cycle), else Lemire's widening-multiply map (uniform up to `2⁻⁶⁴`
/// bias).
#[inline]
fn pick(row: &[u32], bits: u64) -> u32 {
    debug_assert!(!row.is_empty(), "walk stuck at isolated vertex");
    row[pick_index(row.len(), bits)]
}

/// The index [`pick`] reads from a row of `d ≥ 1` entries.
#[inline]
fn pick_index(d: usize, bits: u64) -> usize {
    if d.is_power_of_two() {
        (bits & (d as u64 - 1)) as usize
    } else {
        ((bits as u128 * d as u128) >> 64) as usize
    }
}

/// `[0,1)` float from 64 pre-drawn bits — same mapping as the vendored
/// `Standard` distribution, so batched acceptance tests agree in law with
/// their scalar `rng.gen::<f64>()` counterparts.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The paper's simple random walk: uniform over neighbors, stateless.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleStep;

impl Process for SimpleStep {
    #[inline]
    fn step<G: GraphBackend, R: Rng + ?Sized>(&mut self, g: &G, pos: u32, rng: &mut R) -> u32 {
        step(g, pos, rng)
    }

    #[inline]
    fn bits_per_step(&self) -> Option<usize> {
        Some(1)
    }

    #[inline]
    fn step_bits(&mut self, row: &[u32], _pos: u32, b0: u64, _b1: u64) -> u32 {
        pick(row, b0)
    }
}

/// A [`WalkProcess`] compiled against a graph, with per-run cached state.
///
/// [`WalkProcess::step`](crate::process::WalkProcess::step) stays the
/// uncached reference implementation; this is what the engine actually
/// runs. Construction is `O(1)` for `Simple`/`Lazy` and `O(n)` for
/// `Metropolis` (degree and reciprocal tables).
#[derive(Debug, Clone)]
pub enum CompiledProcess {
    /// Simple walk (identical stream to [`SimpleStep`]).
    Simple,
    /// Lazy walk with a pre-built hold distribution.
    Lazy {
        /// Cached Bernoulli(hold probability).
        hold: Bernoulli,
    },
    /// Metropolis walk with cached degree and reciprocal-degree tables,
    /// so the acceptance test `u < δ(v)/δ(u)` is a multiply, not a divide.
    Metropolis {
        /// `δ(v)` as `f64`, indexed by vertex.
        deg: Vec<f64>,
        /// `1/δ(v)`, indexed by vertex.
        inv_deg: Vec<f64>,
    },
}

impl CompiledProcess {
    /// Compiles `process` for runs on `g`.
    ///
    /// `Lazy(1.0)` is accepted — a token that never moves is well-defined
    /// under a round cap (fixed-horizon tallies, capped meetings). An
    /// uncapped cover run never ends on it, so callers without a cap must
    /// keep `p < 1` (the query layer rejects a meeting `laziness` of 1).
    ///
    /// # Panics
    /// If `process` is `Lazy(p)` with `p ∉ [0,1]`.
    pub fn new<G: GraphBackend>(process: WalkProcess, g: &G) -> Self {
        match process {
            WalkProcess::Simple => CompiledProcess::Simple,
            WalkProcess::Lazy(p) => CompiledProcess::Lazy {
                hold: Bernoulli::new(p)
                    .unwrap_or_else(|_| panic!("hold probability {p} not in [0,1]")),
            },
            WalkProcess::Metropolis => {
                let deg: Vec<f64> = (0..g.n() as u32).map(|v| g.degree(v) as f64).collect();
                let inv_deg = deg.iter().map(|&d| 1.0 / d).collect();
                CompiledProcess::Metropolis { deg, inv_deg }
            }
        }
    }
}

/// The uncached reference kernel: every call re-derives hold/acceptance
/// state. Kept as the semantic ground truth the cached
/// [`CompiledProcess`] is tested against; engine users should compile.
/// Deliberately scalar-only (`bits_per_step` stays `None`): the reference
/// must never be silently routed onto the batched path it is meant to
/// check.
impl Process for WalkProcess {
    #[inline]
    fn step<G: GraphBackend, R: Rng + ?Sized>(&mut self, g: &G, pos: u32, rng: &mut R) -> u32 {
        WalkProcess::step(self, g, pos, rng)
    }
}

impl Process for CompiledProcess {
    #[inline]
    fn step<G: GraphBackend, R: Rng + ?Sized>(&mut self, g: &G, pos: u32, rng: &mut R) -> u32 {
        match self {
            CompiledProcess::Simple => step(g, pos, rng),
            CompiledProcess::Lazy { hold } => {
                if hold.sample(rng) {
                    pos
                } else {
                    step(g, pos, rng)
                }
            }
            CompiledProcess::Metropolis { deg, inv_deg } => {
                let proposal = step(g, pos, rng);
                if proposal == pos {
                    return pos; // self-loop proposal: always "accepted"
                }
                let dv = deg[pos as usize];
                let du = deg[proposal as usize];
                if du <= dv || rng.gen::<f64>() < dv * inv_deg[proposal as usize] {
                    proposal
                } else {
                    pos
                }
            }
        }
    }

    #[inline]
    fn bits_per_step(&self) -> Option<usize> {
        Some(match self {
            CompiledProcess::Simple => 1,
            // One word decides the hold / proposal, one the move / accept.
            CompiledProcess::Lazy { .. } | CompiledProcess::Metropolis { .. } => 2,
        })
    }

    #[inline]
    fn step_bits(&mut self, row: &[u32], pos: u32, b0: u64, b1: u64) -> u32 {
        match self {
            CompiledProcess::Simple => pick(row, b0),
            // The hold decision reuses the Bernoulli threshold compiled
            // once in `CompiledProcess::new` — never re-derived per step.
            CompiledProcess::Lazy { hold } => {
                if hold.sample_bits(b0) {
                    pos
                } else {
                    pick(row, b1)
                }
            }
            CompiledProcess::Metropolis { deg, inv_deg } => {
                let proposal = pick(row, b0);
                if proposal == pos {
                    return pos; // self-loop proposal: always "accepted"
                }
                let dv = deg[pos as usize];
                let du = deg[proposal as usize];
                if du <= dv || unit_f64(b1) < dv * inv_deg[proposal as usize] {
                    proposal
                } else {
                    pos
                }
            }
        }
    }
}

/// Accumulates statistics from token arrivals and decides when to stop.
///
/// The engine reports every token placement (round 0) and every step.
/// Placement and the batched drivers report a whole round at once
/// through [`visit_round`](Observer::visit_round); the scalar loops call
/// [`visit`](Observer::visit) after each step (see the module docs for
/// why). It calls [`placed`](Observer::placed) once after all starts are
/// down, and [`end_round`](Observer::end_round) at each round boundary.
/// Under [`Discipline::Interleaved`] it additionally polls
/// [`done`](Observer::done) after every step so sub-round stopping times
/// are observable.
pub trait Observer {
    /// Token `token` now occupies `v` (including initial placement).
    fn visit(&mut self, token: usize, v: u32);

    /// Every token just moved (or was placed): token `i` now occupies
    /// `positions[i]`. The default calls [`visit`](Observer::visit) for
    /// each token in order, so an observer that keeps it sees exactly the
    /// calls a per-step loop makes. Override it only with the same
    /// result; [`FullCover`] and [`PartialCover`] mark the whole round in
    /// one branch-free pass ([`NodeBitSet::insert_all`]).
    #[inline]
    fn visit_round(&mut self, positions: &[u32]) {
        for (token, &v) in positions.iter().enumerate() {
            self.visit(token, v);
        }
    }

    /// Has the stopping rule fired?
    fn done(&self) -> bool;

    /// All starts are placed; `positions[i]` is token `i`'s start.
    /// Fixed-horizon observers use this to record their `t = 0` sample.
    fn placed<G: GraphBackend>(&mut self, g: &G, positions: &[u32]) {
        let _ = (g, positions);
    }

    /// A round just completed; return `true` to stop. The default
    /// delegates to [`done`](Observer::done). Adversarial components that
    /// move *after* the tokens each round (the pursuit prey) live here —
    /// this is the only observer hook with RNG access, so their draws
    /// interleave deterministically with the tokens'.
    fn end_round<G: GraphBackend, R: Rng + ?Sized>(
        &mut self,
        g: &G,
        positions: &[u32],
        rng: &mut R,
    ) -> bool {
        let _ = (g, positions, rng);
        self.done()
    }
}

/// A pure horizon run: never stops early, accumulates nothing.
impl Observer for () {
    #[inline]
    fn visit(&mut self, _token: usize, _v: u32) {}
    #[inline]
    fn done(&self) -> bool {
        false
    }
}

/// Forwarding impl so an engine can borrow its observer instead of owning
/// it — the zero-alloc trial pattern: a worker keeps one reusable observer
/// (e.g. a [`FullCover`] reset between trials) alongside its
/// [`EngineArena`] and lends it to each run.
impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn visit(&mut self, token: usize, v: u32) {
        (**self).visit(token, v);
    }

    #[inline]
    fn visit_round(&mut self, positions: &[u32]) {
        (**self).visit_round(positions);
    }

    #[inline]
    fn done(&self) -> bool {
        (**self).done()
    }

    #[inline]
    fn placed<G: GraphBackend>(&mut self, g: &G, positions: &[u32]) {
        (**self).placed(g, positions);
    }

    #[inline]
    fn end_round<G: GraphBackend, R: Rng + ?Sized>(
        &mut self,
        g: &G,
        positions: &[u32],
        rng: &mut R,
    ) -> bool {
        (**self).end_round(g, positions, rng)
    }
}

/// The result of an [`Engine`] run.
#[derive(Debug, Clone)]
pub struct Outcome<O> {
    /// Rounds elapsed when the run ended. Under
    /// [`Discipline::Interleaved`] with a mid-round stop this is
    /// `⌈steps/k⌉`.
    pub rounds: u64,
    /// `true` when the observer's stopping rule fired; `false` when the
    /// round cap exhausted the run first.
    pub stopped: bool,
    /// Final token positions.
    pub positions: Vec<u32>,
    /// The observer, carrying whatever statistics it accumulated.
    pub observer: O,
}

/// The result of an [`Engine::run_with`] run: like [`Outcome`] but without
/// the owned position vector — final positions stay in the arena
/// ([`EngineArena::positions`]), so a trial returns nothing heap-allocated.
#[derive(Debug, Clone)]
pub struct ArenaOutcome<O> {
    /// Rounds elapsed when the run ended (see [`Outcome::rounds`]).
    pub rounds: u64,
    /// `true` when the stopping rule fired (see [`Outcome::stopped`]).
    pub stopped: bool,
    /// The observer, carrying whatever statistics it accumulated.
    pub observer: O,
}

/// When the engine routes a run onto the batched stepping sweep.
///
/// Whatever the mode, batching additionally requires a round-synchronous
/// discipline and a process with a batched kernel
/// ([`Process::bits_per_step`]` != None`) — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Batch when profitable: `k ≥` [`BATCH_AUTO_MIN_K`] tokens (below
    /// that, staying on the pinned legacy stream costs nothing, so small
    /// runs keep bit-for-bit seed compatibility for free).
    #[default]
    Auto,
    /// Always keep the scalar loop (the CLI's `--no-batch`; also the mode
    /// that preserves legacy seeded streams at any `k`).
    Never,
    /// Batch at any `k` the discipline and process allow (the CLI's
    /// `--batch`; also how tests exercise the sweep at small `k`).
    Always,
}

/// Token count at which [`BatchMode::Auto`] switches to the batched sweep.
pub const BATCH_AUTO_MIN_K: usize = 64;

/// Reusable engine buffers: the token position vector.
///
/// Allocated once per worker (the estimators do this through
/// [`mrw_par::par_map_with`]) and handed to every [`Engine::run_with`]
/// call; after the first run at a given `k` on a given graph no further
/// heap allocation happens in the stepping loop (an irregular graph's
/// flat pick table is built once, on the graph's first sweep). Each run
/// fully re-initializes the positions, so outcomes are byte-identical to
/// a fresh engine regardless of what previous runs left behind
/// (property-tested in `tests/engine_arena.rs`). Observer-side state
/// (visited bitsets, tally buffers) lives in the observers themselves;
/// reuse those by lending `&mut observer` to the engine and calling e.g.
/// [`FullCover::reset`] between trials.
#[derive(Debug, Clone, Default)]
pub struct EngineArena {
    /// Current token positions (`pos[token]`).
    pos: Vec<u32>,
}

impl EngineArena {
    /// An empty arena; buffers grow on first use and are then retained.
    pub fn new() -> Self {
        EngineArena::default()
    }

    /// Final token positions of the last [`Engine::run_with`] on this
    /// arena (token `i` at index `i`).
    pub fn positions(&self) -> &[u32] {
        &self.pos
    }
}

/// The unified k-token stepping loop.
///
/// ```
/// use mrw_core::engine::{Engine, FullCover, SimpleStep};
/// use mrw_core::walk_rng;
/// use mrw_graph::generators;
///
/// let g = generators::torus_2d(6);
/// let out = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
///     .run(&[0, 0, 0, 0], &mut walk_rng(7));
/// assert!(out.stopped);
/// assert!(out.rounds > 0);
/// ```
#[derive(Debug)]
pub struct Engine<'g, G, P, O> {
    g: &'g G,
    process: P,
    observer: O,
    discipline: Discipline,
    cap: Option<u64>,
    batch: BatchMode,
}

impl<'g, G: GraphBackend, P: Process, O: Observer> Engine<'g, G, P, O> {
    /// An engine on `g` with the default discipline
    /// ([`Discipline::RoundSynchronous`]), no round cap, and
    /// [`BatchMode::Auto`] path selection.
    pub fn new(g: &'g G, process: P, observer: O) -> Self {
        Engine {
            g,
            process,
            observer,
            discipline: Discipline::RoundSynchronous,
            cap: None,
            batch: BatchMode::Auto,
        }
    }

    /// Sets the stepping discipline.
    pub fn discipline(mut self, discipline: Discipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Bounds the run at `cap` rounds; a run that reaches the cap without
    /// the stopping rule firing returns `stopped: false`.
    pub fn cap(mut self, cap: u64) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Sets the batched-vs-scalar path selection (see the module docs).
    pub fn batch(mut self, batch: BatchMode) -> Self {
        self.batch = batch;
        self
    }

    /// Runs the loop from `starts` (token `i` starts at `starts[i]`).
    ///
    /// # Panics
    /// If `starts` is empty or any start is out of range.
    pub fn run<R: Rng + ?Sized>(mut self, starts: &[u32], rng: &mut R) -> Outcome<O> {
        let mut arena = EngineArena::new();
        let (rounds, stopped) = self.drive(starts, rng, &mut arena);
        Outcome {
            rounds,
            stopped,
            positions: arena.pos,
            observer: self.observer,
        }
    }

    /// Like [`run`](Self::run), reusing `arena`'s buffers: after the first
    /// run at a given token count on a given graph the stepping loop
    /// performs no heap allocation, on regular and irregular graphs alike
    /// (asserted by the counting-allocator test `tests/zero_alloc.rs`).
    /// Final positions are left in [`EngineArena::positions`] instead of
    /// being returned.
    ///
    /// # Panics
    /// If `starts` is empty or any start is out of range.
    pub fn run_with<R: Rng + ?Sized>(
        mut self,
        starts: &[u32],
        rng: &mut R,
        arena: &mut EngineArena,
    ) -> ArenaOutcome<O> {
        let (rounds, stopped) = self.drive(starts, rng, arena);
        ArenaOutcome {
            rounds,
            stopped,
            observer: self.observer,
        }
    }

    /// The shared driver: places tokens, selects a path, runs to the
    /// stopping rule or cap. Returns `(rounds, stopped)`; final positions
    /// are in `arena.pos`.
    fn drive<R: Rng + ?Sized>(
        &mut self,
        starts: &[u32],
        rng: &mut R,
        arena: &mut EngineArena,
    ) -> (u64, bool) {
        assert!(!starts.is_empty(), "need at least one walk");
        for &s in starts {
            assert!((s as usize) < self.g.n(), "start {s} out of range");
        }

        arena.pos.clear();
        arena.pos.extend_from_slice(starts);
        self.observer.visit_round(&arena.pos);
        self.observer.placed(self.g, &arena.pos);
        if self.observer.done() {
            return (0, true);
        }

        let batched_bits = match (self.discipline, self.batch) {
            (Discipline::Interleaved, _) | (_, BatchMode::Never) => None,
            (Discipline::RoundSynchronous, BatchMode::Always) => self.process.bits_per_step(),
            (Discipline::RoundSynchronous, BatchMode::Auto) => {
                if starts.len() >= BATCH_AUTO_MIN_K {
                    self.process.bits_per_step()
                } else {
                    None
                }
            }
        };

        match self.discipline {
            Discipline::RoundSynchronous => match batched_bits {
                Some(bpt) => self.drive_batched(rng, arena, bpt),
                None => self.drive_scalar_sync(rng, arena),
            },
            Discipline::Interleaved => self.drive_interleaved(rng, arena),
        }
    }

    /// The legacy scalar round-synchronous loop — bit-for-bit the seed's
    /// RNG stream (pinned by `tests/engine_equivalence.rs`). It keeps a
    /// `visit` per step: at the small `k` it runs, the bulk round hook
    /// measured slower (numbers in `docs/ARCHITECTURE.md`).
    fn drive_scalar_sync<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        arena: &mut EngineArena,
    ) -> (u64, bool) {
        let mut rounds = 0u64;
        loop {
            if Some(rounds) == self.cap {
                return (rounds, false);
            }
            rounds += 1;
            for (token, p) in arena.pos.iter_mut().enumerate() {
                *p = self.process.step(self.g, *p, rng);
                self.observer.visit(token, *p);
            }
            if self.observer.end_round(self.g, &arena.pos, rng) {
                return (rounds, true);
            }
        }
    }

    /// The batched counter-expansion sweep: per round, draw **one** word
    /// of the master stream and expand it into per-token draws through a
    /// counter-mode `SplitMix64` block RNG, then step every token with
    /// the row access specialized for the run's shape. A plain kernel
    /// (`bpt == 1`, see [`Process::bits_per_step`]) on CSR takes
    ///
    /// * a regular graph with degree `d > 0` — direct row addressing,
    ///   zero offset loads
    ///   ([`drive_batched_regular`](Self::drive_batched_regular));
    /// * otherwise, where the flat table applies — the flat pick-table
    ///   sweep ([`drive_batched_flat`](Self::drive_batched_flat) over
    ///   [`UniformSweep`]).
    ///
    /// Every other run — a two-word kernel (lazy, Metropolis) on any
    /// backend, a plain kernel on an implicit graph, or on an adjacency
    /// array too long for the flat table's `u32` row starts — takes one
    /// [`GraphBackend::sweep_rows`] call per round
    /// ([`drive_batched_rows`](Self::drive_batched_rows)).
    ///
    /// Every driver consumes identical draw words per token index, so the
    /// batched stream is one law regardless of which one runs, and every
    /// driver runs the same round loop: check the cap, draw the round
    /// seed, step the whole round, report it through one
    /// [`Observer::visit_round`] call, then `end_round`. Each driver is
    /// kept out of line, so its step loop compiles the same way whatever
    /// calls the engine (numbers at each driver).
    fn drive_batched<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        arena: &mut EngineArena,
        bpt: usize,
    ) -> (u64, bool) {
        if let (1, Some(csr)) = (bpt, self.g.csr()) {
            // `d = 0` (edgeless) would only arise alongside an
            // isolated-vertex walk, which the scalar path also rejects
            // (debug): it leaves the regular driver, so the panic
            // surfaces in the flat sweep's entry check.
            if let Some(d) = csr.regular_degree().filter(|&d| d > 0) {
                return self.drive_batched_regular(csr, d, rng, arena);
            }
            if let Some(sweep) = UniformSweep::new(csr, &mut arena.pos) {
                return self.drive_batched_flat(sweep, rng);
            }
        }
        self.drive_batched_rows(rng, arena, bpt)
    }

    /// Regular-CSR batched sweep of a plain kernel: the row of `v` is
    /// `adjacency[v·d..(v+1)·d]` — no offset loads, degree hoisted — and
    /// a step is `adjacency[v·d + pick_index(d, b0)]`, which is exactly
    /// `pick(row, b0)` with one bounds check instead of three (the row's
    /// end overflow and length checks and the pick's index check).
    ///
    /// Kept out of line so the loop compiles the same way whatever calls
    /// the engine: inlined into `Session`'s per-trial closure, `mrw run`
    /// on torus(128) at `k = 256` measured ~15% slower.
    #[inline(never)]
    fn drive_batched_regular<R: Rng + ?Sized>(
        &mut self,
        csr: &Graph,
        d: usize,
        rng: &mut R,
        arena: &mut EngineArena,
    ) -> (u64, bool) {
        use rand::rngs::SplitMix64;
        use rand::{RngCore, SeedableRng};

        let adj = csr.adjacency();
        let mut rounds = 0u64;
        loop {
            if Some(rounds) == self.cap {
                return (rounds, false);
            }
            rounds += 1;
            let mut block = SplitMix64::seed_from_u64(rng.next_u64());
            for p in arena.pos.iter_mut() {
                *p = adj[*p as usize * d + pick_index(d, block.next_u64())];
            }
            self.observer.visit_round(&arena.pos);
            if self.observer.end_round(self.g, &arena.pos, rng) {
                return (rounds, true);
            }
        }
    }

    /// Irregular-CSR batched sweep of a plain kernel through the flat
    /// pick table ([`UniformSweep`]), where the whole step is one table
    /// load and a branch-free mask-or-Lemire pick. Token `t` consumes
    /// draw word `t` of each round's block — exactly the word the rows
    /// driver hands it — so outcomes are byte-identical, pinned by
    /// `flat_sweep_matches_rowwise_stream` below. The pick table belongs
    /// to the graph, so a run builds it only on the graph's first sweep.
    ///
    /// Kept out of line: inlined into `Session`'s per-trial closure, the
    /// step loop spent two more instructions per token-step (a register
    /// copy and a re-materialized constant).
    #[inline(never)]
    fn drive_batched_flat<R: Rng + ?Sized>(
        &mut self,
        mut sweep: UniformSweep<'_>,
        rng: &mut R,
    ) -> (u64, bool) {
        let mut rounds = 0u64;
        loop {
            if Some(rounds) == self.cap {
                return (rounds, false);
            }
            rounds += 1;
            sweep.round(rng.next_u64());
            self.observer.visit_round(sweep.positions());
            if self.observer.end_round(self.g, sweep.positions(), rng) {
                return (rounds, true);
            }
        }
    }

    /// Row-wise batched sweep for every run the two drivers above do not
    /// take: each round is one [`GraphBackend::sweep_rows`] call, which
    /// resolves the backend once and hands the kernel every token's row
    /// (a one-check window into CSR arrays, or computed arithmetically on
    /// an implicit graph). The step closure hands out the round's draw
    /// words as it is called, in token order, identical to the other
    /// drivers, so implicit and CSR runs of the same seed agree
    /// byte-for-byte.
    ///
    /// `sweep_rows` calls the closure from one site per row shape, and
    /// with a two-word kernel LLVM left it out of line, one call per
    /// token-step (lazy meetings on barbell(401) ran about 5% slower), so
    /// it is forced inline; the driver is kept out of line like the
    /// other two.
    #[inline(never)]
    fn drive_batched_rows<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        arena: &mut EngineArena,
        bpt: usize,
    ) -> (u64, bool) {
        use rand::rngs::SplitMix64;
        use rand::{RngCore, SeedableRng};

        let g = self.g;
        let mut rounds = 0u64;
        loop {
            if Some(rounds) == self.cap {
                return (rounds, false);
            }
            rounds += 1;
            let mut block = SplitMix64::seed_from_u64(rng.next_u64());
            let process = &mut self.process;
            g.sweep_rows(
                &mut arena.pos,
                #[inline(always)]
                |p, row| {
                    let b0 = block.next_u64();
                    let b1 = if bpt == 2 { block.next_u64() } else { 0 };
                    process.step_bits(row, p, b0, b1)
                },
            );
            self.observer.visit_round(&arena.pos);
            if self.observer.end_round(g, &arena.pos, rng) {
                return (rounds, true);
            }
        }
    }

    /// The interleaved loop (always scalar: its stopping rule is checked
    /// after every step, which a whole-round batched sweep cannot honor,
    /// so it also reports each step through `visit`, never `visit_round`).
    fn drive_interleaved<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        arena: &mut EngineArena,
    ) -> (u64, bool) {
        let pos = &mut arena.pos;
        let k = pos.len() as u64;
        let mut rounds = 0u64;
        let mut steps = 0u64;
        loop {
            if Some(rounds) == self.cap {
                return (rounds, false);
            }
            for (token, p) in pos.iter_mut().enumerate() {
                *p = self.process.step(self.g, *p, rng);
                steps += 1;
                self.observer.visit(token, *p);
                if self.observer.done() {
                    return (steps.div_ceil(k), true);
                }
            }
            rounds += 1;
            if self.observer.end_round(self.g, pos, rng) {
                return (rounds, true);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Observers. All visited-set / counter bookkeeping in this crate lives here.
// ---------------------------------------------------------------------------

/// Stop when every vertex has been visited (cover time).
#[derive(Debug, Clone)]
pub struct FullCover {
    visited: NodeBitSet,
    remaining: usize,
}

impl FullCover {
    /// A fresh cover tracker over `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cover time of the empty graph");
        FullCover {
            visited: NodeBitSet::new(n),
            remaining: n,
        }
    }

    /// Vertices not yet visited.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Resets to "nothing visited over `n` vertices", reusing the bitset
    /// allocation when the universe size is unchanged — the zero-alloc
    /// trial-reuse hook (estimator workers keep one `FullCover` per
    /// worker and reset it between trials).
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn reset(&mut self, n: usize) {
        assert!(n > 0, "cover time of the empty graph");
        if self.visited.len() == n {
            self.visited.clear();
        } else {
            self.visited = NodeBitSet::new(n);
        }
        self.remaining = n;
    }

    /// The visited set (for observers layering extra statistics on top).
    pub fn visited(&self) -> &NodeBitSet {
        &self.visited
    }
}

impl Observer for FullCover {
    #[inline]
    fn visit(&mut self, _token: usize, v: u32) {
        if self.visited.insert(v) {
            self.remaining -= 1;
        }
    }

    #[inline]
    fn visit_round(&mut self, positions: &[u32]) {
        self.remaining -= self.visited.insert_all(positions);
    }

    #[inline]
    fn done(&self) -> bool {
        self.remaining == 0
    }
}

/// Stop once `target` distinct vertices have been visited (`C^k_γ`).
#[derive(Debug, Clone)]
pub struct PartialCover {
    visited: NodeBitSet,
    seen: usize,
    target: usize,
}

impl PartialCover {
    /// Tracker stopping at `target` distinct vertices out of `n`.
    ///
    /// # Panics
    /// If `target > n`.
    pub fn new(n: usize, target: usize) -> Self {
        assert!(target <= n, "target {target} exceeds n = {n}");
        PartialCover {
            visited: NodeBitSet::new(n),
            seen: 0,
            target,
        }
    }

    /// Distinct vertices visited so far.
    pub fn seen(&self) -> usize {
        self.seen
    }
}

impl Observer for PartialCover {
    #[inline]
    fn visit(&mut self, _token: usize, v: u32) {
        if self.visited.insert(v) {
            self.seen += 1;
        }
    }

    #[inline]
    fn visit_round(&mut self, positions: &[u32]) {
        self.seen += self.visited.insert_all(positions);
    }

    #[inline]
    fn done(&self) -> bool {
        self.seen >= self.target
    }
}

/// Stop when every vertex has been visited at least `b` times
/// (the blanket-time generalization; `b = 1` is cover time).
#[derive(Debug, Clone)]
pub struct Multicover {
    counts: Vec<u64>,
    lacking: NodeBitSet,
    remaining: usize,
    b: u64,
}

impl Multicover {
    /// Tracker requiring `b ≥ 1` visits at each of `n` vertices.
    pub fn new(n: usize, b: u64) -> Self {
        assert!(b >= 1, "need b ≥ 1 visits");
        let mut lacking = NodeBitSet::new(n);
        for v in 0..n as u32 {
            lacking.insert(v);
        }
        Multicover {
            counts: vec![0; n],
            lacking,
            remaining: n,
            b,
        }
    }

    /// Per-vertex visit counts so far.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

impl Observer for Multicover {
    #[inline]
    fn visit(&mut self, _token: usize, v: u32) {
        let c = &mut self.counts[v as usize];
        *c += 1;
        if *c == self.b && self.lacking.remove(v) {
            self.remaining -= 1;
        }
    }

    #[inline]
    fn done(&self) -> bool {
        self.remaining == 0
    }
}

/// Stop when any token reaches `target` (hitting time).
#[derive(Debug, Clone)]
pub struct Hit {
    target: u32,
    hit: bool,
}

impl Hit {
    /// Tracker firing on arrival at `target`.
    pub fn new(target: u32) -> Self {
        Hit { target, hit: false }
    }
}

impl Observer for Hit {
    #[inline]
    fn visit(&mut self, _token: usize, v: u32) {
        if v == self.target {
            self.hit = true;
        }
    }

    #[inline]
    fn done(&self) -> bool {
        self.hit
    }
}

/// Stop when all tokens occupy one vertex at a round boundary (meeting
/// time; the classical definition for two walkers, generalized to k).
/// Stateless beyond the verdict: it reads the engine's own position
/// vector at the `placed`/`end_round` hooks.
///
/// Beware the parity trap: on a bipartite graph, two simple walks at odd
/// distance can *never* meet (both flip sides every round) — the
/// classical reason pursuit analyses use lazy walks. Run the tokens as a
/// [`CompiledProcess`] of [`WalkProcess::Lazy`] to break parity, as
/// [`Query::Meeting`](crate::query::Query::Meeting)'s `laziness` does.
#[derive(Debug, Clone, Default)]
pub struct Meeting {
    met: bool,
}

impl Meeting {
    /// A fresh meeting tracker.
    pub fn new() -> Self {
        Meeting::default()
    }
}

fn all_equal(positions: &[u32]) -> bool {
    positions.windows(2).all(|w| w[0] == w[1])
}

impl Observer for Meeting {
    #[inline]
    fn visit(&mut self, _token: usize, _v: u32) {}

    fn done(&self) -> bool {
        self.met
    }

    fn placed<G: GraphBackend>(&mut self, _g: &G, positions: &[u32]) {
        self.met = all_equal(positions);
    }

    fn end_round<G: GraphBackend, R: Rng + ?Sized>(
        &mut self,
        _g: &G,
        positions: &[u32],
        _rng: &mut R,
    ) -> bool {
        self.met = all_equal(positions);
        self.met
    }
}

/// What the pursuit prey does each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreyStrategy {
    /// The prey stays put (a hider); catching it is a k-walk hitting
    /// problem. (CLI name: `stationary`.)
    Hide,
    /// The prey performs its own simple random walk. (CLI name:
    /// `uniform`.)
    RandomWalk,
    /// A greedy evader: the prey steps to a uniformly chosen neighbor
    /// *not currently occupied by a hunter*, and stays put when cornered
    /// (every neighbor occupied). Locally adversarial — it never blunders
    /// into a hunter — but memoryless and distance-blind, so it remains
    /// catchable. (CLI name: `adversarial`.)
    Adversarial,
}

/// The hunters-vs-prey game of the paper's §1: "the prey begins at one
/// node, the hunters begin at other nodes, and in every step each player
/// can traverse an edge." Tokens are hunters; the prey is an adversarial
/// component moving in [`end_round`](Observer::end_round), *after* the
/// hunters, from the same RNG stream. A catch fires when a hunter steps
/// onto the prey, or when a moving prey blunders onto a hunter (the
/// [adversarial](PreyStrategy::Adversarial) prey never does). Starting a
/// hunter on the prey is a catch in 0 rounds.
///
/// Against a hiding prey, `k` hunters from one vertex catch in roughly
/// `h(u, v)/k` time on fast-mixing graphs by the same union-bound logic
/// as Baby Matthews; the hunting experiment
/// ([`experiments::hunting`](crate::experiments::hunting)) measures that
/// speed-up next to the cover-time speed-up the paper proves.
///
/// ```
/// use mrw_core::engine::{Engine, Pursuit, SimpleStep};
/// use mrw_core::{walk_rng, PreyStrategy};
/// use mrw_graph::generators;
///
/// let g = generators::complete(16);
/// let out = Engine::new(&g, SimpleStep, Pursuit::new(9, PreyStrategy::Hide))
///     .cap(10_000)
///     .run(&[0, 0, 0], &mut walk_rng(4));
/// assert!(out.stopped);
/// ```
#[derive(Debug, Clone)]
pub struct Pursuit {
    prey: u32,
    strategy: PreyStrategy,
    caught: bool,
}

impl Pursuit {
    /// A game against a prey starting at `prey`.
    pub fn new(prey: u32, strategy: PreyStrategy) -> Self {
        Pursuit {
            prey,
            strategy,
            caught: false,
        }
    }

    /// The prey's current vertex.
    pub fn prey_position(&self) -> u32 {
        self.prey
    }
}

impl Observer for Pursuit {
    #[inline]
    fn visit(&mut self, _token: usize, v: u32) {
        if v == self.prey {
            self.caught = true;
        }
    }

    fn done(&self) -> bool {
        self.caught
    }

    fn end_round<G: GraphBackend, R: Rng + ?Sized>(
        &mut self,
        g: &G,
        positions: &[u32],
        rng: &mut R,
    ) -> bool {
        if self.caught {
            return true;
        }
        match self.strategy {
            PreyStrategy::Hide => {}
            PreyStrategy::RandomWalk => {
                self.prey = step(g, self.prey, rng);
                if positions.contains(&self.prey) {
                    self.caught = true;
                }
            }
            PreyStrategy::Adversarial => {
                // Count hunter-free neighbors, then pick the j-th one —
                // two passes so the move needs no allocation. Indexed
                // neighbor access (not a row slice) keeps this backend-
                // generic; the RNG draw order is unchanged: exactly one
                // `gen_range` when at least one neighbor is free.
                let deg = g.degree(self.prey);
                let free = (0..deg)
                    .filter(|&i| !positions.contains(&g.neighbor(self.prey, i)))
                    .count();
                if free > 0 {
                    let pick = rng.gen_range(0..free);
                    self.prey = (0..deg)
                        .map(|i| g.neighbor(self.prey, i))
                        .filter(|v| !positions.contains(v))
                        .nth(pick)
                        .expect("pick < free");
                }
                // Cornered (free == 0): stay put. The prey's own vertex
                // was already checked by `visit`, so no new catch here.
            }
        }
        self.caught
    }
}

/// Fixed-horizon per-vertex visit tally (never stops; pair with
/// [`Engine::cap`]).
#[derive(Debug, Clone)]
pub struct VisitTally {
    counts: Vec<u64>,
}

impl VisitTally {
    /// A zeroed tally over `n` vertices.
    pub fn new(n: usize) -> Self {
        VisitTally { counts: vec![0; n] }
    }

    /// Consumes the tally, returning per-vertex counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }
}

impl Observer for VisitTally {
    #[inline]
    fn visit(&mut self, _token: usize, v: u32) {
        self.counts[v as usize] += 1;
    }

    #[inline]
    fn done(&self) -> bool {
        false
    }
}

/// Fixed-horizon coverage curve: fraction of vertices visited after each
/// round, index 0 = after placing the starts (never stops; pair with
/// [`Engine::cap`]).
#[derive(Debug, Clone)]
pub struct CoverageCurve {
    visited: NodeBitSet,
    covered: usize,
    n: usize,
    curve: Vec<f64>,
}

impl CoverageCurve {
    /// A fresh curve over `n` vertices, pre-allocated for `rounds` points.
    pub fn new(n: usize, rounds: usize) -> Self {
        CoverageCurve {
            visited: NodeBitSet::new(n),
            covered: 0,
            n,
            curve: Vec::with_capacity(rounds + 1),
        }
    }

    /// Consumes the observer, returning the curve.
    pub fn into_curve(self) -> Vec<f64> {
        self.curve
    }
}

impl Observer for CoverageCurve {
    #[inline]
    fn visit(&mut self, _token: usize, v: u32) {
        if self.visited.insert(v) {
            self.covered += 1;
        }
    }

    fn done(&self) -> bool {
        false
    }

    fn placed<G: GraphBackend>(&mut self, _g: &G, _positions: &[u32]) {
        self.curve.push(self.covered as f64 / self.n as f64);
    }

    fn end_round<G: GraphBackend, R: Rng + ?Sized>(
        &mut self,
        _g: &G,
        _positions: &[u32],
        _rng: &mut R,
    ) -> bool {
        self.curve.push(self.covered as f64 / self.n as f64);
        false
    }
}

/// Records every position of a single token, start included (never stops;
/// pair with [`Engine::cap`]).
#[derive(Debug, Clone)]
pub struct Trace {
    positions: Vec<u32>,
}

impl Trace {
    /// A trace buffer pre-allocated for `len` steps.
    pub fn new(len: usize) -> Self {
        Trace {
            positions: Vec::with_capacity(len + 1),
        }
    }

    /// Consumes the trace, returning the visited positions in order.
    pub fn into_positions(self) -> Vec<u32> {
        self.positions
    }
}

impl Observer for Trace {
    #[inline]
    fn visit(&mut self, _token: usize, v: u32) {
        self.positions.push(v);
    }

    fn done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk_rng;
    use mrw_graph::generators;
    use mrw_stats::ks_two_sample;

    #[test]
    fn full_cover_counts_rounds() {
        let g = generators::cycle(16);
        let out = Engine::new(&g, SimpleStep, FullCover::new(g.n())).run(&[0], &mut walk_rng(3));
        assert!(out.stopped);
        assert!(
            out.rounds >= 15,
            "cannot cover a 16-cycle in {}",
            out.rounds
        );
        assert_eq!(out.observer.remaining(), 0);
    }

    #[test]
    fn placement_can_satisfy_stopping_rule() {
        let g = generators::cycle(4);
        let starts: Vec<u32> = (0..4).collect();
        let out = Engine::new(&g, SimpleStep, FullCover::new(g.n())).run(&starts, &mut walk_rng(0));
        assert!(out.stopped);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn cap_reports_unstopped() {
        let g = generators::cycle(64);
        let out = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
            .cap(3)
            .run(&[0], &mut walk_rng(1));
        assert!(!out.stopped);
        assert_eq!(out.rounds, 3);
    }

    #[test]
    fn cap_zero_takes_no_steps() {
        let g = generators::cycle(8);
        let out = Engine::new(&g, SimpleStep, Trace::new(0))
            .cap(0)
            .run(&[5], &mut walk_rng(9));
        assert!(!out.stopped);
        assert_eq!(out.observer.into_positions(), vec![5]);
    }

    #[test]
    fn round_synchronous_finishes_the_round() {
        // RNG consumption must not depend on when coverage completes
        // inside a round: two PartialCover targets on the same seed see
        // the same trajectory.
        let g = generators::torus_2d(5);
        let starts = [0u32, 12, 24];
        let full = Engine::new(&g, SimpleStep, PartialCover::new(g.n(), g.n()))
            .run(&starts, &mut walk_rng(11));
        let half = Engine::new(&g, SimpleStep, PartialCover::new(g.n(), g.n() / 2))
            .run(&starts, &mut walk_rng(11));
        assert!(half.rounds <= full.rounds, "nested stopping times violated");
    }

    #[test]
    fn interleaved_counts_ceil_of_steps() {
        // On path(2) from vertex 0, any single step covers: k = 4 tokens
        // interleaved must stop after 1 step = ⌈1/4⌉ = 1 round.
        let g = generators::path(2);
        let out = Engine::new(&g, SimpleStep, FullCover::new(2))
            .discipline(Discipline::Interleaved)
            .run(&[0, 0, 0, 0], &mut walk_rng(5));
        assert!(out.stopped);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn unit_observer_is_pure_horizon() {
        let g = generators::cycle(10);
        let out = Engine::new(&g, SimpleStep, ())
            .cap(7)
            .run(&[0, 5], &mut walk_rng(2));
        assert!(!out.stopped);
        assert_eq!(out.rounds, 7);
        assert_eq!(out.positions.len(), 2);
    }

    #[test]
    fn compiled_simple_matches_simple_step_stream() {
        let g = generators::hypercube(4);
        let a = Engine::new(&g, SimpleStep, FullCover::new(g.n())).run(&[0, 0], &mut walk_rng(13));
        let b = Engine::new(
            &g,
            CompiledProcess::new(WalkProcess::Simple, &g),
            FullCover::new(g.n()),
        )
        .run(&[0, 0], &mut walk_rng(13));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn cached_lazy_law_matches_uncached_reference() {
        // The cached Bernoulli changes the RNG stream, not the law: KS on
        // cover times of the cached kernel vs the uncached WalkProcess.
        let g = generators::cycle(16);
        let trials = 300;
        let cached: Vec<f64> = (0..trials)
            .map(|t| {
                Engine::new(
                    &g,
                    CompiledProcess::new(WalkProcess::Lazy(0.5), &g),
                    FullCover::new(g.n()),
                )
                .run(&[0], &mut walk_rng(1000 + t))
                .rounds as f64
            })
            .collect();
        let reference: Vec<f64> = (0..trials)
            .map(|t| {
                Engine::new(&g, WalkProcess::Lazy(0.5), FullCover::new(g.n()))
                    .run(&[0], &mut walk_rng(90_000 + t))
                    .rounds as f64
            })
            .collect();
        let ks = ks_two_sample(&cached, &reference);
        assert!(
            !ks.rejects_at(0.01),
            "cached lazy law diverged: D = {}, p = {}",
            ks.statistic,
            ks.p_value
        );
    }

    #[test]
    fn cached_metropolis_matches_uncached_in_law() {
        let g = generators::lollipop(14);
        let trials = 300;
        let cached: Vec<f64> = (0..trials)
            .map(|t| {
                Engine::new(
                    &g,
                    CompiledProcess::new(WalkProcess::Metropolis, &g),
                    FullCover::new(g.n()),
                )
                .run(&[0], &mut walk_rng(t))
                .rounds as f64
            })
            .collect();
        let reference: Vec<f64> = (0..trials)
            .map(|t| {
                Engine::new(&g, WalkProcess::Metropolis, FullCover::new(g.n()))
                    .run(&[0], &mut walk_rng(40_000 + t))
                    .rounds as f64
            })
            .collect();
        let ks = ks_two_sample(&cached, &reference);
        assert!(
            !ks.rejects_at(0.01),
            "cached metropolis law diverged: D = {}, p = {}",
            ks.statistic,
            ks.p_value
        );
    }

    #[test]
    fn lazy_one_is_valid_under_a_cap() {
        // p = 1 never moves — ill-defined for cover, but well-defined for
        // fixed-horizon runs and capped meetings (legacy behavior).
        let g = generators::cycle(8);
        let vc = crate::visits::kwalk_visit_counts(
            &g,
            &[3],
            10,
            WalkProcess::Lazy(1.0),
            &mut walk_rng(0),
        );
        assert_eq!(vc.counts()[3], 11, "token must hold at its start");
        let frozen = CompiledProcess::new(WalkProcess::Lazy(1.0), &g);
        let met = Engine::new(&g, frozen, Meeting::new())
            .cap(50)
            .run(&[0, 4], &mut walk_rng(0));
        assert!(!met.stopped, "frozen walkers at distinct starts never meet");
    }

    #[test]
    fn pursuit_prey_draws_after_hunters() {
        let g = generators::torus_2d(6);
        let a = Engine::new(&g, SimpleStep, Pursuit::new(20, PreyStrategy::RandomWalk))
            .cap(100_000)
            .run(&[0, 0], &mut walk_rng(9));
        let b = Engine::new(&g, SimpleStep, Pursuit::new(20, PreyStrategy::RandomWalk))
            .cap(100_000)
            .run(&[0, 0], &mut walk_rng(9));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.stopped, b.stopped);
    }

    #[test]
    fn meeting_detects_coincident_starts() {
        let g = generators::cycle(8);
        let out = Engine::new(&g, SimpleStep, Meeting::new()).run(&[3, 3], &mut walk_rng(0));
        assert!(out.stopped);
        assert_eq!(out.rounds, 0);
    }

    // -- batched path ------------------------------------------------------

    /// Cover-time samples from the batched sweep vs the scalar loop.
    fn cover_samples(
        g: &mrw_graph::Graph,
        process: WalkProcess,
        k: usize,
        batch: BatchMode,
        seed0: u64,
        trials: u64,
    ) -> Vec<f64> {
        let starts = vec![0u32; k];
        (0..trials)
            .map(|t| {
                Engine::new(g, CompiledProcess::new(process, g), FullCover::new(g.n()))
                    .batch(batch)
                    .run(&starts, &mut walk_rng(seed0 + t))
                    .rounds as f64
            })
            .collect()
    }

    fn assert_batched_law_matches_scalar(g: &mrw_graph::Graph, process: WalkProcess, k: usize) {
        let trials = 300;
        let batched = cover_samples(g, process, k, BatchMode::Always, 1_000, trials);
        let scalar = cover_samples(g, process, k, BatchMode::Never, 500_000, trials);
        let ks = ks_two_sample(&batched, &scalar);
        assert!(
            !ks.rejects_at(0.01),
            "{} batched law diverged on {}: D = {}, p = {}",
            process.label(),
            g.name(),
            ks.statistic,
            ks.p_value
        );
    }

    #[test]
    fn batched_simple_matches_scalar_in_law() {
        assert_batched_law_matches_scalar(&generators::torus_2d(6), WalkProcess::Simple, 4);
    }

    #[test]
    fn batched_simple_matches_scalar_in_law_irregular() {
        // Odd degrees (barbell: 1, 2, and bell-interior) exercise the
        // Lemire pick against the scalar path's rejection/mask sampling.
        assert_batched_law_matches_scalar(&generators::barbell(13), WalkProcess::Simple, 3);
    }

    #[test]
    fn batched_lazy_matches_scalar_in_law() {
        assert_batched_law_matches_scalar(&generators::cycle(16), WalkProcess::Lazy(0.5), 2);
    }

    #[test]
    fn batched_metropolis_matches_scalar_in_law() {
        assert_batched_law_matches_scalar(&generators::lollipop(14), WalkProcess::Metropolis, 2);
    }

    #[test]
    fn auto_batches_exactly_at_threshold() {
        let g = generators::torus_2d(5);
        let run = |k: usize, batch: BatchMode, seed: u64| {
            let starts = vec![0u32; k];
            Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .batch(batch)
                .run(&starts, &mut walk_rng(seed))
        };
        // At k = BATCH_AUTO_MIN_K, Auto consumes the Always stream...
        let k = BATCH_AUTO_MIN_K;
        let auto = run(k, BatchMode::Auto, 3);
        let always = run(k, BatchMode::Always, 3);
        assert_eq!(auto.rounds, always.rounds);
        assert_eq!(auto.positions, always.positions);
        // ...and one token below it, the Never stream.
        let auto = run(k - 1, BatchMode::Auto, 3);
        let never = run(k - 1, BatchMode::Never, 3);
        assert_eq!(auto.rounds, never.rounds);
        assert_eq!(auto.positions, never.positions);
    }

    #[test]
    fn batched_deterministic_per_seed() {
        let g = generators::hypercube(5);
        let starts = vec![0u32; 7];
        let run = || {
            Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .batch(BatchMode::Always)
                .run(&starts, &mut walk_rng(11))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn interleaved_discipline_never_batches() {
        // BatchMode::Always must yield to the discipline: per-step
        // stopping checks are incompatible with a whole-round sweep.
        let g = generators::torus_2d(5);
        let starts = vec![0u32; 6];
        let run = |batch: BatchMode| {
            Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .discipline(Discipline::Interleaved)
                .batch(batch)
                .run(&starts, &mut walk_rng(21))
        };
        let forced = run(BatchMode::Always);
        let never = run(BatchMode::Never);
        assert_eq!(forced.rounds, never.rounds);
        assert_eq!(forced.positions, never.positions);
    }

    #[test]
    fn scalar_only_process_never_batches() {
        // The uncached WalkProcess reference has no batched kernel; even
        // BatchMode::Always must keep it on the scalar loop (same stream).
        let g = generators::cycle(12);
        let starts = vec![0u32; 4];
        let forced = Engine::new(&g, WalkProcess::Lazy(0.3), FullCover::new(g.n()))
            .batch(BatchMode::Always)
            .run(&starts, &mut walk_rng(5));
        let never = Engine::new(&g, WalkProcess::Lazy(0.3), FullCover::new(g.n()))
            .batch(BatchMode::Never)
            .run(&starts, &mut walk_rng(5));
        assert_eq!(forced.rounds, never.rounds);
        assert_eq!(forced.positions, never.positions);
    }

    #[test]
    fn batched_pursuit_prey_stream_stable() {
        // The prey draws from the same RNG after the hunters each round;
        // the batched path must keep that interleaving deterministic.
        let g = generators::torus_2d(6);
        let run = || {
            Engine::new(&g, SimpleStep, Pursuit::new(20, PreyStrategy::RandomWalk))
                .batch(BatchMode::Always)
                .cap(100_000)
                .run(&[0; 8], &mut walk_rng(9))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.stopped, b.stopped);
        assert!(a.stopped, "8 hunters on a 36-torus must catch the prey");
    }

    #[test]
    fn run_with_matches_run_on_both_paths() {
        let g = generators::torus_2d(5);
        let starts = vec![0u32; 5];
        for batch in [BatchMode::Never, BatchMode::Always] {
            let owned = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .batch(batch)
                .run(&starts, &mut walk_rng(17));
            let mut arena = EngineArena::new();
            let lent = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .batch(batch)
                .run_with(&starts, &mut walk_rng(17), &mut arena);
            assert_eq!(owned.rounds, lent.rounds, "{batch:?}");
            assert_eq!(owned.stopped, lent.stopped, "{batch:?}");
            assert_eq!(owned.positions, arena.positions(), "{batch:?}");
        }
    }

    #[test]
    fn full_cover_reset_equals_fresh() {
        let mut reused = FullCover::new(9);
        for v in [0u32, 3, 8] {
            reused.visit(0, v);
        }
        reused.reset(9);
        let fresh = FullCover::new(9);
        assert_eq!(reused.remaining(), fresh.remaining());
        assert_eq!(reused.visited(), fresh.visited());
        // Resizing reset also works.
        reused.reset(4);
        assert_eq!(reused.remaining(), 4);
        assert_eq!(reused.visited().len(), 4);
    }

    #[test]
    fn batched_regular_and_irregular_rows_agree_with_neighbors() {
        // The direct-row fast path (regular graphs) and the general
        // accessor must produce legal moves everywhere: every batched
        // step lands on a neighbor of the previous position.
        for g in [generators::torus_2d(4), generators::barbell(11)] {
            let starts = vec![0u32; 5];
            let mut arena = EngineArena::new();
            let mut prev = starts.clone();
            for round in 0..50u64 {
                let _ = Engine::new(&g, SimpleStep, ())
                    .batch(BatchMode::Always)
                    .cap(round)
                    .run_with(&starts, &mut walk_rng(3), &mut arena);
                for (a, b) in prev.iter().zip(arena.positions()) {
                    if round > 0 {
                        assert!(
                            g.has_edge(*a, *b),
                            "{}: illegal batched move {a} -> {b}",
                            g.name()
                        );
                    }
                }
                prev = arena.positions().to_vec();
            }
        }
    }

    /// Frozen copy of the in-order irregular batched loop: one
    /// sequential pass in token order, rows via `neighbors`, kernel via
    /// `step_bits`. Every CSR driver must reproduce its positions
    /// byte-for-byte (same draw words per token).
    fn rowwise_reference<P: Process>(
        g: &mrw_graph::Graph,
        mut process: P,
        starts: &[u32],
        seed: u64,
        rounds: u64,
    ) -> Vec<u32> {
        use rand::rngs::SplitMix64;
        use rand::{RngCore, SeedableRng};
        let bpt = process.bits_per_step().expect("batched kernel");
        let mut rng = walk_rng(seed);
        let mut pos = starts.to_vec();
        for _ in 0..rounds {
            let mut block = SplitMix64::seed_from_u64(rng.next_u64());
            for p in pos.iter_mut() {
                let b0 = block.next_u64();
                let b1 = if bpt == 2 { block.next_u64() } else { 0 };
                *p = process.step_bits(g.neighbors(*p), *p, b0, b1);
            }
        }
        pos
    }

    #[test]
    fn flat_sweep_matches_rowwise_stream() {
        // Plain uniform kernels on irregular graphs route through the
        // flat pick-table sweep; its branch-free mask-or-Lemire pick and
        // Weyl-walk draw addressing must leave the stream untouched.
        // barbell: 3 degree classes; star: max-degree hub; lollipop:
        // clique + path mix.
        for g in [
            generators::barbell(13),
            generators::star(20),
            generators::lollipop(17),
        ] {
            let starts: Vec<u32> = (0..9).map(|t| t % g.n() as u32).collect();
            for (label, rounds) in [("short", 3u64), ("long", 500u64)] {
                let mut arena = EngineArena::new();
                let _ = Engine::new(&g, SimpleStep, ())
                    .batch(BatchMode::Always)
                    .cap(rounds)
                    .run_with(&starts, &mut walk_rng(42), &mut arena);
                let expect = rowwise_reference(&g, SimpleStep, &starts, 42, rounds);
                assert_eq!(arena.positions(), expect, "{} {label}", g.name());
            }
        }
    }

    #[test]
    fn rowwise_sweep_matches_reference_stream() {
        // bpt = 2 kernels (lazy, metropolis) on CSR graphs, regular and
        // irregular, take the rows driver; the draw-pair assignment per
        // token must match the in-order reference.
        for g in [generators::barbell(13), generators::torus_2d(6)] {
            let starts: Vec<u32> = (0..9).map(|t| t % g.n() as u32).collect();
            for process in [WalkProcess::Lazy(0.3), WalkProcess::Metropolis] {
                let compiled = CompiledProcess::new(process, &g);
                let mut arena = EngineArena::new();
                let _ = Engine::new(&g, compiled.clone(), ())
                    .batch(BatchMode::Always)
                    .cap(400)
                    .run_with(&starts, &mut walk_rng(7), &mut arena);
                let expect = rowwise_reference(&g, compiled, &starts, 7, 400);
                assert_eq!(
                    arena.positions(),
                    expect,
                    "{} {}",
                    g.name(),
                    process.label()
                );
            }
        }
        // Plain kernels reach the rows driver on CSR only when the
        // adjacency array is too large for the flat table, so drive it
        // directly.
        let g = generators::barbell(13);
        let starts: Vec<u32> = (0..9).map(|t| t % g.n() as u32).collect();
        let mut engine = Engine::new(&g, SimpleStep, ()).cap(500);
        let mut arena = EngineArena::new();
        arena.pos.extend_from_slice(&starts);
        let swept = engine.drive_batched_rows(&mut walk_rng(42), &mut arena, 1);
        assert_eq!(swept, (500, false));
        let expect = rowwise_reference(&g, SimpleStep, &starts, 42, 500);
        assert_eq!(arena.positions(), expect, "plain kernel");
    }

    #[test]
    fn implicit_backend_matches_csr_stream() {
        // Same seed, same starts: the implicit backend must reproduce the
        // CSR backend's positions byte-for-byte on both engine paths.
        use mrw_graph::ImplicitGraph;
        let pairs: Vec<(mrw_graph::Graph, ImplicitGraph)> = vec![
            (generators::cycle(33), ImplicitGraph::cycle(33)),
            (generators::torus_2d(6), ImplicitGraph::torus_2d(6)),
            (generators::hypercube(5), ImplicitGraph::hypercube(5)),
            (
                generators::circulant(40, &[1, 7]),
                ImplicitGraph::circulant(40, &[1, 7]),
            ),
        ];
        for (csr, implicit) in &pairs {
            let starts = vec![0u32; 6];
            for batch in [BatchMode::Never, BatchMode::Always] {
                let a = Engine::new(csr, SimpleStep, FullCover::new(csr.n()))
                    .batch(batch)
                    .run(&starts, &mut walk_rng(19));
                let b = Engine::new(implicit, SimpleStep, FullCover::new(csr.n()))
                    .batch(batch)
                    .run(&starts, &mut walk_rng(19));
                assert_eq!(a.rounds, b.rounds, "{} {batch:?}", csr.name());
                assert_eq!(a.positions, b.positions, "{} {batch:?}", csr.name());
            }
        }
    }

    #[test]
    fn implicit_backend_interleaved_and_processes_match_csr() {
        use mrw_graph::ImplicitGraph;
        let csr = generators::torus_2d(5);
        let implicit = ImplicitGraph::torus_2d(5);
        let starts = vec![0u32, 7, 13];
        // Interleaved discipline (scalar only).
        let a = Engine::new(&csr, SimpleStep, FullCover::new(csr.n()))
            .discipline(Discipline::Interleaved)
            .run(&starts, &mut walk_rng(3));
        let b = Engine::new(&implicit, SimpleStep, FullCover::new(csr.n()))
            .discipline(Discipline::Interleaved)
            .run(&starts, &mut walk_rng(3));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.positions, b.positions);
        // Compiled non-simple kernels on the batched implicit path.
        for process in [WalkProcess::Lazy(0.25), WalkProcess::Metropolis] {
            let a = Engine::new(&csr, CompiledProcess::new(process, &csr), ())
                .batch(BatchMode::Always)
                .cap(300)
                .run(&starts, &mut walk_rng(23));
            let b = Engine::new(&implicit, CompiledProcess::new(process, &implicit), ())
                .batch(BatchMode::Always)
                .cap(300)
                .run(&starts, &mut walk_rng(23));
            assert_eq!(a.positions, b.positions, "{}", process.label());
        }
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn empty_starts_rejected() {
        let g = generators::cycle(5);
        let _ = Engine::new(&g, SimpleStep, FullCover::new(5)).run(&[], &mut walk_rng(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_start_rejected() {
        let g = generators::cycle(5);
        let _ = Engine::new(&g, SimpleStep, FullCover::new(5)).run(&[5], &mut walk_rng(0));
    }
}
