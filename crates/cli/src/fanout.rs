//! `mrw fanout` / `mrw resume` — the in-tree multi-process scale-out
//! driver.
//!
//! PR 4 made any shard partition of a trial budget merge byte-identically
//! into the single-process run; PR 5 ran the shards in-tree. This module
//! is the fault-tolerant generation of that driver: it cuts the trial
//! space into small chunks pulled by idle workers through the
//! work-stealing, deadline-aware scheduler in [`crate::dispatch`], and
//! emits one merged report **byte-identical to `mrw run`** — no matter
//! which worker ran which chunk, in what order, or how many times a
//! chunk had to be retried.
//!
//! ## One drive path
//!
//! Fixed and adaptive budgets both run through `mrw-core`'s wave driver
//! ([`waves::drive`]) with the pool as its executor ([`PoolExecutor`]); a
//! fixed budget is the one-window case `[0, N)`. The driver owns the
//! windows, the rule check, and group retirement; the pool cuts each
//! window into chunks — `--shards` pieces for a fixed budget (default
//! `4 × workers`, so the pool can steal around stragglers), one per
//! worker for an adaptive window, or `--chunk`-sized — and dispatches
//! them with `mrw shard --range --groups` restricted to the groups still
//! active. The next window is queued before the current one is awaited,
//! under the current active set: a superset of the groups that will need
//! it. Each finished window is recorded in a [`Ledger`] as a prefix
//! window of exactly the groups the driver asked about, so the optimistic
//! extra trials never reach the report and the output (per-group consumed
//! counts included) is byte-identical to `mrw run`.
//!
//! ## Failure handling, checkpoints, and resume
//!
//! Worker death, hangs (deadline-SIGKILLed), and corrupt output are all
//! retryable faults with exponential backoff (see `dispatch.rs`). When a
//! chunk exhausts its retry budget the driver does not discard the
//! completed work: it writes its ledger as a canonical
//! [`mrw-ledger-v1`](mrw_core::query::ledger) checkpoint — the finished
//! windows, a `frontier` report per unfinished window with its completed
//! chunks, and the failure log, fingerprinted over the whole payload — and
//! either aborts with the still-missing ranges and the exact `mrw resume`
//! command that would continue (default), or — with `--partial-ok` —
//! prints the merged partial report and exits cleanly. `mrw resume
//! checkpoint.json` loads it with [`Ledger::from_json`] (the loader `mrw
//! serve --persist` uses), drives the same windows again, answers the
//! window ends the ledger holds without dispatching, slots each frontier
//! report into its window and dispatches only the still-missing
//! sub-ranges, and completes byte-identically to an unfailed `mrw run`.
//! `mrw serve --delegate-trials` runs its big ranges as one window of the
//! same pool ([`run_on_pool`]).

use std::ops::Range;
use std::process::Command;
use std::time::Duration;

use mrw_core::query::json::{self, Value};
use mrw_core::query::{spec_hash, split_range, waves, Coverage, GraphInfo, Ledger};
use mrw_core::{AnyGraph, Group, QuerySpec, Report};

use crate::args::Options;
use crate::dispatch::{merge_all, Chunk, DispatchConfig, Dispatcher, Scratch};

/// Default per-chunk retry budget for failed, hung, or corrupt workers.
pub const DEFAULT_RETRIES: usize = 2;

/// Default deadline floor (`--deadline-ms`): no in-flight chunk is killed
/// as hung before running at least this long, however fast its peers are.
pub const DEFAULT_DEADLINE_MS: u64 = 1000;

/// What the worker-side fault hook tells `mrw shard` to do after the
/// side effects (killing, hanging, sleeping) have been applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No output-corrupting fault: emit the report normally.
    Clean,
    /// `MRW_FAULT_CORRUPT_RANGE_START` matched: the worker must emit
    /// truncated JSON so the driver's output validation path is
    /// exercised.
    CorruptOutput,
}

/// Consumes the `MRW_FAULT_ONCE` latch if one is configured: returns
/// whether the fault should fire. The latch file is created atomically
/// (`create_new`), so exactly one worker across every attempt fires the
/// fault and the fanout retry recovers; without the latch every attempt
/// faults, which is how the retry-exhaustion paths are tested.
fn fault_latch_open() -> bool {
    match std::env::var("MRW_FAULT_ONCE") {
        Err(_) => true,
        Ok(latch) => std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&latch)
            .is_ok(),
    }
}

/// Whether a range-targeted fault variable names this worker's range.
fn fault_targets(var: &str, range: &Range<usize>) -> bool {
    std::env::var(var).is_ok_and(|v| v == range.start.to_string())
}

/// Test/CI fault injection for the worker side, called by `mrw shard`
/// before it starts its trials. Each hook models one real failure class
/// the dispatcher must survive:
///
/// * `MRW_FAULT_KILL_RANGE_START=<start>` — the worker SIGKILLs itself,
///   the same abrupt death as an OOM kill or preemption (no exit code,
///   no output).
/// * `MRW_FAULT_HANG_RANGE_START=<start>` — the worker sleeps forever,
///   like a wedged NFS mount or a livelocked host; only the driver's
///   deadline policy can clear it.
/// * `MRW_FAULT_CORRUPT_RANGE_START=<start>` — the worker emits
///   truncated JSON (a torn write / full disk), which output validation
///   must turn into a retryable fault.
/// * `MRW_FAULT_SLOW_MS=<ms>` — the worker stalls that long before its
///   trials (a straggler); untargeted, so with `MRW_FAULT_ONCE` exactly
///   one chunk straggles while the pool steals the rest.
///
/// All four honor the `MRW_FAULT_ONCE=<latch-path>` latch (see
/// [`fault_latch_open`]).
pub fn fault_hook(range: &Range<usize>) -> FaultAction {
    if let Ok(ms) = std::env::var("MRW_FAULT_SLOW_MS") {
        if let Ok(ms) = ms.parse::<u64>() {
            if fault_latch_open() {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }
    if fault_targets("MRW_FAULT_KILL_RANGE_START", range) && fault_latch_open() {
        let _ = Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        // `kill` missing from the box: still die abruptly, without
        // unwinding.
        std::process::abort();
    }
    if fault_targets("MRW_FAULT_HANG_RANGE_START", range) && fault_latch_open() {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    if fault_targets("MRW_FAULT_CORRUPT_RANGE_START", range) && fault_latch_open() {
        return FaultAction::CorruptOutput;
    }
    FaultAction::Clean
}

/// A run stopped by retry exhaustion: what stopped it, its checkpoint
/// (the finished windows plus the frontier of the unfinished ones), and
/// the dispatched-but-incomplete trial ranges.
struct Interrupted {
    error: String,
    checkpoint: Ledger,
    missing: Vec<(u64, u64)>,
}

/// What a drive produced, plus the scheduler's bookkeeping for the
/// summary line and the checkpoint's failure log.
struct DriveResult {
    outcome: Result<Report, Interrupted>,
    failures: Vec<String>,
    retries_used: usize,
}

/// Cuts a contiguous gap into chunks of at most `chunk_len` trials.
fn split_chunks(gap: Range<usize>, chunk_len: usize) -> Vec<Range<usize>> {
    split_range(gap.clone(), gap.len().div_ceil(chunk_len.max(1)))
}

/// The still-missing chunk ranges of one wave window, given whatever a
/// checkpoint's frontier already covers of it.
fn window_gaps(window: &Range<usize>, saved: Option<&Report>) -> Vec<Range<usize>> {
    match saved {
        None => vec![window.clone()],
        Some(r) => r
            .coverage
            .missing_within(window.start as u64, window.end as u64)
            .into_iter()
            .map(|(lo, hi)| lo as usize..hi as usize)
            .collect(),
    }
}

/// How a drive cuts its windows into chunks.
struct ChunkPlan {
    /// `--chunk`: one explicit chunk length for every window.
    chunk: Option<usize>,
    /// Balanced pieces a window with no checkpointed progress splits into.
    fresh: usize,
    /// Pieces whose length sizes the chunks of a partly checkpointed
    /// window.
    parts: usize,
}

impl ChunkPlan {
    /// Fixed budgets split into `--shards` pieces (default four per
    /// worker, so idle workers have something to steal); adaptive windows
    /// split like the in-process wave fan-out, one piece per worker.
    fn new(chunk: Option<usize>, shards: Option<usize>, workers: usize, fixed: bool) -> ChunkPlan {
        let parts = if fixed { workers * 4 } else { workers };
        ChunkPlan {
            chunk,
            fresh: if fixed {
                shards.unwrap_or(parts)
            } else {
                parts
            },
            parts,
        }
    }

    /// The chunks covering `gap`, a still-missing part of `window`.
    fn chunks(&self, window: &Range<usize>, gap: Range<usize>) -> Vec<Range<usize>> {
        match self.chunk {
            None if gap == *window => split_range(gap, self.fresh),
            chunk => {
                let len = window.len();
                let chunk_len = chunk.unwrap_or_else(|| len.div_ceil(self.parts.min(len).max(1)));
                split_chunks(gap, chunk_len)
            }
        }
    }
}

/// The worker pool as a [`waves::WaveExecutor`] over a [`Ledger`]: every
/// finished window becomes a prefix window of each group the driver asked
/// about, and a window the ledger already holds (a resumed checkpoint's) is
/// answered without dispatching. Any other window is cut into chunks the
/// pool pulls, and the next window is queued before the current one is
/// awaited, so the pool never drains at a window boundary. The next window
/// runs under the active set the driver passed for the current one — a
/// superset of the groups that will need it (groups only ever retire) —
/// and the ledger records only the groups the driver asks about, so the
/// optimistic extra trials never reach the report.
struct PoolExecutor<'s> {
    pool: Dispatcher<'s>,
    plan: ChunkPlan,
    windows: Vec<Range<usize>>,
    /// The finished windows, per group.
    ledger: Ledger,
    /// The checkpoint's frontier report of each window, merged in when
    /// the window finishes.
    saved: Vec<Option<Report>>,
    /// Windows `[0, queued)` have had their chunks enqueued (or are held
    /// by the ledger).
    queued: usize,
    /// Windows `[0, finished)` are answered: the next one the driver asks
    /// for is `windows[finished]`.
    finished: usize,
    /// Whether a chunk exhausted its retries: the drive stopped, but its
    /// finished work can be checkpointed.
    exhausted: bool,
}

impl<'s> PoolExecutor<'s> {
    /// A pool over `windows` of `ledger`'s spec, resuming from the
    /// ledger's windows and its frontier (each frontier report slotted into
    /// the window that contains it). The children read the spec from the
    /// scratch directory: the *resolved* spec (CLI overrides applied, or a
    /// checkpoint's frozen spec), never the user's file.
    fn new(
        mut ledger: Ledger,
        scratch: &'s Scratch,
        cfg: DispatchConfig,
        plan: ChunkPlan,
        windows: Vec<Range<usize>>,
    ) -> Result<PoolExecutor<'s>, String> {
        let mut slots: Vec<Option<Report>> = vec![None; windows.len()];
        for report in std::mem::take(&mut ledger.frontier) {
            let Some(&(start, _)) = report.coverage.ranges().first() else {
                return Err("checkpoint frontier covers no trials".into());
            };
            let start = start as usize;
            let w = windows
                .iter()
                .position(|win| win.start <= start && start < win.end)
                .ok_or_else(|| {
                    format!(
                        "checkpoint frontier at trial {start} is outside the spec's wave schedule"
                    )
                })?;
            let (lo, hi) = (windows[w].start as u64, windows[w].end as u64);
            if report
                .coverage
                .ranges()
                .iter()
                .any(|&(a, b)| a < lo || b > hi)
            {
                return Err(format!(
                    "checkpoint frontier covering {:?} crosses the wave boundary at trial {hi}",
                    report.coverage.ranges()
                ));
            }
            slots[w] = Some(match slots[w].take() {
                None => report,
                Some(prev) => Report::merge(&prev, &report)?,
            });
        }
        let spec_path = scratch.path("spec.json");
        std::fs::write(&spec_path, ledger.spec.to_json())
            .map_err(|e| format!("{}: {e}", spec_path.display()))?;
        Ok(PoolExecutor {
            pool: Dispatcher::new(spec_path, scratch, cfg)?,
            plan,
            windows,
            ledger,
            saved: slots,
            queued: 0,
            finished: 0,
            exhausted: false,
        })
    }

    /// Enqueues the chunks of every not-yet-queued window up to and
    /// including `through`, restricted to `groups`.
    fn queue(&mut self, through: usize, groups: Option<&[usize]>) {
        while self.queued <= through && self.queued < self.windows.len() {
            let w = self.queued;
            let window = self.windows[w].clone();
            for gap in window_gaps(&window, self.saved[w].as_ref()) {
                for range in self.plan.chunks(&window, gap) {
                    self.pool
                        .enqueue(Chunk::new(w, range, groups.map(<[usize]>::to_vec)));
                }
            }
            self.queued += 1;
        }
    }

    /// Waits for window `w`'s chunks and merges them (with its frontier
    /// part) into the window's report, which must cover the whole window.
    fn finish(&mut self, w: usize) -> Result<Report, String> {
        let window = self.windows[w].clone();
        if let Err(e) = self.pool.run_until_wave_done(w) {
            self.exhausted = true;
            return Err(e);
        }
        let mut parts = self.pool.take_completed(w);
        parts.extend(self.saved[w].take());
        let report = merge_all(&parts)?;
        if report.coverage.ranges() != [(window.start as u64, window.end as u64)] {
            return Err(format!(
                "trials {window:?} merged to coverage {:?}",
                report.coverage.ranges()
            ));
        }
        Ok(report)
    }

    /// The ledger's statistics over `[0, end)` of the groups in `active`
    /// (every group when `None`), if it holds that window for all of them.
    fn held(&self, active: Option<&[usize]>, end: u64) -> Option<Vec<Group>> {
        if self.ledger.groups.is_empty() {
            return None;
        }
        let every: Vec<usize> = (0..self.ledger.groups.len()).collect();
        active
            .unwrap_or(&every)
            .iter()
            .map(|&gi| self.ledger.window(gi, end).cloned())
            .collect()
    }

    /// Freezes a drive stopped by retry exhaustion into its checkpoint:
    /// the ledger's finished windows, plus one frontier report per
    /// unfinished window with whatever completed of it.
    fn interrupted(&mut self, error: String) -> Result<Interrupted, String> {
        let mut checkpoint = self.ledger.clone();
        for w in self.finished..self.windows.len() {
            let mut parts = self.pool.take_completed(w);
            parts.extend(self.saved[w].take());
            if !parts.is_empty() {
                checkpoint.frontier.push(merge_all(&parts)?);
            }
        }
        Ok(Interrupted {
            error,
            checkpoint,
            missing: self.pool.missing_ranges(),
        })
    }
}

impl waves::WaveExecutor for PoolExecutor<'_> {
    type Error = String;

    fn window(
        &mut self,
        active: Option<&[usize]>,
        window: Range<usize>,
        next: Option<Range<usize>>,
    ) -> Result<Vec<Group>, String> {
        let w = self.finished;
        if self.windows.get(w) != Some(&window) {
            return Err(format!(
                "internal: asked for trials {window:?} out of the wave schedule"
            ));
        }
        let end = window.end as u64;
        if let Some(held) = self.held(active, end) {
            self.finished += 1;
            return Ok(held);
        }
        // This window is queued already if it was pipelined; the next one
        // starts now.
        self.queued = self.queued.max(w);
        self.queue(w + usize::from(next.is_some()), active);
        let report = self.finish(w)?;
        match active {
            None => self.ledger.open(end, report.groups),
            Some(ids) => {
                for &gi in ids {
                    let (lo, base) = self.ledger.floor(gi, end);
                    let part = report.groups.get(gi).filter(|_| lo == window.start as u64);
                    let Some(part) = part else {
                        return Err(format!(
                            "internal: no group {gi} to extend by trials {window:?}"
                        ));
                    };
                    self.ledger.record(gi, end, base.merge(part));
                }
            }
        }
        self.finished += 1;
        self.held(active, end)
            .ok_or_else(|| format!("internal: trials {window:?} left a group unrecorded"))
    }
}

/// Runs a ledger's spec across the worker pool, fresh (an empty ledger)
/// or resumed from a checkpoint, through the one wave driver: a fixed
/// budget is its one-window case.
fn drive(ledger: Ledger, opts: &Options) -> Result<DriveResult, String> {
    let workers = opts.workers.unwrap_or_else(mrw_par::available_threads);
    let spec = ledger.spec.clone();
    let trials = spec.budget.trials_budget();
    let scratch = Scratch::new()?;
    let cfg = DispatchConfig {
        workers,
        retries: opts.retries.unwrap_or(DEFAULT_RETRIES),
        threads: opts.threads,
        deadline_floor: Duration::from_millis(opts.deadline_ms.unwrap_or(DEFAULT_DEADLINE_MS)),
        jitter_seed: spec.budget.seed,
    };
    let fixed = spec.budget.precision.is_none();
    let plan = ChunkPlan::new(opts.chunk, opts.fanout_shards, workers, fixed);
    let mut exec = PoolExecutor::new(ledger, &scratch, cfg, plan, waves::windows(trials))?;
    let outcome = match waves::drive(trials, &mut exec) {
        Ok(groups) => {
            // Cancel whatever the pipeline ran ahead on: the rule retired
            // every group, or the cap cut the schedule.
            exec.pool.abort_in_flight();
            Ok(Report {
                graph: exec.ledger.graph.clone(),
                query: spec.query,
                budget: spec.budget,
                coverage: Coverage::full(trials.cap() as u64),
                groups,
            })
        }
        Err(error) if exec.exhausted => Err(exec.interrupted(error)?),
        Err(error) => return Err(error),
    };
    Ok(DriveResult {
        outcome,
        failures: std::mem::take(&mut exec.pool.failures),
        retries_used: exec.pool.retries_used,
    })
}

/// Runs trials `range` of a fixed-budget `spec` on a fresh worker pool,
/// restricted to `groups`, and returns the merged report — checked to
/// cover exactly `range`. This is `mrw serve --delegate-trials`: the same
/// chunk plan, dispatch, merge, and coverage check as a fanout window.
pub(crate) fn run_on_pool(
    spec: &QuerySpec,
    g: &AnyGraph,
    range: Range<usize>,
    groups: Option<&[usize]>,
    cfg: DispatchConfig,
) -> Result<Report, String> {
    let scratch = Scratch::new()?;
    let plan = ChunkPlan::new(None, None, cfg.workers, true);
    let ledger = Ledger::new(spec.clone(), GraphInfo::of(g));
    let mut exec = PoolExecutor::new(ledger, &scratch, cfg, plan, vec![range])?;
    exec.queue(0, groups);
    exec.finish(0)
}

/// Prints a completed merged report exactly like `mrw run` would, plus
/// the fanout summary line on stderr.
fn emit_complete(merged: &Report, opts: &Options, workers: usize, retries_used: usize) {
    eprintln!(
        "mrw fanout: {} trials across {} worker(s), {} retr{} used",
        merged.consumed_trials(),
        workers,
        retries_used,
        if retries_used == 1 { "y" } else { "ies" }
    );
    crate::print_report(merged, opts);
}

/// Everything a checkpoint holds as one partial report: each group's last
/// prefix window merged with the frontier, covering the prefix windows
/// `[0, end)` plus the frontier's ranges. `None` when nothing completed.
fn partial_report(checkpoint: &Ledger) -> Result<Option<Report>, String> {
    let mut parts = checkpoint.frontier.clone();
    let end = checkpoint.prefix_end();
    if end > 0 {
        parts.push(Report {
            graph: checkpoint.graph.clone(),
            query: checkpoint.spec.query.clone(),
            budget: checkpoint.spec.budget.clone(),
            coverage: Coverage::of_range(0..end as usize),
            groups: (0..checkpoint.groups.len())
                .map(|gi| checkpoint.floor(gi, end).1)
                .collect(),
        });
    }
    if parts.is_empty() {
        return Ok(None);
    }
    merge_all(&parts).map(Some)
}

/// Shared tail of `mrw fanout` and `mrw resume`: emit the completed
/// report, or checkpoint the partial progress and either abort with the
/// resume instructions or (`--partial-ok`) emit the merged partial.
fn conclude(
    result: DriveResult,
    opts: &Options,
    reuse_checkpoint: Option<String>,
) -> Result<(), String> {
    let workers = opts.workers.unwrap_or_else(mrw_par::available_threads);
    let Interrupted {
        error,
        mut checkpoint,
        missing,
    } = match result.outcome {
        Ok(merged) => {
            emit_complete(&merged, opts, workers, result.retries_used);
            return Ok(());
        }
        Err(interrupted) => interrupted,
    };
    checkpoint.failures.extend(result.failures);
    // Precedence: --checkpoint, then the checkpoint file being resumed
    // (progress folds back into it), then a spec-hash-derived temp path.
    let path = opts
        .checkpoint
        .clone()
        .or(reuse_checkpoint)
        .unwrap_or_else(|| {
            let hash = spec_hash(&checkpoint.spec.to_json());
            std::env::temp_dir()
                .join(format!("mrw-checkpoint-{hash}.json"))
                .display()
                .to_string()
        });
    std::fs::write(&path, checkpoint.to_json()).map_err(|e| format!("{path}: {e}"))?;
    if opts.partial_ok {
        let partial = partial_report(&checkpoint)?;
        eprintln!(
            "mrw fanout: {error}; still missing {missing:?}; emitting the merged partial report \
             ({} of {} trials); checkpointed to {path} — finish with: mrw resume {path}",
            partial.as_ref().map_or(0, |r| r.coverage.covered_trials()),
            checkpoint.spec.budget.trials_budget().cap(),
        );
        let Some(partial) = partial else {
            return Err(format!(
                "{error}; no chunk completed, so there is no partial report to emit \
                 (checkpoint still written to {path})"
            ));
        };
        if opts.json {
            print!("{}", partial.to_json());
        } else {
            crate::print_table(&crate::report_table(&partial), opts.format);
        }
        Ok(())
    } else {
        Err(format!(
            "{error}; still missing {missing:?}; partial progress checkpointed to {path} — \
             finish with: mrw resume {path} (or pass --partial-ok to accept the \
             partial report); failures: [{}]",
            checkpoint.failures.join("; "),
        ))
    }
}

/// `mrw fanout spec.json --workers N [--shards S | --chunk C] [--retries
/// R] [--deadline-ms D] [--partial-ok] [--checkpoint PATH]`: run a spec
/// across local worker processes and print the merged report —
/// byte-identical to `mrw run spec.json` for fixed *and* adaptive
/// budgets, even when workers die, hang, straggle, or corrupt their
/// output and are retried.
pub fn run_fanout(opts: &Options) -> Result<(), String> {
    let (spec, g) = crate::load_spec(opts)?;
    let result = drive(Ledger::new(spec, GraphInfo::of(&g)), opts)?;
    conclude(result, opts, None)
}

/// The schema of the checkpoints fanout wrote before they became ledgers.
const RETIRED_CHECKPOINT_SCHEMA: &str = "mrw-checkpoint-v1";

/// `mrw resume checkpoint.json`: finish an interrupted fanout from its
/// checkpoint ledger, answering the windows it holds without dispatching
/// and running only the still-missing trial ranges. The output completes
/// byte-identically to an unfailed `mrw run` of the same spec. Execution
/// knobs (`--workers`, `--retries`, `--threads`, `--deadline-ms`,
/// `--chunk`, `--json`) apply; budget overrides are rejected because
/// byte-identity requires the checkpointed spec unchanged.
pub fn run_resume(opts: &Options) -> Result<(), String> {
    let path = crate::one_file(opts, "checkpoint")?;
    if opts.trials.is_some()
        || opts.seed.is_some()
        || opts.batch.is_some()
        || opts.backend.is_some()
        || opts.precision_rule()?.is_some()
    {
        return Err(
            "mrw resume cannot override the checkpointed spec (budget/backend flags \
             would change what byte-identical completion means); only execution \
             knobs like --workers/--retries/--threads/--deadline-ms/--chunk apply"
                .into(),
        );
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let checkpoint = Ledger::from_json(&text).map_err(|e| {
        let schema = json::parse(&text).map(|v| v.get("schema").cloned());
        if schema == Ok(Some(Value::str(RETIRED_CHECKPOINT_SCHEMA))) {
            format!(
                "{path}: {RETIRED_CHECKPOINT_SCHEMA} checkpoints are no longer read; \
                 re-run mrw fanout on the spec to start over"
            )
        } else {
            format!("{path}: {e}")
        }
    })?;
    checkpoint
        .spec
        .resolve()
        .map_err(|e| format!("{path}: {e}"))?;
    let result = drive(checkpoint, opts)?;
    conclude(result, opts, Some(path.to_string()))
}
