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
//! it, and the running totals read only the groups the driver asks about,
//! so the optimistic extra trials never reach the report and the output
//! (per-group consumed counts included) is byte-identical to `mrw run`.
//!
//! ## Failure handling, checkpoints, and resume
//!
//! Worker death, hangs (deadline-SIGKILLed), and corrupt output are all
//! retryable faults with exponential backoff (see `dispatch.rs`). When a
//! chunk exhausts its retry budget the driver does not discard the
//! completed work: it freezes every finished chunk into a canonical-JSON
//! [`Checkpoint`] and either aborts with the still-missing ranges and the
//! exact `mrw resume` command that would continue (default), or — with
//! `--partial-ok` — prints the merged partial report and exits cleanly.
//! `mrw resume checkpoint.json` drives the same windows again, slotting
//! each checkpointed report into its window and dispatching only the
//! still-missing sub-ranges, and completes byte-identically to an
//! unfailed `mrw run`. `mrw serve --delegate-trials` runs its big ranges
//! as one window of the same pool ([`run_on_pool`]).

use std::ops::Range;
use std::process::Command;
use std::time::Duration;

use mrw_core::query::{split_range, waves, Checkpoint, Coverage, GraphInfo};
use mrw_core::{AnyGraph, Group, QuerySpec, Report};
use mrw_graph::GraphBackend;

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

/// A run stopped by retry exhaustion: what stopped it, what finished
/// anyway (merged per wave window, ready for a [`Checkpoint`]), and the
/// dispatched-but-incomplete trial ranges.
struct Interrupted {
    error: String,
    waves: Vec<Report>,
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
/// checkpoint already covers of it.
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

/// The worker pool as a [`waves::WaveExecutor`]: every window is cut into
/// chunks the pool pulls, and the next window is queued before the
/// current one is awaited, so the pool never drains at a window boundary.
/// The next window runs under the active set the driver passed for the
/// current one — a superset of the groups that will need it (groups only
/// ever retire), and the running totals read only the groups the driver
/// asks about, so the optimistic extra trials never reach the report.
struct PoolExecutor<'s> {
    pool: Dispatcher<'s>,
    plan: ChunkPlan,
    windows: Vec<Range<usize>>,
    /// Checkpointed progress per window, merged in when the window
    /// finishes.
    saved: Vec<Option<Report>>,
    /// Windows `[0, queued)` have had their chunks enqueued.
    queued: usize,
    /// The merged report of every finished window, in order — exactly
    /// what a checkpoint keeps.
    finished: Vec<Report>,
    /// Running per-group statistics over the finished windows.
    totals: Vec<Group>,
    /// Whether a chunk exhausted its retries: the drive stopped, but its
    /// finished work can be checkpointed.
    exhausted: bool,
}

impl<'s> PoolExecutor<'s> {
    /// A pool over `windows` of `spec`, resuming from a checkpoint's
    /// per-window `saved` reports (each slotted into the window that
    /// contains it). The children read `spec` from the scratch directory:
    /// the *resolved* spec (CLI overrides applied, or a checkpoint's frozen
    /// spec), never the user's file.
    fn new(
        spec: &QuerySpec,
        scratch: &'s Scratch,
        cfg: DispatchConfig,
        plan: ChunkPlan,
        windows: Vec<Range<usize>>,
        saved: &[Report],
    ) -> Result<PoolExecutor<'s>, String> {
        let mut slots: Vec<Option<Report>> = vec![None; windows.len()];
        for report in saved {
            let Some(&(start, _)) = report.coverage.ranges().first() else {
                return Err("checkpoint wave covers no trials".into());
            };
            let start = start as usize;
            let w = windows
                .iter()
                .position(|win| win.start <= start && start < win.end)
                .ok_or_else(|| {
                    format!("checkpoint wave at trial {start} is outside the spec's wave schedule")
                })?;
            let (lo, hi) = (windows[w].start as u64, windows[w].end as u64);
            if report
                .coverage
                .ranges()
                .iter()
                .any(|&(a, b)| a < lo || b > hi)
            {
                return Err(format!(
                    "checkpoint wave covering {:?} crosses the wave boundary at trial {hi}",
                    report.coverage.ranges()
                ));
            }
            slots[w] = Some(match slots[w].take() {
                None => report.clone(),
                Some(prev) => Report::merge(&prev, report)?,
            });
        }
        let spec_path = scratch.path("spec.json");
        std::fs::write(&spec_path, spec.to_json())
            .map_err(|e| format!("{}: {e}", spec_path.display()))?;
        Ok(PoolExecutor {
            pool: Dispatcher::new(spec_path, scratch, cfg)?,
            plan,
            windows,
            saved: slots,
            queued: 0,
            finished: Vec::new(),
            totals: Vec::new(),
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

    /// Waits for the next unfinished window's chunks and merges them (with
    /// its checkpointed part) into the window's report, which must cover
    /// the whole window.
    fn finish(&mut self) -> Result<Report, String> {
        let w = self.finished.len();
        let window = self
            .windows
            .get(w)
            .cloned()
            .ok_or_else(|| format!("internal: no window {w} to finish"))?;
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

    /// Freezes a drive stopped by retry exhaustion: every finished window,
    /// plus whatever completed (or was checkpointed) of later ones.
    fn interrupted(&mut self, error: String) -> Result<Interrupted, String> {
        let mut waves = std::mem::take(&mut self.finished);
        for w in waves.len()..self.windows.len() {
            let mut parts = self.pool.take_completed(w);
            parts.extend(self.saved[w].take());
            if !parts.is_empty() {
                waves.push(merge_all(&parts)?);
            }
        }
        Ok(Interrupted {
            error,
            waves,
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
        let w = self.finished.len();
        if self.windows.get(w) != Some(&window) {
            return Err(format!(
                "internal: asked for trials {window:?} out of the wave schedule"
            ));
        }
        // Only the first window is not queued yet; the next one starts now.
        self.queue(w + usize::from(next.is_some()), active);
        let report = self.finish()?;
        let out = match active {
            None => {
                self.totals = report.groups.clone();
                self.totals.clone()
            }
            Some(ids) => {
                let mut out = Vec::with_capacity(ids.len());
                for &gi in ids {
                    let (Some(total), Some(part)) =
                        (self.totals.get_mut(gi), report.groups.get(gi))
                    else {
                        return Err(format!("internal: no group {gi} in trials {window:?}"));
                    };
                    *total = total.merge(part);
                    out.push(total.clone());
                }
                out
            }
        };
        self.finished.push(report);
        Ok(out)
    }
}

/// Runs a spec across the worker pool, fresh (`saved` empty) or resumed
/// from a checkpoint's per-wave partial reports, through the one wave
/// driver: a fixed budget is its one-window case.
fn drive(
    spec: &QuerySpec,
    g: &AnyGraph,
    saved: &[Report],
    opts: &Options,
) -> Result<DriveResult, String> {
    let workers = opts.workers.unwrap_or_else(mrw_par::available_threads);
    let trials = spec.budget.trials_budget();
    if trials.cap() < 1 {
        return Err("budget needs at least one trial".into());
    }
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
    let mut exec = PoolExecutor::new(spec, &scratch, cfg, plan, waves::windows(trials), saved)?;
    let outcome = match waves::drive(trials, &mut exec) {
        Ok(groups) => {
            // Cancel whatever the pipeline ran ahead on: the rule retired
            // every group, or the cap cut the schedule.
            exec.pool.abort_in_flight();
            Ok(Report {
                graph: GraphInfo {
                    name: g.name().to_string(),
                    n: g.n(),
                },
                query: spec.query.clone(),
                budget: spec.budget.clone(),
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
    range: Range<usize>,
    groups: Option<&[usize]>,
    cfg: DispatchConfig,
) -> Result<Report, String> {
    let scratch = Scratch::new()?;
    let plan = ChunkPlan::new(None, None, cfg.workers, true);
    let mut exec = PoolExecutor::new(spec, &scratch, cfg, plan, vec![range], &[])?;
    exec.queue(0, groups);
    exec.finish()
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
    if opts.json {
        print!("{}", merged.to_json());
        return;
    }
    crate::print_table(&crate::report_table(merged), opts.format);
    if let Some(certified) = merged.certified() {
        println!(
            "precision rule {} on every group ({} trials total)",
            if certified {
                "satisfied"
            } else {
                "NOT satisfied"
            },
            merged.consumed_trials()
        );
    }
}

/// Shared tail of `mrw fanout` and `mrw resume`: emit the completed
/// report, or checkpoint the partial progress and either abort with the
/// resume instructions or (`--partial-ok`) emit the merged partial.
fn conclude(
    spec: QuerySpec,
    result: DriveResult,
    opts: &Options,
    prior_failures: Vec<String>,
    reuse_checkpoint: Option<String>,
) -> Result<(), String> {
    let workers = opts.workers.unwrap_or_else(mrw_par::available_threads);
    let interrupted = match result.outcome {
        Ok(merged) => {
            emit_complete(&merged, opts, workers, result.retries_used);
            return Ok(());
        }
        Err(interrupted) => interrupted,
    };
    let mut failures = prior_failures;
    failures.extend(result.failures);
    let checkpoint = Checkpoint {
        spec,
        failures,
        waves: interrupted.waves,
    };
    // Precedence: --checkpoint, then the checkpoint file being resumed
    // (progress folds back into it), then a spec-hash-derived temp path.
    let path = opts
        .checkpoint
        .clone()
        .or(reuse_checkpoint)
        .unwrap_or_else(|| {
            std::env::temp_dir()
                .join(format!("mrw-checkpoint-{}.json", checkpoint.spec_hash()))
                .display()
                .to_string()
        });
    std::fs::write(&path, checkpoint.to_json()).map_err(|e| format!("{path}: {e}"))?;
    if opts.partial_ok {
        eprintln!(
            "mrw fanout: {}; still missing {:?}; emitting the merged partial report \
             ({} of {} trials); checkpointed to {path} — finish with: mrw resume {path}",
            interrupted.error,
            interrupted.missing,
            checkpoint.covered_trials(),
            spec_trial_space(&checkpoint),
            path = path
        );
        if checkpoint.waves.is_empty() {
            return Err(format!(
                "{}; no chunk completed, so there is no partial report to emit \
                 (checkpoint still written to {path})",
                interrupted.error
            ));
        }
        let partial = merge_all(&checkpoint.waves)?;
        if opts.json {
            print!("{}", partial.to_json());
        } else {
            crate::print_table(&crate::report_table(&partial), opts.format);
        }
        Ok(())
    } else {
        Err(format!(
            "{}; still missing {:?}; partial progress checkpointed to {path} — \
             finish with: mrw resume {path} (or pass --partial-ok to accept the \
             partial report); failures: [{}]",
            interrupted.error,
            interrupted.missing,
            checkpoint.failures.join("; "),
            path = path
        ))
    }
}

/// The trial-index space of a checkpoint's spec.
fn spec_trial_space(checkpoint: &Checkpoint) -> u64 {
    checkpoint.spec.budget.trials_budget().cap() as u64
}

/// `mrw fanout spec.json --workers N [--shards S | --chunk C] [--retries
/// R] [--deadline-ms D] [--partial-ok] [--checkpoint PATH]`: run a spec
/// across local worker processes and print the merged report —
/// byte-identical to `mrw run spec.json` for fixed *and* adaptive
/// budgets, even when workers die, hang, straggle, or corrupt their
/// output and are retried.
pub fn run_fanout(opts: &Options) -> Result<(), String> {
    let (spec, g) = crate::load_spec(opts)?;
    let result = drive(&spec, &g, &[], opts)?;
    conclude(spec, result, opts, Vec::new(), None)
}

/// `mrw resume checkpoint.json`: finish an interrupted fanout from its
/// checkpoint, dispatching only the still-missing trial ranges. The
/// output completes byte-identically to an unfailed `mrw run` of the
/// same spec. Execution knobs (`--workers`, `--retries`, `--threads`,
/// `--deadline-ms`, `--chunk`, `--json`) apply; budget overrides are
/// rejected because byte-identity requires the checkpointed spec
/// unchanged.
pub fn run_resume(opts: &Options) -> Result<(), String> {
    let path = match opts.files.as_slice() {
        [path] => path.clone(),
        [] => return Err("mrw resume needs a checkpoint file".into()),
        more => {
            return Err(format!(
                "mrw resume takes exactly one checkpoint file (got {})",
                more.len()
            ))
        }
    };
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
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let checkpoint = Checkpoint::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let g = checkpoint
        .spec
        .graph
        .resolve()
        .map_err(|e| format!("{path}: {e}"))?;
    checkpoint
        .spec
        .query
        .validate(&g)
        .map_err(|e| format!("{path}: {e}"))?;
    let result = drive(&checkpoint.spec, &g, &checkpoint.waves, opts)?;
    conclude(
        checkpoint.spec,
        result,
        opts,
        checkpoint.failures,
        Some(path),
    )
}
