//! `mrw fanout` / `mrw resume` — the in-tree multi-process scale-out
//! driver.
//!
//! Any partition of a trial budget into shard reports merges
//! byte-identically into the single-process run. This driver cuts the
//! trial space into small chunks pulled by idle workers through the
//! work-stealing, deadline-aware scheduler in [`crate::dispatch`], and
//! emits one merged report **byte-identical to `mrw run`** — no matter
//! which worker ran which chunk, in what order, or how many times a
//! chunk had to be retried.
//!
//! ## One drive path
//!
//! Fixed and adaptive budgets both run through [`Ledger::answer`], the
//! wave driver ([`waves::drive`]) over a [`Ledger`] of the run's finished
//! windows; a fixed budget is the one-window case `[0, N)`. The driver
//! owns the windows, the rule check, and group retirement; the ledger
//! answers the windows it holds and records the others. The pool
//! ([`PoolExecutor`]) only runs what the ledger asks for: it cuts a window
//! into chunks by one rule ([`chunks`]: one balanced piece per worker, and
//! [`STEAL_PIECES`] per worker for the schedule's last window once there
//! is a second worker to steal them), dispatches them with `mrw shard
//! --range --groups` restricted to the groups the ledger listed, and
//! merges them. The next window of its schedule is queued before the
//! current one is awaited, under the current groups: a superset of the
//! groups that will need it. The ledger records only the groups it asked
//! about, so the optimistic extra trials never reach the report and the
//! output (per-group consumed counts included) is byte-identical to `mrw
//! run`.
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
//!
//! The summary line on stderr names the group count and the trials each
//! group consumed (a range when the groups stopped at different counts),
//! then the chunk reports merged, the worker count and the retries used:
//! `mrw fanout: 2 group(s) × 96 trials in 16 chunk(s) across 4 worker(s),
//! 0 retries used`.

use std::ops::Range;
use std::process::Command;
use std::time::Duration;

use mrw_core::query::json::{self, Value};
use mrw_core::query::{spec_hash, split_range, waves, Coverage, GraphInfo, Ledger};
use mrw_core::{QuerySpec, Report};

use crate::args::Options;
use crate::dispatch::{merge_all, Chunk, DispatchConfig, Dispatcher, Scratch};

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
    /// Chunk reports merged into the windows the ledger asked the pool
    /// to run.
    chunks_merged: usize,
}

/// Pieces per worker of the schedule's last window when there are at
/// least two workers: nothing is queued behind that window, so finer
/// pieces are what an idle worker can steal around a straggler.
const STEAL_PIECES: usize = 4;

/// The chunk rule: how the pool cuts `gap`, a still-missing part of window
/// `w` of `windows`, into chunks for `workers` worker processes. A window
/// splits into one balanced piece per worker, the last into
/// [`STEAL_PIECES`] per worker when `workers >= 2`; a gap takes its
/// rounded-up share of its window's pieces. The chunks partition the gap,
/// none empty.
fn chunks(
    windows: &[Range<usize>],
    w: usize,
    gap: Range<usize>,
    workers: usize,
) -> Vec<Range<usize>> {
    let per_worker = if w + 1 == windows.len() && workers >= 2 {
        STEAL_PIECES
    } else {
        1
    };
    let pieces = workers.saturating_mul(per_worker);
    let share = pieces.saturating_mul(gap.len()).div_ceil(windows[w].len());
    split_range(gap, share)
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

/// The worker pool behind a fanout's [`Ledger::answer`]: it cuts each
/// window the ledger asks it to run into chunks the pool pulls, and merges
/// them back. The next window of its schedule is queued before the current
/// one is awaited, so the pool never drains at a window boundary. It runs
/// under the groups of the current window — a superset of the groups that
/// will need it (groups only ever retire) — and the ledger records only
/// the groups it asks about, so the optimistic extra trials never reach
/// the report.
struct PoolExecutor<'s> {
    pool: Dispatcher<'s>,
    workers: usize,
    windows: Vec<Range<usize>>,
    /// The checkpoint's frontier report of each window, merged in when
    /// the window finishes.
    saved: Vec<Option<Report>>,
    /// Windows `[0, queued)` have had their chunks enqueued (or are held
    /// by the ledger).
    queued: usize,
    /// Whether a chunk exhausted its retries: the drive stopped, but its
    /// finished work can be checkpointed.
    exhausted: bool,
    /// Chunk reports merged into finished windows.
    chunks_merged: usize,
}

impl<'s> PoolExecutor<'s> {
    /// A pool over `windows` of `spec`, resuming from a checkpoint's
    /// `frontier` (each report slotted into the window that contains it).
    /// The children read the spec from the scratch directory: the
    /// *resolved* spec (CLI overrides applied, or a checkpoint's frozen
    /// spec), never the user's file.
    fn new(
        spec: &QuerySpec,
        frontier: Vec<Report>,
        scratch: &'s Scratch,
        cfg: DispatchConfig,
        windows: Vec<Range<usize>>,
    ) -> Result<PoolExecutor<'s>, String> {
        let mut slots: Vec<Option<Report>> = vec![None; windows.len()];
        for report in frontier {
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
        std::fs::write(&spec_path, spec.to_json())
            .map_err(|e| format!("{}: {e}", spec_path.display()))?;
        Ok(PoolExecutor {
            workers: cfg.workers,
            pool: Dispatcher::new(spec_path, scratch, cfg)?,
            windows,
            saved: slots,
            queued: 0,
            exhausted: false,
            chunks_merged: 0,
        })
    }

    /// Enqueues the chunks of every not-yet-queued window up to and
    /// including `through`, restricted to `groups`.
    fn queue(&mut self, through: usize, groups: Option<&[usize]>) {
        while self.queued <= through && self.queued < self.windows.len() {
            let w = self.queued;
            let window = self.windows[w].clone();
            for gap in window_gaps(&window, self.saved[w].as_ref()) {
                for range in chunks(&self.windows, w, gap, self.workers) {
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
        self.chunks_merged += parts.len();
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

    /// Runs window `range` of the schedule for `groups` (every group when
    /// `None`) and returns its merged report, queueing the next window
    /// under the same groups first.
    fn run(&mut self, range: Range<usize>, groups: Option<&[usize]>) -> Result<Report, String> {
        let Some(w) = self.windows.iter().position(|win| *win == range) else {
            return Err(format!(
                "internal: asked for trials {range:?} out of the wave schedule"
            ));
        };
        // This window is queued already if it was pipelined; the next one
        // starts now.
        self.queued = self.queued.max(w);
        self.queue(w + 1, groups);
        self.finish(w)
    }

    /// Freezes a drive stopped by retry exhaustion into its checkpoint:
    /// `ledger`'s finished windows, plus one frontier report per
    /// unfinished window with whatever completed of it (a finished window
    /// has nothing left: `finish` took it).
    fn interrupted(
        &mut self,
        mut checkpoint: Ledger,
        error: String,
    ) -> Result<Interrupted, String> {
        for w in 0..self.windows.len() {
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

/// Runs a ledger's spec across the worker pool, fresh (an empty ledger)
/// or resumed from a checkpoint, through [`Ledger::answer`]: a fixed
/// budget is its one-window case.
fn drive(mut ledger: Ledger, opts: &Options) -> Result<DriveResult, String> {
    let budget = ledger.spec.budget.clone();
    let scratch = Scratch::new()?;
    let cfg = DispatchConfig::from_options(opts, budget.seed);
    let frontier = std::mem::take(&mut ledger.frontier);
    let windows = waves::windows(budget.trials_budget());
    let mut exec = PoolExecutor::new(&ledger.spec, frontier, &scratch, cfg, windows)?;
    let outcome = match ledger.answer(&budget, |_, range, groups| exec.run(range, groups)) {
        Ok(report) => {
            // Cancel whatever the pipeline ran ahead on: the rule retired
            // every group, or the cap cut the schedule.
            exec.pool.abort_in_flight();
            Ok(report)
        }
        Err(error) if exec.exhausted => Err(exec.interrupted(ledger, error)?),
        Err(error) => return Err(error),
    };
    Ok(DriveResult {
        outcome,
        failures: std::mem::take(&mut exec.pool.failures),
        retries_used: exec.pool.retries_used,
        chunks_merged: exec.chunks_merged,
    })
}

/// Runs trials `range` of a fixed-budget `spec` on a fresh worker pool,
/// restricted to `groups`, and returns the merged report — checked to
/// cover exactly `range`. This is `mrw serve --delegate-trials`: the same
/// chunk rule (on a one-window schedule), dispatch, merge, and coverage
/// check as a fanout window.
pub(crate) fn run_on_pool(
    spec: &QuerySpec,
    range: Range<usize>,
    groups: Option<&[usize]>,
    cfg: DispatchConfig,
) -> Result<Report, String> {
    let scratch = Scratch::new()?;
    let mut exec = PoolExecutor::new(spec, Vec::new(), &scratch, cfg, vec![range.clone()])?;
    exec.run(range, groups)
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

/// Shared tail of `mrw fanout` and `mrw resume`: print the completed
/// report exactly like `mrw run` would, plus the fanout summary line on
/// stderr, or checkpoint the partial progress and either abort with the
/// resume instructions or (`--partial-ok`) emit the merged partial.
fn conclude(
    result: DriveResult,
    opts: &Options,
    reuse_checkpoint: Option<String>,
) -> Result<(), String> {
    let Interrupted {
        error,
        mut checkpoint,
        missing,
    } = match result.outcome {
        Ok(merged) => {
            let retries = result.retries_used;
            let trials = || merged.groups.iter().map(|g| g.trials);
            let (lo, hi) = (trials().min().unwrap_or(0), trials().max().unwrap_or(0));
            let each = if lo < hi {
                format!(", {lo}–{hi} trials each")
            } else {
                format!(" × {hi} trials")
            };
            eprintln!(
                "mrw fanout: {} group(s){each} in {} chunk(s) across {} worker(s), {retries} retr{} used",
                merged.groups.len(),
                result.chunks_merged,
                DispatchConfig::from_options(opts, 0).workers,
                if retries == 1 { "y" } else { "ies" }
            );
            crate::print_report(&merged, opts);
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

/// `mrw fanout spec.json --workers N [--retries R] [--deadline-ms D]
/// [--partial-ok] [--checkpoint PATH]`: run a spec across local worker
/// processes and print the merged report — byte-identical to `mrw run
/// spec.json` for fixed *and* adaptive budgets, even when workers die,
/// hang, straggle, or corrupt their output and are retried.
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
/// `--json`) apply; budget overrides are rejected because byte-identity
/// requires the checkpointed spec unchanged.
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
             knobs like --workers/--retries/--threads/--deadline-ms apply"
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed budget: the one-window schedule.
    const FIXED: Range<usize> = 0..96;

    /// A three-window schedule: first, middle and last window.
    const THREE: [Range<usize>; 3] = [0..16, 16..48, 48..96];

    #[test]
    fn each_window_splits_per_worker_and_the_last_four_ways_once_two_can_steal() {
        let one = std::slice::from_ref(&FIXED);
        for (workers, last) in [(1, 1), (2, 8), (4, 16)] {
            assert_eq!(chunks(one, 0, FIXED, workers).len(), last);
            assert_eq!(chunks(&THREE, 0, 0..16, workers).len(), workers);
            assert_eq!(chunks(&THREE, 1, 16..48, workers).len(), workers);
            assert_eq!(chunks(&THREE, 2, 48..96, workers).len(), last);
        }
        assert_eq!(chunks(one, 0, FIXED, 1), one);
        assert_eq!(chunks(&THREE, 1, 16..48, 2), [16..32, 32..48]);
    }

    #[test]
    fn a_resumed_gap_takes_its_share_of_the_window_pieces() {
        // 16 pieces of the 96-trial window at 4 workers, 6 trials each.
        let pieces = |gap| chunks(std::slice::from_ref(&FIXED), 0, gap, 4).len();
        assert_eq!(pieces(24..48), 4);
        assert_eq!(pieces(90..96), 1);
        assert_eq!(pieces(95..96), 1);
        assert_eq!(pieces(1..96), 16);
        // 4 pieces of the 32-trial middle window: half of it takes 2.
        assert_eq!(chunks(&THREE, 1, 16..32, 4), [16..24, 24..32]);
        assert_eq!(chunks(&THREE, 1, 40..41, 4).len(), 1);
    }

    #[test]
    fn chunks_partition_every_gap_without_an_empty_chunk() {
        for len in 1..=200_usize {
            let windows = [0..len, len..2 * len];
            for (w, window) in windows.iter().enumerate() {
                let lo = window.start;
                let gaps = [
                    (0, len),
                    (0, len.div_ceil(2)),
                    (len / 2, len),
                    (len / 3, len - len / 3),
                    (len - 1, len),
                ];
                for (a, b) in gaps.into_iter().filter(|(a, b)| a < b) {
                    let gap = lo + a..lo + b;
                    for workers in 1..=8 {
                        let pieces = chunks(&windows, w, gap.clone(), workers);
                        assert!(pieces.iter().all(|c| !c.is_empty()), "{pieces:?}");
                        let tiled: Vec<usize> = pieces.into_iter().flatten().collect();
                        assert_eq!(tiled, gap.clone().collect::<Vec<_>>());
                    }
                }
            }
        }
    }

    #[test]
    fn an_unbounded_worker_count_cuts_one_trial_per_chunk() {
        for (w, window) in THREE.iter().enumerate() {
            let pieces = chunks(&THREE, w, window.clone(), usize::MAX);
            assert_eq!(pieces.len(), window.len());
        }
    }
}
