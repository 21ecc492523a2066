//! The work-stealing, deadline-aware chunk scheduler behind `mrw fanout`.
//!
//! Dispatch is pull-based: `mrw fanout` cuts each wave window into
//! *chunks* by its one chunk rule, every idle worker slot pulls the next
//! ready chunk, and a straggler only delays its own chunk while the rest
//! of the pool keeps stealing work. The pool settings come from the
//! command line once, through [`DispatchConfig::from_options`].
//! Determinism needs no cooperation from the schedule — a trial is a pure
//! function of `(graph, seed, index)` and [`Report::merge`] is exact over
//! disjoint coverage, so *any* chunk partition in *any* completion order
//! folds to the same bytes (pinned by a property test over randomized
//! chunk schedules in `crates/core/tests/query.rs`).
//!
//! ## Failure classes and policy
//!
//! * **Death** (non-zero exit, signal): retried with exponential backoff.
//! * **Hang**: every in-flight chunk is checked against a deadline
//!   derived from an EWMA of observed chunk latencies
//!   (`max(floor, 8 × ewma)`; `10 × floor` before any sample). A chunk
//!   past its deadline is SIGKILLed and requeued like any other death.
//! * **Corruption**: child output is validated — parse, schema version,
//!   coverage-matches-assignment — so truncated or garbled JSON is a
//!   retryable fault, not a crash (and never a silent miscount: coverage
//!   overlap rejection sits behind every merge).
//! * **Retry exhaustion**: the dispatcher stops spawning, kills what is
//!   still running, and reports the surviving state — completed chunk
//!   reports stay available so the caller can checkpoint them (as the
//!   frontier of an [`mrw_core::query::Ledger`]) instead of discarding
//!   the work.
//!
//! Backoff delays use *deterministic* seeded jitter
//! ([`SplitMix64::word`] keyed by the spec seed, chunk start, and attempt
//! number), so two runs of the same failing spec back off identically —
//! no wall-clock or OS randomness enters the schedule.

use std::collections::VecDeque;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mrw_core::Report;
use rand::rngs::SplitMix64;

use crate::args::Options;

/// How often the dispatcher polls its running children.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// EWMA smoothing factor for observed chunk latencies.
const EWMA_ALPHA: f64 = 0.3;

/// A chunk is declared hung once it runs longer than
/// `DEADLINE_FACTOR × ewma` (never less than the configured floor).
const DEADLINE_FACTOR: f64 = 8.0;

/// Deadline multiplier applied to the floor before the first latency
/// sample exists (cold start: nothing to compare against yet).
const COLD_START_FACTOR: u32 = 10;

/// Base backoff delay before a retry; doubles with every failed attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Hard ceiling on a single backoff delay.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Default per-chunk retry budget for failed, hung, or corrupt workers
/// (`--retries`).
const DEFAULT_RETRIES: usize = 2;

/// Default deadline floor (`--deadline-ms`): no in-flight chunk is killed
/// as hung before running at least this long, however fast its peers are.
const DEFAULT_DEADLINE_MS: u64 = 1000;

/// Scratch directory for the resolved spec and per-worker report files.
/// Removed recursively on drop, so no exit path — success, abort, or
/// panic — leaks temp files. `MRW_TMPDIR` overrides the base directory
/// (the e2e suite points it at a private dir and asserts emptiness).
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let base = std::env::var_os("MRW_TMPDIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "mrw-fanout-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Pool knobs, resolved from the command line by
/// [`DispatchConfig::from_options`].
#[derive(Clone)]
pub struct DispatchConfig {
    /// Concurrent worker processes.
    pub workers: usize,
    /// Per-chunk retry budget.
    pub retries: usize,
    /// `--threads` forwarded to each child.
    pub threads: Option<usize>,
    /// The deadline floor (`--deadline-ms`): no chunk is ever killed
    /// before running at least this long.
    pub deadline_floor: Duration,
    /// Seed for the deterministic backoff jitter (the spec's master
    /// seed, so reruns of the same spec back off identically).
    pub jitter_seed: u64,
}

impl DispatchConfig {
    /// The pool settings `mrw fanout`, `mrw resume` and `mrw serve
    /// --delegate-trials` read from their command line: `--workers`
    /// (default: the available threads), `--retries`, `--threads` and
    /// `--deadline-ms`, with backoff jitter keyed by `jitter_seed`.
    pub fn from_options(opts: &Options, jitter_seed: u64) -> DispatchConfig {
        DispatchConfig {
            workers: opts.workers.unwrap_or_else(mrw_par::available_threads),
            retries: opts.retries.unwrap_or(DEFAULT_RETRIES),
            threads: opts.threads,
            deadline_floor: Duration::from_millis(opts.deadline_ms.unwrap_or(DEFAULT_DEADLINE_MS)),
            jitter_seed,
        }
    }
}

/// One schedulable unit: a trial range, the group restriction it should
/// run under, and the wave window it belongs to (fixed budgets are a
/// single wave `0`).
#[derive(Debug, Clone)]
pub struct Chunk {
    range: Range<usize>,
    groups: Option<Vec<usize>>,
    wave: usize,
    attempt: usize,
    not_before: Option<Instant>,
}

impl Chunk {
    pub fn new(wave: usize, range: Range<usize>, groups: Option<Vec<usize>>) -> Chunk {
        Chunk {
            range,
            groups,
            wave,
            attempt: 0,
            not_before: None,
        }
    }

    fn ready(&self, now: Instant) -> bool {
        self.not_before.is_none_or(|t| t <= now)
    }
}

/// A spawned worker process and the chunk it is computing.
struct InFlight {
    chunk: Chunk,
    child: Child,
    out_path: PathBuf,
    started: Instant,
    deadline_killed: bool,
}

/// The dispatcher: owns the pending queue, the running pool, the latency
/// EWMA, and the failure/retry state machine. See the module docs for
/// the scheduling policy.
pub struct Dispatcher<'a> {
    exe: PathBuf,
    spec_path: PathBuf,
    scratch: &'a Scratch,
    cfg: DispatchConfig,
    pending: VecDeque<Chunk>,
    running: Vec<InFlight>,
    /// Chunks enqueued but not yet successfully harvested, per wave.
    outstanding: Vec<usize>,
    /// Successfully harvested chunk reports, tagged with their wave.
    completed: Vec<(usize, Report)>,
    ewma_ms: Option<f64>,
    next_file: usize,
    /// Every failure observed, newest last (feeds the abort diagnostic
    /// and the checkpoint's failure log).
    pub failures: Vec<String>,
    /// Attempts beyond the first that eventually produced a report.
    pub retries_used: usize,
}

impl<'a> Dispatcher<'a> {
    pub fn new(
        spec_path: PathBuf,
        scratch: &'a Scratch,
        cfg: DispatchConfig,
    ) -> Result<Dispatcher<'a>, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find the mrw binary: {e}"))?;
        Ok(Dispatcher {
            exe,
            spec_path,
            scratch,
            cfg,
            pending: VecDeque::new(),
            running: Vec::new(),
            outstanding: Vec::new(),
            completed: Vec::new(),
            ewma_ms: None,
            next_file: 0,
            failures: Vec::new(),
            retries_used: 0,
        })
    }

    /// Adds a chunk to the pending queue. Chunks from any wave may be
    /// enqueued at any time — that is what keeps the pool full across
    /// adaptive wave boundaries.
    pub fn enqueue(&mut self, chunk: Chunk) {
        if self.outstanding.len() <= chunk.wave {
            self.outstanding.resize(chunk.wave + 1, 0);
        }
        self.outstanding[chunk.wave] += 1;
        self.pending.push_back(chunk);
    }

    /// Drains the completed reports belonging to one wave.
    pub fn take_completed(&mut self, wave: usize) -> Vec<Report> {
        let mut taken = Vec::new();
        let mut rest = Vec::with_capacity(self.completed.len());
        for (w, r) in self.completed.drain(..) {
            if w == wave {
                taken.push(r);
            } else {
                rest.push((w, r));
            }
        }
        self.completed = rest;
        taken
    }

    /// Runs the pool until every chunk of `wave` has reported (chunks of
    /// *other* waves keep being spawned and harvested in the background —
    /// the pool never drains at a wave boundary). On retry exhaustion the
    /// dispatcher kills and reaps everything still in flight and returns
    /// the exhaustion description; completed reports stay available for
    /// checkpointing via [`take_completed`](Dispatcher::take_completed).
    pub fn run_until_wave_done(&mut self, wave: usize) -> Result<(), String> {
        while self.outstanding.get(wave).copied().unwrap_or(0) > 0 {
            if let Err(e) = self.step() {
                self.abort_in_flight();
                return Err(e);
            }
        }
        Ok(())
    }

    /// Kills and reaps every running worker and forgets the pending
    /// queue, folding the un-run chunks back into the bookkeeping that
    /// [`missing_ranges`](Dispatcher::missing_ranges) reports. Used on
    /// abort, and to cancel optimistically dispatched waves that the
    /// stopping rule retired.
    pub fn abort_in_flight(&mut self) {
        for mut worker in self.running.drain(..) {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
            let _ = std::fs::remove_file(&worker.out_path);
            self.pending.push_back(worker.chunk);
        }
    }

    /// The trial ranges of every chunk that has not completed (pending,
    /// backoff-delayed, or reaped by [`Dispatcher::abort_in_flight`]),
    /// coalesced.
    /// After an exhaustion abort this is exactly the work a resume still
    /// has to do within the dispatched windows.
    pub fn missing_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = self
            .pending
            .iter()
            .map(|c| (c.range.start as u64, c.range.end as u64))
            .chain(
                self.running
                    .iter()
                    .map(|w| (w.chunk.range.start as u64, w.chunk.range.end as u64)),
            )
            .collect();
        ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, prev_hi)) if lo <= *prev_hi => *prev_hi = (*prev_hi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    }

    /// The deadline currently applied to in-flight chunks.
    ///
    /// Both arms saturate instead of trusting their arithmetic: a huge
    /// `--deadline-ms` would overflow `Duration * u32` (a panic — rule P1
    /// forbids that here), and an enormous EWMA would silently wrap the
    /// `f64 → u64` cast. An effectively-infinite deadline just means the
    /// hang policy is off, which is exactly what such a flag asks for.
    fn deadline(&self) -> Duration {
        match self.ewma_ms {
            Some(ewma) => {
                let ms = (ewma * DEADLINE_FACTOR).ceil();
                let from_ewma = if ms.is_finite() && ms < u64::MAX as f64 {
                    Duration::from_millis(ms.max(0.0) as u64)
                } else {
                    Duration::MAX
                };
                from_ewma.max(self.cfg.deadline_floor)
            }
            None => self.cfg.deadline_floor.saturating_mul(COLD_START_FACTOR),
        }
    }

    /// One scheduling pass: fill free worker slots with ready chunks,
    /// poll the running pool, enforce deadlines, harvest or retry. Sleeps
    /// briefly when nothing completed, so callers can loop tightly.
    fn step(&mut self) -> Result<(), String> {
        let now = Instant::now();
        // Fill free slots. Prefer the lowest wave among ready chunks so
        // retries of the wave a caller is waiting on are never starved by
        // optimistically pipelined later waves.
        while self.running.len() < self.cfg.workers {
            let best = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, c)| c.ready(now))
                .min_by_key(|(_, c)| (c.wave, c.range.start))
                .map(|(i, _)| i);
            let Some(i) = best else { break };
            // The index comes from enumerate() above, but a failed remove
            // must not panic the dispatcher mid-run (rule P1).
            let Some(chunk) = self.pending.remove(i) else {
                break;
            };
            if let Err(e) = self.spawn(chunk.clone()) {
                self.chunk_failed(chunk, e)?;
            }
        }
        // Poll the pool.
        let mut progressed = false;
        let mut idx = 0;
        while idx < self.running.len() {
            let exited = match self.running[idx].child.try_wait() {
                Ok(status) => status.is_some(),
                Err(_) => true, // treat an unpollable child as dead
            };
            if !exited {
                let elapsed = self.running[idx].started.elapsed();
                let deadline = self.deadline();
                if elapsed > deadline && !self.running[idx].deadline_killed {
                    // Hung (or far past any plausible latency): SIGKILL
                    // and let the normal failure path requeue the range.
                    self.running[idx].deadline_killed = true;
                    let _ = self.running[idx].child.kill();
                }
                idx += 1;
                continue;
            }
            let mut worker = self.running.swap_remove(idx);
            progressed = true;
            match self.harvest(&mut worker) {
                Ok(report) => {
                    self.retries_used += worker.chunk.attempt;
                    let sample = worker.started.elapsed().as_secs_f64() * 1e3;
                    self.ewma_ms = Some(match self.ewma_ms {
                        Some(e) => EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * e,
                        None => sample,
                    });
                    let _ = std::fs::remove_file(&worker.out_path);
                    self.outstanding[worker.chunk.wave] -= 1;
                    self.completed.push((worker.chunk.wave, report));
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&worker.out_path);
                    self.chunk_failed(worker.chunk, e)?;
                }
            }
        }
        if !progressed {
            std::thread::sleep(POLL_INTERVAL);
        }
        Ok(())
    }

    fn spawn(&mut self, chunk: Chunk) -> Result<(), String> {
        let out_path = self
            .scratch
            .path(&format!("report-{}.json", self.next_file));
        self.next_file += 1;
        let out =
            std::fs::File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
        let mut cmd = Command::new(&self.exe);
        cmd.arg("shard")
            .arg(&self.spec_path)
            .arg("--range")
            .arg(format!("{}..{}", chunk.range.start, chunk.range.end));
        if let Some(groups) = &chunk.groups {
            let csv: Vec<String> = groups.iter().map(|g| g.to_string()).collect();
            cmd.arg("--groups").arg(csv.join(","));
        }
        if let Some(t) = self.cfg.threads {
            cmd.arg("--threads").arg(t.to_string());
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::from(out))
            .spawn()
            .map_err(|e| format!("spawning worker for trials {:?}: {e}", chunk.range))?;
        self.running.push(InFlight {
            chunk,
            child,
            out_path,
            started: Instant::now(),
            deadline_killed: false,
        });
        Ok(())
    }

    /// Validates one finished worker: clean exit, parseable report with
    /// the right schema version, and coverage exactly matching the
    /// assigned range. Anything else is a retryable failure.
    fn harvest(&mut self, worker: &mut InFlight) -> Result<Report, String> {
        let status = worker.child.wait().map_err(|e| format!("wait: {e}"))?;
        if worker.deadline_killed {
            return Err(format!(
                "worker for trials {:?} exceeded the {} ms deadline on attempt {} (SIGKILLed as hung)",
                worker.chunk.range,
                self.deadline().as_millis(),
                worker.chunk.attempt + 1
            ));
        }
        if !status.success() {
            return Err(format!(
                "worker for trials {:?} died ({status}) on attempt {}",
                worker.chunk.range,
                worker.chunk.attempt + 1
            ));
        }
        let text = std::fs::read_to_string(&worker.out_path)
            .map_err(|e| format!("{}: {e}", worker.out_path.display()))?;
        let report = Report::from_json(&text).map_err(|e| {
            format!(
                "worker for trials {:?} emitted a malformed report: {e}",
                worker.chunk.range
            )
        })?;
        let expected = [(
            worker.chunk.range.start as u64,
            worker.chunk.range.end as u64,
        )];
        if report.coverage.ranges() != expected {
            return Err(format!(
                "worker for trials {:?} reported coverage {:?}",
                worker.chunk.range,
                report.coverage.ranges()
            ));
        }
        Ok(report)
    }

    /// Requeues a failed chunk with exponential backoff and deterministic
    /// seeded jitter, or signals retry exhaustion. The exhausted chunk
    /// goes back on the pending queue so `missing_ranges` accounts for
    /// it.
    fn chunk_failed(&mut self, chunk: Chunk, error: String) -> Result<(), String> {
        eprintln!("mrw fanout: {error}");
        self.failures.push(error);
        if chunk.attempt < self.cfg.retries {
            // 2^attempt × base, stretched by up to +50% of deterministic
            // jitter so simultaneous failures do not retry in lockstep.
            let shift = chunk.attempt.min(16) as u32;
            let base = BACKOFF_BASE
                .checked_mul(1 << shift)
                .unwrap_or(BACKOFF_CAP)
                .min(BACKOFF_CAP);
            let word = SplitMix64::word(
                self.cfg.jitter_seed ^ (chunk.range.start as u64),
                chunk.attempt as u64,
            );
            let jitter = (word >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            let delay = base.mul_f64(1.0 + 0.5 * jitter);
            self.pending.push_back(Chunk {
                attempt: chunk.attempt + 1,
                not_before: Some(Instant::now() + delay),
                ..chunk
            });
            return Ok(());
        }
        let exhausted = format!(
            "trials {:?} failed {} attempt(s)",
            chunk.range,
            chunk.attempt + 1
        );
        self.pending.push_back(chunk);
        Err(exhausted)
    }
}

impl Drop for Dispatcher<'_> {
    /// No exit path leaves orphan children computing into a scratch
    /// directory that is about to vanish — including panics and early
    /// returns the explicit abort paths never see.
    fn drop(&mut self) {
        for worker in &mut self.running {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
            let _ = std::fs::remove_file(&worker.out_path);
        }
    }
}

/// Folds harvested chunk reports into one. [`Report::merge`] is exact
/// and associative over disjoint coverage, so the fold order does not
/// matter; overlap rejection inside `merge` keeps double-dispatch a
/// structural impossibility. Shared by `fanout` and the serve-side
/// delegation path.
pub(crate) fn merge_all(reports: &[Report]) -> Result<Report, String> {
    let mut it = reports.iter();
    let first = it.next().ok_or("no shard reports to merge")?.clone();
    it.try_fold(first, |acc, r| Report::merge(&acc, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatcher_with_floor(scratch: &Scratch, floor: Duration) -> Dispatcher<'_> {
        let cfg = DispatchConfig {
            workers: 1,
            retries: 0,
            threads: None,
            deadline_floor: floor,
            jitter_seed: 0,
        };
        Dispatcher::new(scratch.path("spec.json"), scratch, cfg).unwrap()
    }

    /// `--deadline-ms u64::MAX/1000` used to panic in the cold-start arm
    /// (`Duration * u32` overflow) before any latency sample existed.
    #[test]
    fn huge_deadline_floor_saturates_instead_of_panicking() {
        let scratch = Scratch::new().unwrap();
        let floor = Duration::from_millis(u64::MAX / 1000);
        let mut d = dispatcher_with_floor(&scratch, floor);

        // Cold start: no EWMA sample yet.
        assert!(d.deadline() >= floor);

        // Warm: an absurd EWMA must saturate, not wrap the f64 → u64 cast.
        d.ewma_ms = Some(f64::MAX);
        assert_eq!(d.deadline(), Duration::MAX);

        // A sane EWMA still floors at the configured minimum.
        d.ewma_ms = Some(1.0);
        assert!(d.deadline() >= floor);
    }

    /// The normal regime is untouched by the saturating rewrite.
    #[test]
    fn deadline_tracks_the_latency_ewma() {
        let scratch = Scratch::new().unwrap();
        let mut d = dispatcher_with_floor(&scratch, Duration::from_millis(5));
        assert_eq!(d.deadline(), Duration::from_millis(50)); // 10 × floor
        d.ewma_ms = Some(100.0);
        assert_eq!(d.deadline(), Duration::from_millis(800)); // 8 × ewma
        d.ewma_ms = Some(0.25);
        assert_eq!(d.deadline(), Duration::from_millis(5)); // floored
    }
}
