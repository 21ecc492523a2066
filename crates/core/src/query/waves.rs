//! The adaptive wave driver: the one sequential policy behind every
//! executor.
//!
//! An adaptive budget samples in *windows* — first the rule's
//! minimum-sample floor, then geometrically growing steps
//! ([`Precision::next_wave`](mrw_stats::Precision::next_wave)) up to the
//! hard cap — checks the rule at each window end, and retires each group
//! the first time its own prefix satisfies it. A fixed budget is the
//! one-window case `[0, n)`. [`drive`] owns that whole policy: the window
//! schedule, the rule check, retirement, and finalization at the cap. A
//! [`WaveExecutor`] only answers one question — the still-active groups'
//! statistics over `[0, window end)` — which is what lets two very
//! different executors share it:
//!
//! * [`Session`](super::Session) runs each group's windows in-process
//!   through `mrw_par` and folds them into a running total;
//! * [`Ledger::answer`](super::Ledger::answer) answers each window end
//!   from per-group prefix windows and runs only the tails past them. It
//!   is how `mrw serve` answers from its report cache and how `mrw fanout`
//!   / `mrw resume` run windows on the work-stealing process pool (which
//!   starts the next window of its own schedule before the current one
//!   drains).
//!
//! The windows depend only on the budget, and the rule sees only exact
//! index-ordered prefix statistics, so every executor stops every group at
//! the same trial count — byte-identical reports, whatever ran the trials.

use std::ops::Range;

use mrw_stats::Trials;

use super::Group;

/// Where a wave [`drive`] runs its trials.
pub trait WaveExecutor {
    /// Why a window could not be answered. Driver-side consistency faults
    /// (an answer for the wrong number of groups) arrive through
    /// `From<String>`, so the driver returns errors and never panics.
    type Error: From<String>;

    /// The cumulative statistics over trials `[0, window.end)` of each
    /// group in `active`, in that order — or of every group, in report
    /// order, when `active` is `None` (the first window, before the group
    /// structure is known).
    ///
    /// `window.start` is where the previous window ended, so an executor
    /// that keeps running totals only has to run `window`. The windows
    /// follow [`windows`], and groups only ever retire, so an executor may
    /// start the next window early under the same `active` set: a
    /// superset of the groups that will actually need it.
    fn window(
        &mut self,
        active: Option<&[usize]>,
        window: Range<usize>,
    ) -> Result<Vec<Group>, Self::Error>;
}

/// The windows of a trial budget: `[0, n)` for [`Trials::Fixed`] (none
/// when `n == 0`), and the rule's [`next_wave`](mrw_stats::Precision::next_wave)
/// schedule up to its cap for [`Trials::Adaptive`].
///
/// ```
/// use mrw_core::query::waves;
/// use mrw_stats::{Precision, Trials};
///
/// let rule = Precision::relative(0.1).with_min_trials(16).with_max_trials(40);
/// assert_eq!(waves::windows(Trials::Adaptive(rule)), vec![0..16, 16..24, 24..36, 36..40]);
/// assert_eq!(waves::windows(Trials::Fixed(96)), vec![0..96]);
/// ```
pub fn windows(trials: Trials) -> Vec<Range<usize>> {
    match trials {
        Trials::Fixed(0) => Vec::new(),
        Trials::Fixed(n) => std::iter::once(0..n).collect(),
        Trials::Adaptive(rule) => {
            let mut windows = Vec::new();
            let mut consumed = 0;
            loop {
                let wave = rule.next_wave(consumed);
                if wave == 0 {
                    return windows;
                }
                windows.push(consumed..consumed + wave);
                consumed += wave;
            }
        }
    }
}

/// Drives `exec` through the windows of `trials` and returns every
/// group's final statistics in report order: its cumulative statistics at
/// the first window end where the budget's rule holds for it, or at the
/// last window end (the cap) if it never does. Only groups still active
/// are asked about each window; the drive stops once none is.
pub fn drive<X: WaveExecutor>(trials: Trials, exec: &mut X) -> Result<Vec<Group>, X::Error> {
    let rule = trials.precision().copied();
    let windows = windows(trials);
    let mut finished: Vec<Option<Group>> = Vec::new();
    let mut active: Option<Vec<usize>> = None;
    for (w, window) in windows.iter().enumerate() {
        let stats = exec.window(active.as_deref(), window.clone())?;
        let ids = match active.take() {
            Some(ids) => ids,
            None => {
                finished = vec![None; stats.len()];
                (0..stats.len()).collect()
            }
        };
        if stats.len() != ids.len() {
            return Err(format!(
                "wave executor answered {} group(s) for window {window:?}, expected {}",
                stats.len(),
                ids.len()
            )
            .into());
        }
        // `ids` index `finished` by construction: all groups at first,
        // then the survivors of the previous window.
        let mut still = Vec::with_capacity(ids.len());
        for (gi, group) in ids.into_iter().zip(stats) {
            if w + 1 == windows.len() || rule.is_some_and(|r| r.satisfied_by(&group.summary())) {
                finished[gi] = Some(group);
            } else {
                still.push(gi);
            }
        }
        if still.is_empty() {
            break;
        }
        active = Some(still);
    }
    // Every group retired at some window end or was finalized at the last.
    Ok(finished.into_iter().flatten().collect())
}
