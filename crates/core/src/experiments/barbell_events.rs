//! Theorem 26's proof events `E1, E2, E3`, measured directly.
//!
//! The [barbell experiment](crate::experiments::barbell) checks the
//! theorem's conclusion (`C^k_{v_c} = O(n)` at `k = 20 ln n`); this one
//! opens the proof and estimates the probability of each bad event it
//! excludes:
//!
//! * **E1** — after the first step, one of the bells holds fewer than
//!   `4 ln n` tokens. (Each token moves to either bell w.p. 1/2; Chernoff
//!   makes the deficit exponentially unlikely at `k = 20 ln n`.)
//! * **E2** — during the first `10n` rounds, at least `2 ln n` tokens
//!   return to the center. (A token inside a bell of size `m` escapes to
//!   the center w.p. ≈ `1/m²` per round — returns are rare.)
//! * **E3** — one of the bells is not internally covered within `10n`
//!   rounds. (Each bell holds ≥ `4 ln n` coupon collectors.)
//!
//! The theorem budgets `1/n⁵` for each event *asymptotically*. At
//! reachable sizes the three behave differently: E1 and E3 are dead
//! already at `n = 65` (their Chernoff exponents have small constants),
//! while E2's expected return count scales like `800·ln n/n · ln n`
//! relative to its `2 ln n` threshold — it fires with probability ≈ 1 at
//! small `n` and only dies out in the thousands. The experiment therefore
//! *asserts* E1 = E3 = 0, *reports* the decaying `Pr[E2]` trend, and runs
//! a deliberately under-provisioned control (`k = ⌈ln n⌉`) that must fire
//! E1 — so the harness demonstrably can detect the events. Crucially, the
//! theorem's conclusion (`C^k/n` bounded) holds at every size even while
//! E2 still fires: E2 is a proof artifact, not a performance cliff.

use mrw_graph::generators::{barbell, barbell_center};
use mrw_graph::Graph;
use mrw_stats::Table;
use rand::Rng;

use crate::engine::{FullCover, Observer, SimpleStep};
use crate::query::Budget;
use crate::walk::walk_rng;

/// Configuration for the barbell proof-events experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Barbell sizes `n` (odd).
    pub ns: Vec<usize>,
    /// Trial budget per size.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ns: vec![65, 129, 257, 513, 1025],
            budget: Budget {
                trials: 200,
                ..Budget::default()
            },
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            ns: vec![65, 129],
            budget: Budget {
                trials: 80,
                ..Budget::quick()
            },
        }
    }
}

/// Event frequencies at one barbell size.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Barbell size.
    pub n: usize,
    /// `k = ⌈20 ln n⌉` tokens (the theorem's choice).
    pub k: usize,
    /// Trials run.
    pub trials: usize,
    /// Times E1 fired (a bell under-populated after step 1).
    pub e1: usize,
    /// Times E2 fired (≥ 2 ln n returns to center in 10n rounds).
    pub e2: usize,
    /// Times E3 fired (a bell uncovered after 10n rounds).
    pub e3: usize,
    /// Times E1 fired in the control arm with only `⌈ln n⌉` tokens.
    pub e1_control: usize,
    /// Mean rounds to full cover from the center (for the `C^k/n` ratio).
    pub mean_cover: f64,
}

impl Row {
    /// `C^k_{v_c} / n` — must stay bounded for the `O(n)` claim.
    pub fn cover_ratio(&self) -> f64 {
        self.mean_cover / self.n as f64
    }
}

/// Report over the size ladder.
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per `n`.
    pub rows: Vec<Row>,
}

impl Report {
    /// Renders the event table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "n",
            "k=20 ln n",
            "Pr[E1]",
            "Pr[E2]",
            "Pr[E3]",
            "Pr[E1] @ k=ln n",
            "C^k/n",
        ])
        .with_title("Theorem 26 — proof events on the barbell (walks from the center)");
        for r in &self.rows {
            let frac = |c: usize| format!("{}/{}", c, r.trials);
            t.push_row(vec![
                r.n.to_string(),
                r.k.to_string(),
                frac(r.e1),
                frac(r.e2),
                frac(r.e3),
                frac(r.e1_control),
                format!("{:.2}", r.cover_ratio()),
            ]);
        }
        t
    }
}

/// Which bell a vertex belongs to: 0, 1, or none (the center).
fn bell_of(v: u32, m: usize) -> Option<usize> {
    if (v as usize) < m {
        Some(0)
    } else if (v as usize) < 2 * m {
        Some(1)
    } else {
        None
    }
}

/// Tracks the Theorem 26 proof events on top of the engine's cover
/// bookkeeping: round-1 bell arrivals (E1), distinct center returns (E2),
/// and — via the cover tracker's bitset — bell coverage at the horizon
/// (E3). Never stops early; the horizon is the engine cap.
struct EventsObserver {
    m: usize,
    center: u32,
    cover: FullCover,
    started: bool,
    round: u64,
    bell_counts: [usize; 2],
    returned: Vec<bool>,
    distinct_returns: usize,
    cover_round: Option<u64>,
}

impl Observer for EventsObserver {
    fn visit(&mut self, token: usize, v: u32) {
        self.cover.visit(token, v);
        if !self.started {
            return; // initial placement at the center
        }
        if self.round == 0 {
            // Round 1: where did each token leave the center to?
            if let Some(bi) = bell_of(v, self.m) {
                self.bell_counts[bi] += 1;
            }
        } else if v == self.center && !self.returned[token] {
            self.returned[token] = true;
            self.distinct_returns += 1;
        }
    }

    fn done(&self) -> bool {
        false
    }

    fn placed<G: mrw_graph::GraphBackend>(&mut self, _g: &G, _positions: &[u32]) {
        self.started = true;
    }

    fn end_round<G: mrw_graph::GraphBackend, R: Rng + ?Sized>(
        &mut self,
        _g: &G,
        _positions: &[u32],
        _rng: &mut R,
    ) -> bool {
        self.round += 1;
        if self.cover.done() && self.cover_round.is_none() {
            self.cover_round = Some(self.round);
        }
        false
    }
}

/// One trial: runs `k` tokens from the center for `horizon` rounds and
/// reports `(e1, e2, e3, cover_rounds_if_within_horizon)`. E1 is decided
/// by round 1; E2, E3 and the cover round mean what the theorem says only
/// at its `10n`-round horizon.
fn trial(
    g: &Graph,
    n: usize,
    k: usize,
    horizon: u64,
    seed: u64,
    budget: &Budget,
) -> (bool, bool, bool, Option<u64>) {
    let m = (n - 1) / 2;
    let center = barbell_center(n);
    let threshold = (4.0 * (n as f64).ln()).floor() as usize;
    let returns_cap = (2.0 * (n as f64).ln()).ceil() as usize;

    let mut rng = walk_rng(seed);
    let observer = EventsObserver {
        m,
        center,
        cover: FullCover::new(g.n()),
        started: false,
        round: 0,
        bell_counts: [0; 2],
        returned: vec![false; k],
        distinct_returns: 0,
        cover_round: None,
    };
    let out = budget
        .engine(g, SimpleStep, observer)
        .cap(horizon)
        .run(&vec![center; k], &mut rng);
    let o = out.observer;
    let e1 = o.bell_counts[0] < threshold || o.bell_counts[1] < threshold;
    let e2 = o.distinct_returns >= returns_cap;
    // E3: a bell not covered within the horizon — equivalently some bell
    // vertex unvisited.
    let e3 = (0..(2 * m) as u32).any(|v| !o.cover.visited().contains(v));
    (e1, e2, e3, o.cover_round)
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Report {
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        assert!(
            n % 2 == 1 && n >= 65,
            "need odd n ≥ 65 so 4 ln n < k/2, got {n}"
        );
        let g = barbell(n);
        let k = (20.0 * (n as f64).ln()).ceil() as usize;
        let k_control = (n as f64).ln().ceil() as usize;
        let trials = cfg.budget.trials;
        let (mut e1, mut e2, mut e3) = (0usize, 0usize, 0usize);
        let mut e1_control = 0usize;
        let mut cover_sum = 0.0f64;
        let mut covered_trials = 0usize;
        for t in 0..trials {
            let seed = cfg.budget.seed ^ ((n as u64) << 32) ^ t as u64;
            let (a, b, c, cover) = trial(&g, n, k, 10 * n as u64, seed, &cfg.budget);
            e1 += a as usize;
            e2 += b as usize;
            e3 += c as usize;
            if let Some(r) = cover {
                cover_sum += r as f64;
                covered_trials += 1;
            }
            // The control arm only counts E1, so one round suffices.
            let (ac, _, _, _) = trial(&g, n, k_control, 1, seed ^ 0xDEAD, &cfg.budget);
            e1_control += ac as usize;
        }
        rows.push(Row {
            n,
            k,
            trials,
            e1,
            e2,
            e3,
            e1_control,
            mean_cover: if covered_trials > 0 {
                cover_sum / covered_trials as f64
            } else {
                f64::NAN
            },
        });
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_and_e3_never_fire_at_theorem_k() {
        let report = run(&Config::quick());
        for r in &report.rows {
            assert_eq!(r.e1, 0, "n={}: E1 fired {} times", r.n, r.e1);
            assert_eq!(r.e3, 0, "n={}: E3 fired {} times", r.n, r.e3);
        }
    }

    #[test]
    fn e2_rate_reported_and_bounded() {
        // E2 is asymptotic; at quick sizes it may fire freely — the row
        // must still be a valid frequency and the conclusion (cover =
        // O(n)) must hold regardless (checked in cover_is_linear_in_n).
        let report = run(&Config::quick());
        for r in &report.rows {
            assert!(r.e2 <= r.trials);
        }
    }

    #[test]
    fn control_arm_detects_e1() {
        // With only ln n tokens, 4 ln n per bell is impossible: E1 always.
        let report = run(&Config::quick());
        for r in &report.rows {
            assert_eq!(
                r.e1_control, r.trials,
                "n={}: control E1 fired {}/{}",
                r.n, r.e1_control, r.trials
            );
        }
    }

    #[test]
    fn cover_is_linear_in_n() {
        let report = run(&Config::quick());
        for r in &report.rows {
            assert!(
                r.cover_ratio().is_finite() && r.cover_ratio() < 10.0,
                "n={}: C^k/n = {}",
                r.n,
                r.cover_ratio()
            );
        }
        // Ratio roughly flat across the ladder (O(n), not ω(n)).
        let first = report.rows.first().unwrap().cover_ratio();
        let last = report.rows.last().unwrap().cover_ratio();
        assert!(last < 2.5 * first, "ratio grows: {first} → {last}");
    }

    #[test]
    fn no_batch_reaches_the_theorem_arm() {
        // The ⌈20 ln n⌉-token arm (k ≥ 64) batches under the default
        // budget; `BatchMode::Never` must put it on the scalar loop, whose
        // different stream moves the mean cover time. (The printed table
        // rounds C^k/n to two decimals, so `--quick` output cannot show it.)
        let auto = run(&Config::quick());
        let mut cfg = Config::quick();
        cfg.budget.batch = crate::engine::BatchMode::Never;
        let never = run(&cfg);
        for (a, b) in auto.rows.iter().zip(&never.rows) {
            assert_ne!(a.mean_cover, b.mean_cover, "n={}: --no-batch ignored", a.n);
        }
    }

    #[test]
    fn table_renders() {
        let report = run(&Config::quick());
        assert!(report.table().render_ascii().contains("Theorem 26"));
    }

    #[test]
    #[should_panic(expected = "odd n")]
    fn even_n_rejected() {
        let mut cfg = Config::quick();
        cfg.ns = vec![64];
        run(&cfg);
    }
}
