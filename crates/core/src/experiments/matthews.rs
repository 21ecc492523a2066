//! Theorem 1 — Matthews' sandwich `h_min·H_{n−1} ≤ C(G) ≤ h_max·H_n`.
//!
//! The hitting times are computed *exactly* (fundamental matrix) and the
//! cover time by Monte Carlo, so a violation would indicate an engine bug,
//! not noise. One finite-size subtlety: the paper states the lower bound
//! as `h_min·H_n`, which at finite `n` fails marginally on the complete
//! graph (`C(K_n) = (n−1)·H_{n−1}` but `h_min·H_n = (n−1)·H_n`). Matthews'
//! actual lower bound uses `H_{n−1}`; both sides of the sandwich come
//! from [`bounds`].

use mrw_graph::Graph;
use mrw_spectral::hitting_times_all;
use mrw_stats::Table;

use crate::bounds;
use crate::experiments::worst_start_cover;
use crate::query::Budget;

/// One family's sandwich check.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph display name.
    pub graph: String,
    /// Vertex count.
    pub n: usize,
    /// Exact minimum hitting time.
    pub hmin: f64,
    /// Exact maximum hitting time.
    pub hmax: f64,
    /// Measured cover time (worst of the probed starts).
    pub cover: f64,
    /// `h_min · H_{n−1}` (Matthews lower).
    pub lower: f64,
    /// `h_max · H_n` (Matthews upper).
    pub upper: f64,
}

impl Row {
    /// Whether the sandwich holds (with `tol` relative slack for the
    /// Monte-Carlo error on `cover`).
    pub fn holds(&self, tol: f64) -> bool {
        self.cover >= self.lower * (1.0 - tol) && self.cover <= self.upper * (1.0 + tol)
    }

    /// Tightness ratio `C / (h_max·H_n)` — 1 means Matthews is tight.
    pub fn tightness(&self) -> f64 {
        self.cover / self.upper
    }
}

/// Configuration: the graphs to check and the trial budget.
pub struct Config {
    /// Graphs to check (kept small: exact hitting times are `O(n³)`).
    pub graphs: Vec<Graph>,
    /// Trial budget.
    pub budget: Budget,
}

impl Default for Config {
    fn default() -> Self {
        use mrw_graph::generators as gen;
        Config {
            graphs: vec![
                gen::complete(128),
                gen::cycle(128),
                gen::path(128),
                gen::torus_2d(12),
                gen::hypercube(7),
                gen::balanced_tree(2, 6),
                gen::barbell(129),
                gen::lollipop(128),
            ],
            budget: Budget::default(),
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        use mrw_graph::generators as gen;
        Config {
            graphs: vec![
                gen::complete(32),
                gen::cycle(32),
                gen::path(24),
                gen::torus_2d(5),
                gen::hypercube(5),
                gen::barbell(33),
            ],
            budget: Budget::quick(),
        }
    }
}

/// Results of the sandwich check.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-family rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "graph",
            "n",
            "h_min",
            "h_max",
            "h_min·H_{n-1}",
            "C measured",
            "h_max·H_n",
            "C/upper",
        ])
        .with_title("Theorem 1 — Matthews' sandwich (hitting times exact, cover Monte-Carlo)");
        for r in &self.rows {
            t.push_row(vec![
                r.graph.clone(),
                r.n.to_string(),
                format!("{:.1}", r.hmin),
                format!("{:.1}", r.hmax),
                format!("{:.0}", r.lower),
                format!("{:.0}", r.cover),
                format!("{:.0}", r.upper),
                format!("{:.3}", r.tightness()),
            ]);
        }
        t
    }
}

/// Runs the check.
pub fn run(cfg: &Config) -> Report {
    let rows = cfg
        .graphs
        .iter()
        .map(|g| {
            let ht = hitting_times_all(g);
            let n = g.n();
            let cover = worst_start_cover(g, &cfg.budget);
            Row {
                graph: g.name().to_string(),
                n,
                hmin: ht.hmin(),
                hmax: ht.hmax(),
                cover,
                lower: bounds::matthews_lower(ht.hmin(), n as u64),
                upper: bounds::matthews_upper(ht.hmax(), n as u64),
            }
        })
        .collect();
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandwich_holds_on_all_families() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 48;
        cfg.budget.seed = 21;
        let report = run(&cfg);
        assert_eq!(report.rows.len(), 6);
        for r in &report.rows {
            assert!(
                r.holds(0.12),
                "{}: sandwich violated — lower {} ≤ C {} ≤ upper {} fails",
                r.graph,
                r.lower,
                r.cover,
                r.upper
            );
        }
    }

    #[test]
    fn tightness_separates_families() {
        // Matthews is tight (ratio near 1) on the complete graph, loose on
        // the path (C = h_max, so ratio ≈ 1/H_n).
        let mut cfg = Config::quick();
        cfg.budget.trials = 48;
        let report = run(&cfg);
        let get = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.graph.starts_with(name))
                .unwrap_or_else(|| panic!("{name} missing"))
                .tightness()
        };
        assert!(get("complete") > 0.8);
        assert!(get("path") < 0.5);
        assert!(get("complete") > 2.0 * get("path"));
    }

    #[test]
    fn table_has_all_rows() {
        let mut cfg = Config::quick();
        cfg.budget.trials = 8;
        let report = run(&cfg);
        assert_eq!(report.table().len(), report.rows.len());
    }
}
