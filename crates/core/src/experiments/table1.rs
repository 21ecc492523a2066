//! Table 1 — the paper's results summary, regenerated by measurement.
//!
//! For each of the seven families the paper tabulates (cycle, 2-d grid,
//! d-dim grid with d > 2, hypercube, complete graph, expander, Erdős–Rényi
//! random graph) we measure:
//!
//! * the single-walk cover time `C` (Monte Carlo, from vertex 0: the
//!   speed-up ladder's `k = 1` baseline),
//! * the maximum hitting time `h_max` (exact below the size limit,
//!   Monte-Carlo diametral search above),
//! * the mixing time `t_m` (exact lazy-walk distribution evolution), and
//! * the speed-up `S^k` at `k = ⌊ln n⌋` — the regime where every family in
//!   the table except the cycle is predicted linear (`S^k ≈ k`), and the
//!   cycle is predicted `Θ(log k)`.
//!
//! The paper's asymptotic predictions are printed alongside in each row.

use mrw_graph::{generators as gen, Graph};
use mrw_spectral::{mixing_time, MixingConfig};
use mrw_stats::Table;

use crate::query::{Budget, Query, Session};
use crate::walk::walk_rng;

/// One family's measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Family label as in the paper's Table 1.
    pub family: &'static str,
    /// Graph display name (with parameters).
    pub graph: String,
    /// Vertex count.
    pub n: usize,
    /// Measured single-walk cover time.
    pub cover: f64,
    /// Maximum hitting time (exact or MC lower bound).
    pub hmax: f64,
    /// Whether `hmax` is exact.
    pub hmax_exact: bool,
    /// Exact lazy mixing time (`None` if it exceeded the budget).
    pub t_m: Option<usize>,
    /// The `k` at which the speed-up was measured (`⌊ln n⌋`).
    pub k: usize,
    /// Measured `S^k`.
    pub speedup: f64,
    /// The paper's predicted speed-up regime for this family.
    pub predicted: &'static str,
}

/// Configuration for the Table 1 regeneration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Approximate family size (each generator rounds to its natural
    /// lattice: square for the torus, power of two for the hypercube…).
    pub n: usize,
    /// Trial budget.
    pub budget: Budget,
    /// Mixing-time step budget (slow families — the cycle — need `O(n²)`).
    pub mixing_budget: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1024,
            budget: Budget::default(),
            mixing_budget: 4_000_000,
        }
    }
}

impl Config {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        Config {
            n: 144,
            budget: Budget::quick(),
            mixing_budget: 200_000,
        }
    }
}

/// Results: one row per family.
#[derive(Debug, Clone)]
pub struct Report {
    /// Rows in the paper's order.
    pub rows: Vec<Row>,
}

impl Report {
    /// The row for a family label.
    pub fn row(&self, family: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.family == family)
    }

    /// Renders the regenerated Table 1.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Graph family",
            "n",
            "C measured",
            "h_max",
            "t_m (lazy)",
            "k=⌊ln n⌋",
            "S^k measured",
            "paper predicts",
        ])
        .with_title("Table 1 (regenerated) — cover time, hitting time, mixing time, speed-up");
        for r in &self.rows {
            t.push_row(vec![
                r.family.to_string(),
                r.n.to_string(),
                format!("{:.0}", r.cover),
                format!("{:.0}{}", r.hmax, if r.hmax_exact { "" } else { "+" }),
                r.t_m
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| ">budget".into()),
                r.k.to_string(),
                format!("{:.2}", r.speedup),
                r.predicted.to_string(),
            ]);
        }
        t
    }
}

fn build_families(cfg: &Config) -> Vec<(&'static str, Graph, &'static str)> {
    let n = cfg.n;
    let side = (n as f64).sqrt().round() as usize;
    let side3 = (n as f64).cbrt().round().max(3.0) as usize;
    let log2n = (n as f64).log2().round().max(2.0) as u32;
    let mut rng = walk_rng(cfg.budget.seed ^ 0x7AB1E);
    vec![
        ("cycle", gen::cycle(n), "log k"),
        ("2-dim grid", gen::torus_2d(side), "k, k < log^{1-e} n"),
        (
            "3-dim grid",
            gen::torus(&[side3, side3, side3]),
            "k, k < log^{1-e} n",
        ),
        ("hypercube", gen::hypercube(log2n), "k, k < log^{1-e} n"),
        ("complete graph", gen::complete(n), "k, k < n"),
        (
            "expander",
            gen::random_regular(n, 8, &mut rng).expect("regular generation failed"),
            "Omega(k), k < n",
        ),
        (
            "E-R random graph",
            gen::erdos_renyi_connected_regime(n, 3.0, &mut rng),
            "k, k < log^{1-e} n",
        ),
    ]
}

/// Runs the full Table 1 regeneration.
pub fn run(cfg: &Config) -> Report {
    let families = build_families(cfg);
    let rows = families
        .into_iter()
        .map(|(family, g, predicted)| {
            let n = g.n();
            let k = ((n as f64).ln().floor() as usize).max(2);
            let ladder = Session::new(cfg.budget.clone()).run(
                &g,
                &Query::SpeedupLadder {
                    start: 0,
                    ks: vec![k],
                },
            );
            let hm = Session::new(Budget {
                trials: cfg.budget.trials.min(16),
                precision: None,
                ..cfg.budget.clone()
            })
            .hmax(&g);
            // Mixing: lazy walk (bipartite-safe), two probe starts (the
            // families are vertex-transitive or homogeneous random).
            let mix_cfg = MixingConfig::lazy()
                .with_starts(vec![0, (n / 2) as u32])
                .with_max_steps(cfg.mixing_budget);
            let t_m = mixing_time(&g, &mix_cfg);
            Row {
                family,
                graph: g.name().to_string(),
                n,
                cover: ladder.mean(),
                hmax: hm.hmax,
                hmax_exact: hm.exact,
                t_m,
                k,
                speedup: ladder.speedups()[0].2,
                predicted,
            }
        })
        .collect();
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut cfg = Config::quick();
        cfg.budget.trials = 32;
        cfg.budget.seed = 5;
        run(&cfg)
    }

    #[test]
    fn all_seven_families_present() {
        let r = report();
        assert_eq!(r.rows.len(), 7);
        for family in [
            "cycle",
            "2-dim grid",
            "3-dim grid",
            "hypercube",
            "complete graph",
            "expander",
            "E-R random graph",
        ] {
            assert!(r.row(family).is_some(), "{family} missing");
        }
    }

    #[test]
    fn qualitative_shape_matches_paper() {
        let r = report();
        let k = r.row("cycle").unwrap().k as f64;
        // Linear families at k = ⌊ln n⌋: near-linear speed-up. (The cycle's
        // Θ(log k) law is only separable from linear at much larger k; the
        // dedicated Theorem 6 experiment covers it — see experiments::cycle.)
        for family in ["complete graph", "expander", "hypercube", "2-dim grid"] {
            let s = r.row(family).unwrap().speedup;
            assert!(
                s > 0.5 * k,
                "{family}: S^k = {s} at k = {k} — expected near-linear"
            );
        }
        // Cycle cover time is Θ(n²): within a factor of the exact n(n−1)/2.
        let cyc = r.row("cycle").unwrap();
        let exact = crate::bounds::cycle_cover_exact(cyc.n as u64);
        let rel = (cyc.cover - exact).abs() / exact;
        assert!(rel < 0.2, "cycle C = {} vs exact {exact}", cyc.cover);
    }

    #[test]
    fn cover_time_ordering_matches_table() {
        // Cycle Θ(n²) ≫ complete Θ(n log n).
        let r = report();
        let c_cycle = r.row("cycle").unwrap().cover;
        let c_complete = r.row("complete graph").unwrap().cover;
        assert!(c_cycle > 4.0 * c_complete);
    }

    #[test]
    fn hitting_times_theta_n_families() {
        // Complete/hypercube/expander: h_max = Θ(n) — within small factors.
        let r = report();
        for family in ["complete graph", "expander", "hypercube"] {
            let row = r.row(family).unwrap();
            let ratio = row.hmax / row.n as f64;
            assert!(ratio > 0.5 && ratio < 8.0, "{family}: h_max/n = {ratio}");
        }
    }

    #[test]
    fn mixing_ordering() {
        // t_m: complete < hypercube < torus < cycle (cycle may exceed the
        // quick budget — treat None as "largest").
        let r = report();
        let tm = |f: &str| {
            r.row(f)
                .unwrap()
                .t_m
                .map(|x| x as f64)
                .unwrap_or(f64::INFINITY)
        };
        assert!(tm("complete graph") <= tm("hypercube"));
        assert!(tm("hypercube") <= tm("2-dim grid"));
        assert!(tm("2-dim grid") <= tm("cycle"));
    }

    #[test]
    fn rendered_table_mentions_every_family() {
        let ascii = report().table().render_ascii();
        assert!(ascii.contains("cycle"));
        assert!(ascii.contains("expander"));
        assert!(ascii.contains("E-R random graph"));
    }
}
