//! Monte-Carlo hitting times and `h_max` estimation for graphs too large
//! for the `O(n³)` exact solver.
//!
//! Strategy for `h_max = max_{u,v} h(u,v)`:
//!
//! * **small graphs** — delegate to `mrw_spectral::hitting_times_all`
//!   (exact; the experiments use this up to ~800 vertices);
//! * **large graphs** — Monte-Carlo over candidate pairs. Scanning all
//!   `n(n−1)` pairs is hopeless, but on every family in the paper the
//!   maximizing pair is (or is tied with) a BFS-diametral pair, so we take
//!   the two-sweep endpoints plus a deterministic sample of far pairs and
//!   estimate each by simulation. The result is a lower bound on `h_max`
//!   that is tight on the paper's families — and the experiments that
//!   *depend* on `h_max` (Matthews sandwich, Baby-Matthews) also run the
//!   exact path on sizes where both are available to validate the MC one.
//!
//! Execution lives in [`Session`](crate::query::Session):
//! [`Query::Hitting`](crate::query::Query) and
//! [`Query::HMax`](crate::query::Query) estimates come back as
//! [`Report`](crate::query::Report)s, and
//! [`Session::hmax`](crate::query::Session::hmax) picks between the exact
//! solver and the Monte-Carlo search. This module keeps the deterministic
//! planning helpers ([`hmax_candidates`], [`hmax_mc_cap`]) those paths
//! share.

use mrw_graph::{algo, GraphBackend};

/// Result of an `h_max` search.
#[derive(Debug, Clone)]
pub struct HmaxEstimate {
    /// The estimated maximum hitting time.
    pub hmax: f64,
    /// Whether the value is exact (spectral solve) or a Monte-Carlo lower
    /// bound over candidate pairs.
    pub exact: bool,
}

/// Vertex-count threshold below which
/// [`Session::hmax`](crate::query::Session::hmax) uses the exact `O(n³)`
/// fundamental-matrix solver.
pub const EXACT_HMAX_LIMIT: usize = 800;

/// The deterministic candidate pairs a [`Query::HMax`](crate::query::Query)
/// probes: two-sweep BFS-diametral endpoints in both orientations, plus
/// evenly spaced far pairs. One report group per pair, in this order.
pub fn hmax_candidates<G: GraphBackend>(g: &G) -> Vec<(u32, u32)> {
    let d0 = algo::bfs_distances(g, 0);
    let far1 = d0
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .map(|(i, _)| i as u32)
        .expect("non-empty graph");
    let d1 = algo::bfs_distances(g, far1);
    let far2 = d1
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .map(|(i, _)| i as u32)
        .expect("non-empty graph");

    let mut candidates = vec![(far1, far2), (far2, far1)];
    let stride = (g.n() / 4).max(1);
    for i in 0..4 {
        let u = ((i * stride) % g.n()) as u32;
        if u != far2 {
            candidates.push((u, far2));
        }
        if u != far1 {
            candidates.push((far1, u));
        }
    }
    candidates
}

/// The per-walk step cap a [`Query::HMax`](crate::query::Query) uses: a
/// generous multiple of a cheap upper-scale proxy (`m·n` covers
/// `h_max ≤ 2mn` from the standard commute-time bound; we use `4mn`,
/// floored at 10⁶).
pub fn hmax_mc_cap<G: GraphBackend>(g: &G) -> u64 {
    4u64.saturating_mul(g.m() as u64)
        .saturating_mul(g.n() as u64)
        .max(1_000_000)
}

#[cfg(test)]
mod tests {
    use crate::query::{Budget, Query, Report, Session};
    use mrw_graph::generators;

    fn session(trials: usize, seed: u64, threads: usize) -> Session {
        Session::new(Budget {
            trials,
            seed,
            threads,
            ..Budget::default()
        })
    }

    fn hitting(session: Session, g: &mrw_graph::Graph, from: u32, to: u32, cap: u64) -> Report {
        session.run(g, &Query::Hitting { from, to, cap })
    }

    #[test]
    fn mc_matches_exact_on_cycle() {
        let n = 16;
        let g = generators::cycle(n);
        // h(0, 8) = 8 · 8 = 64 exactly.
        let report = hitting(session(3000, 77, 4), &g, 0, 8, 10_000_000);
        assert_eq!(report.groups[0].censored, 0);
        let mean = report.mean();
        assert!((mean - 64.0).abs() < 4.0, "mean {mean}");
    }

    #[test]
    fn small_graph_hmax_is_exact() {
        let g = generators::path(10);
        let e = session(10, 1, 2).hmax(&g);
        assert!(e.exact);
        assert!((e.hmax - 81.0).abs() < 1e-6); // (n−1)² = 81
    }

    #[test]
    fn capped_trials_reported() {
        let g = generators::cycle(64);
        let report = hitting(session(50, 5, 2), &g, 0, 32, 3);
        assert_eq!(report.groups[0].censored, 50);
        assert_eq!(report.groups[0].moments.count(), 0);
    }

    #[test]
    fn deterministic() {
        let g = generators::torus_2d(5);
        let a = hitting(session(64, 9, 1), &g, 0, 12, 1_000_000);
        let b = hitting(session(64, 9, 4), &g, 0, 12, 1_000_000);
        assert_eq!(a.groups, b.groups);
    }

    #[test]
    fn large_graph_takes_mc_path() {
        // Cycle of 1024 > EXACT_HMAX_LIMIT; hmax = (n/2)² = 262144; the
        // diametral candidates find exactly the antipodal pair.
        let g = generators::cycle(1024);
        let e = session(12, 3, 8).hmax(&g);
        assert!(!e.exact);
        let expect = 512.0 * 512.0;
        assert!(
            e.hmax > expect * 0.6 && e.hmax < expect * 1.5,
            "hmax {} vs theory {expect}",
            e.hmax
        );
    }
}
