//! Classic graph algorithms: BFS, connectivity, components, diameter.
//!
//! Cover-time experiments require connected graphs (otherwise the cover
//! time is infinite); every estimator asserts [`is_connected`] up front.
//! Diameter/eccentricity feed sanity checks (e.g. `h_max ≥ diameter`).

use std::collections::VecDeque;

use crate::backend::GraphBackend;
use crate::csr::Graph;

/// Sentinel distance for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src`; unreachable vertices get [`UNREACHABLE`].
///
/// Generic over [`GraphBackend`] so implicit families can be traversed
/// without materializing a CSR (the distance array is still `O(n)`).
pub fn bfs_distances<G: GraphBackend>(g: &G, src: u32) -> Vec<u32> {
    assert!((src as usize) < g.n(), "source {src} out of range");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        g.for_each_neighbor(v, |u| {
            if dist[u as usize] == UNREACHABLE {
                dist[u as usize] = dv + 1;
                queue.push_back(u);
            }
        });
    }
    dist
}

/// Whether the graph is connected (vacuously true for `n ≤ 1`).
///
/// Prefer [`GraphBackend::is_connected`] when the backend is abstract —
/// implicit families answer arithmetically without the `O(n)` BFS.
pub fn is_connected<G: GraphBackend>(g: &G) -> bool {
    if g.n() <= 1 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Connected components as a vector of component ids (`0..c`), numbered in
/// order of their smallest vertex.
pub fn connected_components(g: &Graph) -> Vec<u32> {
    let mut comp = vec![UNREACHABLE; g.n()];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..g.n() as u32 {
        if comp[start as usize] != UNREACHABLE {
            continue;
        }
        comp[start as usize] = next;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if comp[u as usize] == UNREACHABLE {
                    comp[u as usize] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Eccentricity of `src`: the greatest BFS distance to any vertex, or
/// `None` if some vertex is unreachable.
pub fn eccentricity<G: GraphBackend>(g: &G, src: u32) -> Option<u32> {
    let dist = bfs_distances(g, src);
    let max = *dist.iter().max().expect("non-empty graph");
    if max == UNREACHABLE {
        None
    } else {
        Some(max)
    }
}

/// Exact diameter by all-sources BFS (`O(n·m)`); `None` when disconnected.
///
/// Fine for the experiment sizes here (n ≤ a few thousand); use
/// [`diameter_two_sweep`] for a cheap lower bound on bigger graphs.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return None;
    }
    let mut best = 0u32;
    for v in 0..g.n() as u32 {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

/// Two-sweep diameter lower bound: BFS from `start`, then BFS from the
/// farthest vertex found; exact on trees.
pub fn diameter_two_sweep<G: GraphBackend>(g: &G, start: u32) -> Option<u32> {
    let d1 = bfs_distances(g, start);
    if d1.contains(&UNREACHABLE) {
        return None;
    }
    let far = d1
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .map(|(i, _)| i as u32)
        .expect("non-empty");
    eccentricity(g, far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, 2);
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn disconnected_detection() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build("two-pairs");
        assert!(!is_connected(&g));
        let comp = connected_components(&g);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn cycle_diameter() {
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::cycle(9)), Some(4));
    }

    #[test]
    fn complete_diameter_is_one() {
        assert_eq!(diameter(&generators::complete(10)), Some(1));
    }

    #[test]
    fn two_sweep_exact_on_trees() {
        let t = generators::balanced_tree(2, 5);
        assert_eq!(diameter_two_sweep(&t, 0), diameter(&t));
        let p = generators::path(17);
        assert_eq!(diameter_two_sweep(&p, 8), Some(16));
    }

    #[test]
    fn two_sweep_lower_bounds_diameter() {
        let g = generators::torus_2d(6);
        let exact = diameter(&g).unwrap();
        let sweep = diameter_two_sweep(&g, 0).unwrap();
        assert!(sweep <= exact);
        assert!(sweep >= exact / 2); // classic guarantee
    }

    #[test]
    fn singleton_graph() {
        let g = GraphBuilder::new(1).build("v");
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(0));
    }

    #[test]
    fn grid_diameter_is_manhattan() {
        let g = generators::grid_2d(5);
        assert_eq!(diameter(&g), Some(8));
        let t = generators::torus_2d(5);
        assert_eq!(diameter(&t), Some(4));
    }
}
