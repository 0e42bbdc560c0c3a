//! Breadth-first search, eccentricity, diameter, and distance statistics.

use std::collections::VecDeque;

use crate::{vid, Csr};

/// Distance value marking vertices unreachable from the BFS source.
pub const UNREACHABLE: u32 = u32::MAX;

/// Computes BFS hop distances from `src` to every vertex.
///
/// Unreachable vertices get [`UNREACHABLE`].
///
/// # Panics
///
/// Panics if `src` is out of range.
///
/// # Examples
///
/// ```
/// use rfc_graph::{traversal::bfs_distances, Csr};
///
/// let g = Csr::from_edges(4, &[(0, 1), (1, 2)]);
/// let d = bfs_distances(&g, 0);
/// assert_eq!(&d[..3], &[0, 1, 2]);
/// assert_eq!(d[3], rfc_graph::traversal::UNREACHABLE);
/// ```
pub fn bfs_distances(graph: &Csr, src: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; graph.num_vertices()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in graph.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity of `src`: the maximum BFS distance to any vertex, or `None`
/// if some vertex is unreachable.
pub fn eccentricity(graph: &Csr, src: u32) -> Option<u32> {
    let dist = bfs_distances(graph, src);
    let mut ecc = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Exact diameter by all-sources BFS, or `None` when the graph is
/// disconnected or empty.
///
/// Runs in `O(n * (n + m))`; intended for instances up to a few tens of
/// thousands of vertices (every topology compared in the paper fits).
pub fn diameter(graph: &Csr) -> Option<u32> {
    let n = graph.num_vertices();
    if n == 0 {
        return None;
    }
    let mut best = 0;
    for v in 0..vid(n) {
        best = best.max(eccentricity(graph, v)?);
    }
    Some(best)
}

/// Mean hop distance from `src` to every *other* vertex, or `None` if the
/// graph is disconnected from `src` or has a single vertex.
pub fn mean_distance_from(graph: &Csr, src: u32) -> Option<f64> {
    let n = graph.num_vertices();
    if n <= 1 {
        return None;
    }
    let dist = bfs_distances(graph, src);
    let mut total = 0u64;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        total += u64::from(d);
    }
    Some(total as f64 / (n as f64 - 1.0))
}

/// Mean hop distance estimated from a sample of BFS sources.
///
/// Returns `None` on an empty sample or a disconnected graph.
pub fn mean_distance_sampled(graph: &Csr, sources: &[u32]) -> Option<f64> {
    if sources.is_empty() {
        return None;
    }
    let mut acc = 0.0;
    for &s in sources {
        acc += mean_distance_from(graph, s)?;
    }
    Some(acc / sources.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Csr {
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Csr::from_edges(n, &edges)
    }

    fn cycle(n: usize) -> Csr {
        let mut edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&path(6)), Some(5));
        assert_eq!(diameter(&cycle(6)), Some(3));
        assert_eq!(diameter(&cycle(7)), Some(3));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn empty_graph_has_no_diameter() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn single_vertex_has_zero_diameter() {
        let g = Csr::from_edges(1, &[]);
        assert_eq!(diameter(&g), Some(0));
        assert_eq!(mean_distance_from(&g, 0), None);
    }

    #[test]
    fn mean_distance_of_path() {
        let g = path(3);
        // From vertex 0: distances 1 and 2 -> mean 1.5.
        assert_eq!(mean_distance_from(&g, 0), Some(1.5));
        let sampled = mean_distance_sampled(&g, &[0, 1, 2]).unwrap();
        // From middle: mean 1.0; overall (1.5 + 1.0 + 1.5) / 3.
        assert!((sampled - 4.0 / 3.0).abs() < 1e-12);
    }
}
