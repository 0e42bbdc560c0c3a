//! Yen's k-shortest loopless paths.
//!
//! The Jellyfish paper routes over the k shortest paths between every
//! switch pair because minimal-only routing underuses a random regular
//! graph. The RFC paper cites this computational burden as a practical
//! drawback of the RRN (the algorithm must rerun on every expansion or
//! fault); this module implements it so the path-diversity comparison can
//! be reproduced.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rfc_graph::Csr;

/// Computes up to `k` shortest loopless paths from `src` to `dst` with
/// Yen's algorithm on an unweighted graph. Paths are vertex sequences
/// including both endpoints, ordered by (length, discovery order);
/// returns fewer than `k` when the graph does not contain that many.
///
/// # Examples
///
/// ```
/// use rfc_graph::Csr;
/// use rfc_routing::ksp::k_shortest_paths;
///
/// let square = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let paths = k_shortest_paths(&square, 0, 2, 3);
/// assert_eq!(paths.len(), 2, "only two loopless routes exist");
/// assert_eq!(paths[0].len(), 3);
/// ```
pub fn k_shortest_paths(graph: &Csr, src: u32, dst: u32, k: usize) -> Vec<Vec<u32>> {
    if k == 0 {
        return Vec::new();
    }
    let Some(first) = shortest_path_avoiding(graph, src, dst, &[], &[]) else {
        return Vec::new();
    };
    let mut found: Vec<Vec<u32>> = vec![first];
    // Candidate heap keyed by path length.
    let mut candidates: BinaryHeap<Reverse<(usize, Vec<u32>)>> = BinaryHeap::new();
    while found.len() < k {
        #[expect(
            clippy::expect_used,
            reason = "found starts with the first shortest path and only grows"
        )]
        let prev = found.last().expect("at least one found path").clone();
        for spur_idx in 0..prev.len() - 1 {
            let spur_node = prev[spur_idx];
            let root = &prev[..=spur_idx];
            // Edges leaving the spur node along any already-found path
            // sharing this root are banned.
            let mut banned_edges: Vec<(u32, u32)> = Vec::new();
            for p in &found {
                if p.len() > spur_idx + 1 && p[..=spur_idx] == *root {
                    banned_edges.push((spur_node, p[spur_idx + 1]));
                }
            }
            // Root vertices other than the spur node are banned entirely.
            let banned_nodes = &root[..spur_idx];
            if let Some(spur) =
                shortest_path_avoiding(graph, spur_node, dst, banned_nodes, &banned_edges)
            {
                let mut total = root[..spur_idx].to_vec();
                total.extend_from_slice(&spur);
                if !found.contains(&total) && !candidates.iter().any(|Reverse((_, p))| *p == total)
                {
                    candidates.push(Reverse((total.len(), total)));
                }
            }
        }
        match candidates.pop() {
            Some(Reverse((_, path))) => found.push(path),
            None => break,
        }
    }
    found
}

/// BFS shortest path avoiding the given vertices and directed edges;
/// returns the vertex sequence from `src` to `dst`.
fn shortest_path_avoiding(
    graph: &Csr,
    src: u32,
    dst: u32,
    banned_nodes: &[u32],
    banned_edges: &[(u32, u32)],
) -> Option<Vec<u32>> {
    let n = graph.num_vertices();
    let mut parent = vec![u32::MAX; n];
    let mut visited = vec![false; n];
    for &b in banned_nodes {
        visited[b as usize] = true;
    }
    if visited[src as usize] || visited[dst as usize] {
        return None;
    }
    let mut queue = std::collections::VecDeque::new();
    visited[src as usize] = true;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        if u == dst {
            let mut path = vec![dst];
            let mut cur = dst;
            while cur != src {
                cur = parent[cur as usize];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &v in graph.neighbors(u) {
            if visited[v as usize] || banned_edges.contains(&(u, v)) {
                continue;
            }
            visited[v as usize] = true;
            parent[v as usize] = u;
            queue.push_back(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Csr {
        Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn finds_both_routes_around_a_square() {
        let paths = k_shortest_paths(&square(), 0, 2, 5);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 3);
        assert_eq!(paths[1].len(), 3);
        assert_ne!(paths[0], paths[1]);
    }

    #[test]
    fn k_zero_and_unreachable() {
        assert!(k_shortest_paths(&square(), 0, 2, 0).is_empty());
        let disc = Csr::from_edges(3, &[(0, 1)]);
        assert!(k_shortest_paths(&disc, 0, 2, 3).is_empty());
    }

    #[test]
    fn paths_are_loopless_and_ordered_by_length() {
        // A graph with several alternatives: K4.
        let k4 = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let paths = k_shortest_paths(&k4, 0, 3, 10);
        assert!(paths.len() >= 3);
        for p in &paths {
            let mut seen = p.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), p.len(), "loopless");
        }
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len(), "sorted by length");
        }
        assert_eq!(paths[0], vec![0, 3]);
    }

    #[test]
    fn trivial_source_equals_destination() {
        let paths = k_shortest_paths(&square(), 1, 1, 3);
        assert_eq!(paths, vec![vec![1]]);
    }
}
