//! All-minimal-paths next-hop oracle for arbitrary switch graphs.

use std::fmt;

use rfc_graph::traversal::{bfs_distances, UNREACHABLE};
use rfc_graph::Csr;

use crate::RoutingOracle;

/// Minimal adaptive routing on an arbitrary graph: at each hop every
/// neighbor strictly closer to the destination is a candidate.
///
/// This is the "same minimal paths" routing whose poor path diversity on
/// Jellyfish motivates k-shortest-paths in the original paper; it is used
/// here for the RRN baseline analyses. Precomputes the full distance
/// matrix (`O(n²)` `u16`s), so it is intended for networks up to a few
/// tens of thousands of switches.
///
/// # Examples
///
/// ```
/// use rfc_graph::Csr;
/// use rfc_routing::{RoutingOracle, ShortestPathOracle};
///
/// let ring = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let oracle = ShortestPathOracle::new(&ring);
/// assert_eq!(oracle.next_hops(0, 2), vec![1, 3]);
/// assert_eq!(oracle.distance(0, 2), Some(2));
/// ```
pub struct ShortestPathOracle {
    graph: Csr,
    dist: Vec<u16>,
    n: usize,
}

impl fmt::Debug for ShortestPathOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShortestPathOracle")
            .field("switches", &self.n)
            .finish()
    }
}

/// Marker for unreachable pairs in the compact distance matrix.
const FAR: u16 = u16::MAX;

impl ShortestPathOracle {
    /// Builds the oracle by running BFS from every vertex.
    ///
    /// # Panics
    ///
    /// Panics if any finite distance exceeds `u16::MAX - 1` (impossible
    /// for the network sizes this workspace targets).
    pub fn new(graph: &Csr) -> Self {
        let n = graph.num_vertices();
        let mut dist = vec![FAR; n * n];
        for src in 0..rfc_graph::vid(n) {
            let d = bfs_distances(graph, src);
            for (v, &dv) in d.iter().enumerate() {
                if dv != UNREACHABLE {
                    #[expect(
                        clippy::expect_used,
                        reason = "documented panic: the all-pairs matrix targets networks far below 65,535 vertices"
                    )]
                    let short = u16::try_from(dv).expect("finite distance exceeds u16");
                    assert!(short < FAR - 1, "distance overflow");
                    dist[src as usize * n + v] = short;
                }
            }
        }
        Self {
            graph: graph.clone(),
            dist,
            n,
        }
    }

    /// Hop distance between two switches, `None` if disconnected.
    pub fn distance(&self, a: u32, b: u32) -> Option<u32> {
        let d = self.dist[a as usize * self.n + b as usize];
        (d != FAR).then_some(u32::from(d))
    }

    /// Mean hop distance over all ordered distinct pairs, `None` if the
    /// graph is disconnected or trivial.
    pub fn mean_distance(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let mut total = 0u64;
        for a in 0..self.n {
            for b in 0..self.n {
                if a == b {
                    continue;
                }
                let d = self.dist[a * self.n + b];
                if d == FAR {
                    return None;
                }
                total += u64::from(d);
            }
        }
        Some(total as f64 / (self.n * (self.n - 1)) as f64)
    }
}

impl RoutingOracle for ShortestPathOracle {
    fn next_hops_into(&self, current: u32, dst: u32, out: &mut Vec<u32>) {
        if current == dst {
            return;
        }
        let here = self.dist[current as usize * self.n + dst as usize];
        if here == FAR {
            return;
        }
        for &nb in self.graph.neighbors(current) {
            if self.dist[nb as usize * self.n + dst as usize] + 1 == here {
                out.push(nb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_next_hops_and_distances() {
        let ring = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let o = ShortestPathOracle::new(&ring);
        assert_eq!(o.distance(0, 3), Some(3));
        assert_eq!(
            o.next_hops(0, 3),
            vec![1, 5],
            "antipodal: both directions minimal"
        );
        assert_eq!(o.next_hops(0, 2), vec![1]);
        assert!(o.next_hops(2, 2).is_empty());
        assert!((o.mean_distance().unwrap() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn disconnected_pairs_have_no_hops() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let o = ShortestPathOracle::new(&g);
        assert_eq!(o.distance(0, 2), None);
        assert!(o.next_hops(0, 2).is_empty());
        assert_eq!(o.mean_distance(), None);
    }

    #[test]
    fn following_hops_always_reaches_destination() {
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let o = ShortestPathOracle::new(&g);
        let mut current = 0u32;
        let mut hops = 0;
        while current != 4 {
            let c = o.next_hops(current, 4);
            assert!(!c.is_empty());
            current = c[0];
            hops += 1;
            assert!(hops <= 5);
        }
        assert_eq!(hops, 3);
    }
}
