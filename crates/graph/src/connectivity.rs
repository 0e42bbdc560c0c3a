//! Union-find, connected components, and the random-removal disconnection
//! threshold used by the paper's Table 3 resiliency study.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{vid, Csr};

/// Disjoint-set forest (union by size, path halving).
///
/// # Examples
///
/// ```
/// use rfc_graph::DisjointSets;
///
/// let mut ds = DisjointSets::new(4);
/// ds.union(0, 1);
/// ds.union(2, 3);
/// assert!(ds.connected(0, 1));
/// assert!(!ds.connected(1, 2));
/// assert_eq!(ds.num_sets(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..vid(n)).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Representative of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.sets -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    pub fn num_sets(&self) -> usize {
        self.sets
    }
}

/// Whether the graph on `n` vertices with the given edges is connected.
///
/// The empty graph (n = 0) is considered connected.
pub fn is_connected_edges(n: usize, edges: &[(u32, u32)]) -> bool {
    if n <= 1 {
        return true;
    }
    let mut ds = DisjointSets::new(n);
    for &(u, v) in edges {
        ds.union(u, v);
        if ds.num_sets() == 1 {
            return true;
        }
    }
    ds.num_sets() == 1
}

/// Whether a [`Csr`] graph is connected.
pub fn is_connected(graph: &Csr) -> bool {
    let n = graph.num_vertices();
    if n <= 1 {
        return true;
    }
    let dist = crate::traversal::bfs_distances(graph, 0);
    dist.iter().all(|&d| d != crate::traversal::UNREACHABLE)
}

/// Component label for every vertex, plus the component count.
pub fn components(graph: &Csr) -> (Vec<u32>, usize) {
    let n = graph.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack = Vec::new();
    for start in 0..vid(n) {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = count;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &v in graph.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

/// Result of one random-removal disconnection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisconnectionTrial {
    /// Number of removed links after which the network first became
    /// disconnected (1-based count of removals).
    pub removals: usize,
    /// Total number of links in the intact network.
    pub total_links: usize,
}

impl DisconnectionTrial {
    /// Fraction of links removed at the moment of disconnection.
    pub fn fraction(&self) -> f64 {
        self.removals as f64 / self.total_links as f64
    }
}

/// Removes links one by one in a uniformly random order and reports how many
/// removals first disconnect the graph (the methodology of the paper's
/// Table 3, following the Slim Fly resiliency study).
///
/// One reverse pass: adding the shuffled links back from the last one, the
/// first link `order[k]` that connects the graph is the removal that first
/// disconnected it, so a trial costs `O(E α(V))`.
///
/// Returns `None` if the intact graph is already disconnected, has no
/// edges, or has at most one vertex (it cannot disconnect).
pub fn disconnection_trial<R: Rng + ?Sized>(
    n: usize,
    edges: &[(u32, u32)],
    rng: &mut R,
) -> Option<DisconnectionTrial> {
    if n <= 1 || edges.is_empty() || !is_connected_edges(n, edges) {
        return None;
    }
    let mut order: Vec<(u32, u32)> = edges.to_vec();
    order.shuffle(rng);
    let mut ds = DisjointSets::new(n);
    let k = (0..order.len()).rev().find(|&k| {
        let (u, v) = order[k];
        ds.union(u, v);
        ds.num_sets() == 1
    })?;
    Some(DisconnectionTrial {
        removals: k + 1,
        total_links: order.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn union_find_basics() {
        let mut ds = DisjointSets::new(5);
        assert_eq!(ds.num_sets(), 5);
        assert!(ds.union(0, 1));
        assert!(!ds.union(1, 0));
        ds.union(1, 2);
        assert!(ds.connected(0, 2));
        assert_eq!(ds.num_sets(), 3);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected_edges(3, &[(0, 1), (1, 2)]));
        assert!(!is_connected_edges(3, &[(0, 1)]));
        assert!(is_connected_edges(1, &[]));
        assert!(is_connected_edges(0, &[]));
    }

    #[test]
    fn csr_connectivity_and_components() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert!(!is_connected(&g));
        let (labels, count) = components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[3], labels[4]);
    }

    #[test]
    fn disconnection_of_a_tree_is_immediate() {
        // Any single removal disconnects a tree.
        let edges = [(0, 1), (1, 2), (2, 3)];
        let mut rng = StdRng::seed_from_u64(3);
        let t = disconnection_trial(4, &edges, &mut rng).unwrap();
        assert_eq!(t.removals, 1);
        assert_eq!(t.total_links, 3);
        assert!((t.fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disconnection_of_a_cycle_needs_at_least_two() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let t = disconnection_trial(4, &edges, &mut rng).unwrap();
            assert!(t.removals >= 2, "a cycle survives one removal");
        }
    }

    #[test]
    fn already_disconnected_graph_yields_none() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(disconnection_trial(3, &[(0, 1)], &mut rng).is_none());
        assert!(disconnection_trial(2, &[], &mut rng).is_none());
        assert!(disconnection_trial(1, &[(0, 0)], &mut rng).is_none());
    }
}
