//! Compressed-sparse-row adjacency for undirected graphs.

use std::fmt;

use crate::vid;

/// An immutable undirected graph in compressed sparse row form.
///
/// Vertices are identified by dense `u32` indices `0..n`. Each undirected
/// edge `{u, v}` is stored as the two arcs `u -> v` and `v -> u`; parallel
/// edges and self-loops are representable but none of the generators in this
/// workspace produce them.
///
/// # Examples
///
/// ```
/// use rfc_graph::Csr;
///
/// let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(0), &[1, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a graph with `n` vertices from a list of undirected edges.
    ///
    /// Neighbor lists are sorted ascending, so [`Csr::neighbors`] output is
    /// deterministic regardless of the edge order supplied.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; acc as usize];
        for &(u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            targets[lo..hi].sort_unstable();
        }
        Self { offsets, targets }
    }

    /// Builds a graph from adjacency lists (each undirected edge must appear
    /// in both endpoint lists, as produced by [`crate::random`]).
    ///
    /// # Panics
    ///
    /// Panics if the adjacency is not symmetric in total arc count (i.e. the
    /// sum of list lengths is odd) or any target is out of range.
    pub fn from_adjacency(adj: &[Vec<u32>]) -> Self {
        let n = adj.len();
        let arcs: usize = adj.iter().map(Vec::len).sum();
        assert!(
            arcs.is_multiple_of(2),
            "adjacency lists hold an odd number of arcs"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for list in adj {
            acc += vid(list.len());
            offsets.push(acc);
        }
        let mut targets = Vec::with_capacity(arcs);
        for list in adj {
            let mut sorted = list.clone();
            sorted.sort_unstable();
            for &t in &sorted {
                assert!((t as usize) < n, "adjacency target out of range");
                targets.push(t);
            }
        }
        Self { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over every undirected edge once, as `(u, v)` with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..vid(self.num_vertices()))
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u <= v)
    }

    /// Whether every vertex has degree exactly `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        (0..vid(self.num_vertices())).all(|v| self.degree(v) == d)
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_edges_and_sorts_neighbors() {
        let g = Csr::from_edges(5, &[(3, 1), (0, 4), (1, 0), (2, 1)]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(4), &[0]);
    }

    #[test]
    fn from_adjacency_round_trips_edges() {
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let g = Csr::from_adjacency(&adj);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(2, 0));
        assert_eq!(g.num_edges(), 3);
        assert!(g.is_regular(2));
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_and_regularity() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert!(!g.is_regular(3));
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = Csr::from_edges(3, &[(0, 2)]);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let _ = Csr::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = Csr::from_edges(1, &[]);
        assert!(!format!("{g:?}").is_empty());
    }
}
