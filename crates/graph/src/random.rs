//! Random graph generation with the Steger–Wormald pairing model.
//!
//! These are Rust ports of the paper's appendix Listings 1 and 2: each
//! vertex contributes `d` *points*; random points are paired, rejecting
//! pairs that would create self-loops or parallel edges, and the whole
//! process restarts if it wedges with no suitable pair left. The result is
//! an (almost) uniformly random simple regular — or semiregular bipartite —
//! graph, generated in expected time `O(N Δ ln Δ)`.

use rand::Rng;

use crate::{vid, GenerationError};

/// Default restart budget; the expected number of restarts is `O(1)` for
/// every parameter regime used in the paper, so hitting this means the
/// parameters are pathological (e.g. a near-complete graph).
const MAX_RESTARTS: usize = 10_000;

/// How many consecutive failed pairing attempts trigger an exhaustive
/// feasibility scan over the still-unsaturated vertices.
const STALL_ATTEMPTS: usize = 64;

/// Generates a uniformly random simple `d`-regular graph on `n` vertices
/// (the paper's Listing 1), returned as adjacency lists.
///
/// # Errors
///
/// Returns [`GenerationError::InfeasibleParameters`] when `n * d` is odd,
/// `d >= n`, or `d == 0` with `n == 0`; and
/// [`GenerationError::RestartLimitExceeded`] if the pairing process fails
/// repeatedly (practically impossible for feasible, sparse parameters).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rfc_graph::random::random_regular;
///
/// # fn main() -> Result<(), rfc_graph::GenerationError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let adj = random_regular(24, 3, &mut rng)?;
/// assert!(adj.iter().all(|list| list.len() == 3));
/// # Ok(())
/// # }
/// ```
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Vec<Vec<u32>>, GenerationError> {
    if !(n * d).is_multiple_of(2) {
        return Err(GenerationError::InfeasibleParameters {
            reason: format!("n * d must be even (n = {n}, d = {d})"),
        });
    }
    if d >= n && !(d == 0 && n <= 1) {
        return Err(GenerationError::InfeasibleParameters {
            reason: format!("degree d = {d} must be smaller than n = {n}"),
        });
    }
    if d == 0 {
        return Ok(vec![Vec::new(); n]);
    }

    let d32 = vid(d);
    'restart: for _ in 0..MAX_RESTARTS {
        // Points: vertex v owns points v*d .. v*d + d - 1.
        let mut points: Vec<u32> = (0..vid(n * d)).collect();
        let mut adj: Vec<Vec<u32>> = vec![Vec::with_capacity(d); n];
        let mut stalled = 0usize;
        while !points.is_empty() {
            if stalled >= STALL_ATTEMPTS {
                if !regular_pair_exists(&adj, &points, d) {
                    continue 'restart;
                }
                stalled = 0;
            }
            // Draw two distinct random points by swapping them to the tail.
            let len = points.len();
            let i = rng.gen_range(0..len);
            points.swap(i, len - 1);
            let j = rng.gen_range(0..len - 1);
            points.swap(j, len - 2);
            let u = points[len - 1] / d32;
            let v = points[len - 2] / d32;
            if u == v || adj[u as usize].contains(&v) {
                stalled += 1;
                continue;
            }
            points.truncate(len - 2);
            adj[u as usize].push(v);
            adj[v as usize].push(u);
            stalled = 0;
        }
        return Ok(adj);
    }
    Err(GenerationError::RestartLimitExceeded {
        restarts: MAX_RESTARTS,
    })
}

/// Whether any suitable pair remains among unsaturated vertices in the
/// regular construction.
fn regular_pair_exists(adj: &[Vec<u32>], points: &[u32], d: usize) -> bool {
    let d32 = vid(d);
    let mut open: Vec<u32> = points.iter().map(|&p| p / d32).collect();
    open.sort_unstable();
    open.dedup();
    for (idx, &a) in open.iter().enumerate() {
        for &b in &open[idx + 1..] {
            if !adj[a as usize].contains(&b) {
                return true;
            }
        }
    }
    false
}

/// A random semiregular bipartite graph (the paper's Listing 2).
///
/// Side one has `n1` vertices of degree `d1`; side two has `n2` vertices of
/// degree `d2`. Stored as both adjacency directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    /// For each side-one vertex, its side-two neighbors.
    pub adj1: Vec<Vec<u32>>,
    /// For each side-two vertex, its side-one neighbors.
    pub adj2: Vec<Vec<u32>>,
}

impl BipartiteGraph {
    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj1.iter().map(Vec::len).sum()
    }

    /// Validates degree regularity and simplicity (no parallel edges).
    pub fn is_semiregular(&self, d1: usize, d2: usize) -> bool {
        self.adj1
            .iter()
            .all(|l| l.len() == d1 && !has_duplicates(l))
            && self
                .adj2
                .iter()
                .all(|l| l.len() == d2 && !has_duplicates(l))
    }
}

fn has_duplicates(list: &[u32]) -> bool {
    let mut sorted = list.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

/// Generates a uniformly random simple bipartite graph with `n1` vertices
/// of degree `d1` on one side and `n2` vertices of degree `d2` on the other
/// (the paper's Listing 2).
///
/// # Errors
///
/// Returns [`GenerationError::InfeasibleParameters`] when
/// `n1 * d1 != n2 * d2`, or a side's degree exceeds the other side's vertex
/// count (no simple graph exists); [`GenerationError::RestartLimitExceeded`]
/// if pairing keeps wedging.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rfc_graph::random::random_bipartite;
///
/// # fn main() -> Result<(), rfc_graph::GenerationError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// // 8 leaves with 2 up-links each; 4 spines with 4 down-links each.
/// let g = random_bipartite(8, 2, 4, 4, &mut rng)?;
/// assert!(g.is_semiregular(2, 4));
/// # Ok(())
/// # }
/// ```
pub fn random_bipartite<R: Rng + ?Sized>(
    n1: usize,
    d1: usize,
    n2: usize,
    d2: usize,
    rng: &mut R,
) -> Result<BipartiteGraph, GenerationError> {
    if n1 * d1 != n2 * d2 {
        return Err(GenerationError::InfeasibleParameters {
            reason: format!("point counts differ: {n1} * {d1} != {n2} * {d2}"),
        });
    }
    if d1 > n2 || d2 > n1 {
        return Err(GenerationError::InfeasibleParameters {
            reason: format!(
                "no simple bipartite graph: degrees ({d1}, {d2}) exceed opposite side sizes ({n2}, {n1})"
            ),
        });
    }
    if n1 * d1 == 0 {
        return Ok(BipartiteGraph {
            adj1: vec![Vec::new(); n1],
            adj2: vec![Vec::new(); n2],
        });
    }

    let (d1_32, d2_32) = (vid(d1), vid(d2));
    'restart: for _ in 0..MAX_RESTARTS {
        let mut points1: Vec<u32> = (0..vid(n1 * d1)).collect();
        let mut points2: Vec<u32> = (0..vid(n2 * d2)).collect();
        let mut adj1: Vec<Vec<u32>> = vec![Vec::with_capacity(d1); n1];
        let mut adj2: Vec<Vec<u32>> = vec![Vec::with_capacity(d2); n2];
        let mut stalled = 0usize;
        while !points1.is_empty() {
            if stalled >= STALL_ATTEMPTS {
                if !bipartite_pair_exists(&adj1, &points1, &points2, d1, d2) {
                    continue 'restart;
                }
                stalled = 0;
            }
            let len1 = points1.len();
            let i = rng.gen_range(0..len1);
            points1.swap(i, len1 - 1);
            let len2 = points2.len();
            let j = rng.gen_range(0..len2);
            points2.swap(j, len2 - 1);
            let u = points1[len1 - 1] / d1_32;
            let v = points2[len2 - 1] / d2_32;
            if adj1[u as usize].contains(&v) {
                stalled += 1;
                continue;
            }
            points1.truncate(len1 - 1);
            points2.truncate(len2 - 1);
            adj1[u as usize].push(v);
            adj2[v as usize].push(u);
            stalled = 0;
        }
        return Ok(BipartiteGraph { adj1, adj2 });
    }
    Err(GenerationError::RestartLimitExceeded {
        restarts: MAX_RESTARTS,
    })
}

/// Whether any suitable (non-duplicate) pair remains among unsaturated
/// vertices of both sides.
fn bipartite_pair_exists(
    adj1: &[Vec<u32>],
    points1: &[u32],
    points2: &[u32],
    d1: usize,
    d2: usize,
) -> bool {
    let (d1_32, d2_32) = (vid(d1), vid(d2));
    let mut open1: Vec<u32> = points1.iter().map(|&p| p / d1_32).collect();
    open1.sort_unstable();
    open1.dedup();
    let mut open2: Vec<u32> = points2.iter().map(|&p| p / d2_32).collect();
    open2.sort_unstable();
    open2.dedup();
    for &a in &open1 {
        for &b in &open2 {
            if !adj1[a as usize].contains(&b) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regular_graph_is_regular_and_simple() {
        let mut rng = StdRng::seed_from_u64(11);
        let adj = random_regular(50, 6, &mut rng).unwrap();
        for (v, list) in adj.iter().enumerate() {
            assert_eq!(list.len(), 6);
            assert!(!list.contains(&vid(v)), "self-loop at {v}");
            assert!(!has_duplicates(list), "parallel edge at {v}");
        }
        // Symmetry.
        for (v, list) in adj.iter().enumerate() {
            for &u in list {
                assert!(adj[u as usize].contains(&vid(v)));
            }
        }
    }

    #[test]
    fn regular_rejects_odd_total_degree() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            random_regular(5, 3, &mut rng),
            Err(GenerationError::InfeasibleParameters { .. })
        ));
    }

    #[test]
    fn regular_rejects_degree_at_least_n() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_regular(4, 4, &mut rng).is_err());
    }

    #[test]
    fn regular_degree_zero_is_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        let adj = random_regular(3, 0, &mut rng).unwrap();
        assert!(adj.iter().all(Vec::is_empty));
    }

    #[test]
    fn regular_complete_graph_edge_case() {
        // d = n - 1 forces the complete graph; the stall scan must rescue
        // the tail instead of spinning.
        let mut rng = StdRng::seed_from_u64(13);
        let adj = random_regular(6, 5, &mut rng).unwrap();
        assert!(adj.iter().all(|l| l.len() == 5));
    }

    #[test]
    fn bipartite_is_semiregular() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = random_bipartite(30, 4, 20, 6, &mut rng).unwrap();
        assert!(g.is_semiregular(4, 6));
        assert_eq!(g.num_edges(), 120);
        // Cross-consistency of both directions.
        for (u, list) in g.adj1.iter().enumerate() {
            for &v in list {
                assert!(g.adj2[v as usize].contains(&vid(u)));
            }
        }
    }

    #[test]
    fn bipartite_rejects_mismatched_points() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_bipartite(4, 3, 5, 2, &mut rng).is_err());
    }

    #[test]
    fn bipartite_rejects_oversized_degree() {
        let mut rng = StdRng::seed_from_u64(0);
        // d1 = 4 > n2 = 2: a side-one vertex cannot have 4 distinct
        // neighbors among 2 vertices.
        assert!(random_bipartite(1, 4, 2, 2, &mut rng).is_err());
    }

    #[test]
    fn bipartite_complete_edge_case() {
        // d1 = n2 and d2 = n1 forces the complete bipartite graph.
        let mut rng = StdRng::seed_from_u64(17);
        let g = random_bipartite(4, 3, 3, 4, &mut rng).unwrap();
        assert!(g.is_semiregular(3, 4));
    }

    #[test]
    fn bipartite_empty_is_fine() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = random_bipartite(3, 0, 0, 0, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn regular_generation_is_roughly_uniform_over_edges() {
        // Steger-Wormald is near-uniform over simple regular graphs, so
        // over many draws every potential edge should appear with
        // probability ~ d/(n-1). n = 8, d = 3: P(edge) = 3/7.
        let (n, d, draws) = (8usize, 3usize, 3_000usize);
        let mut rng = StdRng::seed_from_u64(424242);
        let mut counts = vec![0u32; n * n];
        for _ in 0..draws {
            let adj = random_regular(n, d, &mut rng).unwrap();
            for (u, list) in adj.iter().enumerate() {
                for &v in list {
                    if vid(u) < v {
                        counts[u * n + v as usize] += 1;
                    }
                }
            }
        }
        let expected = draws as f64 * d as f64 / (n as f64 - 1.0);
        for u in 0..n {
            for v in (u + 1)..n {
                let c = f64::from(counts[u * n + v]);
                assert!(
                    (c - expected).abs() < 0.15 * expected,
                    "edge ({u},{v}): {c} vs expected {expected}"
                );
            }
        }
    }

    #[test]
    fn bipartite_generation_is_roughly_uniform_over_edges() {
        let (n1, d1, n2, d2, draws) = (6usize, 2usize, 4usize, 3usize, 3_000usize);
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = vec![0u32; n1 * n2];
        for _ in 0..draws {
            let g = random_bipartite(n1, d1, n2, d2, &mut rng).unwrap();
            for (u, list) in g.adj1.iter().enumerate() {
                for &v in list {
                    counts[u * n2 + v as usize] += 1;
                }
            }
        }
        // P(u ~ v) = d1 / n2 = 1/2.
        let expected = draws as f64 * d1 as f64 / n2 as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (f64::from(c) - expected).abs() < 0.12 * expected,
                "pair {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn regular_generation_is_seed_deterministic() {
        let a = random_regular(40, 4, &mut StdRng::seed_from_u64(99)).unwrap();
        let b = random_regular(40, 4, &mut StdRng::seed_from_u64(99)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn regular_graphs_are_usually_connected_at_the_jellyfish_regime() {
        // Random regular graphs with d >= 3 are connected w.h.p.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let adj = random_regular(64, 4, &mut rng).unwrap();
            let g = crate::Csr::from_adjacency(&adj);
            assert!(crate::connectivity::is_connected(&g));
        }
    }
}
