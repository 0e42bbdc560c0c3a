//! Empirical bisection-width estimation.
//!
//! The paper's Section 4.2 argues bisection *lower* bounds from
//! Bollobás' isoperimetric constant. This module complements those with
//! empirical *upper* bounds: sample random balanced partitions and
//! refine them with greedy Kernighan–Lin-style swaps; the best cut found
//! bounds the true bisection width from above, bracketing it together
//! with the analytic bound.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{vid, Csr};

/// Number of edges crossing the balanced partition defined by `side`
/// (`true` = side A).
///
/// # Panics
///
/// Panics if `side.len()` differs from the vertex count.
pub fn cut_width(graph: &Csr, side: &[bool]) -> usize {
    assert_eq!(
        side.len(),
        graph.num_vertices(),
        "side labels must cover all vertices"
    );
    graph
        .edges()
        .filter(|&(u, v)| side[u as usize] != side[v as usize])
        .count()
}

/// A uniformly random balanced partition (|A| = ⌈n/2⌉).
pub fn random_balanced_partition<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<bool> {
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    let mut side = vec![false; n];
    for &v in ids.iter().take(n.div_ceil(2)) {
        side[v] = true;
    }
    side
}

/// Greedy refinement: repeatedly swap the cross-partition vertex pair
/// with the best cut reduction until no swap helps (a lightweight
/// Kernighan–Lin pass). Modifies `side` in place and returns the final
/// cut width.
pub fn refine_partition(graph: &Csr, side: &mut [bool]) -> usize {
    let n = graph.num_vertices();
    // gain[v] = cut reduction from moving v across (external - internal
    // incident edges).
    let gain = |side: &[bool], v: u32| -> i64 {
        let mut external = 0i64;
        let mut internal = 0i64;
        for &w in graph.neighbors(v) {
            if side[w as usize] != side[v as usize] {
                external += 1;
            } else {
                internal += 1;
            }
        }
        external - internal
    };
    loop {
        let mut best: Option<(u32, u32, i64)> = None;
        for a in 0..vid(n) {
            if !side[a as usize] {
                continue;
            }
            let ga = gain(side, a);
            if ga <= 0 && best.is_some() {
                continue; // cheap pruning: need positive combined gain
            }
            for b in 0..vid(n) {
                if side[b as usize] {
                    continue;
                }
                let gb = gain(side, b);
                // Swapping a and b changes the cut by -(ga + gb) plus 2
                // if they are adjacent (their edge flips twice).
                let adj = if graph.has_edge(a, b) { 2 } else { 0 };
                let delta = ga + gb - adj;
                if delta > best.map_or(0, |(_, _, d)| d) {
                    best = Some((a, b, delta));
                }
            }
        }
        match best {
            Some((a, b, _)) => {
                side[a as usize] = false;
                side[b as usize] = true;
            }
            None => break,
        }
    }
    cut_width(graph, side)
}

/// The best (smallest) balanced cut found over `trials` random starts,
/// each refined greedily — an upper bound on the bisection width.
///
/// Returns `None` for graphs with fewer than 2 vertices.
pub fn estimate_bisection_width<R: Rng + ?Sized>(
    graph: &Csr,
    trials: usize,
    rng: &mut R,
) -> Option<usize> {
    let n = graph.num_vertices();
    if n < 2 || trials == 0 {
        return None;
    }
    let mut best = usize::MAX;
    for _ in 0..trials {
        let mut side = random_balanced_partition(n, rng);
        best = best.min(refine_partition(graph, &mut side));
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cut_width_counts_crossing_edges() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(cut_width(&g, &[true, true, false, false]), 2);
        assert_eq!(cut_width(&g, &[true, false, true, false]), 4);
    }

    #[test]
    fn partition_is_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [2usize, 5, 10, 33] {
            let side = random_balanced_partition(n, &mut rng);
            let a = side.iter().filter(|&&s| s).count();
            assert_eq!(a, n.div_ceil(2), "n = {n}");
        }
    }

    #[test]
    fn refinement_finds_the_obvious_cut_of_two_cliques() {
        // Two K4s joined by one bridge: bisection width 1.
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 4));
        let g = Csr::from_edges(8, &edges);
        let mut rng = StdRng::seed_from_u64(2);
        let width = estimate_bisection_width(&g, 8, &mut rng).unwrap();
        assert_eq!(width, 1);
    }

    #[test]
    fn estimate_upper_bounds_the_cycle_bisection() {
        // An even cycle has bisection width exactly 2.
        let n = 16;
        let mut edges: Vec<_> = (0..vid(n) - 1).map(|i| (i, i + 1)).collect();
        edges.push((vid(n) - 1, 0));
        let g = Csr::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(3);
        let width = estimate_bisection_width(&g, 10, &mut rng).unwrap();
        assert_eq!(width, 2);
    }

    #[test]
    fn degenerate_inputs() {
        let g = Csr::from_edges(1, &[]);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(estimate_bisection_width(&g, 3, &mut rng), None);
        let g2 = Csr::from_edges(2, &[(0, 1)]);
        assert_eq!(estimate_bisection_width(&g2, 0, &mut rng), None);
        assert_eq!(estimate_bisection_width(&g2, 1, &mut rng), Some(1));
    }
}
