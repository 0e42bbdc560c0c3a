//! Empirical bisection-width estimation.
//!
//! The paper's Section 4.2 argues bisection *lower* bounds from
//! Bollobás' isoperimetric constant. This module complements those with
//! empirical *upper* bounds on the *terminal-balanced* bisection: a
//! random start splits every level into halves
//! ([`level_balanced_partition`]), greedy same-level Kernighan–Lin-style
//! swaps refine it ([`refine_within_levels`]), and the best cut found
//! over several starts bounds the true width from above, bracketing it
//! together with the analytic bound. A level is a half-open vertex
//! range; a direct network is the one-range case `[(0, n)]`.

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

/// A random start balanced within every level: each half-open vertex
/// range in `levels` is shuffled and `(hi - lo) / 2` of its ids go to
/// side A (`true`). A direct network is the one-range case `[(0, n)]`.
///
/// # Panics
///
/// Panics if a range reaches past `n`.
pub fn level_balanced_partition<R: Rng + ?Sized>(
    n: usize,
    levels: &[(usize, usize)],
    rng: &mut R,
) -> Vec<bool> {
    let mut side = vec![false; n];
    for &(lo, hi) in levels {
        let mut ids: Vec<usize> = (lo..hi).collect();
        ids.shuffle(rng);
        for &v in ids.iter().take((hi - lo) / 2) {
            side[v] = true;
        }
    }
    side
}

/// Greedy pair swaps restricted to a single level, so every level stays
/// balanced (and with it the terminal split): repeatedly swap the
/// same-level cross-partition pair with the best cut reduction until no
/// swap helps (a lightweight Kernighan–Lin pass). Modifies `side` in
/// place and returns the final cut width.
///
/// # Panics
///
/// Panics if `side.len()` differs from the vertex count or a range
/// reaches past it.
pub fn refine_within_levels(graph: &Csr, levels: &[(usize, usize)], side: &mut [bool]) -> usize {
    let gain = |side: &[bool], v: u32| -> i64 {
        let mut g = 0i64;
        for &w in graph.neighbors(v) {
            if side[w as usize] != side[v as usize] {
                g += 1;
            } else {
                g -= 1;
            }
        }
        g
    };
    loop {
        let mut best: Option<(usize, usize, i64)> = None;
        for &(lo, hi) in levels {
            for a in lo..hi {
                if !side[a] {
                    continue;
                }
                let ga = gain(side, vid(a));
                for b in lo..hi {
                    if side[b] {
                        continue;
                    }
                    // Swapping a and b changes the cut by -(ga + gb) plus 2
                    // if they are adjacent (their edge flips twice).
                    let adj = if graph.has_edge(vid(a), vid(b)) { 2 } else { 0 };
                    let delta = ga + gain(side, vid(b)) - adj;
                    if delta > best.map_or(0, |(_, _, d)| d) {
                        best = Some((a, b, delta));
                    }
                }
            }
        }
        match best {
            Some((a, b, _)) => {
                side[a] = false;
                side[b] = true;
            }
            None => break,
        }
    }
    cut_width(graph, side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The smallest refined cut over `trials` level-balanced starts.
    fn best_cut(g: &Csr, levels: &[(usize, usize)], trials: usize, rng: &mut StdRng) -> usize {
        (0..trials)
            .map(|_| {
                let mut side = level_balanced_partition(g.num_vertices(), levels, rng);
                refine_within_levels(g, levels, &mut side)
            })
            .min()
            .unwrap_or(usize::MAX)
    }

    #[test]
    fn cut_width_counts_crossing_edges() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(cut_width(&g, &[true, true, false, false]), 2);
        assert_eq!(cut_width(&g, &[true, false, true, false]), 4);
    }

    #[test]
    fn partition_is_balanced_within_every_level() {
        let mut rng = StdRng::seed_from_u64(1);
        for levels in [
            vec![(0usize, 2usize)],
            vec![(0, 5)],
            vec![(0, 4), (4, 9), (9, 10)],
        ] {
            let n = levels.last().map_or(0, |&(_, hi)| hi);
            let side = level_balanced_partition(n, &levels, &mut rng);
            for &(lo, hi) in &levels {
                let a = side[lo..hi].iter().filter(|&&s| s).count();
                assert_eq!(a, (hi - lo) / 2, "level {lo}..{hi}");
            }
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
        assert_eq!(best_cut(&g, &[(0, 8)], 8, &mut rng), 1);
    }

    #[test]
    fn refinement_finds_the_cycle_bisection() {
        // An even cycle has bisection width exactly 2.
        let n = 16;
        let mut edges: Vec<_> = (0..vid(n) - 1).map(|i| (i, i + 1)).collect();
        edges.push((vid(n) - 1, 0));
        let g = Csr::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(best_cut(&g, &[(0, n)], 10, &mut rng), 2);
    }

    #[test]
    fn swaps_stay_within_their_level() {
        // Two levels, each one edge: a whole-graph balanced cut would put
        // each level on one side and cut nothing, but halving every level
        // must cut both edges.
        let levels = [(0usize, 2usize), (2, 4)];
        let g = Csr::from_edges(4, &[(0, 1), (2, 3), (0, 2)]);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let mut side = level_balanced_partition(4, &levels, &mut rng);
            assert_eq!(refine_within_levels(&g, &levels, &mut side), 2);
            assert_eq!(side.iter().filter(|&&s| s).count(), 2);
            assert!(side[0] != side[1] && side[2] != side[3]);
        }
    }
}
