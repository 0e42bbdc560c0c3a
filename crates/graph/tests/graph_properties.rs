//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rfc_graph::bisection::{cut_width, level_balanced_partition, refine_within_levels};
use rfc_graph::connectivity::{
    components, disconnection_trial, is_connected, is_connected_edges, DisconnectionTrial,
    DisjointSets,
};
use rfc_graph::random::random_regular;
use rfc_graph::traversal::{bfs_distances, diameter, UNREACHABLE};
use rfc_graph::{vid, BitSet, Csr};

/// An arbitrary simple graph as a filtered edge list.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..vid(n), 0..vid(n)).prop_filter("no self loop", |(a, b)| a != b);
        proptest::collection::vec(edge, 0..80).prop_map(move |mut edges| {
            for e in &mut edges {
                if e.0 > e.1 {
                    *e = (e.1, e.0);
                }
            }
            edges.sort_unstable();
            edges.dedup();
            (n, edges)
        })
    })
}

/// The bisection `disconnection_trial` used to run: a union-find rebuild
/// per probed suffix, same shuffle, `O(E α(V) log E)`.
fn bisection_disconnection_reference(
    n: usize,
    edges: &[(u32, u32)],
    rng: &mut StdRng,
) -> Option<DisconnectionTrial> {
    if n <= 1 || edges.is_empty() || !is_connected_edges(n, edges) {
        return None;
    }
    let mut order: Vec<(u32, u32)> = edges.to_vec();
    order.shuffle(rng);
    let (mut lo, mut hi) = (0usize, order.len()); // connected(lo), !connected(hi)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if is_connected_edges(n, &order[mid..]) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(DisconnectionTrial {
        removals: hi,
        total_links: order.len(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges((n, edges) in arb_graph()) {
        let g = Csr::from_edges(n, &edges);
        let d = bfs_distances(&g, 0);
        for &(u, v) in &edges {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                prop_assert_eq!(du, dv, "edge endpoints must be co-reachable");
            }
        }
    }

    #[test]
    fn components_agree_with_connectivity((n, edges) in arb_graph()) {
        let g = Csr::from_edges(n, &edges);
        let (labels, count) = components(&g);
        prop_assert_eq!(count == 1, is_connected(&g));
        for &(u, v) in &edges {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        // Union-find agrees.
        let mut ds = DisjointSets::new(n);
        for &(u, v) in &edges {
            ds.union(u, v);
        }
        prop_assert_eq!(ds.num_sets(), count);
    }

    #[test]
    fn diameter_is_none_iff_disconnected((n, edges) in arb_graph()) {
        let g = Csr::from_edges(n, &edges);
        prop_assert_eq!(diameter(&g).is_some(), is_connected(&g));
    }

    #[test]
    fn disconnection_trial_is_within_bounds((n, edges) in arb_graph(), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(t) = disconnection_trial(n, &edges, &mut rng) {
            prop_assert!(t.removals >= 1);
            prop_assert!(t.removals <= t.total_links);
            prop_assert_eq!(t.total_links, edges.len());
            // Removing the found prefix in any order disconnects only at
            // >= min-cut; sanity: fraction in (0, 1].
            prop_assert!(t.fraction() > 0.0 && t.fraction() <= 1.0);
        } else {
            prop_assert!(edges.is_empty() || !rfc_graph::connectivity::is_connected_edges(n, &edges));
        }
    }

    #[test]
    fn disconnection_trial_matches_bisection_reference((n, edges) in arb_graph(), seed in 0u64..500) {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            prop_assert_eq!(
                disconnection_trial(n, &edges, &mut rng_a),
                bisection_disconnection_reference(n, &edges, &mut rng_b)
            );
        }
    }

    #[test]
    fn refinement_never_widens_its_start((n, edges) in arb_graph(), seed in 0u64..500) {
        let g = Csr::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = [(0, n / 2), (n / 2, n)];
        let mut side = level_balanced_partition(n, &levels, &mut rng);
        let start = cut_width(&g, &side);
        let refined = refine_within_levels(&g, &levels, &mut side);
        prop_assert!(refined <= start, "refinement must only take improving swaps");
        prop_assert_eq!(refined, cut_width(&g, &side));
        for &(lo, hi) in &levels {
            let a = side[lo..hi].iter().filter(|&&s| s).count();
            prop_assert_eq!(a, (hi - lo) / 2, "every level stays balanced");
        }
    }

    #[test]
    fn regular_graphs_have_matching_edge_count(
        n in 4usize..40,
        d in 2usize..5,
        seed in 0u64..500,
    ) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_regular(n, d, &mut rng).unwrap();
        let g = Csr::from_adjacency(&adj);
        prop_assert_eq!(g.num_edges(), n * d / 2);
    }

    #[test]
    fn bitset_union_is_idempotent_and_monotone(
        bits_a in proptest::collection::vec(0usize..200, 0..40),
        bits_b in proptest::collection::vec(0usize..200, 0..40),
    ) {
        let mut a = BitSet::new(200);
        for &b in &bits_a {
            a.insert(b);
        }
        let mut b = BitSet::new(200);
        for &x in &bits_b {
            b.insert(x);
        }
        let before = a.count_ones();
        a.union_with(&b);
        prop_assert!(a.count_ones() >= before);
        prop_assert!(a.is_superset(&b));
        let after = a.clone();
        a.union_with(&b);
        prop_assert_eq!(a, after, "idempotent");
    }
}
