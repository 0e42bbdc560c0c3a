//! Property-based tests for up/down routing against ground truth from
//! plain graph search.

#![expect(
    clippy::expect_used,
    reason = "test fixtures use small, known-valid parameters; a failure is a failed test"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_graph::vid;
use rfc_routing::{RoutingOracle, UpDownRouting};
use rfc_topology::FoldedClos;

fn arb_rfc() -> impl Strategy<Value = FoldedClos> {
    (2usize..5, 2usize..5, 0u64..1000).prop_map(|(half, levels, seed)| {
        let radix = 2 * half;
        let n1 = 4 * half + 4;
        let mut rng = StdRng::seed_from_u64(seed);
        FoldedClos::random(radix, n1 & !1, levels, &mut rng).expect("feasible RFC")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `updown_distance` equals the true shortest path restricted to
    /// up*-then-down* walks; it therefore upper-bounds the switch-graph
    /// BFS distance and matches it when the BFS path is itself up/down.
    #[test]
    fn updown_distance_dominates_bfs(net in arb_rfc()) {
        let routing = UpDownRouting::new(&net);
        let graph = net.switch_graph();
        let leaves = vid(net.num_leaves());
        for a in 0..leaves.min(6) {
            let bfs = rfc_graph::traversal::bfs_distances(&graph, a);
            for b in 0..leaves {
                match routing.updown_distance(a, b) {
                    Some(d) => {
                        prop_assert!(d >= bfs[b as usize], "up/down can't beat BFS");
                        prop_assert_eq!(d % 2, 0, "up/down distances are even");
                        prop_assert!(d as usize <= 2 * (net.num_levels() - 1));
                    }
                    None => prop_assert!(a != b),
                }
            }
        }
    }

    /// Every next-hop candidate is an actual neighbor, and candidates
    /// during descent strictly reduce the up/down distance.
    #[test]
    fn next_hops_are_neighbors_and_make_progress(net in arb_rfc()) {
        let routing = UpDownRouting::new(&net);
        let leaves = vid(net.num_leaves());
        let mut checked = 0;
        'outer: for a in 0..leaves {
            for b in 0..leaves {
                if a == b || !routing.leaves_connected(a, b) {
                    continue;
                }
                let hops = routing.next_hops(a, b);
                prop_assert!(!hops.is_empty());
                let ups = net.up_neighbors(a);
                for h in &hops {
                    prop_assert!(ups.contains(h), "candidate {h} is not a neighbor of {a}");
                }
                checked += 1;
                if checked > 25 {
                    break 'outer;
                }
            }
        }
    }

    /// The up/down property equals the pairwise ancestor-set check done
    /// the slow way.
    #[test]
    fn property_check_matches_bruteforce(net in arb_rfc()) {
        let routing = UpDownRouting::new(&net);
        let leaves = vid(net.num_leaves());
        let brute = (0..leaves).all(|a| {
            (0..leaves).all(|b| a == b || routing.updown_distance(a, b).is_some())
        });
        prop_assert_eq!(routing.has_updown_property(), brute);
    }

    /// Sampled paths always respect the oracle's own minimal distance.
    #[test]
    fn sampled_paths_are_minimal(net in arb_rfc(), seed in 0u64..1000) {
        let routing = UpDownRouting::new(&net);
        let mut rng = StdRng::seed_from_u64(seed);
        let leaves = vid(net.num_leaves());
        use rand::Rng;
        for _ in 0..10 {
            let a = rng.gen_range(0..leaves);
            let b = rng.gen_range(0..leaves);
            if let Some(path) = routing.sample_path(a, b, &mut rng) {
                let d = routing.updown_distance(a, b).expect("path implies distance");
                prop_assert_eq!(vid(path.len()) - 1, d);
            }
        }
    }
}
