//! Property-based integration tests: random parameters, structural and
//! behavioral invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::graph::random::{random_bipartite, random_regular};
use rfc_net::graph::{vid, Csr};
use rfc_net::sim::{SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_net::topology::FoldedClos;
use rfc_net::UpDownRouting;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Steger–Wormald output is always simple and regular.
    #[test]
    fn random_regular_is_simple_and_regular(
        n in 4usize..60,
        d in 2usize..6,
        seed in 0u64..1000,
    ) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_regular(n, d, &mut rng).unwrap();
        let g = Csr::from_adjacency(&adj);
        prop_assert!(g.is_regular(d));
        for v in 0..vid(n) {
            prop_assert!(!g.has_edge(v, v), "self loop at {v}");
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                prop_assert!(w[0] != w[1], "parallel edge at {v}");
            }
        }
    }

    /// Random bipartite stages are semiregular and symmetric.
    #[test]
    fn random_bipartite_is_semiregular(
        n1 in 4usize..48,
        d1 in 1usize..5,
        seed in 0u64..1000,
    ) {
        // Pick a compatible right side: n2 * d2 == n1 * d1.
        let d2 = 2 * d1;
        prop_assume!(n1 * d1 % d2 == 0);
        let n2 = n1 * d1 / d2;
        prop_assume!(n2 >= 1 && d1 <= n2 && d2 <= n1);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_bipartite(n1, d1, n2, d2, &mut rng).unwrap();
        prop_assert!(g.is_semiregular(d1, d2));
    }

    /// Every generated RFC is structurally valid and radix-regular,
    /// with the exact switch/wire/terminal accounting of Section 5.
    #[test]
    fn rfc_structure_invariants(
        half in 2usize..6,
        n1_half in 4usize..24,
        levels in 2usize..5,
        seed in 0u64..1000,
    ) {
        let radix = 2 * half;
        let n1 = 2 * n1_half;
        prop_assume!(radix <= n1);
        let mut rng = StdRng::seed_from_u64(seed);
        let net = FoldedClos::random(radix, n1, levels, &mut rng).unwrap();
        net.validate().unwrap();
        prop_assert!(net.is_radix_regular());
        prop_assert_eq!(net.num_switches(), (levels - 1) * n1 + n1 / 2);
        prop_assert_eq!(net.num_links(), (levels - 1) * n1 * half);
        prop_assert_eq!(net.num_terminals(), n1 * half);
    }

    /// When the up/down property holds, every leaf pair is reachable in
    /// at most 2(l-1) hops following any ECMP choice.
    #[test]
    fn updown_routing_delivers_within_bound(
        half in 3usize..6,
        levels in 2usize..4,
        seed in 0u64..400,
    ) {
        let radix = 2 * half;
        let n1 = 4 * half; // comfortably above threshold for these sizes
        let mut rng = StdRng::seed_from_u64(seed);
        let net = FoldedClos::random(radix, n1, levels, &mut rng).unwrap();
        let routing = UpDownRouting::new(&net);
        prop_assume!(routing.has_updown_property());
        use rand::Rng;
        for _ in 0..20 {
            let a = vid(rng.gen_range(0..n1));
            let b = vid(rng.gen_range(0..n1));
            let mut cur = a;
            let mut hops = 0usize;
            while cur != b {
                let c = routing.next_hops(cur, b);
                prop_assert!(!c.is_empty());
                cur = c[rng.gen_range(0..c.len())];
                hops += 1;
                prop_assert!(hops <= 2 * (levels - 1));
            }
        }
    }

    /// Packet conservation in the simulator: generated = delivered +
    /// still in flight, under any pattern/load.
    #[test]
    fn simulator_conserves_packets(
        load in 0.05f64..1.0,
        pattern_idx in 0usize..3,
        seed in 0u64..200,
    ) {
        let clos = FoldedClos::cft(6, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 600;
        let sim = Simulation::new(&net, &routing, cfg);
        let r = sim.run(TrafficPattern::ALL[pattern_idx], load, seed);
        prop_assert_eq!(
            r.generated_packets,
            r.delivered_packets + r.in_flight_at_end
        );
        prop_assert!(r.accepted_load <= load + 0.12);
    }

    /// Fault injection never increases connectivity and routing stays
    /// sound on the surviving fabric.
    #[test]
    fn faults_only_shrink_reachability(
        seed in 0u64..300,
        stride in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = FoldedClos::random(8, 24, 3, &mut rng).unwrap();
        let links = net.links();
        let victims: Vec<_> = links.iter().step_by(stride).copied().collect();
        let faulty = net.with_links_removed(&victims);
        let before = UpDownRouting::new(&net);
        let after = UpDownRouting::new(&faulty);
        for leaf in 0..vid(net.num_leaves()) {
            prop_assert!(
                before.updown_reach(leaf).is_superset(after.updown_reach(leaf)),
                "faults must not create reachability"
            );
        }
    }
}
