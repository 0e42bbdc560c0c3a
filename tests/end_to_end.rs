//! End-to-end integration: every topology family is built, routed, and
//! simulated through the public API.

#![expect(
    clippy::expect_used,
    reason = "test fixtures use small, known-valid parameters; a failure is a failed test"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::graph::vid;
use rfc_net::routing::ksp;
use rfc_net::sim::{SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_net::topology::{FoldedClos, Network, Rrn};
use rfc_net::UpDownRouting;

/// Builds, routes and simulates one folded Clos network; returns its
/// uniform-traffic result at the given load.
fn pipeline(clos: &FoldedClos, load: f64, seed: u64) -> rfc_net::sim::SimResult {
    clos.validate().expect("structural invariants");
    let routing = UpDownRouting::new(clos);
    assert!(
        routing.has_updown_property(),
        "scenario networks must be routable"
    );
    let net = SimNetwork::from_folded_clos(clos);
    let sim = Simulation::new(&net, &routing, SimConfig::quick());
    sim.run(TrafficPattern::Uniform, load, seed)
}

#[test]
fn cft_end_to_end() {
    let clos = FoldedClos::cft(8, 3).unwrap();
    let r = pipeline(&clos, 0.4, 1);
    assert!(r.delivered_packets > 0);
    assert!(
        (r.accepted_load - 0.4).abs() < 0.08,
        "below saturation: {}",
        r.accepted_load
    );
}

#[test]
fn kary_tree_end_to_end() {
    let clos = FoldedClos::kary_tree(4, 3).unwrap();
    let r = pipeline(&clos, 0.3, 2);
    assert!(r.delivered_packets > 0);
}

#[test]
fn oft_end_to_end() {
    let clos = FoldedClos::oft(3, 2).unwrap();
    let r = pipeline(&clos, 0.4, 3);
    assert!(r.delivered_packets > 0);
    assert!((r.accepted_load - 0.4).abs() < 0.08);
}

#[test]
fn rfc_end_to_end() {
    let mut rng = StdRng::seed_from_u64(4);
    let clos = rfc_net::scenarios::rfc_with_updown(8, 32, 3, 50, &mut rng).unwrap();
    let r = pipeline(&clos, 0.4, 4);
    assert!(r.delivered_packets > 0);
    assert!((r.accepted_load - 0.4).abs() < 0.08);
}

#[test]
fn rrn_ksp_finds_diverse_paths() {
    let mut rng = StdRng::seed_from_u64(6);
    let rrn = Rrn::new(20, 4, 1, &mut rng).unwrap();
    let g = rrn.graph();
    let paths = ksp::k_shortest_paths(&g, 0, 10, 4);
    assert!(!paths.is_empty());
    for w in paths.windows(2) {
        assert!(w[0].len() <= w[1].len());
    }
}

#[test]
fn faulty_rfc_reroutes_around_failures() {
    let mut rng = StdRng::seed_from_u64(7);
    let clos = rfc_net::scenarios::rfc_with_updown(10, 40, 3, 50, &mut rng).unwrap();
    // Remove 5% of links; up/down routing usually survives well above
    // the threshold.
    let links = clos.links();
    let victims: Vec<_> = links.iter().step_by(20).copied().collect();
    let faulty = clos.with_links_removed(&victims);
    let routing = UpDownRouting::new(&faulty);
    let net = SimNetwork::from_folded_clos(&faulty);
    let sim = Simulation::new(&net, &routing, SimConfig::quick());
    let r = sim.run(TrafficPattern::FixedRandom, 0.3, 7);
    assert!(r.delivered_packets > 0);
}

#[test]
fn expansion_then_simulation() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut clos = FoldedClos::random(8, 32, 3, &mut rng).unwrap();
    rfc_net::topology::expansion::expand_rfc(&mut clos, 3, &mut rng).unwrap();
    assert_eq!(clos.num_leaves(), 38);
    let routing = UpDownRouting::new(&clos);
    if routing.has_updown_property() {
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let r = sim.run(TrafficPattern::Uniform, 0.3, 8);
        assert!(r.delivered_packets > 0);
    }
}

#[test]
fn network_trait_covers_both_families() {
    let mut rng = StdRng::seed_from_u64(9);
    let nets: Vec<Box<dyn Network>> = vec![
        Box::new(FoldedClos::cft(8, 2).unwrap()),
        Box::new(FoldedClos::oft(2, 2).unwrap()),
        Box::new(Rrn::new(16, 4, 2, &mut rng).unwrap()),
    ];
    for n in &nets {
        assert!(n.num_ports() >= 2 * n.num_switch_links());
        assert_eq!(n.switch_graph().num_edges(), n.num_switch_links());
        assert!(!n.label().is_empty());
    }
}

#[test]
fn oracle_progress_terminates_for_random_walks() {
    // Following random ECMP candidates must reach the destination in at
    // most 2(l-1) hops on an up/down network.
    let mut rng = StdRng::seed_from_u64(10);
    let clos = rfc_net::scenarios::rfc_with_updown(8, 24, 3, 50, &mut rng).unwrap();
    let routing = UpDownRouting::new(&clos);
    use rand::Rng;
    for _ in 0..200 {
        let a = vid(rng.gen_range(0..clos.num_leaves()));
        let b = vid(rng.gen_range(0..clos.num_leaves()));
        let mut current = a;
        let mut hops = 0;
        while current != b {
            let cands = routing.next_hops(current, b);
            assert!(!cands.is_empty(), "stuck at {current} toward {b}");
            current = cands[rng.gen_range(0..cands.len())];
            hops += 1;
            assert!(hops <= 4, "up/down paths are at most 2(l-1) hops");
        }
    }
}
