//! Quickstart: build a random folded Clos, verify it supports up/down
//! routing, inspect a route, and simulate uniform traffic.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the example's fixed network is feasible and connected"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::graph::vid;
use rfc_net::routing::RoutingOracle;
use rfc_net::scenarios::rfc_with_updown;
use rfc_net::sim::{SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_net::theory;
use rfc_net::UpDownRouting;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2017);

    // 1. Size a 3-level radix-12 RFC at the Theorem 4.2 threshold.
    let radix = 12;
    let levels = 3;
    let n1 = theory::max_leaves_at_threshold(radix, levels).expect("radix large enough");
    println!("threshold sizing: radix {radix}, {levels} levels -> N1 = {n1} leaves");
    println!(
        "  P(up/down at exact threshold) ~ e^-e^-x = {:.3} per draw",
        theory::updown_probability(theory::threshold_slack(radix, n1, levels))
    );

    // 2. Generate until a draw has the common-ancestor property.
    let net = rfc_with_updown(radix, n1, levels, 50, &mut rng)?;
    println!(
        "built {:?}: {} switches, {} wires, {} compute nodes",
        net.kind(),
        net.num_switches(),
        net.num_links(),
        net.num_terminals()
    );

    // 3. Routing: ECMP candidates and one sampled up/down path.
    let routing = UpDownRouting::new(&net);
    assert!(routing.has_updown_property());
    let (a, b) = (0u32, vid(net.num_leaves() - 1));
    let hops = routing.next_hops(a, b);
    let path = routing.sample_path(a, b, &mut rng).expect("connected");
    println!(
        "leaf {a} -> leaf {b}: {} first-hop choices, sample path {path:?}",
        hops.len()
    );
    println!(
        "  minimal up/down distance: {} hops",
        routing.updown_distance(a, b).unwrap()
    );

    // 4. Simulate uniform traffic at half load.
    let sim_net = SimNetwork::from_folded_clos(&net);
    let sim = Simulation::new(&sim_net, &routing, SimConfig::quick());
    let result = sim.run(TrafficPattern::Uniform, 0.5, 7);
    println!(
        "uniform load 0.5: accepted {:.3} phits/node/cycle, mean latency {:.1} cycles \
         ({} packets delivered)",
        result.accepted_load, result.avg_latency, result.delivered_packets
    );
    Ok(())
}
