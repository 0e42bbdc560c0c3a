//! Resiliency drill (Section 7): progressively break random links of an
//! equal-resources CFT and RFC, recompute routing, and watch both the
//! up/down property and the simulated saturation throughput degrade.
//!
//! ```text
//! cargo run --release --example fault_drill
//! ```

#![expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "a fraction in [0, 1] of a link count"
)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rfc_net::routing::fault::updown_tolerance_trial;
use rfc_net::scenarios::{equal_resources, Scale};
use rfc_net::sim::{SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_net::UpDownRouting;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2017);
    let scenario = equal_resources(Scale::Small, &mut rng)?;

    // 1. How many random link failures does up/down routing survive?
    for net in scenario.nets.iter().take(2) {
        let trial = updown_tolerance_trial(&net.clos, &mut rng);
        println!(
            "{:<16} tolerates {:>4} of {:>4} broken links ({:.1}%) before a leaf pair \
             loses all common ancestors",
            net.label,
            trial.tolerated,
            trial.total_links,
            100.0 * trial.fraction()
        );
    }

    // 2. Throughput under cumulative faults.
    println!("\nthroughput under faults (uniform traffic, offered load 1.0):");
    println!(
        "{:>10} {:>14} {:>14}",
        "faults", scenario.nets[0].label, scenario.nets[1].label
    );
    let cfg = SimConfig::quick();
    let steps = [0.0, 0.04, 0.08, 0.12];
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for net in scenario.nets.iter().take(2) {
        let mut order = net.clos.links();
        order.shuffle(&mut rng);
        let mut col = Vec::new();
        for &frac in &steps {
            let k = (order.len() as f64 * frac) as usize;
            let faulty = net.clos.with_links_removed(&order[..k]);
            let routing = UpDownRouting::new(&faulty);
            let sim_net = SimNetwork::from_folded_clos(&faulty);
            let sim = Simulation::new(&sim_net, &routing, cfg);
            col.push(sim.max_throughput(TrafficPattern::Uniform, 99));
        }
        columns.push(col);
    }
    for (i, &frac) in steps.iter().enumerate() {
        println!(
            "{:>9.0}% {:>14.3} {:>14.3}",
            100.0 * frac,
            columns[0][i],
            columns[1][i]
        );
    }
    println!("\n(the paper's Figure 12 shows the same gentle degradation, with the RFC\n overtaking the CFT past ~12% broken links at full scale)");
    Ok(())
}
