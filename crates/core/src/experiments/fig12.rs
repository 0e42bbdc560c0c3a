//! Figure 12 — simulated maximum throughput of the equal-resources CFT
//! and RFC as links fail.
//!
//! Links are removed cumulatively in a random order, in steps of ~1.3 %
//! of the wires (the paper removes multiples of 300 out of 23,328); at
//! each step the routing tables are recomputed on the surviving fabric
//! and the saturation throughput is measured for each traffic pattern.

use rand::seq::SliceRandom;
use rand::Rng;

use rfc_routing::UpDownRouting;
use rfc_sim::{RunScratch, SimConfig, SimNetwork, Simulation, TrafficPattern};

use crate::parallel;
use crate::report::{f3, Report, ReportError};
use crate::scenarios::Scenario;

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultThroughputPoint {
    /// Network label.
    pub net: String,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Links removed.
    pub faults: usize,
    /// Fraction of links removed.
    pub fault_fraction: f64,
    /// Saturation throughput (accepted phits/node/cycle at offered 1.0).
    pub throughput: f64,
    /// Whether the surviving fabric still has the full up/down property.
    pub updown_intact: bool,
}

/// Runs the experiment over the first two networks of `scenario`
/// (CFT and the equal-resources RFC), with `steps` fault increments of
/// `step_fraction` of the links each.
pub fn run<R: Rng + ?Sized>(
    scenario: &Scenario,
    patterns: &[TrafficPattern],
    steps: usize,
    step_fraction: f64,
    config: SimConfig,
    rng: &mut R,
) -> Vec<FaultThroughputPoint> {
    let mut points = Vec::new();
    for snet in scenario.nets.iter().take(2) {
        let mut order = snet.clos.links();
        order.shuffle(rng);
        let total = order.len();
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a fraction in (0, 1] of a link count"
        )]
        let step = ((total as f64 * step_fraction).round() as usize).max(1);
        // Each fault step rebuilds its own faulty fabric, routing, and
        // simulator from the shared removal order, so the steps are
        // independent jobs; simulation seeds depend only on (step,
        // pattern), keeping the output thread-count invariant.
        let step_points =
            parallel::map_init((0..=steps).collect(), RunScratch::new, |scratch, s| {
                let faults = (s * step).min(total);
                let faulty = snet.clos.with_links_removed(&order[..faults]);
                let routing = UpDownRouting::new(&faulty);
                let sim_net = SimNetwork::from_folded_clos_populated(&faulty, snet.terminals);
                let sim = Simulation::new(&sim_net, &routing, config);
                patterns
                    .iter()
                    .enumerate()
                    .map(|(pi, &pattern)| {
                        let seed = 1_000 + s as u64 * 17 + pi as u64;
                        let throughput = sim
                            .run_sharded_scratch(
                                pattern,
                                1.0,
                                seed,
                                parallel::current_shards(),
                                scratch,
                            )
                            .accepted_load;
                        FaultThroughputPoint {
                            net: snet.label.clone(),
                            pattern,
                            faults,
                            fault_fraction: faults as f64 / total as f64,
                            throughput,
                            updown_intact: routing.has_updown_property(),
                        }
                    })
                    .collect::<Vec<_>>()
            });
        points.extend(step_points.into_iter().flatten());
    }
    points
}

/// Renders the figure.
///
/// # Errors
///
/// Propagates [`ReportError`] on a row/header mismatch (driver bug).
pub fn report<R: Rng + ?Sized>(
    scenario: &Scenario,
    patterns: &[TrafficPattern],
    steps: usize,
    step_fraction: f64,
    config: SimConfig,
    rng: &mut R,
    title: &str,
) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        title,
        &[
            "network",
            "traffic",
            "faulty_links",
            "fault_fraction",
            "throughput",
            "updown_intact",
        ],
    );
    for p in run(scenario, patterns, steps, step_fraction, config, rng) {
        rep.push_row(vec![
            p.net,
            p.pattern.to_string(),
            p.faults.to_string(),
            f3(p.fault_fraction),
            f3(p.throughput),
            p.updown_intact.to_string(),
        ])?;
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{equal_resources, Scale};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn throughput_survives_light_faults_and_degrades_gracefully() {
        let mut rng = StdRng::seed_from_u64(12);
        let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
        let cfg = SimConfig::quick();
        let points = run(
            &scenario,
            &[TrafficPattern::Uniform],
            2,
            0.05,
            cfg,
            &mut rng,
        );
        // 2 networks x 3 fault levels.
        assert_eq!(points.len(), 6);
        for net in [&scenario.nets[0].label, &scenario.nets[1].label] {
            let series: Vec<_> = points.iter().filter(|p| &p.net == net).collect();
            let intact = series[0].throughput;
            let faulty = series.last().unwrap().throughput;
            assert!(intact > 0.4, "{net} intact throughput {intact}");
            // 10% faults cannot erase more than ~60% of throughput.
            assert!(faulty > intact * 0.4, "{net}: {intact} -> {faulty}");
        }
    }

    #[test]
    fn fault_fractions_are_cumulative() {
        let mut rng = StdRng::seed_from_u64(13);
        let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
        let points = run(
            &scenario,
            &[TrafficPattern::Uniform],
            3,
            0.02,
            SimConfig::quick(),
            &mut rng,
        );
        let series: Vec<_> = points
            .iter()
            .filter(|p| p.net == scenario.nets[0].label)
            .collect();
        for w in series.windows(2) {
            assert!(w[1].faults >= w[0].faults);
        }
    }
}
