//! Figures 8–10 — simulated latency and throughput of a scenario's
//! networks under the three synthetic traffic patterns.
//!
//! Figure 8 uses the equal-resources scenario, Figure 9 the intermediate
//! expansion, Figure 10 the maximum expansion
//! (see [`crate::scenarios`]).

use rfc_sim::{RunScratch, SimConfig, SimNetwork, Simulation, TrafficPattern};

use crate::parallel;
use crate::report::{f3, Report, ReportError};
use crate::scenarios::{PreparedScenario, Scenario};

use rfc_routing::UpDownRouting;

/// One measured point of a latency/throughput curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Network label.
    pub net: String,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Offered load (phits/node/cycle).
    pub offered: f64,
    /// Accepted load (phits/node/cycle).
    pub accepted: f64,
    /// Mean packet latency (cycles); NaN when nothing was delivered.
    pub latency: f64,
    /// 99th-percentile packet latency (cycles).
    pub latency_p99: f64,
}

/// The default offered-load grid (paper plots 0–1 normalized load).
pub fn default_loads() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// Simulates every network of `scenario` under `patterns` across
/// `loads`.
///
/// The `(network, pattern, load)` points are independent simulator runs,
/// so they are fanned out over [`parallel::map_init`]; each job's seed
/// is [`parallel::child_seed`]`(seed, flat_index)`, making the output
/// identical at every thread count.
pub fn run(
    scenario: &Scenario,
    patterns: &[TrafficPattern],
    loads: &[f64],
    config: SimConfig,
    seed: u64,
) -> Vec<SimPoint> {
    run_prepared(
        &PreparedScenario::prepare(scenario.clone()),
        patterns,
        loads,
        config,
        seed,
    )
}

/// [`run`] on a scenario whose routing tables are already built
/// (typically shared through
/// [`crate::experiments::ExperimentContext`], so fig8/fig12 pay for the
/// equal-resources routing exactly once).
pub fn run_prepared(
    prepared: &PreparedScenario,
    patterns: &[TrafficPattern],
    loads: &[f64],
    config: SimConfig,
    seed: u64,
) -> Vec<SimPoint> {
    let scenario = &prepared.scenario;
    let routings: &[UpDownRouting] = &prepared.routings;
    let sim_nets: Vec<SimNetwork> = scenario
        .nets
        .iter()
        .map(|snet| {
            if snet.terminals == snet.clos.num_terminals() {
                SimNetwork::from_folded_clos(&snet.clos)
            } else {
                SimNetwork::from_folded_clos_populated(&snet.clos, snet.terminals)
            }
        })
        .collect();
    let sims: Vec<Simulation<'_, UpDownRouting>> = sim_nets
        .iter()
        .zip(routings)
        .map(|(sim_net, routing)| Simulation::new(sim_net, routing, config))
        .collect();

    let mut jobs = Vec::with_capacity(scenario.nets.len() * patterns.len() * loads.len());
    for ni in 0..scenario.nets.len() {
        for &pattern in patterns {
            for &load in loads {
                jobs.push((jobs.len() as u64, ni, pattern, load));
            }
        }
    }
    parallel::map_init(
        jobs,
        RunScratch::new,
        |scratch, (index, ni, pattern, load)| {
            let r = sims[ni].run_sharded_scratch(
                pattern,
                load,
                parallel::child_seed(seed, index),
                parallel::current_shards(),
                scratch,
            );
            SimPoint {
                net: scenario.nets[ni].label.clone(),
                pattern,
                offered: load,
                accepted: r.accepted_load,
                latency: r.avg_latency,
                latency_p99: r.latency_p99,
            }
        },
    )
}

/// Renders the scenario's curves.
///
/// # Errors
///
/// Propagates [`ReportError`] on a row/header mismatch (driver bug).
pub fn report(
    prepared: &PreparedScenario,
    patterns: &[TrafficPattern],
    loads: &[f64],
    config: SimConfig,
    seed: u64,
    title: &str,
) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        title,
        &[
            "network",
            "traffic",
            "offered",
            "accepted",
            "latency_cycles",
            "latency_p99",
        ],
    );
    for p in run_prepared(prepared, patterns, loads, config, seed) {
        rep.push_row(vec![
            p.net,
            p.pattern.to_string(),
            f3(p.offered),
            f3(p.accepted),
            if p.latency.is_nan() {
                "-".into()
            } else {
                f3(p.latency)
            },
            if p.latency_p99.is_nan() {
                "-".into()
            } else {
                f3(p.latency_p99)
            },
        ])?;
    }
    Ok(rep)
}

/// Saturation throughput of one network/pattern (the knee the paper's
/// throughput panels flatten to).
pub fn saturation(points: &[SimPoint], net: &str, pattern: TrafficPattern) -> f64 {
    points
        .iter()
        .filter(|p| p.net == net && p.pattern == pattern)
        .map(|p| p.accepted)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{equal_resources, Scale};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn equal_resources_small_uniform_behaves_like_figure_8() {
        let mut rng = StdRng::seed_from_u64(8);
        let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
        let mut cfg = SimConfig::quick();
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 2_000;
        let points = run(
            &scenario,
            &[TrafficPattern::Uniform],
            &[0.3, 0.8, 1.0],
            cfg,
            77,
        );
        // Both topologies accept moderate uniform loads in full.
        for p in points.iter().filter(|p| p.offered <= 0.31) {
            assert!(
                (p.accepted - p.offered).abs() < 0.05,
                "{} at {} accepted {}",
                p.net,
                p.offered,
                p.accepted
            );
        }
        // Under uniform traffic the two have comparable saturation
        // (paper: "almost the same performance").
        let cft = saturation(&points, &scenario.nets[0].label, TrafficPattern::Uniform);
        let rfc = saturation(&points, &scenario.nets[1].label, TrafficPattern::Uniform);
        assert!((cft - rfc).abs() < 0.25, "cft {cft} vs rfc {rfc}");
        assert!(cft > 0.5 && rfc > 0.5);
    }

    #[test]
    fn report_renders_every_point() {
        let mut rng = StdRng::seed_from_u64(9);
        let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
        let prepared = PreparedScenario::prepare(scenario);
        let rep = report(
            &prepared,
            &[TrafficPattern::FixedRandom],
            &[0.2],
            SimConfig::quick(),
            1,
            "fig8-test",
        )
        .unwrap();
        assert_eq!(rep.rows.len(), prepared.scenario.nets.len());
    }

    #[test]
    fn prepared_and_unprepared_paths_agree() {
        let mut rng = StdRng::seed_from_u64(10);
        let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
        let direct = run(
            &scenario,
            &[TrafficPattern::Uniform],
            &[0.2],
            SimConfig::quick(),
            3,
        );
        let prepared = PreparedScenario::prepare(scenario);
        let shared = run_prepared(
            &prepared,
            &[TrafficPattern::Uniform],
            &[0.2],
            SimConfig::quick(),
            3,
        );
        assert_eq!(direct, shared);
    }
}
