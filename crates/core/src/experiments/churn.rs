//! Churn — availability and accepted load over time under Poisson link
//! churn (dynamic-network extension; not in the paper's evaluation).
//!
//! The paper's fault results (Figures 11–12, Table 3) are static: links
//! are removed once, before traffic starts. This driver exercises the
//! dynamic-network layer instead — a [`FaultSchedule`] of Poisson
//! failure arrivals with exponential repair times plays out *during*
//! the measurement, each event repairing the up/down routing state
//! incrementally. The report shows the accepted-load time series (the
//! dips and recoveries the end-of-run mean hides) together with the
//! fraction of cycles the up/down property held.

use rfc_routing::UpDownRouting;
use rfc_sim::{FaultSchedule, RunScratch, SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_topology::FoldedClos;

use crate::parallel;
use crate::report::{f3, Report, ReportError};

/// Parameters of one churn run (shared by every network in the report).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnParams {
    /// Poisson failure arrival rate, network-wide (failures per cycle).
    pub rate: f64,
    /// Mean exponential downtime of a failed link (cycles).
    pub mean_downtime: f64,
    /// Offered load (phits per node per cycle).
    pub load: f64,
    /// Number of equal time slices in the accepted-load series.
    pub epochs: usize,
}

impl ChurnParams {
    /// Defaults scaled to the run length: an expected `events` failures
    /// over `total_cycles`, each down for an eighth of the run.
    pub fn for_run(total_cycles: u64, events: f64) -> Self {
        let total = total_cycles.max(1) as f64;
        ChurnParams {
            rate: events / total,
            mean_downtime: total / 8.0,
            load: 0.4,
            epochs: 8,
        }
    }
}

/// Simulates each labelled `(topology, routing)` pair under `pattern`
/// while the Poisson schedule derived from `params` plays out, and
/// reports the per-epoch accepted load plus availability.
///
/// # Errors
///
/// Propagates [`ReportError`] on a row/header mismatch (driver bug).
pub fn report(
    nets: &[(&str, &FoldedClos, &UpDownRouting)],
    params: ChurnParams,
    pattern: TrafficPattern,
    cfg: SimConfig,
    seed: u64,
    title: &str,
) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        title,
        &[
            "network",
            "epoch",
            "accepted",
            "availability",
            "events_applied",
        ],
    );
    for (label, clos, routing) in nets {
        let net = SimNetwork::from_folded_clos(clos);
        let sim = Simulation::new(&net, routing, cfg);
        let schedule = FaultSchedule::poisson(
            clos,
            params.rate,
            params.mean_downtime,
            cfg.total_cycles(),
            seed,
        );
        let out = sim.run_churn_sharded_scratch(
            clos,
            &schedule,
            pattern,
            params.load,
            seed,
            params.epochs,
            parallel::current_shards(),
            &mut RunScratch::new(),
        );
        for (epoch, accepted) in out.epoch_accepted.iter().enumerate() {
            rep.push_row(vec![
                (*label).to_string(),
                epoch.to_string(),
                f3(*accepted),
                f3(out.availability),
                out.events_applied.to_string(),
            ])?;
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_network_and_epoch() {
        let clos = FoldedClos::cft(4, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let mut cfg = SimConfig::quick();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 400;
        let params = ChurnParams::for_run(cfg.total_cycles(), 3.0);
        let rep = report(
            &[("cft", &clos, &routing)],
            params,
            TrafficPattern::Uniform,
            cfg,
            11,
            "churn-test",
        )
        .unwrap();
        assert_eq!(rep.rows.len(), params.epochs);
        for row in &rep.rows {
            assert_eq!(row[0], "cft");
            let avail: f64 = row[3].parse().unwrap();
            assert!((0.0..=1.0).contains(&avail), "availability {avail}");
        }
    }

    #[test]
    fn for_run_scales_rate_to_the_horizon() {
        let p = ChurnParams::for_run(1_000, 10.0);
        assert!((p.rate - 0.01).abs() < 1e-12);
        assert!((p.mean_downtime - 125.0).abs() < 1e-9);
    }
}
