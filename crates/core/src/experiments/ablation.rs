//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Request mode** — per-cycle random ECMP (the paper's "up/down
//!    random") versus static hash-based ECMP.
//! 2. **Flow control** — virtual-channel count and buffer depth around
//!    the Table 2 operating point (4 VCs × 4 packets).
//! 3. **Stage independence** — drawing every RFC stage independently
//!    versus reusing one random bipartite graph for all middle stages
//!    (correlated wiring): independence is what buys common ancestors.

use rand::Rng;

use rfc_graph::random::random_bipartite;
use rfc_routing::UpDownRouting;
use rfc_sim::{RequestMode, SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_topology::{CloKind, FoldedClos};

use crate::report::{f3, Report, ReportError};

/// Request-mode ablation: saturation throughput and mid-load latency of
/// one network under both ECMP selection policies.
///
/// `routing` must route `clos` (callers share a cached table through
/// [`crate::experiments::ExperimentContext`]).
///
/// # Errors
///
/// Propagates [`ReportError`] on a row/header mismatch (driver bug).
pub fn request_mode(
    clos: &FoldedClos,
    routing: &UpDownRouting,
    base: SimConfig,
    patterns: &[TrafficPattern],
    seed: u64,
) -> Result<Report, ReportError> {
    let net = SimNetwork::from_folded_clos(clos);
    let mut rep = Report::new(
        "ablation-request-mode",
        &["mode", "traffic", "saturation", "latency_at_0.5"],
    );
    for mode in [RequestMode::UpDownRandom, RequestMode::UpDownHash] {
        let mut cfg = base;
        cfg.request_mode = mode;
        let sim = Simulation::new(&net, routing, cfg);
        for &pattern in patterns {
            let sat = sim.max_throughput(pattern, seed);
            let mid = sim.run(pattern, 0.5, seed + 1);
            rep.push_row(vec![
                format!("{mode:?}"),
                pattern.to_string(),
                f3(sat),
                f3(mid.avg_latency),
            ])?;
        }
    }
    Ok(rep)
}

/// Flow-control ablation: VC count × buffer depth grid around Table 2.
///
/// # Errors
///
/// Propagates [`ReportError`] on a row/header mismatch (driver bug).
pub fn flow_control(
    clos: &FoldedClos,
    routing: &UpDownRouting,
    base: SimConfig,
    pattern: TrafficPattern,
    seed: u64,
) -> Result<Report, ReportError> {
    let net = SimNetwork::from_folded_clos(clos);
    let mut rep = Report::new(
        "ablation-flow-control",
        &[
            "virtual_channels",
            "buffer_packets",
            "saturation",
            "latency_at_0.5",
        ],
    );
    for vcs in [1usize, 2, 4, 8] {
        for buffers in [2usize, 4] {
            let mut cfg = base;
            cfg.virtual_channels = vcs;
            cfg.buffer_packets = buffers;
            let sim = Simulation::new(&net, routing, cfg);
            let sat = sim.max_throughput(pattern, seed);
            let mid = sim.run(pattern, 0.5, seed + 1);
            rep.push_row(vec![
                vcs.to_string(),
                buffers.to_string(),
                f3(sat),
                f3(mid.avg_latency),
            ])?;
        }
    }
    Ok(rep)
}

/// Builds an RFC whose middle stages all reuse ONE random bipartite
/// draw (the top stage stays fresh to keep shapes legal) — the
/// correlated-wiring strawman.
///
/// # Panics
///
/// Panics on infeasible parameters (callers pass known-good ones).
pub fn correlated_stage_rfc<R: Rng + ?Sized>(
    radix: usize,
    n1: usize,
    levels: usize,
    rng: &mut R,
) -> FoldedClos {
    let half = radix / 2;
    #[expect(
        clippy::expect_used,
        reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
    )]
    let shared = random_bipartite(n1, half, n1, half, rng).expect("feasible stage");
    let mut stages = Vec::with_capacity(levels - 1);
    for _ in 0..levels - 2 {
        stages.push(shared.clone());
    }
    #[expect(
        clippy::expect_used,
        reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
    )]
    stages.push(random_bipartite(n1, half, n1 / 2, radix, rng).expect("feasible top stage"));
    let mut sizes = vec![n1; levels - 1];
    sizes.push(n1 / 2);
    #[expect(
        clippy::expect_used,
        reason = "the stages built above have the level sizes passed alongside them"
    )]
    FoldedClos::from_stages(CloKind::RandomFoldedClos, radix, half, &sizes, stages)
        .expect("consistent stages")
}

/// Stage-independence ablation: up/down success rate over `samples`
/// draws for independent vs correlated middle stages (4-level networks,
/// where the middle stages actually repeat).
///
/// # Errors
///
/// Propagates [`ReportError`] on a row/header mismatch (driver bug).
pub fn stage_independence<R: Rng + ?Sized>(
    radix: usize,
    n1: usize,
    samples: usize,
    rng: &mut R,
) -> Result<Report, ReportError> {
    let levels = 4;
    let mut rep = Report::new(
        "ablation-stage-independence",
        &["stages", "updown_success", "mean_connected_pairs"],
    );
    for correlated in [false, true] {
        let mut ok = 0usize;
        let mut frac = 0.0f64;
        for _ in 0..samples {
            let net = if correlated {
                correlated_stage_rfc(radix, n1, levels, rng)
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
                )]
                FoldedClos::random(radix, n1, levels, rng).expect("feasible RFC")
            };
            let routing = UpDownRouting::new(&net);
            if routing.has_updown_property() {
                ok += 1;
            }
            frac += routing.connected_pair_fraction();
        }
        rep.push_row(vec![
            if correlated {
                "correlated".into()
            } else {
                "independent".into()
            },
            f3(ok as f64 / samples as f64),
            f3(frac / samples as f64),
        ])?;
    }
    Ok(rep)
}

/// Valiant ablation: the paper argues RFCs route adversarial traffic at
/// well above 50% *without* Valiant randomization (unlike dragonflies).
/// This measures saturation with and without the Valiant bounce for
/// each pattern: direct routing should win or tie everywhere on an RFC.
///
/// # Errors
///
/// Propagates [`ReportError`] on a row/header mismatch (driver bug).
pub fn valiant(
    clos: &FoldedClos,
    routing: &UpDownRouting,
    base: SimConfig,
    patterns: &[TrafficPattern],
    seed: u64,
) -> Result<Report, ReportError> {
    let net = SimNetwork::from_folded_clos(clos);
    let mut rep = Report::new(
        "ablation-valiant",
        &["traffic", "direct_saturation", "valiant_saturation"],
    );
    for &pattern in patterns {
        let direct = Simulation::new(&net, routing, base).max_throughput(pattern, seed);
        let mut vcfg = base;
        vcfg.valiant_routing = true;
        let bounced = Simulation::new(&net, routing, vcfg).max_throughput(pattern, seed);
        rep.push_row(vec![pattern.to_string(), f3(direct), f3(bounced)])?;
    }
    Ok(rep)
}

/// Taper ablation (XGFT extension): saturation throughput of a
/// three-level fat-tree as the spine is thinned from fully provisioned
/// (`w = k`) to 4:1 oversubscribed — the standard datacenter cost knob
/// the RFC's linear expandability competes against.
///
/// # Errors
///
/// Propagates [`ReportError`] on a row/header mismatch (driver bug).
pub fn taper(k: usize, base: SimConfig, seed: u64) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        "ablation-taper",
        &[
            "up_links_per_leaf",
            "taper",
            "switches",
            "wires",
            "uniform_saturation",
        ],
    );
    let mut w = k;
    while w >= 1 {
        #[expect(
            clippy::expect_used,
            reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
        )]
        let clos = FoldedClos::xgft(&[k, 2 * k], &[w, k], k).expect("valid tapered fat-tree");
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, base);
        let sat = sim.max_throughput(TrafficPattern::Uniform, seed);
        rep.push_row(vec![
            w.to_string(),
            format!("{k}:{w}"),
            clos.num_switches().to_string(),
            clos.num_links().to_string(),
            f3(sat),
        ])?;
        w /= 2;
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn request_mode_report_has_both_modes() {
        let clos = FoldedClos::cft(6, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let rep = request_mode(
            &clos,
            &routing,
            SimConfig::quick(),
            &[TrafficPattern::Uniform],
            1,
        )
        .unwrap();
        assert_eq!(rep.rows.len(), 2);
        assert!(rep.to_text().contains("UpDownHash"));
    }

    #[test]
    fn flow_control_grid_is_complete() {
        let clos = FoldedClos::cft(4, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let rep = flow_control(
            &clos,
            &routing,
            SimConfig::quick(),
            TrafficPattern::Uniform,
            2,
        )
        .unwrap();
        assert_eq!(rep.rows.len(), 8);
    }

    #[test]
    fn correlated_stages_are_structurally_valid_but_weaker() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = correlated_stage_rfc(8, 24, 4, &mut rng);
        net.validate().unwrap();
        assert!(net.is_radix_regular());
        // Middle stages identical by construction.
        assert_eq!(net.stage(0).adj1, net.stage(1).adj1);
    }

    #[test]
    fn taper_halves_saturation_per_step() {
        let mut cfg = SimConfig::quick();
        cfg.measure_cycles = 2_000;
        let rep = taper(4, cfg, 5).unwrap();
        assert_eq!(rep.rows.len(), 3, "w = 4, 2, 1");
        let sat = |i: usize| rep.rows[i][4].parse::<f64>().unwrap();
        // Fully provisioned accepts most of the load; 4:1 taper caps
        // uniform throughput near w/k = 0.25.
        assert!(sat(0) > 0.7, "full tree: {}", sat(0));
        assert!(sat(2) < 0.45, "4:1 taper: {}", sat(2));
        assert!(sat(0) > sat(1) && sat(1) > sat(2), "monotone in taper");
    }

    #[test]
    fn independence_beats_correlation_on_connectivity() {
        // Near the threshold, correlated middle stages shrink the
        // distinct-ancestor population, so the up/down success rate and
        // pair connectivity cannot exceed the independent design's by a
        // margin.
        let mut rng = StdRng::seed_from_u64(4);
        let rep = stage_independence(6, 36, 12, &mut rng).unwrap();
        let parse = |row: &Vec<String>| row[2].parse::<f64>().unwrap();
        let independent = parse(&rep.rows[0]);
        let correlated = parse(&rep.rows[1]);
        assert!(
            independent >= correlated - 0.02,
            "independent {independent} vs correlated {correlated}"
        );
    }
}
