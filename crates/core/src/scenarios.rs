//! The paper's simulation scenarios (Section 6) at three reproducible
//! scales.
//!
//! The paper simulates radix-36 networks with 11K–200K compute nodes.
//! Full-size runs are hours of CPU per data point, so every scenario is
//! also available at two reduced scales that preserve the structural
//! relationships (equal resources / fewer levels / threshold sizing):
//!
//! | scale  | radix | scenario sizes      |
//! |--------|-------|---------------------|
//! | Small  | 8     | 128 / 240 / 248     |
//! | Medium | 12    | 432 / 1,296 / 1,416 |
//! | Paper  | 36    | 11,664 / 100,008 / 202,572 |

use rand::Rng;

use rfc_routing::UpDownRouting;
use rfc_topology::{FoldedClos, TopologyError};

use crate::theory;

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Radix 8, a few hundred nodes — CI-speed.
    Small,
    /// Radix 12, ~1.5K nodes — the default for `rfcgen repro`.
    Medium,
    /// Radix 36, the paper's exact sizes. Simulation at this scale takes
    /// hours per data point; topology/cost/resiliency experiments are
    /// fine.
    Paper,
}

impl Scale {
    /// The switch radix used at this scale.
    pub fn radix(self) -> usize {
        match self {
            Scale::Small => 8,
            Scale::Medium => 12,
            Scale::Paper => 36,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        })
    }
}

/// Generates RFCs until one has the up/down routing property.
///
/// Near the Theorem 4.2 threshold the success probability per draw is
/// ≈ 1/e, so a handful of tries suffices ("a RFC with up/down routing is
/// obtained every three times the algorithm is executed").
///
/// # Errors
///
/// Propagates construction errors; returns
/// [`TopologyError::InvalidParameter`] if no draw succeeds in
/// `max_tries`.
pub fn rfc_with_updown<R: Rng + ?Sized>(
    radix: usize,
    n1: usize,
    levels: usize,
    max_tries: usize,
    rng: &mut R,
) -> Result<FoldedClos, TopologyError> {
    for _ in 0..max_tries {
        let candidate = FoldedClos::random(radix, n1, levels, rng)?;
        if UpDownRouting::new(&candidate).has_updown_property() {
            return Ok(candidate);
        }
    }
    Err(TopologyError::InvalidParameter {
        reason: format!(
            "no RFC with up/down routing in {max_tries} draws \
             (radix {radix}, n1 {n1}, levels {levels}: slack x = {:.2})",
            theory::threshold_slack(radix, n1, levels)
        ),
    })
}

/// One network of a scenario: the topology plus how many terminals are
/// actually populated (may be below capacity for the "free ports"
/// networks).
#[derive(Debug, Clone)]
pub struct ScenarioNet {
    /// Display label, e.g. `"cft(36,4)@100008"`.
    pub label: String,
    /// The topology.
    pub clos: FoldedClos,
    /// Populated terminals (≤ capacity).
    pub terminals: usize,
}

/// A named set of networks simulated against each other.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name ("equal-resources", …).
    pub name: &'static str,
    /// The networks under test.
    pub nets: Vec<ScenarioNet>,
}

/// A scenario together with the up/down routing table of every network
/// — the two most expensive objects in the evaluation, built once and
/// shared between experiments via
/// [`crate::experiments::ExperimentContext`].
#[derive(Debug)]
pub struct PreparedScenario {
    /// The networks under test.
    pub scenario: Scenario,
    /// `routings[i]` routes `scenario.nets[i]`.
    pub routings: Vec<UpDownRouting>,
}

impl PreparedScenario {
    /// Builds the routing table of every network in `scenario`.
    pub fn prepare(scenario: Scenario) -> Self {
        let routings = scenario
            .nets
            .iter()
            .map(|snet| UpDownRouting::new(&snet.clos))
            .collect();
        Self { scenario, routings }
    }
}

fn net(label: impl Into<String>, clos: FoldedClos, terminals: usize) -> ScenarioNet {
    ScenarioNet {
        label: label.into(),
        clos,
        terminals,
    }
}

/// Scenario 1 (11K): CFT and RFC with **equal resources** (same radix,
/// levels, switches, wires, terminals), plus the reduced-radix RFC that
/// matches the terminal count with smaller switches.
///
/// # Errors
///
/// Propagates topology construction failures.
pub fn equal_resources<R: Rng + ?Sized>(
    scale: Scale,
    rng: &mut R,
) -> Result<Scenario, TopologyError> {
    let (radix, alt): (usize, Option<(usize, usize)>) = match scale {
        Scale::Small => (8, None),
        Scale::Medium => (12, Some((10, 86))),
        Scale::Paper => (36, Some((20, 1_166))),
    };
    let cft = FoldedClos::cft(radix, 3)?;
    let n1 = cft.num_leaves();
    let t = cft.num_terminals();
    let rfc = rfc_with_updown(radix, n1, 3, 50, rng)?;
    let mut nets = vec![
        net(format!("cft({radix},3)"), cft, t),
        net(format!("rfc({radix},{n1},3)"), rfc, t),
    ];
    if let Some((alt_radix, alt_n1)) = alt {
        let alt_rfc = rfc_with_updown(alt_radix, alt_n1, 3, 50, rng)?;
        let alt_t = alt_rfc.num_terminals();
        nets.push(net(format!("rfc({alt_radix},{alt_n1},3)"), alt_rfc, alt_t));
    }
    Ok(Scenario {
        name: "equal-resources",
        nets,
    })
}

/// Scenario 2 (100K): a 3-level RFC versus a **partially populated
/// 4-level CFT** with the same number of compute nodes (the CFT keeps
/// free ports for future expansion).
///
/// # Errors
///
/// Propagates topology construction failures.
pub fn intermediate_expansion<R: Rng + ?Sized>(
    scale: Scale,
    rng: &mut R,
) -> Result<Scenario, TopologyError> {
    let (radix, n1) = match scale {
        Scale::Small => (8, 60),
        Scale::Medium => (12, 216),
        Scale::Paper => (36, 5_556),
    };
    let rfc = rfc_with_updown(radix, n1, 3, 50, rng)?;
    let t = rfc.num_terminals();
    let cft = FoldedClos::cft(radix, 4)?;
    assert!(t <= cft.num_terminals());
    Ok(Scenario {
        name: "intermediate-expansion",
        nets: vec![
            net(format!("cft({radix},4)@{t}"), cft, t),
            net(format!("rfc({radix},{n1},3)"), rfc, t),
        ],
    })
}

/// Scenario 3 (200K): the 3-level RFC at its **maximum expansion**
/// (Theorem 4.2 threshold) versus the 4-level CFT populated to the same
/// terminal count.
///
/// The paper's radix-36 instance compares 202,572 (RFC) against the full
/// 209,952 (CFT); at reduced radix those capacities diverge, so the CFT
/// carries the RFC's terminal count for a like-for-like load.
///
/// # Errors
///
/// Propagates topology construction failures.
pub fn maximum_expansion<R: Rng + ?Sized>(
    scale: Scale,
    rng: &mut R,
) -> Result<Scenario, TopologyError> {
    let radix = scale.radix();
    let n1 = theory::max_leaves_at_threshold(radix, 3).ok_or_else(|| {
        TopologyError::InvalidParameter {
            reason: format!("radix {radix} too small"),
        }
    })?;
    // A pinch below the exact threshold so a routable draw appears
    // within a few tries.
    let n1 = n1.min(match scale {
        Scale::Small => 62,
        Scale::Medium => 236,
        Scale::Paper => 11_254,
    });
    let rfc = rfc_with_updown(radix, n1, 3, 50, rng)?;
    let t = rfc.num_terminals();
    let cft = FoldedClos::cft(radix, 4)?;
    let cft_t = t.min(cft.num_terminals());
    Ok(Scenario {
        name: "maximum-expansion",
        nets: vec![
            net(format!("cft({radix},4)@{cft_t}"), cft, cft_t),
            net(format!("rfc({radix},{n1},3)"), rfc, t),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scale_accessors() {
        assert_eq!(Scale::Small.radix(), 8);
        assert_eq!(Scale::Paper.radix(), 36);
        assert_eq!(Scale::Medium.to_string(), "medium");
    }

    #[test]
    fn equal_resources_small_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = equal_resources(Scale::Small, &mut rng).unwrap();
        assert_eq!(s.nets.len(), 2);
        assert_eq!(s.nets[0].terminals, s.nets[1].terminals);
        assert_eq!(s.nets[0].clos.num_switches(), s.nets[1].clos.num_switches());
        assert_eq!(s.nets[0].clos.num_links(), s.nets[1].clos.num_links());
    }

    #[test]
    fn equal_resources_medium_has_reduced_radix_variant() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = equal_resources(Scale::Medium, &mut rng).unwrap();
        assert_eq!(s.nets.len(), 3);
        assert_eq!(s.nets[2].clos.radix(), 10);
        let t_main = s.nets[0].terminals as f64;
        let t_alt = s.nets[2].terminals as f64;
        assert!((t_alt / t_main - 1.0).abs() < 0.01, "{t_alt} vs {t_main}");
    }

    #[test]
    fn intermediate_small_is_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = intermediate_expansion(Scale::Small, &mut rng).unwrap();
        assert_eq!(s.nets[0].terminals, s.nets[1].terminals);
        assert_eq!(s.nets[0].clos.num_levels(), 4);
        assert_eq!(s.nets[1].clos.num_levels(), 3);
        assert!(
            s.nets[0].terminals < s.nets[0].clos.num_terminals(),
            "free ports"
        );
    }

    #[test]
    fn maximum_small_sits_at_the_threshold() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = maximum_expansion(Scale::Small, &mut rng).unwrap();
        let rfc = &s.nets[1].clos;
        let slack = theory::threshold_slack(rfc.radix(), rfc.num_leaves(), 3);
        assert!(
            slack > -2.0 && slack < 15.0,
            "slack {slack} out of the threshold zone"
        );
    }

    #[test]
    fn rfc_with_updown_rejects_hopeless_parameters() {
        let mut rng = StdRng::seed_from_u64(5);
        // Far below threshold: 2 up-links into 32 roots.
        let err = rfc_with_updown(4, 64, 2, 3, &mut rng);
        assert!(err.is_err());
    }

    #[test]
    fn paper_scale_counts_match_section_5() {
        let mut rng = StdRng::seed_from_u64(6);
        // Topology construction at paper scale is fast; only simulation
        // is expensive.
        let s = intermediate_expansion(Scale::Paper, &mut rng).unwrap();
        assert_eq!(s.nets[0].terminals, 100_008);
        assert_eq!(s.nets[1].clos.num_switches(), 13_890);
    }
}
