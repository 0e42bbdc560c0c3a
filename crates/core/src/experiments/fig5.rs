//! Figure 5 — diameter evolution of RFC, RRN, CFT and OFT at a fixed
//! radix.
//!
//! For each even diameter the driver reports the largest network each
//! topology can realize: CFT and OFT step at their closed-form
//! capacities, the RFC at the Theorem 4.2 threshold, and the RRN at
//! `Δ^D ≈ 2 N ln N` (with the paper's Δ = 26 / 10-hosts split at
//! radix 36).

use rfc_graph::vid;

use crate::report::{Report, ReportError};
use crate::{cost, theory};

/// One step of a topology's diameter curve.
#[derive(Debug, Clone, PartialEq)]
pub struct DiameterStep {
    /// Topology name.
    pub topology: &'static str,
    /// Network diameter (terminal-to-terminal, switch hops).
    pub diameter: u32,
    /// Switch count of the largest realization at this diameter.
    pub switches: f64,
    /// Terminals of the largest realization at this diameter.
    pub terminals: f64,
}

/// The RRN degree/host split used at a given hardware radix: the paper's
/// radix-36 example uses Δ = 26 with 10 hosts; scale that ratio.
pub fn rrn_split(radix: usize) -> (usize, usize) {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "26/36 of a switch radix"
    )]
    let delta = ((radix as f64) * 26.0 / 36.0).round() as usize;
    (delta.max(3), (radix - delta).max(1))
}

/// Computes the diameter steps for diameters `2, 4, …, max_diameter`.
pub fn run(radix: usize, max_diameter: u32) -> Vec<DiameterStep> {
    let mut steps = Vec::new();
    let q = largest_prime_power_at_most(radix / 2 - 1);
    let (delta, hosts) = rrn_split(radix);
    let mut d = 2;
    while d <= max_diameter {
        let levels = (d / 2 + 1) as usize;
        let cft = cost::cft_cost(radix, levels);
        steps.push(DiameterStep {
            topology: "cft",
            diameter: d,
            switches: cft.switches as f64,
            terminals: cft.terminals as f64,
        });
        if let Some(n1) = theory::max_leaves_at_threshold(radix, levels) {
            let rfc = cost::rfc_cost(radix, n1, levels);
            steps.push(DiameterStep {
                topology: "rfc",
                diameter: d,
                switches: rfc.switches as f64,
                terminals: rfc.terminals as f64,
            });
        }
        if let Some(q) = q {
            let oft = cost::oft_cost(q, levels);
            steps.push(DiameterStep {
                topology: "oft",
                diameter: d,
                switches: oft.switches as f64,
                terminals: oft.terminals as f64,
            });
        }
        // Direct random network: Δ^D = 2 N ln N.
        #[expect(
            clippy::cast_possible_wrap,
            reason = "d is at most max_diameter, a small diameter bound"
        )]
        let target = (delta as f64).powi(d as i32);
        if let Some(n) = solve_2nlnn(target) {
            steps.push(DiameterStep {
                topology: "rrn",
                diameter: d,
                switches: n,
                terminals: n * hosts as f64,
            });
        }
        d += 2;
    }
    steps
}

/// Largest switch count `N` with `2 N ln N <= target`.
fn solve_2nlnn(target: f64) -> Option<f64> {
    if target <= 2.0 * 2.0 * 2f64.ln() {
        return None;
    }
    let f = |n: f64| 2.0 * n * n.ln() - target;
    let mut lo = 2.0;
    let mut hi = 2.0;
    while f(hi) < 0.0 {
        hi *= 2.0;
        if hi > 1e18 {
            return None;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

fn largest_prime_power_at_most(limit: usize) -> Option<usize> {
    (2..=limit)
        .rev()
        .find(|&q| rfc_galois::is_prime_power(vid(q)))
}

/// Renders the figure as a report.
pub fn report(radix: usize, max_diameter: u32) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        format!("fig5-diameter-R{radix}"),
        &["topology", "diameter", "max_switches", "max_terminals"],
    );
    for s in run(radix, max_diameter) {
        rep.push_row(vec![
            s.topology.to_string(),
            s.diameter.to_string(),
            format!("{:.0}", s.switches),
            format!("{:.0}", s.terminals),
        ])?;
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure_5_anchor_points() {
        let steps = run(36, 6);
        let find = |topo: &str, d: u32| {
            steps
                .iter()
                .find(|s| s.topology == topo && s.diameter == d)
                .unwrap_or_else(|| panic!("{topo} at D={d} missing"))
                .clone()
        };
        // Section 4.2: CFT diameter 4 -> 11,664; RFC ~ 202,554;
        // RRN (Δ = 26, 10 hosts) ~ 227,730.
        assert_eq!(find("cft", 4).terminals, 11_664.0);
        let rfc = find("rfc", 4).terminals;
        assert!((200_000.0..206_000.0).contains(&rfc), "rfc {rfc}");
        let rrn = find("rrn", 4).terminals;
        assert!((215_000.0..240_000.0).contains(&rrn), "rrn {rrn}");
        // Ordering claim: random topologies between CFT and OFT.
        let oft = find("oft", 4).terminals;
        assert!(11_664.0 < rfc && rfc < oft);
    }

    #[test]
    fn rrn_split_matches_paper_at_radix_36() {
        assert_eq!(rrn_split(36), (26, 10));
    }

    #[test]
    fn report_has_all_topologies() {
        let rep = report(36, 4).unwrap();
        let text = rep.to_text();
        for t in ["cft", "rfc", "oft", "rrn"] {
            assert!(text.contains(t), "missing {t}");
        }
    }

    #[test]
    fn oft_order_is_17_at_radix_36() {
        assert_eq!(largest_prime_power_at_most(17), Some(17));
        assert_eq!(largest_prime_power_at_most(1), None);
    }
}
