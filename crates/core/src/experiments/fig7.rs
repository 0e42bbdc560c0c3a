//! Figure 7 — expandability: total system ports against compute nodes at
//! a fixed radix.
//!
//! CFT and OFT appear as step functions (a weak expansion — one more
//! level — buys the next capacity range, paid up front as a fully
//! equipped fabric); RFC and RRN grow linearly, with small RFC steps when
//! the Theorem 4.2 threshold forces an extra level.

use rfc_graph::vid;

use crate::experiments::fig5::rrn_split;
use crate::report::{Report, ReportError};
use crate::{cost, theory};

/// Port cost of each topology at one terminal count; `None` when the
/// topology cannot reach that size within `max_levels`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandabilityPoint {
    /// Compute nodes requested.
    pub terminals: usize,
    /// Linear RFC cost (levels chosen minimally for up/down routing).
    pub rfc_ports: Option<usize>,
    /// Linear RRN cost.
    pub rrn_ports: usize,
    /// Step CFT cost (fully equipped fabric of the smallest sufficient
    /// level count).
    pub cft_ports: Option<usize>,
    /// Step OFT cost.
    pub oft_ports: Option<usize>,
}

/// Maximum level count explored for the step topologies.
pub const MAX_LEVELS: usize = 6;

/// Computes the four curves at one terminal count.
pub fn point(radix: usize, terminals: usize) -> ExpandabilityPoint {
    let half = radix / 2;
    // RFC: N1 leaves (rounded up to even), minimal levels satisfying the
    // threshold.
    let n1 = {
        let raw = terminals.div_ceil(half);
        raw + raw % 2
    };
    let rfc_ports = (2..=MAX_LEVELS)
        .find(|&l| theory::max_leaves_at_threshold(radix, l).is_some_and(|m| m >= n1))
        .map(|l| cost::rfc_cost(radix, n1.max(2), l).total_ports());
    // RRN: linear in N.
    let (delta, hosts) = rrn_split(radix);
    let n = terminals.div_ceil(hosts);
    let n = n + (n * delta) % 2; // keep N·Δ even
    let rrn_ports = cost::rrn_cost(n.max(2), delta, hosts).total_ports();
    // CFT step.
    let cft_ports = (2..=MAX_LEVELS)
        .find(|&l| theory::cft_terminals(radix, l) >= terminals)
        .map(|l| cost::cft_cost(radix, l).total_ports());
    // OFT step.
    let q = radix / 2 - 1;
    let oft_ports = rfc_galois::is_prime_power(vid(q))
        .then(|| {
            (2..=MAX_LEVELS)
                .find(|&l| theory::oft_terminals(q, l) >= terminals)
                .map(|l| cost::oft_cost(q, l).total_ports())
        })
        .flatten();
    ExpandabilityPoint {
        terminals,
        rfc_ports,
        rrn_ports,
        cft_ports,
        oft_ports,
    }
}

/// Renders the curves over a terminal grid.
pub fn report(radix: usize, terminal_grid: &[usize]) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        format!("fig7-expandability-R{radix}"),
        &[
            "terminals",
            "rfc_ports",
            "rrn_ports",
            "cft_ports",
            "oft_ports",
        ],
    );
    let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |p| p.to_string());
    for &t in terminal_grid {
        let p = point(radix, t);
        rep.push_row(vec![
            t.to_string(),
            opt(p.rfc_ports),
            p.rrn_ports.to_string(),
            opt(p.cft_ports),
            opt(p.oft_ports),
        ])?;
    }
    Ok(rep)
}

/// A default log-ish grid from 1K to 200K terminals.
pub fn default_grid() -> Vec<usize> {
    let mut grid = Vec::new();
    let mut t = 1_000usize;
    while t <= 200_000 {
        grid.push(t);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "t stays below 200,000 on this grid"
        )]
        let grown = (t as f64 * 1.3) as usize;
        t = grown / 100 * 100;
    }
    grid.push(202_572);
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_topologies_are_cheaper_in_the_gap() {
        // Between the 3-level CFT limit (11,664) and the 4-level limit,
        // the CFT pays the full 4-level fabric while the RFC grows
        // linearly — Section 5's 100K example.
        let p = point(36, 100_008);
        let rfc = p.rfc_ports.unwrap();
        let cft = p.cft_ports.unwrap();
        assert!(rfc < cft / 2, "rfc {rfc} vs cft {cft}");
        // Both random topologies cost about the same.
        let ratio = rfc as f64 / p.rrn_ports as f64;
        assert!((0.7..1.6).contains(&ratio), "rfc/rrn ratio {ratio}");
    }

    #[test]
    fn cft_cost_is_a_step_function() {
        let below = point(36, 11_000).cft_ports.unwrap();
        let at = point(36, 11_664).cft_ports.unwrap();
        let above = point(36, 12_000).cft_ports.unwrap();
        assert_eq!(below, at, "same 3-level fabric");
        assert!(above > at, "4-level step");
    }

    #[test]
    fn rfc_cost_is_almost_linear() {
        let a = point(36, 50_000).rfc_ports.unwrap() as f64;
        let b = point(36, 100_000).rfc_ports.unwrap() as f64;
        let ratio = b / a;
        assert!(
            (1.9..2.1).contains(&ratio),
            "doubling terminals ~ doubles cost: {ratio}"
        );
    }

    #[test]
    fn rfc_steps_to_four_levels_past_its_threshold() {
        // Beyond ~202K terminals the 3-level radix-36 RFC must add a
        // level (weak expansion) to preserve up/down routing.
        let three = point(36, 200_000).rfc_ports.unwrap();
        let four = point(36, 210_000).rfc_ports.unwrap();
        let jump = four as f64 / three as f64;
        assert!(jump > 1.3, "level step must be visible: {jump}");
    }

    #[test]
    fn report_covers_grid() {
        let rep = report(36, &[1_000, 10_000, 100_000]).unwrap();
        assert_eq!(rep.rows.len(), 3);
        assert!(!default_grid().is_empty());
    }
}
