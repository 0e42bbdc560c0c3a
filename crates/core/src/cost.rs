//! Raw cost accounting (switches, wires, ports) for every topology —
//! the basis of the Section 5 comparison and Figure 7.

/// Hardware bill for one network configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkCost {
    /// Switch count.
    pub switches: usize,
    /// Switch-to-switch wires (what the paper's Section 5 calls "wires").
    pub switch_wires: usize,
    /// Switch-to-terminal links.
    pub terminal_links: usize,
    /// Compute nodes connected.
    pub terminals: usize,
}

impl NetworkCost {
    /// Total ports: both ends of every wire, counting the NIC port of
    /// each terminal link (the Figure 7 ordinate, where "the number of
    /// network wires is half the number of network ports").
    pub fn total_ports(&self) -> usize {
        2 * (self.switch_wires + self.terminal_links)
    }
}

/// Cost of the R-port l-tree (CFT).
///
/// # Panics
///
/// Panics on odd or zero radix, or fewer than 2 levels.
pub fn cft_cost(radix: usize, levels: usize) -> NetworkCost {
    assert!(
        radix >= 2 && radix.is_multiple_of(2) && levels >= 2,
        "invalid CFT parameters"
    );
    let k = radix / 2;
    let n1 = 2 * (1..levels).fold(1usize, |acc, _| acc * k);
    NetworkCost {
        switches: (levels - 1) * n1 + n1 / 2,
        switch_wires: (levels - 1) * n1 * k,
        terminal_links: n1 * k,
        terminals: n1 * k,
    }
}

/// Cost of the radix-regular RFC with `n1` leaves.
///
/// # Panics
///
/// Panics on odd radix/leaf count or fewer than 2 levels.
pub fn rfc_cost(radix: usize, n1: usize, levels: usize) -> NetworkCost {
    assert!(
        radix >= 2 && radix.is_multiple_of(2) && n1 >= 2 && n1.is_multiple_of(2) && levels >= 2,
        "invalid RFC parameters"
    );
    let half = radix / 2;
    NetworkCost {
        switches: (levels - 1) * n1 + n1 / 2,
        switch_wires: (levels - 1) * n1 * half,
        terminal_links: n1 * half,
        terminals: n1 * half,
    }
}

/// Cost of the l-level OFT of order `q`.
///
/// # Panics
///
/// Panics when `levels < 2`.
pub fn oft_cost(q: usize, levels: usize) -> NetworkCost {
    assert!(levels >= 2, "invalid OFT parameters");
    let m = q * q + q + 1;
    let n1 = 2 * (1..levels).fold(1usize, |acc, _| acc * m);
    NetworkCost {
        switches: (levels - 1) * n1 + n1 / 2,
        switch_wires: (levels - 1) * n1 * (q + 1),
        terminal_links: n1 * (q + 1),
        terminals: n1 * (q + 1),
    }
}

/// Cost of an RRN on `n` switches with network degree `delta` and
/// `hosts` terminals per switch.
///
/// # Panics
///
/// Panics when `n * delta` is odd.
pub fn rrn_cost(n: usize, delta: usize, hosts: usize) -> NetworkCost {
    assert!((n * delta).is_multiple_of(2), "n * delta must be even");
    NetworkCost {
        switches: n,
        switch_wires: n * delta / 2,
        terminal_links: n * hosts,
        terminals: n * hosts,
    }
}

/// The Section 5 case studies, pinned to the paper's exact numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseStudy {
    /// Scenario name as used in the paper ("11K", "100K", "200K").
    pub name: &'static str,
    /// The commodity fat-tree side.
    pub cft: NetworkCost,
    /// The random folded Clos side.
    pub rfc: NetworkCost,
}

impl CaseStudy {
    /// Fractional switch savings of the RFC over the CFT.
    pub fn switch_savings(&self) -> f64 {
        1.0 - self.rfc.switches as f64 / self.cft.switches as f64
    }

    /// Fractional wire savings of the RFC over the CFT.
    pub fn wire_savings(&self) -> f64 {
        1.0 - self.rfc.switch_wires as f64 / self.cft.switch_wires as f64
    }
}

/// The three radix-36 scenarios of Sections 5–6: equal resources (11K),
/// intermediate (100K, 4-level CFT), maximum expansion (200K).
pub fn paper_case_studies() -> [CaseStudy; 3] {
    [
        CaseStudy {
            name: "11K",
            cft: cft_cost(36, 3),
            rfc: rfc_cost(36, 648, 3),
        },
        CaseStudy {
            name: "100K",
            cft: cft_cost(36, 4),
            rfc: rfc_cost(36, 5556, 3),
        },
        CaseStudy {
            name: "200K",
            cft: cft_cost(36, 4),
            rfc: rfc_cost(36, 11_254, 3),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_11k_case() {
        let c = cft_cost(36, 3);
        assert_eq!(c.terminals, 11_664);
        assert_eq!(c.switches, 1_620);
        let r = rfc_cost(36, 648, 3);
        assert_eq!(r.terminals, 11_664);
        assert_eq!(r.switches, c.switches);
        assert_eq!(r.switch_wires, c.switch_wires);
        // The 20-radix alternative: nearly the same terminals and wires
        // with far smaller radix.
        let alt = rfc_cost(20, 1_166, 3);
        assert_eq!(alt.terminals, 11_660);
        assert_eq!(alt.switch_wires, 23_320);
    }

    #[test]
    fn paper_100k_case() {
        let r = rfc_cost(36, 5_556, 3);
        assert_eq!(r.terminals, 100_008);
        assert_eq!(r.switches, 13_890);
        assert_eq!(r.switch_wires, 200_016);
    }

    #[test]
    fn paper_200k_case_savings() {
        let cases = paper_case_studies();
        let c200 = cases[2];
        assert_eq!(c200.rfc.switches, 28_135);
        assert_eq!(c200.rfc.switch_wires, 405_144);
        assert_eq!(c200.cft.switches, 40_824);
        assert_eq!(c200.cft.switch_wires, 629_856);
        assert!(
            (c200.switch_savings() - 0.31).abs() < 0.01,
            "{}",
            c200.switch_savings()
        );
        assert!(
            (c200.wire_savings() - 0.36).abs() < 0.01,
            "{}",
            c200.wire_savings()
        );
    }

    #[test]
    fn oft_cost_matches_construction() {
        let cost = oft_cost(2, 2);
        assert_eq!(cost.terminals, 42);
        assert_eq!(cost.switches, 21);
        assert_eq!(cost.switch_wires, 42);
    }

    #[test]
    fn rrn_cost_shape() {
        let cost = rrn_cost(16, 4, 2);
        assert_eq!(cost.switch_wires, 32);
        assert_eq!(cost.terminals, 32);
        assert_eq!(cost.total_ports(), 2 * (32 + 32));
    }

    #[test]
    fn ports_are_consistent_with_topology_crate() {
        use rfc_topology::Network;
        let clos = rfc_topology::FoldedClos::cft(8, 3).unwrap();
        let cost = cft_cost(8, 3);
        assert_eq!(cost.switches, Network::num_switches(&clos));
        assert_eq!(cost.switch_wires, clos.num_links());
        assert_eq!(
            2 * cost.switch_wires + cost.terminal_links,
            clos.num_switch_ports()
        );
    }
}
