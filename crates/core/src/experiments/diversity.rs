//! Path-diversity comparison (supporting the Section 7 resiliency
//! analysis): the number of minimal equal-cost up/down paths per leaf
//! pair for CFT / RFC / OFT, and k-shortest-path diversity for the RRN.
//!
//! The paper attributes the OFT's poor fault tolerance to its unique
//! minimal routes and the CFT/RFC's robustness to their `(R/2)^(l-1)`-
//! class ECMP fan-out; this driver puts numbers on that.

use rand::Rng;

use rfc_graph::vid;
use rfc_routing::{ksp, UpDownRouting};
use rfc_topology::{FoldedClos, Network, Rrn};

use crate::report::{f3, Report, ReportError};

/// Path-diversity statistics for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityPoint {
    /// Network label.
    pub network: String,
    /// Terminals.
    pub terminals: usize,
    /// Minimum minimal-path count over sampled leaf pairs.
    pub min_paths: u64,
    /// Mean minimal-path count over sampled leaf pairs.
    pub mean_paths: f64,
    /// Mean minimal path length (switch hops) over sampled pairs.
    pub mean_distance: f64,
}

/// A uniformly random pair of distinct ids below `n`: `a` first, then
/// `b` redrawn until it differs.
fn distinct_pair<R: Rng + ?Sized>(n: u32, rng: &mut R) -> (u32, u32) {
    let a = rng.gen_range(0..n);
    let mut b = rng.gen_range(0..n);
    while b == a {
        b = rng.gen_range(0..n);
    }
    (a, b)
}

/// Mean minimal up/down distance over `pairs` random distinct leaf
/// pairs (unreachable pairs are skipped; returns `NaN` if every sampled
/// pair was unreachable). The fewer-levels latency advantage of
/// Figures 9–10 is this quantity times the per-hop cost.
fn mean_updown_distance<R: Rng + ?Sized>(
    routing: &UpDownRouting,
    pairs: usize,
    rng: &mut R,
) -> f64 {
    let leaves = vid(routing.num_leaves());
    if leaves < 2 || pairs == 0 {
        return f64::NAN;
    }
    let mut total = 0u64;
    let mut counted = 0usize;
    for _ in 0..pairs {
        let (a, b) = distinct_pair(leaves, rng);
        if let Some(d) = routing.updown_distance(a, b) {
            total += u64::from(d);
            counted += 1;
        }
    }
    if counted == 0 {
        f64::NAN
    } else {
        total as f64 / counted as f64
    }
}

/// Samples `pairs` random distinct leaf pairs of a folded Clos and
/// reports min/mean ECMP counts.
pub fn folded_diversity<R: Rng + ?Sized>(
    clos: &FoldedClos,
    pairs: usize,
    rng: &mut R,
) -> DiversityPoint {
    let routing = UpDownRouting::new(clos);
    let leaves = vid(clos.num_leaves());
    let mut min_paths = u64::MAX;
    let mut total = 0u64;
    let mut counted = 0usize;
    for _ in 0..pairs {
        let (a, b) = distinct_pair(leaves, rng);
        if let Some(c) = routing.updown_path_count(a, b) {
            min_paths = min_paths.min(c);
            total += c;
            counted += 1;
        } else {
            min_paths = 0;
        }
    }
    DiversityPoint {
        network: clos.label(),
        terminals: clos.num_terminals(),
        min_paths: if min_paths == u64::MAX { 0 } else { min_paths },
        mean_paths: if counted == 0 {
            0.0
        } else {
            total as f64 / counted as f64
        },
        mean_distance: mean_updown_distance(&routing, pairs, rng),
    }
}

/// RRN diversity: distinct loopless paths within +2 hops of minimal,
/// among the k = 8 shortest (the Jellyfish routing configuration).
pub fn rrn_diversity<R: Rng + ?Sized>(rrn: &Rrn, pairs: usize, rng: &mut R) -> DiversityPoint {
    let g = rrn.graph();
    let n = vid(rrn.num_switches());
    let mut min_paths = u64::MAX;
    let mut total = 0u64;
    let mut dist_total = 0u64;
    for _ in 0..pairs {
        let (a, b) = distinct_pair(n, rng);
        let found = ksp::k_shortest_paths(&g, a, b, 8);
        let shortest = found.first().map_or(usize::MAX, Vec::len);
        let near_minimal = found.iter().filter(|p| p.len() <= shortest + 2).count() as u64;
        min_paths = min_paths.min(near_minimal);
        total += near_minimal;
        if shortest != usize::MAX {
            dist_total += shortest as u64 - 1;
        }
    }
    DiversityPoint {
        network: rrn.label(),
        terminals: rrn.num_terminals(),
        min_paths: if min_paths == u64::MAX { 0 } else { min_paths },
        mean_paths: total as f64 / pairs.max(1) as f64,
        mean_distance: dist_total as f64 / pairs.max(1) as f64,
    }
}

/// Renders the comparison at one radix class.
pub fn report<R: Rng + ?Sized>(
    radix: usize,
    pairs: usize,
    rng: &mut R,
) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        format!("section7-path-diversity-R{radix}"),
        &[
            "network",
            "terminals",
            "min_paths",
            "mean_paths",
            "mean_distance",
        ],
    );
    let push = |rep: &mut Report, p: DiversityPoint| {
        rep.push_row(vec![
            p.network,
            p.terminals.to_string(),
            p.min_paths.to_string(),
            f3(p.mean_paths),
            f3(p.mean_distance),
        ])
    };
    #[expect(
        clippy::expect_used,
        reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
    )]
    let cft = FoldedClos::cft(radix, 3).expect("valid CFT");
    push(&mut rep, folded_diversity(&cft, pairs, rng))?;
    let n1 = cft.num_leaves();
    #[expect(
        clippy::expect_used,
        reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
    )]
    let rfc = FoldedClos::random(radix, n1, 3, rng).expect("feasible RFC");
    push(&mut rep, folded_diversity(&rfc, pairs, rng))?;
    let q = radix / 2 - 1;
    if rfc_galois::is_prime_power(vid(q)) {
        #[expect(
            clippy::expect_used,
            reason = "q is checked to be a prime power just above"
        )]
        let oft = FoldedClos::oft(vid(q), 2).expect("valid OFT");
        push(&mut rep, folded_diversity(&oft, pairs, rng))?;
    }
    let (delta, hosts) = crate::experiments::fig5::rrn_split(radix);
    let mut n = cft.num_terminals() / hosts;
    if n * delta % 2 == 1 {
        n += 1;
    }
    #[expect(
        clippy::expect_used,
        reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
    )]
    let rrn = Rrn::new(n, delta, hosts, rng).expect("feasible RRN");
    push(&mut rep, rrn_diversity(&rrn, pairs.min(40), rng))?;
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oft_has_unit_diversity_cft_has_ecmp() {
        let mut rng = StdRng::seed_from_u64(7);
        let cft = FoldedClos::cft(8, 3).unwrap();
        let d_cft = folded_diversity(&cft, 60, &mut rng);
        assert!(d_cft.min_paths >= 4, "CFT min {}", d_cft.min_paths);
        assert!(d_cft.mean_paths >= 4.0);

        let oft = FoldedClos::oft(3, 2).unwrap();
        let d_oft = folded_diversity(&oft, 60, &mut rng);
        assert!(d_oft.mean_paths <= 2.0, "OFT mean {}", d_oft.mean_paths);
    }

    #[test]
    fn rfc_diversity_sits_between_oft_and_cft() {
        let mut rng = StdRng::seed_from_u64(8);
        let rfc = FoldedClos::random(8, 32, 3, &mut rng).unwrap();
        let d = folded_diversity(&rfc, 60, &mut rng);
        assert!(d.mean_paths > 1.0, "rfc mean {}", d.mean_paths);
    }

    #[test]
    fn report_covers_all_four_families() {
        let mut rng = StdRng::seed_from_u64(9);
        let rep = report(8, 20, &mut rng).unwrap();
        assert_eq!(rep.rows.len(), 4);
    }
}
