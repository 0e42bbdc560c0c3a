//! Section 4.2 validation — empirical bisection width against the
//! analytic lower bounds.
//!
//! For each network we search for a small *terminal-balanced* cut: every
//! level is split into equal halves (the same grouping the paper's RFC
//! bound uses), random starts are refined by greedy same-level vertex
//! swaps, and the best cut found is an upper bound on the bisection
//! width. Together with the Bollobás-style lower bound this brackets
//! the true value; the normalized ratios reproduce the paper's
//! 0.80 / 0.86 / 0.88 / 1.00 comparison.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rfc_graph::bisection::{level_balanced_partition, refine_within_levels};
use rfc_graph::Csr;
use rfc_topology::{FoldedClos, Network, Rrn};

use crate::parallel;
use crate::report::{f3, Report, ReportError};
use crate::theory;

/// One network's bisection bracket.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectionPoint {
    /// Network label.
    pub network: String,
    /// Inter-switch links.
    pub links: usize,
    /// Empirical upper bound on the (terminal-balanced) bisection width.
    pub empirical_cut: usize,
    /// The paper's asymptotic lower bound (`None` where it gives none,
    /// e.g. CFT — which is exactly full-bisection). Holds w.h.p. for
    /// large networks; small instances may cut slightly below it.
    pub lower_bound: Option<f64>,
    /// Cut normalized by `T/2 ·` mean bisection traversals.
    pub normalized: f64,
}

/// The best cut over `trials` level-balanced random starts, each
/// refined by greedy same-level swaps. `levels` gives the half-open
/// vertex ranges of each level (a single range covering everything for
/// direct networks).
fn best_level_balanced_cut<R: Rng + ?Sized>(
    graph: &Csr,
    levels: &[(usize, usize)],
    trials: usize,
    rng: &mut R,
) -> usize {
    let n = graph.num_vertices();
    // Each random start is refined independently; min over an
    // index-ordered vector is schedule-invariant, so the repetitions run
    // on the worker pool with per-trial child RNGs.
    let base: u64 = rng.gen();
    parallel::map((0..trials as u64).collect(), |i| {
        let mut trial_rng = SmallRng::seed_from_u64(parallel::child_seed(base, i));
        let mut side = level_balanced_partition(n, levels, &mut trial_rng);
        refine_within_levels(graph, levels, &mut side)
    })
    .into_iter()
    .min()
    .unwrap_or(usize::MAX)
}

/// Runs the bracket for an equal-hardware family at `radix`:
/// 2- and 3-level RFCs, the CFT, and an RRN.
pub fn run<R: Rng + ?Sized>(
    radix: usize,
    n1: usize,
    trials: usize,
    rng: &mut R,
) -> Vec<BisectionPoint> {
    let mut out = Vec::new();

    // CFT: exactly full bisection (normalized 1.0 by construction).
    #[expect(
        clippy::expect_used,
        reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
    )]
    let cft = FoldedClos::cft(radix, 3).expect("valid CFT");
    out.push(folded_point(&cft, trials, None, 1, rng));

    for levels in [2usize, 3] {
        #[expect(
            clippy::expect_used,
            reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
        )]
        let rfc = FoldedClos::random(radix, n1, levels, rng).expect("feasible RFC");
        let bound = theory::rfc_bisection_lower(n1, levels, radix);
        out.push(folded_point(&rfc, trials, Some(bound), levels - 1, rng));
    }

    // RRN with the paper's split.
    let (delta, hosts) = crate::experiments::fig5::rrn_split(radix);
    let mut n = (n1 * (radix / 2)).div_ceil(hosts);
    if n * delta % 2 == 1 {
        n += 1;
    }
    if n % 2 == 1 {
        n += 1;
    }
    #[expect(
        clippy::expect_used,
        reason = "the fixed experiment parameters are feasible; every experiment runs in the registry tests"
    )]
    let rrn = Rrn::new(n, delta, hosts, rng).expect("feasible RRN");
    let g = rrn.graph();
    let cut = best_level_balanced_cut(&g, &[(0, n)], trials, rng);
    let t = rrn.num_terminals() as f64;
    out.push(BisectionPoint {
        network: rrn.label(),
        links: rrn.links().len(),
        empirical_cut: cut,
        lower_bound: Some(theory::rrn_bisection_lower(n, delta)),
        normalized: cut as f64 / (t / 2.0),
    });
    out
}

fn folded_point<R: Rng + ?Sized>(
    clos: &FoldedClos,
    trials: usize,
    lower_bound: Option<f64>,
    traversals: usize,
    rng: &mut R,
) -> BisectionPoint {
    let g = clos.switch_graph();
    let levels: Vec<(usize, usize)> = (0..clos.num_levels())
        .map(|l| {
            let lo = clos.level_offset(l) as usize;
            (lo, lo + clos.level_size(l))
        })
        .collect();
    let cut = best_level_balanced_cut(&g, &levels, trials, rng);
    let t = clos.num_terminals() as f64;
    BisectionPoint {
        network: clos.label(),
        links: clos.num_links(),
        empirical_cut: cut,
        lower_bound,
        normalized: cut as f64 / (t / 2.0 * traversals as f64),
    }
}

/// Renders the bracket table.
pub fn report<R: Rng + ?Sized>(
    radix: usize,
    n1: usize,
    trials: usize,
    rng: &mut R,
) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        format!("section42-bisection-R{radix}"),
        &[
            "network",
            "links",
            "empirical_cut",
            "lower_bound",
            "normalized",
        ],
    );
    for p in run(radix, n1, trials, rng) {
        rep.push_row(vec![
            p.network,
            p.links.to_string(),
            p.empirical_cut.to_string(),
            p.lower_bound.map_or_else(|| "-".into(), f3),
            f3(p.normalized),
        ])?;
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empirical_cut_tracks_the_asymptotic_lower_bound() {
        // Bollobás' isoperimetric bound (and the paper's RFC reduction
        // of it) holds with high probability as n grows; at these toy
        // sizes the true bisection can dip a little below it, so check
        // agreement within 20% rather than strict dominance.
        let mut rng = StdRng::seed_from_u64(42);
        let points = run(8, 24, 3, &mut rng);
        for p in &points {
            if let Some(lb) = p.lower_bound {
                assert!(
                    p.empirical_cut as f64 >= 0.8 * lb,
                    "{}: cut {} far below asymptotic bound {lb}",
                    p.network,
                    p.empirical_cut
                );
            }
            assert!(
                p.normalized > 0.3 && p.normalized <= 1.6,
                "{}: {}",
                p.network,
                p.normalized
            );
        }
    }

    #[test]
    fn cft_is_full_bisection() {
        let mut rng = StdRng::seed_from_u64(43);
        let points = run(8, 24, 2, &mut rng);
        let cft = points
            .iter()
            .find(|p| p.network.starts_with("cft"))
            .unwrap();
        // The minimal terminal-balanced cut of an R-port 3-tree carries
        // exactly half the terminal bandwidth.
        assert!(
            (cft.normalized - 1.0).abs() < 0.35,
            "cft normalized {}",
            cft.normalized
        );
    }

    #[test]
    fn report_renders() {
        let mut rng = StdRng::seed_from_u64(44);
        let rep = report(8, 16, 2, &mut rng).unwrap();
        assert_eq!(rep.rows.len(), 4);
    }
}
