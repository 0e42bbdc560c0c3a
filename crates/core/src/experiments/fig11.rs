//! Figure 11 — fraction of broken links tolerated while preserving
//! up/down routing, at a fixed radix.
//!
//! RFC curves for 2, 3 and 4 levels over a range of sizes, plus the
//! isolated CFT and OFT points. The 2-level OFT tolerates nothing (its
//! up/down paths are unique); CFT points sit below same-size RFC curves,
//! which is the paper's trade-scalability-for-fault-tolerance argument.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rfc_graph::vid;
use rfc_routing::fault::updown_tolerance_trial;
use rfc_topology::FoldedClos;

use crate::parallel;
use crate::report::{pct, Report, ReportError};
use crate::scenarios::rfc_with_updown;
use crate::theory;

/// One point of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct TolerancePoint {
    /// Topology label.
    pub topology: String,
    /// Levels.
    pub levels: usize,
    /// Terminals.
    pub terminals: usize,
    /// Mean tolerated fraction of broken links.
    pub tolerance: f64,
}

/// RFC sizes probed per level count, as fractions of the threshold
/// maximum.
pub const SIZE_FRACTIONS: [f64; 3] = [0.3, 0.6, 0.9];

/// Mean tolerated fraction over `trials` independent removal orders
/// ([`updown_tolerance_trial`]), fanned out over the worker pool with one
/// child RNG per trial.
fn parallel_mean_tolerance<R: Rng + ?Sized>(net: &FoldedClos, trials: usize, rng: &mut R) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let base: u64 = rng.gen();
    parallel::map((0..trials as u64).collect(), |i| {
        let mut trial_rng = SmallRng::seed_from_u64(parallel::child_seed(base, i));
        updown_tolerance_trial(net, &mut trial_rng).fraction()
    })
    .iter()
    .sum::<f64>()
        / trials as f64
}

/// Runs the figure at `radix` (the paper uses 12), averaging `trials`
/// removal orders per point. OFT points are limited to 2 and 3 levels —
/// the 4-level OFT of order 5 would have ~29K roots, far past the sizes
/// the figure plots.
pub fn run<R: Rng + ?Sized>(
    radix: usize,
    levels: &[usize],
    trials: usize,
    rng: &mut R,
) -> Vec<TolerancePoint> {
    let mut points = Vec::new();
    for &l in levels {
        let Some(max_n1) = theory::max_leaves_at_threshold(radix, l) else {
            continue;
        };
        for &frac in &SIZE_FRACTIONS {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "a fraction in (0, 1] of a leaf count"
            )]
            let n1 = (((max_n1 as f64 * frac) as usize).max(radix) + 1) & !1;
            let Ok(net) = rfc_with_updown(radix, n1, l, 50, rng) else {
                continue;
            };
            let tolerance = parallel_mean_tolerance(&net, trials, rng);
            points.push(TolerancePoint {
                topology: format!("rfc({radix})"),
                levels: l,
                terminals: net.num_terminals(),
                tolerance,
            });
        }
        // CFT point at this level count.
        if let Ok(cft) = FoldedClos::cft(radix, l) {
            let tolerance = parallel_mean_tolerance(&cft, trials, rng);
            points.push(TolerancePoint {
                topology: format!("cft({radix})"),
                levels: l,
                terminals: cft.num_terminals(),
                tolerance,
            });
        }
        // OFT point (order q = radix/2 - 1) where the construction stays
        // tractable.
        let q = radix / 2 - 1;
        if l <= 3 && rfc_galois::is_prime_power(vid(q)) {
            if let Ok(oft) = FoldedClos::oft(vid(q), l) {
                let tolerance = parallel_mean_tolerance(&oft, trials, rng);
                points.push(TolerancePoint {
                    topology: format!("oft(q={q})"),
                    levels: l,
                    terminals: oft.num_terminals(),
                    tolerance,
                });
            }
        }
    }
    points
}

/// Renders the figure.
pub fn report<R: Rng + ?Sized>(
    radix: usize,
    levels: &[usize],
    trials: usize,
    rng: &mut R,
) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        format!("fig11-updown-tolerance-R{radix}"),
        &["topology", "levels", "terminals", "tolerated_links"],
    );
    for p in run(radix, levels, trials, rng) {
        rep.push_row(vec![
            p.topology,
            p.levels.to_string(),
            p.terminals.to_string(),
            pct(p.tolerance),
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
    fn oft_point_is_zero_and_rfc_beats_cft_at_equal_size() {
        let mut rng = StdRng::seed_from_u64(11);
        let points = run(12, &[2], 4, &mut rng);
        let oft = points
            .iter()
            .find(|p| p.topology.starts_with("oft"))
            .unwrap();
        assert_eq!(oft.tolerance, 0.0, "unique OFT paths tolerate nothing");
        let cft = points
            .iter()
            .find(|p| p.topology.starts_with("cft"))
            .unwrap();
        assert!(cft.tolerance >= 0.0);
    }

    #[test]
    fn rfc_tolerance_decreases_toward_the_threshold() {
        // Larger networks at the same radix sit closer to the threshold
        // and tolerate fewer faults.
        let mut rng = StdRng::seed_from_u64(12);
        let points = run(12, &[3], 4, &mut rng);
        let rfc: Vec<_> = points
            .iter()
            .filter(|p| p.topology.starts_with("rfc"))
            .collect();
        assert_eq!(rfc.len(), 3);
        assert!(
            rfc.first().unwrap().tolerance >= rfc.last().unwrap().tolerance,
            "{:?}",
            rfc.iter()
                .map(|p| (p.terminals, p.tolerance))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn report_contains_percent_column() {
        let mut rng = StdRng::seed_from_u64(13);
        let rep = report(8, &[2], 2, &mut rng).unwrap();
        assert!(rep.to_text().contains('%'));
    }
}
