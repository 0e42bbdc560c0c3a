//! Theorem 4.2 validation — the empirical probability that a random
//! folded Clos supports up/down routing against the predicted
//! `e^(−e^(−x))`.
//!
//! For each leaf count and nominal slack `x` the driver picks the even
//! radix closest to the threshold radix, recomputes the *actual* slack
//! that integer radix implies, generates many RFCs, and reports the
//! fraction with the common-ancestor property next to the prediction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rfc_routing::UpDownRouting;
use rfc_topology::FoldedClos;

use crate::parallel;
use crate::report::{f3, Report, ReportError};
use crate::theory;

/// One validation cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdPoint {
    /// Leaves.
    pub n1: usize,
    /// Levels.
    pub levels: usize,
    /// The even radix under test.
    pub radix: usize,
    /// The slack that radix actually implies.
    pub actual_x: f64,
    /// Theorem 4.2's predicted probability at `actual_x` (asymptotic).
    pub predicted: f64,
    /// The exact finite-size prediction (2-level only, else `None`); at
    /// practical sizes this sits above the asymptotic value because the
    /// theorem's `(1-p)^k ≈ e^(-kp)` step is conservative.
    pub finite_predicted: Option<f64>,
    /// Empirical success fraction.
    pub empirical: f64,
    /// Samples generated.
    pub samples: usize,
}

/// Rounds the exact threshold radix at slack `x` to the nearest feasible
/// even integer.
pub fn even_radix_near_threshold(n1: usize, levels: usize, x: f64) -> usize {
    let exact = theory::threshold_radix(n1, levels, x);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "threshold radices are positive and far below 2^64"
    )]
    let mut r = (exact / 2.0).round() as usize * 2;
    if r < 4 {
        r = 4;
    }
    if r > n1 {
        r = n1 & !1;
    }
    r
}

/// Runs the validation grid.
pub fn run<R: Rng + ?Sized>(
    n1_values: &[usize],
    levels: usize,
    xs: &[f64],
    samples: usize,
    rng: &mut R,
) -> Vec<ThresholdPoint> {
    let mut out = Vec::new();
    for &n1 in n1_values {
        for &x in xs {
            let radix = even_radix_near_threshold(n1, levels, x);
            let actual_x = theory::threshold_slack(radix, n1, levels);
            // Monte-Carlo samples are independent: one base seed per
            // cell, one child RNG per sample, fanned out over the pool.
            let base: u64 = rng.gen();
            let ok = parallel::map((0..samples as u64).collect(), |i| {
                let mut sample_rng = SmallRng::seed_from_u64(parallel::child_seed(base, i));
                #[expect(
                    clippy::expect_used,
                    reason = "radix is at least 4 and even, and n1 comes from the fixed experiment grid"
                )]
                let net = FoldedClos::random(radix, n1, levels, &mut sample_rng)
                    .expect("feasible RFC parameters");
                usize::from(UpDownRouting::new(&net).has_updown_property())
            })
            .into_iter()
            .sum::<usize>();
            out.push(ThresholdPoint {
                n1,
                levels,
                radix,
                actual_x,
                predicted: theory::updown_probability(actual_x),
                finite_predicted: (levels == 2)
                    .then(|| theory::two_level_updown_probability(radix, n1)),
                empirical: ok as f64 / samples as f64,
                samples,
            });
        }
    }
    out
}

/// Renders the validation table.
pub fn report<R: Rng + ?Sized>(
    n1_values: &[usize],
    levels: usize,
    xs: &[f64],
    samples: usize,
    rng: &mut R,
) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        format!("theorem42-threshold-l{levels}"),
        &[
            "n1",
            "radix",
            "actual_x",
            "asymptotic_P",
            "finite_P",
            "empirical_P",
            "samples",
        ],
    );
    for p in run(n1_values, levels, xs, samples, rng) {
        rep.push_row(vec![
            p.n1.to_string(),
            p.radix.to_string(),
            f3(p.actual_x),
            f3(p.predicted),
            p.finite_predicted.map_or_else(|| "-".into(), f3),
            f3(p.empirical),
            p.samples.to_string(),
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
    fn empirical_tracks_prediction_away_from_the_threshold() {
        let mut rng = StdRng::seed_from_u64(42);
        // Far above the threshold: success nearly certain; far below:
        // nearly impossible.
        let pts = run(&[128], 2, &[6.0, -6.0], 12, &mut rng);
        let high = &pts[0];
        let low = &pts[1];
        assert!(high.actual_x > 2.0, "x = {}", high.actual_x);
        assert!(high.empirical >= 0.9, "P = {}", high.empirical);
        assert!(low.actual_x < -2.0, "x = {}", low.actual_x);
        assert!(low.empirical <= 0.2, "P = {}", low.empirical);
    }

    #[test]
    fn near_threshold_empirical_matches_finite_size_prediction() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts = run(&[256], 2, &[0.0], 30, &mut rng);
        let p = &pts[0];
        // The asymptotic theorem is conservative at this size; the exact
        // hypergeometric prediction must track the Monte-Carlo estimate.
        let finite = p.finite_predicted.unwrap();
        assert!(
            (p.empirical - finite).abs() < 0.25,
            "empirical {} vs finite prediction {} (asymptotic {})",
            p.empirical,
            finite,
            p.predicted
        );
        assert!(
            finite >= p.predicted - 0.05,
            "finite {} should not undercut asymptotic {}",
            finite,
            p.predicted
        );
    }

    #[test]
    fn radix_rounding_is_even_and_feasible() {
        assert_eq!(even_radix_near_threshold(64, 2, 0.0) % 2, 0);
        let r = even_radix_near_threshold(8, 2, 10.0);
        assert!(r <= 8);
    }
}
