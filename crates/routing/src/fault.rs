//! Fault tolerance of the up/down routing property (the paper's
//! Figure 11).
//!
//! The experiment: remove inter-switch links one by one in a uniformly
//! random order and record the largest removal count after which every
//! leaf pair still shares a common ancestor. Networks sized exactly at
//! the Theorem 4.2 threshold tolerate almost nothing; a slack radix
//! (positive `x`) buys tolerance — scalability traded for
//! fault-tolerance.
//!
//! The property only weakens as the removal prefix grows, so a trial
//! gallops over prefixes (k = 1, 2, 4, … until the property fails) and
//! bisects the last gap: at most 2·⌊log₂ t⌋ + 2 probes for tolerance
//! `t`, each one fresh [`UpDownRouting`] build on
//! [`FoldedClos::with_links_removed`]. Most trials tolerate few links, so
//! this beats walking one table through the removals by incremental
//! repair: about 2·`total` repairs per trial, whatever the answer.

use rand::seq::SliceRandom;
use rand::Rng;

use rfc_topology::{FoldedClos, Link};

use crate::UpDownRouting;

/// Result of one random-removal tolerance trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToleranceTrial {
    /// Largest number of removed links for which the up/down property
    /// still held (0 when the intact network already lacks it … `total`
    /// when it survives every removal).
    pub tolerated: usize,
    /// Total inter-switch links in the intact network.
    pub total_links: usize,
}

impl ToleranceTrial {
    /// Tolerated removals as a fraction of all links.
    pub fn fraction(&self) -> f64 {
        if self.total_links == 0 {
            return 0.0;
        }
        self.tolerated as f64 / self.total_links as f64
    }
}

/// Largest `k` in `0..=total` with `holds(k)`, for a predicate that holds
/// at 0 and, once false, stays false. Gallops up through k = 1, 2, 4, …
/// (capped at `total`) until `holds` fails, then bisects the last gap,
/// so tolerance `t` costs at most 2·⌊log₂ t⌋ + 2 calls (one when t = 0).
fn largest_holding_prefix(total: usize, mut holds: impl FnMut(usize) -> bool) -> usize {
    let mut lo = 0; // holds(lo)
    let mut hi = loop {
        if lo == total {
            return total;
        }
        let k = (2 * lo).clamp(1, total);
        if !holds(k) {
            break k;
        }
        lo = k;
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Runs one tolerance trial: shuffles the link list and searches for the
/// largest removal prefix preserving the up/down property (which is
/// monotone in the removal prefix).
pub fn updown_tolerance_trial<R: Rng + ?Sized>(clos: &FoldedClos, rng: &mut R) -> ToleranceTrial {
    let mut links: Vec<Link> = clos.links();
    let total = links.len();
    links.shuffle(rng);
    let tolerated = if UpDownRouting::new(clos).has_updown_property() {
        largest_holding_prefix(total, |k| {
            UpDownRouting::new(&clos.with_links_removed(&links[..k])).has_updown_property()
        })
    } else {
        0
    };
    ToleranceTrial {
        tolerated,
        total_links: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mean tolerated fraction over `trials` removal orders drawn from `rng`.
    fn mean_fraction(net: &FoldedClos, trials: usize, rng: &mut StdRng) -> f64 {
        let sum: f64 = (0..trials)
            .map(|_| updown_tolerance_trial(net, rng).fraction())
            .sum();
        sum / trials as f64
    }

    #[test]
    fn cft_tolerates_some_faults() {
        // CFT(8, 3) has 4 ECMP ancestors per leaf pair; a single removal
        // never kills the property, so tolerance is strictly positive.
        let net = FoldedClos::cft(8, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let t = updown_tolerance_trial(&net, &mut rng);
        assert!(t.tolerated >= 1);
        assert!(t.tolerated < t.total_links);
        assert!(t.fraction() > 0.0 && t.fraction() < 1.0);
    }

    #[test]
    fn two_level_oft_has_zero_tolerance() {
        // Up/down paths are unique in the 2-level OFT: the first removed
        // link disconnects some pair, as the paper observes.
        let net = FoldedClos::oft(3, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let t = updown_tolerance_trial(&net, &mut rng);
        assert_eq!(t.tolerated, 0);
    }

    #[test]
    fn oversized_rfc_beats_threshold_rfc() {
        // Same leaf count, one RFC at a generous radix and one at a tight
        // radix: the generous one must tolerate more faults on average.
        let mut rng = StdRng::seed_from_u64(3);
        let generous = FoldedClos::random(16, 32, 2, &mut rng).unwrap();
        let tight = FoldedClos::random(6, 32, 2, &mut rng).unwrap();
        let g = mean_fraction(&generous, 5, &mut rng);
        let t = mean_fraction(&tight, 5, &mut rng);
        assert!(g > t, "generous {g} vs tight {t}");
    }

    #[test]
    fn already_broken_network_reports_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = FoldedClos::random(4, 64, 2, &mut rng).unwrap();
        let t = updown_tolerance_trial(&net, &mut rng);
        assert_eq!(
            t.tolerated, 0,
            "below-threshold RFC lacks the property outright"
        );
        assert_eq!(mean_fraction(&net, 3, &mut rng), 0.0);
    }

    #[test]
    fn gallop_probes_logarithmically_many_prefixes() {
        // The exact work count behind a trial's cost: tolerance t takes
        // 2·⌊log₂ t⌋ + 2 probes (1 for t = 0), and exactly that many
        // whenever the gallop overshoots t without hitting `total`.
        let bound = |t: usize| t.checked_ilog2().map_or(1, |m| 2 * m as usize + 2);
        for total in 0..=300 {
            for t in 0..=total {
                let mut calls = 0;
                let found = largest_holding_prefix(total, |k| {
                    assert!((1..=total).contains(&k), "probe {k} of {total}");
                    calls += 1;
                    k <= t
                });
                assert_eq!(found, t, "total {total}");
                assert!(calls <= bound(t), "t {t} of {total}: {calls} calls");
                assert!(total > 0 || calls == 0);
                if total >= (t + 1).next_power_of_two() {
                    assert_eq!(calls, bound(t), "t {t} of {total}");
                }
            }
        }
    }

    #[test]
    fn trial_matches_linear_scan_oracle() {
        // Independent of any search order: rebuild at k = 0, 1, 2, … and
        // stop at the first prefix that breaks the property.
        let linear_scan = |clos: &FoldedClos, rng: &mut StdRng| -> ToleranceTrial {
            let mut links: Vec<Link> = clos.links();
            let total_links = links.len();
            links.shuffle(rng);
            let holding = (0..=total_links)
                .take_while(|&k| {
                    UpDownRouting::new(&clos.with_links_removed(&links[..k])).has_updown_property()
                })
                .count();
            ToleranceTrial {
                tolerated: holding.saturating_sub(1),
                total_links,
            }
        };
        let mut rng_a = StdRng::seed_from_u64(91);
        let mut rng_b = StdRng::seed_from_u64(91);
        let broken = FoldedClos::random(4, 64, 2, &mut StdRng::seed_from_u64(4)).unwrap();
        assert!(!UpDownRouting::new(&broken).has_updown_property());
        let nets = [
            FoldedClos::cft(6, 3).unwrap(),
            FoldedClos::oft(3, 2).unwrap(),
            broken,
            FoldedClos::random(8, 24, 3, &mut StdRng::seed_from_u64(5)).unwrap(),
            FoldedClos::random(8, 24, 3, &mut StdRng::seed_from_u64(6)).unwrap(),
        ];
        for net in &nets {
            for _ in 0..2 {
                assert_eq!(
                    updown_tolerance_trial(net, &mut rng_a),
                    linear_scan(net, &mut rng_b)
                );
            }
        }
    }

    #[test]
    fn gallop_search_matches_bisection_reference() {
        // The galloping trial must agree with the original clone-and-rebuild
        // bisection from `total` (same shuffle, a different probe order).
        let reference = |clos: &FoldedClos, rng: &mut StdRng| -> ToleranceTrial {
            let mut links: Vec<Link> = clos.links();
            let total = links.len();
            links.shuffle(rng);
            if !UpDownRouting::new(clos).has_updown_property() {
                return ToleranceTrial {
                    tolerated: 0,
                    total_links: total,
                };
            }
            let holds = |k: usize| -> bool {
                let faulty = clos.with_links_removed(&links[..k]);
                UpDownRouting::new(&faulty).has_updown_property()
            };
            if holds(total) {
                return ToleranceTrial {
                    tolerated: total,
                    total_links: total,
                };
            }
            let (mut lo, mut hi) = (0usize, total);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if holds(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            ToleranceTrial {
                tolerated: lo,
                total_links: total,
            }
        };
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let nets = [
            FoldedClos::cft(6, 3).unwrap(),
            FoldedClos::random(8, 24, 3, &mut StdRng::seed_from_u64(5)).unwrap(),
        ];
        for net in &nets {
            for _ in 0..3 {
                assert_eq!(
                    updown_tolerance_trial(net, &mut rng_a),
                    reference(net, &mut rng_b)
                );
            }
        }
    }
}
