//! The analytic results of the paper: Theorem 4.2 (the up/down routing
//! threshold), the Section 4.2 bisection bounds, and the Section 4.3
//! scalability formulas.

use rfc_graph::vid;

/// The threshold radix of Theorem 4.2 in its exact form:
/// `R = 2·(N_l · (ln C(N₁,2) + x))^(1/(2(l-1)))` with `N_l = N₁/2`.
///
/// At `x = 0` the probability that a random folded Clos supports up/down
/// routing converges to `1/e`; see [`updown_probability`].
///
/// # Panics
///
/// Panics if `n1 < 2` or `levels < 2`.
pub fn threshold_radix(n1: usize, levels: usize, x: f64) -> f64 {
    assert!(n1 >= 2, "need at least two leaves");
    assert!(levels >= 2, "need at least two levels");
    let n1f = n1 as f64;
    let pairs = (n1f * (n1f - 1.0) / 2.0).ln();
    let nl = n1f / 2.0;
    let exponent = 1.0 / (2.0 * (levels as f64 - 1.0));
    2.0 * (nl * (pairs + x)).powf(exponent)
}

/// The slack `x` implied by concrete parameters: inverts
/// [`threshold_radix`], i.e. `x = (R/2)^(2(l-1)) / N_l − ln C(N₁,2)`.
///
/// Positive slack means the network sits above the threshold (up/down
/// routing is increasingly likely), negative below.
///
/// # Panics
///
/// Panics if `n1 < 2` or `levels < 2`.
pub fn threshold_slack(radix: usize, n1: usize, levels: usize) -> f64 {
    assert!(n1 >= 2, "need at least two leaves");
    assert!(levels >= 2, "need at least two levels");
    let n1f = n1 as f64;
    let pairs = (n1f * (n1f - 1.0) / 2.0).ln();
    let half = radix as f64 / 2.0;
    half.powf(2.0 * (levels as f64 - 1.0)) / (n1f / 2.0) - pairs
}

/// The limiting probability `e^(−e^(−x))` of Theorem 4.2 that every leaf
/// pair shares a common ancestor at slack `x`.
pub fn updown_probability(x: f64) -> f64 {
    (-(-x).exp()).exp()
}

/// Largest even leaf count `N₁` for which an `l`-level radix-`R` RFC sits
/// at or above the simplified threshold (`N₁ ln N₁ ≤ (R/2)^(2(l-1))`).
///
/// Returns `None` when even the minimum network (N₁ = 2) is infeasible.
pub fn max_leaves_at_threshold(radix: usize, levels: usize) -> Option<usize> {
    if radix < 2 || levels < 2 {
        return None;
    }
    let budget = (radix as f64 / 2.0).powf(2.0 * (levels as f64 - 1.0));
    let fits = |n1: usize| -> bool {
        let n1f = n1 as f64;
        n1f * n1f.ln() <= budget
    };
    if !fits(2) {
        return None;
    }
    let (mut lo, mut hi) = (2usize, 2usize);
    while fits(hi * 2) {
        hi *= 2;
        if hi > 1 << 40 {
            break;
        }
    }
    hi *= 2;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo & !1) // round down to even
}

/// Maximum terminals of the radix-`R`, `l`-level RFC at the threshold:
/// `T = N₁ · R/2` with `N₁` from [`max_leaves_at_threshold`].
pub fn rfc_max_terminals(radix: usize, levels: usize) -> Option<usize> {
    Some(max_leaves_at_threshold(radix, levels)? * (radix / 2))
}

/// Terminals of the R-port l-tree: `T = 2 (R/2)^l`.
pub fn cft_terminals(radix: usize, levels: usize) -> usize {
    2 * (radix / 2).pow(vid(levels))
}

/// Terminals of the l-level OFT of order `q`: `T = 2(q+1)(q²+q+1)^(l-1)`.
pub fn oft_terminals(q: usize, levels: usize) -> usize {
    2 * (q + 1) * (q * q + q + 1).pow(vid(levels) - 1)
}

/// Number of switches `N` of the balanced-RRN sized for diameter `D` at
/// hardware radix `R` (Section 4.3): network degree `Δ = R / (1 + 1/D)`,
/// `Δ^D = 2 N ln N`. Solved numerically; returns `None` for degenerate
/// parameters.
pub fn rrn_switches(radix: usize, diameter: usize) -> Option<f64> {
    if radix < 3 || diameter == 0 {
        return None;
    }
    let d = diameter as f64;
    let delta = radix as f64 / (1.0 + 1.0 / d);
    let target = delta.powf(d);
    // Solve 2 N ln N = target for N by bisection.
    let f = |n: f64| 2.0 * n * n.ln() - target;
    let mut lo = 2.0f64;
    let mut hi = 2.0f64;
    while f(hi) < 0.0 {
        hi *= 2.0;
        if hi > 1e15 {
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
    Some(0.5 * (lo + hi))
}

/// Finite-size probability that a **2-level** RFC has the up/down
/// property, without Theorem 4.2's asymptotic approximations.
///
/// Each leaf draws `Δ = R/2` distinct roots out of `N₂ = N₁/2`; two
/// leaves have disjoint ancestor sets with the exact hypergeometric
/// probability `∏_{i<Δ} (N₂−Δ−i)/(N₂−i)`. With `λ` the expected number
/// of disjoint pairs over `C(N₁,2)`, the success probability is
/// `≈ e^(−λ)`. At practical sizes (where `Δ/N₂` is not small) this is
/// noticeably *higher* than the theorem's limit — the asymptotic
/// threshold is conservative.
///
/// # Panics
///
/// Panics on odd radix or `n1`.
pub fn two_level_updown_probability(radix: usize, n1: usize) -> f64 {
    assert!(
        radix.is_multiple_of(2) && n1.is_multiple_of(2),
        "radix and n1 must be even"
    );
    let delta = radix / 2;
    let n2 = n1 / 2;
    if 2 * delta > n2 {
        return 1.0; // two ancestor sets cannot be disjoint
    }
    let mut ln_p = 0.0f64;
    for i in 0..delta {
        ln_p += ((n2 - delta - i) as f64).ln() - ((n2 - i) as f64).ln();
    }
    let pairs = n1 as f64 * (n1 as f64 - 1.0) / 2.0;
    let lambda = pairs * ln_p.exp();
    (-lambda).exp()
}

/// Bollobás' lower bound on the bisection width of a Δ-regular random
/// graph on `n` vertices: `(n/2)(Δ/2 − √(Δ ln 2))`.
pub fn rrn_bisection_lower(n: usize, delta: usize) -> f64 {
    let d = delta as f64;
    n as f64 / 2.0 * (d / 2.0 - (d * 2f64.ln()).sqrt())
}

/// The paper's lower bound on the bisection width of an `l`-level
/// radix-`R` RFC with `N₁` leaves:
/// `(N₁/4)((l−1)R − √(2(l−1)R ln 2))`.
pub fn rfc_bisection_lower(n1: usize, levels: usize, radix: usize) -> f64 {
    let lr = (levels as f64 - 1.0) * radix as f64;
    n1 as f64 / 4.0 * (lr - (2.0 * lr * 2f64.ln()).sqrt())
}

/// Normalized bisection of the RFC: bound divided by `(T/2) · (l−1)`
/// (each minimal route crosses the bisection `l−1` times on average).
pub fn rfc_normalized_bisection(n1: usize, levels: usize, radix: usize) -> f64 {
    let t = n1 as f64 * radix as f64 / 2.0;
    rfc_bisection_lower(n1, levels, radix) / (t / 2.0 * (levels as f64 - 1.0))
}

/// Normalized bisection of an RRN with network degree `Δ` and `hosts`
/// compute nodes per switch: `(Δ/2 − √(Δ ln 2)) / hosts` (the bound per
/// switch over the traffic per switch; the paper's radix-36 example uses
/// Δ = 26 with 10 hosts and obtains ≈ 0.88).
pub fn rrn_normalized_bisection(delta: usize, hosts: usize) -> f64 {
    let d = delta as f64;
    (d / 2.0 - (d * 2f64.ln()).sqrt()) / hosts as f64
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "threshold radices in these tests are small positive numbers"
)]
mod tests {
    use super::*;

    #[test]
    fn paper_diameter_4_example() {
        // Section 4.2: radix 36, diameter 4 (3 levels) -> the realizable
        // RFC limit is slightly above N1 ~ 11,254, about 202,554 nodes.
        let n1 = max_leaves_at_threshold(36, 3).unwrap();
        assert!((11_200..=11_320).contains(&n1), "got N1 = {n1}");
        let t = rfc_max_terminals(36, 3).unwrap();
        assert!((201_000..=204_000).contains(&t), "got T = {t}");
    }

    #[test]
    fn paper_rrn_example() {
        // Section 4.2: Δ = 26, D = 4 -> N ~ 22,773 switches and 227,730
        // nodes with 10 hosts per switch.
        // Δ = R/(1+1/D) with R = 32.5; check via the direct formula:
        let target = 26f64.powi(4);
        let f = |n: f64| 2.0 * n * n.ln() - target;
        let mut lo = 2.0;
        let mut hi = 1e9;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert!((22_000.0..24_000.0).contains(&lo), "N = {lo}");
    }

    #[test]
    fn threshold_probability_limits() {
        assert!((updown_probability(0.0) - 1.0 / std::f64::consts::E).abs() < 1e-12);
        assert!(updown_probability(5.0) > 0.99);
        assert!(updown_probability(-5.0) < 0.01);
    }

    #[test]
    fn slack_inverts_threshold() {
        let x = 0.7;
        let r = threshold_radix(500, 3, x);
        // Round-trip through a non-integer radix: feed the exact value.
        let n1f = 500f64;
        let pairs = (n1f * (n1f - 1.0) / 2.0).ln();
        let back = (r / 2.0).powf(4.0) / (n1f / 2.0) - pairs;
        assert!((back - x).abs() < 1e-9);
        // Integer API direction check.
        assert!(threshold_slack(r.ceil() as usize, 500, 3) >= x - 0.5);
    }

    #[test]
    fn scalability_formulas_match_section_3() {
        assert_eq!(cft_terminals(36, 3), 11_664);
        assert_eq!(cft_terminals(36, 4), 209_952);
        assert_eq!(cft_terminals(4, 4), 32);
        assert_eq!(oft_terminals(2, 2), 42);
        assert_eq!(oft_terminals(17, 2), 2 * 18 * 307);
        assert_eq!(oft_terminals(3, 3), 8 * 169);
    }

    #[test]
    fn paper_normalized_bisections() {
        // Section 4.2, radix 36: RRN ~ 0.88, 2-level RFC ~ 0.80,
        // 3-level RFC ~ 0.86.
        let rfc2 = rfc_normalized_bisection(1000, 2, 36);
        let rfc3 = rfc_normalized_bisection(1000, 3, 36);
        assert!((rfc2 - 0.80).abs() < 0.02, "2-level: {rfc2}");
        assert!((rfc3 - 0.86).abs() < 0.02, "3-level: {rfc3}");
        let rrn = rrn_normalized_bisection(26, 10);
        assert!((rrn - 0.88).abs() < 0.03, "rrn: {rrn}");
    }

    #[test]
    fn max_leaves_handles_degenerate_parameters() {
        assert_eq!(max_leaves_at_threshold(0, 3), None);
        assert_eq!(max_leaves_at_threshold(8, 1), None);
        // Radix 4, 2 levels: budget (R/2)^2 = 4; N1 ln N1 <= 4 -> N1 = 2.
        assert_eq!(max_leaves_at_threshold(4, 2), Some(2));
    }

    #[test]
    fn rrn_sizing_monotone_in_radix() {
        let a = rrn_switches(24, 4).unwrap();
        let b = rrn_switches(36, 4).unwrap();
        assert!(b > a);
        assert_eq!(rrn_switches(2, 4), None);
    }

    #[test]
    fn rfc_scales_better_than_cft_at_equal_levels() {
        for r in [16usize, 24, 36, 48] {
            let rfc = rfc_max_terminals(r, 3).unwrap();
            let cft = cft_terminals(r, 3);
            assert!(rfc > cft, "R={r}: RFC {rfc} vs CFT {cft}");
        }
    }
}
