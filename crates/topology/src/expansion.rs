//! Incremental (strong) expansion of random folded Clos networks.
//!
//! Section 5 of the paper: an RFC can grow without adding levels — each
//! minimal upgrade adds two switches to every non-root level and one root,
//! i.e. `R` new compute nodes — while only rewiring a small fraction of the
//! existing links (≈1.8 % when growing a 10,000-terminal radix-36 RFC by
//! 180 nodes). This module implements that upgrade with Jellyfish-style
//! random link stealing, preserving radix-regularity and near-uniform
//! randomness of every stage.

use rand::seq::SliceRandom;
use rand::Rng;

use rfc_graph::random::random_bipartite;
use rfc_graph::vid;

use crate::{CloKind, FoldedClos, TopologyError};

/// Accounting for one [`expand_rfc`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpansionReport {
    /// Switches added over all levels.
    pub added_switches: usize,
    /// Compute nodes added (`R` per step).
    pub added_terminals: usize,
    /// Existing links that were disconnected and reattached elsewhere.
    pub rewired_links: usize,
    /// Brand-new links created (includes the reattached halves).
    pub new_links: usize,
}

/// Grows a random folded Clos by `steps` minimal upgrades. Each step adds
/// two switches per non-root level and one root switch, wiring them in by
/// stealing uniformly random existing stage links, and attaches `R/2`
/// compute nodes to each new leaf.
///
/// The up/down-routing property is probabilistic and can be lost once the
/// network outgrows the Theorem 4.2 threshold for its radix; re-check it
/// with the routing crate after expanding.
///
/// # Errors
///
/// [`TopologyError::WrongKind`] if `clos` was not built by
/// [`FoldedClos::random`]; [`TopologyError::Generation`] if rewiring
/// repeatedly fails (pathologically dense stages).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rfc_topology::{expansion::expand_rfc, FoldedClos};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut net = FoldedClos::random(8, 32, 3, &mut rng)?;
/// let report = expand_rfc(&mut net, 2, &mut rng)?;
/// assert_eq!(report.added_terminals, 16);
/// assert_eq!(net.num_leaves(), 36);
/// assert!(net.is_radix_regular());
/// # Ok::<(), rfc_topology::TopologyError>(())
/// ```
pub fn expand_rfc<R: Rng + ?Sized>(
    clos: &mut FoldedClos,
    steps: usize,
    rng: &mut R,
) -> Result<ExpansionReport, TopologyError> {
    if clos.kind() != CloKind::RandomFoldedClos {
        return Err(TopologyError::WrongKind {
            operation: "incremental expansion",
            found: clos.kind().as_str(),
        });
    }
    let mut report = ExpansionReport::default();
    for _ in 0..steps {
        expand_one_step(clos, rng, &mut report)?;
    }
    clos.validate()?;
    Ok(report)
}

fn expand_one_step<R: Rng + ?Sized>(
    clos: &mut FoldedClos,
    rng: &mut R,
    report: &mut ExpansionReport,
) -> Result<(), TopologyError> {
    let l = clos.num_levels();
    let radix = clos.radix();
    let half = radix / 2;

    // Record the pre-growth local sizes, then append empty adjacency rows
    // for the new switches on both sides of every stage.
    let old_sizes: Vec<usize> = (0..l).map(|lv| clos.level_size(lv)).collect();
    for level in 0..l {
        let newcomers = if level + 1 == l { 1 } else { 2 };
        if level > 0 {
            let stage = clos.stage_mut(level - 1);
            for _ in 0..newcomers {
                stage.adj2.push(Vec::new());
            }
        }
        if level + 1 < l {
            let stage = clos.stage_mut(level);
            for _ in 0..newcomers {
                stage.adj1.push(Vec::new());
            }
        }
    }

    // Wire every stage.
    for stage_idx in 0..l - 1 {
        let upper_is_root = stage_idx == l - 2;
        let n1_old = old_sizes[stage_idx];
        let n2_old = old_sizes[stage_idx + 1];
        let mut new1: Vec<(usize, usize)> = vec![(n1_old, half), (n1_old + 1, half)];
        let mut new2: Vec<(usize, usize)> = if upper_is_root {
            vec![(n2_old, radix)]
        } else {
            vec![(n2_old, half), (n2_old + 1, half)]
        };
        wire_stage(clos, stage_idx, &mut new1, &mut new2, rng, report)?;
    }

    // Update the level offsets.
    for (level, &old) in old_sizes.iter().enumerate() {
        let newcomers = if level + 1 == l { 1 } else { 2 };
        clos.set_level_size(level, old + newcomers);
        report.added_switches += newcomers;
    }
    report.added_terminals += 2 * clos.terminals_per_leaf();
    Ok(())
}

/// Satisfies the remaining degree of the stage's new lower (`new1`) and
/// upper (`new2`) vertices. For each unit of demand we aim a uniformly
/// random upper target `w`: if `w` is itself a hungry newcomer we link
/// directly, otherwise we steal one of `w`'s existing links `(u, w)`,
/// reattach the lower newcomer to `w` and give `u` to a hungry upper
/// newcomer — conserving every old vertex's degree.
fn wire_stage<R: Rng + ?Sized>(
    clos: &mut FoldedClos,
    stage_idx: usize,
    new1: &mut [(usize, usize)],
    new2: &mut [(usize, usize)],
    rng: &mut R,
    report: &mut ExpansionReport,
) -> Result<(), TopologyError> {
    let mut attempts = 0usize;
    loop {
        let Some(a_slot) = new1.iter().position(|&(_, rem)| rem > 0) else {
            debug_assert!(
                new2.iter().all(|&(_, rem)| rem == 0),
                "demand sums must match"
            );
            return Ok(());
        };
        attempts += 1;
        if attempts > 100_000 {
            return Err(TopologyError::Generation(
                rfc_graph::GenerationError::RestartLimitExceeded { restarts: attempts },
            ));
        }
        let a = new1[a_slot].0;
        let stage = clos.stage_mut(stage_idx);
        let n2_total = stage.adj2.len();
        let w = rng.gen_range(0..n2_total);
        let hungry_upper = new2.iter().position(|&(v, rem)| v == w && rem > 0);
        if let Some(b_slot) = hungry_upper {
            // Direct newcomer-to-newcomer link.
            if stage.adj1[a].contains(&vid(w)) {
                continue;
            }
            stage.adj1[a].push(vid(w));
            stage.adj2[w].push(vid(a));
            new1[a_slot].1 -= 1;
            new2[b_slot].1 -= 1;
            report.new_links += 1;
            continue;
        }
        // Steal one of w's links. Skip if w has none or a already links w.
        if stage.adj2[w].is_empty() || stage.adj1[a].contains(&vid(w)) {
            continue;
        }
        let ui = rng.gen_range(0..stage.adj2[w].len());
        let u = stage.adj2[w][ui] as usize;
        if u == a {
            continue;
        }
        // Find an upper newcomer for u.
        let Some(b_slot) = new2
            .iter()
            .position(|&(v, rem)| rem > 0 && !stage.adj1[u].contains(&vid(v)))
        else {
            continue;
        };
        let b = new2[b_slot].0;
        // Remove (u, w).
        stage.adj2[w].swap_remove(ui);
        #[expect(
            clippy::expect_used,
            reason = "stage edges are stored in both adjacency lists, so u lists w"
        )]
        let pos = stage.adj1[u]
            .iter()
            .position(|&x| x == vid(w))
            .expect("symmetric stage adjacency");
        stage.adj1[u].swap_remove(pos);
        // Add (a, w) and (u, b).
        stage.adj1[a].push(vid(w));
        stage.adj2[w].push(vid(a));
        stage.adj1[u].push(vid(b));
        stage.adj2[b].push(vid(u));
        new1[a_slot].1 -= 1;
        new2[b_slot].1 -= 1;
        report.rewired_links += 1;
        report.new_links += 2;
    }
}

/// Weak expansion: adds one level to a random folded Clos so growth can
/// continue past the Theorem 4.2 threshold (Section 5; Figure 7's RFC
/// steps).
///
/// The old root level is doubled to `N₁` switches — each old root keeps
/// a random half of its `R` down-links and donates the other half to a
/// new partner switch, exactly the "rewire half of the wires on the top
/// level" bill the paper quotes — and a fresh uniform random stage
/// connects the now-regular level to `N₁/2` brand-new roots. No
/// terminals are added; the report counts the `N₁/2 · R/2` moved links
/// as rewired.
///
/// # Errors
///
/// [`TopologyError::WrongKind`] for non-random topologies;
/// [`TopologyError::Generation`] if the new top stage cannot be drawn.
pub fn add_level<R: Rng + ?Sized>(
    clos: &mut FoldedClos,
    rng: &mut R,
) -> Result<ExpansionReport, TopologyError> {
    if clos.kind() != CloKind::RandomFoldedClos {
        return Err(TopologyError::WrongKind {
            operation: "weak expansion",
            found: clos.kind().as_str(),
        });
    }
    let l = clos.num_levels();
    let radix = clos.radix();
    let half = radix / 2;
    let n1 = clos.num_leaves();
    let old_roots = clos.level_size(l - 1);

    // Draw the new top stage first so a generation failure leaves the
    // network untouched.
    let new_stage = random_bipartite(n1, half, n1 / 2, radix, rng)?;

    // Double the old root level: root i donates half its down-links to
    // new partner old_roots + i.
    let mut report = ExpansionReport::default();
    {
        let stage = clos.stage_mut(l - 2);
        for _ in 0..old_roots {
            stage.adj2.push(Vec::with_capacity(half));
        }
        for root in 0..old_roots {
            let partner = vid(old_roots + root);
            debug_assert_eq!(stage.adj2[root].len(), radix);
            stage.adj2[root].shuffle(rng);
            let moved: Vec<u32> = stage.adj2[root].split_off(half);
            for &lower in &moved {
                #[expect(
                    clippy::expect_used,
                    reason = "stage edges are stored in both adjacency lists, so lower lists root"
                )]
                let slot = stage.adj1[lower as usize]
                    .iter()
                    .position(|&u| u == vid(root))
                    .expect("symmetric stage adjacency");
                stage.adj1[lower as usize][slot] = partner;
            }
            stage.adj2[partner as usize] = moved;
            report.rewired_links += half;
        }
    }
    clos.set_level_size(l - 1, 2 * old_roots);
    report.new_links += new_stage.num_edges();
    clos.push_level(n1 / 2, new_stage);
    report.added_switches += old_roots + n1 / 2;
    clos.validate()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfc_graph::connectivity::is_connected;

    #[test]
    fn expansion_preserves_structure() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = FoldedClos::random(8, 32, 3, &mut rng).unwrap();
        let links_before = net.num_links();
        let report = expand_rfc(&mut net, 3, &mut rng).unwrap();
        assert_eq!(report.added_switches, 3 * 5, "2+2+1 per step at 3 levels");
        assert_eq!(report.added_terminals, 3 * 8);
        assert_eq!(net.num_leaves(), 38);
        assert_eq!(net.level_size(1), 38);
        assert_eq!(net.level_size(2), 19);
        assert!(
            net.is_radix_regular(),
            "expansion must preserve radix regularity"
        );
        net.validate().unwrap();
        // Each step adds (l-1) * R new wires.
        assert_eq!(net.num_links(), links_before + 3 * 2 * 8);
        assert!(is_connected(&net.switch_graph()));
    }

    #[test]
    fn expansion_grows_terminals_by_radix_per_step() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = FoldedClos::random(12, 24, 2, &mut rng).unwrap();
        let t0 = net.num_terminals();
        expand_rfc(&mut net, 4, &mut rng).unwrap();
        assert_eq!(net.num_terminals(), t0 + 4 * 12);
    }

    #[test]
    fn rejects_non_random_topologies() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cft = FoldedClos::cft(4, 3).unwrap();
        let err = expand_rfc(&mut cft, 1, &mut rng).unwrap_err();
        assert!(matches!(err, TopologyError::WrongKind { .. }));
    }

    #[test]
    fn paper_rewiring_fraction_claim() {
        // Section 5: growing a radix-36 RFC with T ~ 10,000 by 180 compute
        // nodes rewires about 1.8 % of the links.
        let mut rng = StdRng::seed_from_u64(36);
        let mut net = FoldedClos::random(36, 556, 3, &mut rng).unwrap();
        let total_links = net.num_links();
        let report = expand_rfc(&mut net, 5, &mut rng).unwrap();
        assert_eq!(report.added_terminals, 180);
        let fraction = report.rewired_links as f64 / total_links as f64;
        assert!(
            (0.014..=0.022).contains(&fraction),
            "expected ~1.8% rewiring, got {:.2}%",
            fraction * 100.0
        );
    }

    #[test]
    fn add_level_preserves_radix_regularity() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = FoldedClos::random(8, 32, 2, &mut rng).unwrap();
        let t = net.num_terminals();
        let report = add_level(&mut net, &mut rng).unwrap();
        assert_eq!(net.num_levels(), 3);
        assert_eq!(net.level_size(0), 32);
        assert_eq!(net.level_size(1), 32, "old root level doubled");
        assert_eq!(net.level_size(2), 16, "fresh root level");
        assert_eq!(net.num_terminals(), t, "weak expansion adds no terminals");
        assert!(net.is_radix_regular());
        net.validate().unwrap();
        // Half the old top wires moved: (N1/2) * (R/2).
        assert_eq!(report.rewired_links, 16 * 4);
        assert_eq!(report.added_switches, 16 + 16);
        assert!(is_connected(&net.switch_graph()));
    }

    #[test]
    fn add_level_then_strong_expansion_continues() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut net = FoldedClos::random(8, 24, 2, &mut rng).unwrap();
        add_level(&mut net, &mut rng).unwrap();
        let report = expand_rfc(&mut net, 2, &mut rng).unwrap();
        assert_eq!(report.added_terminals, 16);
        assert_eq!(net.num_leaves(), 28);
        assert!(net.is_radix_regular());
    }

    #[test]
    fn add_level_restores_updown_headroom() {
        // A 2-level RFC at its threshold has marginal routability; after
        // a weak expansion the 3-level threshold is far away, so the
        // up/down property holds comfortably.
        let mut rng = StdRng::seed_from_u64(23);
        let mut net = FoldedClos::random(12, 72, 2, &mut rng).unwrap();
        add_level(&mut net, &mut rng).unwrap();
        let routing = rfc_routing_check(&net);
        assert!(
            routing,
            "3-level RFC at N1 = 72, R = 12 is deep below threshold"
        );
    }

    /// Local helper so the topology crate's tests do not depend on the
    /// routing crate: checks the common-ancestor property by upward BFS
    /// reachability of root-descendant sets.
    fn rfc_routing_check(net: &FoldedClos) -> bool {
        let l = net.num_levels();
        let leaves = net.num_leaves();
        // Compute, for each root, the set of reachable leaves.
        let mut reach: Vec<std::collections::BTreeSet<u32>> = Vec::new();
        for idx in 0..net.level_size(l - 1) {
            let root = net.switch_id(l - 1, idx);
            let mut frontier = vec![root];
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..l - 1 {
                let mut next = Vec::new();
                for s in frontier {
                    for d in net.down_neighbors(s) {
                        next.push(d);
                    }
                }
                frontier = next;
            }
            for leaf in frontier {
                seen.insert(leaf);
            }
            reach.push(seen);
        }
        // Ancestor roots per leaf.
        let mut roots_of_leaf: Vec<Vec<usize>> = vec![Vec::new(); leaves];
        for (r, set) in reach.iter().enumerate() {
            for &leaf in set {
                roots_of_leaf[leaf as usize].push(r);
            }
        }
        for a in 0..leaves {
            for b in (a + 1)..leaves {
                let shares = roots_of_leaf[a]
                    .iter()
                    .any(|r| roots_of_leaf[b].contains(r));
                if !shares {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn add_level_rejects_non_random_topologies() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut cft = FoldedClos::cft(4, 2).unwrap();
        assert!(matches!(
            add_level(&mut cft, &mut rng),
            Err(TopologyError::WrongKind { .. })
        ));
    }

    #[test]
    fn expansion_is_seed_deterministic() {
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = FoldedClos::random(8, 32, 3, &mut rng).unwrap();
            expand_rfc(&mut net, 2, &mut rng).unwrap();
            net.links()
        };
        assert_eq!(build(5), build(5));
    }
}
