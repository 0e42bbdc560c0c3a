//! Commodity fat-trees (R-port l-trees) and k-ary l-trees.

use rfc_graph::random::BipartiteGraph;
use rfc_graph::vid;

use crate::{CloKind, FoldedClos, TopologyError};

impl FoldedClos {
    /// Builds the R-commodity fat-tree (R-port l-tree): the radix-regular
    /// fat-tree with arities `R/2, …, R/2, R` (Definition 3.2 plus the
    /// Al-Fares sizing).
    ///
    /// With `k = R/2`: levels `0 … l-2` have `2k^(l-1)` switches, the root
    /// level has `k^(l-1)`, and `T = 2k^l` compute nodes are attached.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] when `radix` is odd or
    /// `< 2`, or `levels < 2`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rfc_topology::FoldedClos;
    ///
    /// // The paper's Figure 1: the 4-port 4-tree.
    /// let t = FoldedClos::cft(4, 4)?;
    /// assert_eq!(t.num_terminals(), 32);
    /// assert!(t.is_radix_regular());
    /// # Ok::<(), rfc_topology::TopologyError>(())
    /// ```
    pub fn cft(radix: usize, levels: usize) -> Result<FoldedClos, TopologyError> {
        if radix < 2 || !radix.is_multiple_of(2) {
            return Err(TopologyError::invalid(format!(
                "radix must be even and >= 2, got {radix}"
            )));
        }
        if levels < 2 {
            return Err(TopologyError::invalid(format!(
                "levels must be >= 2, got {levels}"
            )));
        }
        let k = radix / 2;
        let l = levels;
        let inner = k
            .checked_pow(vid(l) - 2)
            .ok_or_else(|| TopologyError::invalid("network too large: k^(l-2) overflows"))?;
        let non_root = 2 * k * inner; // 2k^(l-1)
        let root = k * inner; // k^(l-1)

        let mut level_sizes = vec![non_root; l - 1];
        level_sizes.push(root);

        // Non-root switch label at any level: (t, w) with subtree index
        // t in [2k] and digits w in [k]^(l-2); local index = t * inner + w
        // where w is read as a base-k number. Root label: (w, c) with
        // c in [k]; local index = w * k + c.
        let mut stages = Vec::with_capacity(l - 1);
        for stage_idx in 0..l - 1 {
            let upper_is_root = stage_idx == l - 2;
            let upper_size = if upper_is_root { root } else { non_root };
            let mut adj1: Vec<Vec<u32>> = vec![Vec::with_capacity(k); non_root];
            let mut adj2: Vec<Vec<u32>> =
                vec![Vec::with_capacity(if upper_is_root { 2 * k } else { k }); upper_size];
            for t in 0..2 * k {
                for w in 0..inner {
                    let lower = t * inner + w;
                    if upper_is_root {
                        // Connect (t, w) to roots (w, c) for every c.
                        for c in 0..k {
                            let upper = w * k + c;
                            adj1[lower].push(vid(upper));
                            adj2[upper].push(vid(lower));
                        }
                    } else {
                        // Vary digit `stage_idx` of w over all k values.
                        let scale = k.pow(vid(stage_idx));
                        let digit = w / scale % k;
                        let base = w - digit * scale;
                        for v in 0..k {
                            let upper = t * inner + base + v * scale;
                            adj1[lower].push(vid(upper));
                            adj2[upper].push(vid(lower));
                        }
                    }
                }
            }
            stages.push(BipartiteGraph { adj1, adj2 });
        }
        FoldedClos::from_stages(CloKind::Cft, radix, k, &level_sizes, stages)
    }

    /// Builds the k-ary l-tree of Petrini and Vanneschi: every level has
    /// `k^(l-1)` switches and `T = k^l` compute nodes are attached.
    ///
    /// Root switches only use `k` of their `2k` ports, which is why the
    /// commodity fat-tree (doubling the leaf population under the same
    /// root level) is the variant deployed in practice and the one the
    /// paper compares against.
    ///
    /// The tree is `XGFT(l-1; k…k; k…k)` and is wired by the same
    /// builder as [`FoldedClos::xgft`], labelled [`CloKind::KaryTree`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] when `k < 1`,
    /// `levels < 2`, or `k^(l-1)` overflows.
    ///
    /// # Examples
    ///
    /// ```
    /// use rfc_topology::FoldedClos;
    ///
    /// let t = FoldedClos::kary_tree(4, 3)?;
    /// assert_eq!(t.num_terminals(), 64);
    /// assert_eq!(t.num_switches(), 3 * 16);
    /// # Ok::<(), rfc_topology::TopologyError>(())
    /// ```
    pub fn kary_tree(k: usize, levels: usize) -> Result<FoldedClos, TopologyError> {
        if k < 1 {
            return Err(TopologyError::invalid("arity k must be >= 1"));
        }
        if levels < 2 {
            return Err(TopologyError::invalid(format!(
                "levels must be >= 2, got {levels}"
            )));
        }
        if u32::try_from(levels - 1)
            .ok()
            .and_then(|e| k.checked_pow(e))
            .is_none()
        {
            return Err(TopologyError::invalid(
                "network too large: k^(l-1) overflows",
            ));
        }
        let arities = vec![k; levels - 1];
        FoldedClos::xgft_of_kind(CloKind::KaryTree, &arities, &arities, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::connectivity::is_connected;
    use rfc_graph::traversal::diameter;

    #[test]
    fn paper_figure_1_the_4_port_4_tree() {
        let t = FoldedClos::cft(4, 4).unwrap();
        assert_eq!(t.num_levels(), 4);
        assert_eq!(t.level_size(0), 16);
        assert_eq!(t.level_size(1), 16);
        assert_eq!(t.level_size(2), 16);
        assert_eq!(t.level_size(3), 8);
        assert_eq!(t.num_terminals(), 32);
        assert!(t.is_radix_regular());
        t.validate().unwrap();
    }

    #[test]
    fn paper_scenario_counts_radix_36() {
        // Section 5: 3-level radix-36 CFT has 11,664 terminals on 648
        // leaves; the 4-level CFT has 209,952 terminals, 40,824 switches
        // and 629,856 wires.
        let t3 = FoldedClos::cft(36, 3).unwrap();
        assert_eq!(t3.num_terminals(), 11_664);
        assert_eq!(t3.num_leaves(), 648);
        assert_eq!(t3.num_switches(), 648 + 648 + 324);

        let t4 = FoldedClos::cft(36, 4).unwrap();
        assert_eq!(t4.num_terminals(), 209_952);
        assert_eq!(t4.num_switches(), 40_824);
        assert_eq!(
            t4.num_links(),
            629_856,
            "the paper counts switch-to-switch wires"
        );
    }

    #[test]
    fn cft_is_connected_with_tree_diameter() {
        for (r, l) in [(4, 2), (4, 3), (6, 3), (8, 2)] {
            let t = FoldedClos::cft(r, l).unwrap();
            let g = t.switch_graph();
            assert!(is_connected(&g), "CFT({r},{l}) switch graph connected");
            assert_eq!(
                t.leaf_diameter().unwrap() as usize,
                2 * (l - 1),
                "CFT({r},{l}) diameter"
            );
        }
    }

    #[test]
    fn cft_2_level_is_complete_bipartite() {
        let t = FoldedClos::cft(6, 2).unwrap();
        assert_eq!(t.num_leaves(), 6);
        assert_eq!(t.level_size(1), 3);
        for leaf in 0..6u32 {
            assert_eq!(t.up_neighbors(leaf).len(), 3);
        }
        for root in 6..9u32 {
            assert_eq!(t.down_neighbors(root).len(), 6);
        }
    }

    #[test]
    fn cft_rejects_bad_parameters() {
        assert!(FoldedClos::cft(5, 3).is_err(), "odd radix");
        assert!(FoldedClos::cft(0, 3).is_err());
        assert!(FoldedClos::cft(4, 1).is_err(), "too few levels");
    }

    #[test]
    fn kary_tree_counts() {
        let t = FoldedClos::kary_tree(2, 3).unwrap();
        assert_eq!(t.num_switches(), 12);
        assert_eq!(t.num_terminals(), 8);
        t.validate().unwrap();
        // CFT doubles the k-ary l-tree's terminals at equal radix/levels.
        let c = FoldedClos::cft(4, 3).unwrap();
        assert_eq!(c.num_terminals(), 2 * t.num_terminals());
    }

    #[test]
    fn kary_tree_is_connected() {
        let t = FoldedClos::kary_tree(3, 3).unwrap();
        let g = t.switch_graph();
        assert!(is_connected(&g));
        assert_eq!(diameter(&g).unwrap(), 4);
    }

    #[test]
    fn kary_tree_rejects_bad_parameters() {
        assert!(FoldedClos::kary_tree(0, 3).is_err());
        assert!(FoldedClos::kary_tree(2, 1).is_err());
    }

    #[test]
    fn every_root_is_ancestor_of_every_leaf_in_cft() {
        // The rearrangeable non-blocking property relies on full root
        // reachability: each root reaches all leaves going down.
        let t = FoldedClos::cft(4, 3).unwrap();
        let leaves = t.num_leaves();
        for root_idx in 0..t.level_size(2) {
            let root = t.switch_id(2, root_idx);
            let mut reach = vec![false; leaves];
            let mut frontier = vec![root];
            for _ in 0..2 {
                let mut next = Vec::new();
                for s in frontier {
                    for d in t.down_neighbors(s) {
                        if t.level_of(d) == 0 {
                            reach[d as usize] = true;
                        }
                        next.push(d);
                    }
                }
                frontier = next;
            }
            assert!(reach.iter().all(|&r| r), "root {root} misses a leaf");
        }
    }
}
