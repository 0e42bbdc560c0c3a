//! Extended generalized fat-trees (XGFT).
//!
//! `XGFT(h; m₁…m_h; w₁…w_h)` is the classic parametric fat-tree family
//! (Öhring et al.): `h` stages where every level-`(l-1)` switch has
//! `w_l` parents and every level-`l` switch has `m_l` children. It
//! subsumes the paper's Definition 3.2 fat-trees with arbitrary
//! arities: `k`-ary `l`-trees are `XGFT(l-1; k…k; k…k)`, the
//! R-commodity fat-tree is `XGFT(l-1; k…k,2k; k…k)`, and unbalanced
//! `w < m` choices give *tapered* (oversubscribed) fat-trees, a common
//! datacenter cost knob.

use rfc_graph::random::BipartiteGraph;
use rfc_graph::vid;

use crate::{CloKind, FoldedClos, TopologyError};

impl FoldedClos {
    /// Builds `XGFT(h; m; w)` with `terminals_per_leaf` compute nodes
    /// per leaf switch.
    ///
    /// Level `i` holds `(∏_{j>i} m_j) · (∏_{j≤i} w_j)` switches; stage
    /// `l` wires each child to all `w_l` parents sharing its other
    /// label digits. The switch radix is the maximum port count over
    /// all levels.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] when `m`/`w` lengths
    /// differ or are empty, any arity is zero, or the switch count
    /// overflows.
    ///
    /// # Examples
    ///
    /// A 2:1 tapered three-level fat-tree (half the up-links):
    ///
    /// ```
    /// use rfc_topology::FoldedClos;
    ///
    /// let tapered = FoldedClos::xgft(&[4, 4], &[2, 4], 4)?;
    /// assert_eq!(tapered.num_terminals(), 64);
    /// // Full fat-tree for contrast: same leaves, double the spine.
    /// let full = FoldedClos::xgft(&[4, 4], &[4, 4], 4)?;
    /// assert!(tapered.num_links() < full.num_links());
    /// # Ok::<(), rfc_topology::TopologyError>(())
    /// ```
    pub fn xgft(
        m: &[usize],
        w: &[usize],
        terminals_per_leaf: usize,
    ) -> Result<FoldedClos, TopologyError> {
        Self::xgft_of_kind(CloKind::Xgft, m, w, terminals_per_leaf)
    }

    /// [`FoldedClos::xgft`] labelled as `kind`: the k-ary l-tree is
    /// `XGFT(l-1; k…k; k…k)` and builds through here too.
    pub(crate) fn xgft_of_kind(
        kind: CloKind,
        m: &[usize],
        w: &[usize],
        terminals_per_leaf: usize,
    ) -> Result<FoldedClos, TopologyError> {
        if m.is_empty() || m.len() != w.len() {
            return Err(TopologyError::invalid(format!(
                "m and w must be equal-length and nonempty (got {} and {})",
                m.len(),
                w.len()
            )));
        }
        if m.iter().chain(w).any(|&x| x == 0) {
            return Err(TopologyError::invalid("arities must be positive"));
        }
        let h = m.len();
        // Level sizes.
        let mut sizes = Vec::with_capacity(h + 1);
        for level in 0..=h {
            let mut n: usize = 1;
            for &mj in &m[level..] {
                n = n
                    .checked_mul(mj)
                    .ok_or_else(|| TopologyError::invalid("level size overflows"))?;
            }
            for &wj in &w[..level] {
                n = n
                    .checked_mul(wj)
                    .ok_or_else(|| TopologyError::invalid("level size overflows"))?;
            }
            if n > u32::MAX as usize {
                return Err(TopologyError::invalid("too many switches for u32 ids"));
            }
            sizes.push(n);
        }

        // Stage l (1-based) connects level l-1 to level l. Shared label:
        // high digits a_{l+1..h} (product HI) and low digits b_{1..l-1}
        // (product LO); the child varies a_l in [m_l], the parent b_l in
        // [w_l]. Index = ((hi * varying) + digit) * LO + lo.
        let mut stages = Vec::with_capacity(h);
        for l in 1..=h {
            let hi: usize = m[l..].iter().product();
            let lo: usize = w[..l - 1].iter().product();
            let (ml, wl) = (m[l - 1], w[l - 1]);
            let mut adj1: Vec<Vec<u32>> = vec![Vec::with_capacity(wl); sizes[l - 1]];
            let mut adj2: Vec<Vec<u32>> = vec![Vec::with_capacity(ml); sizes[l]];
            for hi_digit in 0..hi {
                for lo_digit in 0..lo {
                    for a in 0..ml {
                        let child = (hi_digit * ml + a) * lo + lo_digit;
                        for b in 0..wl {
                            let parent = (hi_digit * wl + b) * lo + lo_digit;
                            adj1[child].push(vid(parent));
                            adj2[parent].push(vid(child));
                        }
                    }
                }
            }
            stages.push(BipartiteGraph { adj1, adj2 });
        }

        // The hardware radix is the busiest level's port count.
        let mut radix = terminals_per_leaf + w[0];
        for level in 1..=h {
            let ports = m[level - 1] + if level < h { w[level] } else { 0 };
            radix = radix.max(ports);
        }
        FoldedClos::from_stages(kind, radix, terminals_per_leaf, &sizes, stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::connectivity::is_connected;

    #[test]
    fn xgft_reproduces_the_kary_tree() {
        // The k-ary l-tree is XGFT(l-1; k…k; k…k), wired switch for
        // switch by the Petrini–Vanneschi rule: a level-i switch and its
        // parents differ only in base-k digit i of their local index,
        // and every up and down row lists them in digit order.
        for k in 2..=4 {
            for levels in 2..=4 {
                let arities = vec![k; levels - 1];
                let x = FoldedClos::xgft(&arities, &arities, k).unwrap();
                let t = FoldedClos::kary_tree(k, levels).unwrap();
                assert_eq!(t.kind(), CloKind::KaryTree);
                assert_eq!(x.radix(), t.radix(), "k {k}, levels {levels}");
                assert_eq!(x.num_terminals(), t.num_terminals());
                assert_eq!(x.num_switches(), t.num_switches());
                for level in 0..levels - 1 {
                    let scale = k.pow(vid(level));
                    for idx in 0..t.level_size(level) {
                        let base = idx - idx / scale % k * scale;
                        let at = |l: usize| -> Vec<u32> {
                            (0..k).map(|v| x.switch_id(l, base + v * scale)).collect()
                        };
                        let (lower, upper) = (x.switch_id(level, idx), x.switch_id(level + 1, idx));
                        assert_eq!(x.up_neighbors(lower), at(level + 1), "k {k}, up of {lower}");
                        assert_eq!(x.down_neighbors(upper), at(level), "k {k}, down of {upper}");
                    }
                }
                for s in 0..vid(t.num_switches()) {
                    assert_eq!(x.up_neighbors(s), t.up_neighbors(s));
                    assert_eq!(x.down_neighbors(s), t.down_neighbors(s));
                }
            }
        }
    }

    #[test]
    fn xgft_reproduces_the_cft() {
        // CFT(8, 3): k = 4 -> XGFT(2; 4, 8; 4, 4).
        let x = FoldedClos::xgft(&[4, 8], &[4, 4], 4).unwrap();
        let c = FoldedClos::cft(8, 3).unwrap();
        assert_eq!(x.num_terminals(), c.num_terminals());
        assert_eq!(x.num_switches(), c.num_switches());
        assert_eq!(x.num_links(), c.num_links());
        assert!(x.is_radix_regular());
    }

    #[test]
    fn tapered_tree_is_cheaper_and_connected() {
        let tapered = FoldedClos::xgft(&[4, 4], &[2, 2], 4).unwrap();
        let full = FoldedClos::xgft(&[4, 4], &[4, 4], 4).unwrap();
        assert_eq!(tapered.num_terminals(), full.num_terminals());
        assert!(tapered.num_switches() < full.num_switches());
        assert!(tapered.num_links() < full.num_links());
        assert!(is_connected(&tapered.switch_graph()));
        assert_eq!(tapered.leaf_diameter(), Some(4));
    }

    #[test]
    fn single_stage_xgft_is_a_bipartite_clos() {
        let x = FoldedClos::xgft(&[6], &[3], 6).unwrap();
        assert_eq!(x.num_levels(), 2);
        assert_eq!(x.num_leaves(), 6);
        assert_eq!(x.level_size(1), 3);
        // Every leaf sees all roots.
        for leaf in 0..6u32 {
            assert_eq!(x.up_neighbors(leaf).len(), 3);
        }
    }

    #[test]
    fn rejects_bad_arities() {
        assert!(FoldedClos::xgft(&[], &[], 1).is_err());
        assert!(FoldedClos::xgft(&[2, 2], &[2], 1).is_err());
        assert!(FoldedClos::xgft(&[2, 0], &[2, 2], 1).is_err());
    }

    #[test]
    fn radix_accounts_for_the_busiest_level() {
        // Leaves: 2 terminals + 3 up = 5; level 1: 4 down + 2 up = 6;
        // roots: 5 down.
        let x = FoldedClos::xgft(&[4, 5], &[3, 2], 2).unwrap();
        assert_eq!(x.radix(), 6);
        x.validate().unwrap();
    }
}
