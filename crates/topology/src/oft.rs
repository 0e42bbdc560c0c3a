//! Orthogonal fat-trees built from projective-plane incidence.

use rfc_galois::ProjectivePlane;
use rfc_graph::random::BipartiteGraph;
use rfc_graph::vid;

use crate::{CloKind, FoldedClos, TopologyError};

impl FoldedClos {
    /// Builds the l-level orthogonal fat-tree (OFT) of prime-power order
    /// `q` (Valerio et al.; the cost-optimal diameter-2(l-1) baseline of
    /// the paper).
    ///
    /// With `m = q² + q + 1`: levels `0 … l-2` have `2·m^(l-1)` switches,
    /// the root level `m^(l-1)`; the radix is `R = 2(q+1)` and
    /// `T = 2(q+1)·m^(l-1)` compute nodes are attached.
    ///
    /// Each stage wires label digit `i` of the lower switch (a *point* of
    /// PG(2, q)) to digit `i` of the upper switch (a *line*) through the
    /// plane's incidence relation; the two label halves (`h ∈ {0, 1}`)
    /// share the root level. For `l = 2` this is exactly the classic
    /// projective-plane network of the paper's Figure 2, whose minimal
    /// routes are unique.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Field`] when `q` is not a prime power and
    /// [`TopologyError::InvalidParameter`] when `levels < 2` or the switch
    /// count overflows.
    ///
    /// # Examples
    ///
    /// ```
    /// use rfc_topology::FoldedClos;
    ///
    /// // The paper's Figure 2: the 2-level OFT (order 2).
    /// let t = FoldedClos::oft(2, 2)?;
    /// assert_eq!(t.num_leaves(), 14);
    /// assert_eq!(t.level_size(1), 7);
    /// assert_eq!(t.num_terminals(), 42);
    /// # Ok::<(), rfc_topology::TopologyError>(())
    /// ```
    pub fn oft(q: u32, levels: usize) -> Result<FoldedClos, TopologyError> {
        if levels < 2 {
            return Err(TopologyError::invalid(format!(
                "levels must be >= 2, got {levels}"
            )));
        }
        let plane = ProjectivePlane::new(q)?;
        let m = plane.num_points();
        let l = levels;
        let digits = l - 1;
        let inner = m
            .checked_pow(vid(digits))
            .ok_or_else(|| TopologyError::invalid("network too large: m^(l-1) overflows"))?;
        if 2 * inner > u32::MAX as usize {
            return Err(TopologyError::invalid("too many switches for u32 ids"));
        }
        let non_root = 2 * inner;
        let root = inner;
        let mut level_sizes = vec![non_root; l - 1];
        level_sizes.push(root);

        // Non-root label: (h, x) with h in {0,1}, x in [m]^(l-1); local
        // index = h * inner + x (x read as a base-m number). Root label:
        // y in [m]^(l-1).
        let deg = q as usize + 1;
        let mut stages = Vec::with_capacity(l - 1);
        for stage_idx in 0..l - 1 {
            let upper_is_root = stage_idx == l - 2;
            let upper_size = if upper_is_root { root } else { non_root };
            let mut adj1: Vec<Vec<u32>> = vec![Vec::with_capacity(deg); non_root];
            let mut adj2: Vec<Vec<u32>> =
                vec![Vec::with_capacity(if upper_is_root { 2 * deg } else { deg }); upper_size];
            let scale = m.pow(vid(stage_idx));
            for h in 0..2 {
                for x in 0..inner {
                    let lower = h * inner + x;
                    let digit = x / scale % m; // a point of PG(2, q)
                    let base = x - digit * scale;
                    for &line in plane.lines_of_point(vid(digit)) {
                        let upper_x = base + line as usize * scale;
                        let upper = if upper_is_root {
                            upper_x
                        } else {
                            h * inner + upper_x
                        };
                        adj1[lower].push(vid(upper));
                        adj2[upper].push(vid(lower));
                    }
                }
            }
            stages.push(BipartiteGraph { adj1, adj2 });
        }
        FoldedClos::from_stages(CloKind::Oft, 2 * deg, deg, &level_sizes, stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::connectivity::is_connected;

    #[test]
    fn two_level_oft_counts_match_formula() {
        for q in [2u32, 3, 4, 5] {
            let m = (q * q + q + 1) as usize;
            let t = FoldedClos::oft(q, 2).unwrap();
            assert_eq!(t.num_leaves(), 2 * m, "order {q}");
            assert_eq!(t.level_size(1), m);
            assert_eq!(t.num_terminals(), 2 * (q as usize + 1) * m);
            assert_eq!(t.radix(), 2 * (q as usize + 1));
            assert!(t.is_radix_regular(), "order {q}");
            t.validate().unwrap();
        }
    }

    #[test]
    fn three_level_oft_counts() {
        let q = 2u32;
        let m = 7usize;
        let t = FoldedClos::oft(q, 3).unwrap();
        assert_eq!(t.num_leaves(), 2 * m * m);
        assert_eq!(t.level_size(1), 2 * m * m);
        assert_eq!(t.level_size(2), m * m);
        assert_eq!(t.num_terminals(), 2 * 3 * m * m);
        assert!(t.is_radix_regular());
    }

    #[test]
    fn oft_is_connected_with_expected_leaf_diameter() {
        let t = FoldedClos::oft(2, 2).unwrap();
        assert!(is_connected(&t.switch_graph()));
        assert_eq!(t.leaf_diameter(), Some(2));

        let t3 = FoldedClos::oft(2, 3).unwrap();
        assert!(is_connected(&t3.switch_graph()));
        assert_eq!(t3.leaf_diameter(), Some(4));
    }

    #[test]
    fn two_level_oft_has_unique_minimal_routes_between_opposite_halves() {
        // Two leaves whose plane points differ share exactly one root,
        // whether in the same half or across halves.
        let t = FoldedClos::oft(3, 2).unwrap();
        let m = 13u32;
        for a in 0..m {
            for b in 0..m {
                if a == b {
                    continue;
                }
                let ups_a = t.up_neighbors(a);
                let ups_b = t.up_neighbors(m + b); // other half
                let shared = ups_a.iter().filter(|u| ups_b.contains(u)).count();
                assert_eq!(shared, 1, "leaves {a} and {b} across halves");
            }
        }
    }

    #[test]
    fn same_point_opposite_halves_share_all_ancestors() {
        let t = FoldedClos::oft(3, 2).unwrap();
        let ups_a = t.up_neighbors(0);
        let ups_b = t.up_neighbors(13);
        assert_eq!(ups_a, ups_b, "same plane point in both halves");
        assert_eq!(ups_a.len(), 4);
    }

    #[test]
    fn oft_rejects_bad_parameters() {
        assert!(FoldedClos::oft(6, 2).is_err(), "6 is not a prime power");
        assert!(FoldedClos::oft(2, 1).is_err());
    }
}
