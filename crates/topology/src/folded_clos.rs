//! The multi-level folded Clos structure shared by every indirect topology.

use std::collections::BTreeSet;
use std::fmt;

use rfc_graph::random::BipartiteGraph;
use rfc_graph::{vid, Csr};

use crate::TopologyError;

/// Which construction produced a [`FoldedClos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CloKind {
    /// Commodity fat-tree (R-port l-tree).
    Cft,
    /// k-ary l-tree.
    KaryTree,
    /// Orthogonal fat-tree of prime-power order q.
    Oft,
    /// Random folded Clos — the paper's proposal.
    RandomFoldedClos,
    /// Extended generalized fat-tree with explicit arities.
    Xgft,
}

impl CloKind {
    /// Short lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CloKind::Cft => "cft",
            CloKind::KaryTree => "kary-tree",
            CloKind::Oft => "oft",
            CloKind::RandomFoldedClos => "rfc",
            CloKind::Xgft => "xgft",
        }
    }
}

impl fmt::Display for CloKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An inter-switch link, identified by its two global switch ids with the
/// lower-level endpoint first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// Global id of the endpoint at the lower level.
    pub lower: u32,
    /// Global id of the endpoint at the upper level.
    pub upper: u32,
}

/// A folded Clos network (Definition 3.1 of the paper).
///
/// Switches are arranged in `l ≥ 2` levels; level 0 holds the *leaf*
/// switches (each attaching [`FoldedClos::terminals_per_leaf`] compute
/// nodes) and level `l-1` the *root* switches. Stage `i` is the bipartite
/// link graph between levels `i` and `i+1`. Switches have dense global ids:
/// all of level 0 first, then level 1, and so on.
///
/// Instances are produced by the topology constructors
/// ([`FoldedClos::cft`], [`FoldedClos::kary_tree`], [`FoldedClos::oft`],
/// [`FoldedClos::random`]) and by fault injection
/// ([`FoldedClos::with_links_removed`]).
#[derive(Clone)]
pub struct FoldedClos {
    kind: CloKind,
    radix: usize,
    terminals_per_leaf: usize,
    level_offsets: Vec<u32>,
    stages: Vec<BipartiteGraph>,
}

impl fmt::Debug for FoldedClos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldedClos")
            .field("kind", &self.kind)
            .field("radix", &self.radix)
            .field("levels", &self.num_levels())
            .field("switches", &self.num_switches())
            .field("terminals", &self.num_terminals())
            .finish()
    }
}

impl FoldedClos {
    /// Assembles a folded Clos from per-stage bipartite graphs,
    /// validating structural consistency (stage symmetry, level sizes).
    ///
    /// This is the extension point for custom wirings beyond the
    /// built-in constructors — e.g. hand-designed stages, or ablation
    /// studies that correlate stages deliberately. `stages[i]` connects
    /// level `i` (side one) to level `i + 1` (side two) using local
    /// indices; `terminals_per_leaf` compute nodes attach to every
    /// level-0 switch.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] when the stage shapes
    /// are inconsistent with `level_sizes` or the adjacency is
    /// asymmetric.
    ///
    /// # Examples
    ///
    /// ```
    /// use rfc_graph::random::BipartiteGraph;
    /// use rfc_topology::{CloKind, FoldedClos};
    ///
    /// // Two leaves, one root, one link each.
    /// let stage = BipartiteGraph {
    ///     adj1: vec![vec![0], vec![0]],
    ///     adj2: vec![vec![0, 1]],
    /// };
    /// let net = FoldedClos::from_stages(CloKind::Cft, 2, 1, &[2, 1], vec![stage])?;
    /// assert_eq!(net.num_terminals(), 2);
    /// # Ok::<(), rfc_topology::TopologyError>(())
    /// ```
    pub fn from_stages(
        kind: CloKind,
        radix: usize,
        terminals_per_leaf: usize,
        level_sizes: &[usize],
        stages: Vec<BipartiteGraph>,
    ) -> Result<Self, TopologyError> {
        if level_sizes.len() < 2 {
            return Err(TopologyError::invalid(
                "a folded Clos needs at least 2 levels",
            ));
        }
        if stages.len() != level_sizes.len() - 1 {
            return Err(TopologyError::invalid(format!(
                "expected {} stages for {} levels, got {}",
                level_sizes.len() - 1,
                level_sizes.len(),
                stages.len()
            )));
        }
        let mut level_offsets = Vec::with_capacity(level_sizes.len() + 1);
        let mut acc: u64 = 0;
        level_offsets.push(0u32);
        for &s in level_sizes {
            acc += s as u64;
            let offset = u32::try_from(acc)
                .map_err(|_| TopologyError::invalid("too many switches for u32 ids"))?;
            level_offsets.push(offset);
        }
        let clos = Self {
            kind,
            radix,
            terminals_per_leaf,
            level_offsets,
            stages,
        };
        clos.validate()?;
        Ok(clos)
    }

    /// Checks structural invariants: stage adjacency symmetry and
    /// level-size consistency.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] describing the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), TopologyError> {
        for (i, stage) in self.stages.iter().enumerate() {
            if stage.adj1.len() != self.level_size(i) {
                return Err(TopologyError::invalid(format!(
                    "stage {i} lower side has {} vertices, level has {}",
                    stage.adj1.len(),
                    self.level_size(i)
                )));
            }
            if stage.adj2.len() != self.level_size(i + 1) {
                return Err(TopologyError::invalid(format!(
                    "stage {i} upper side has {} vertices, level has {}",
                    stage.adj2.len(),
                    self.level_size(i + 1)
                )));
            }
            for (lo, ups) in stage.adj1.iter().enumerate() {
                for &up in ups {
                    if up as usize >= stage.adj2.len() {
                        return Err(TopologyError::invalid(format!(
                            "stage {i}: upper neighbor {up} out of range"
                        )));
                    }
                    if !stage.adj2[up as usize].contains(&vid(lo)) {
                        return Err(TopologyError::invalid(format!(
                            "stage {i}: asymmetric link ({lo}, {up})"
                        )));
                    }
                }
            }
            let up_arcs: usize = stage.adj1.iter().map(Vec::len).sum();
            let down_arcs: usize = stage.adj2.iter().map(Vec::len).sum();
            if up_arcs != down_arcs {
                return Err(TopologyError::invalid(format!(
                    "stage {i}: {up_arcs} up arcs vs {down_arcs} down arcs"
                )));
            }
        }
        Ok(())
    }

    /// Which construction produced this network.
    #[inline]
    pub fn kind(&self) -> CloKind {
        self.kind
    }

    /// Nominal switch radix (ports per switch) of the construction.
    ///
    /// After fault injection some switches have fewer live ports; this
    /// still reports the hardware radix.
    #[inline]
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of switch levels `l`.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Number of switches at `level` (0 = leaves).
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    #[inline]
    pub fn level_size(&self, level: usize) -> usize {
        (self.level_offsets[level + 1] - self.level_offsets[level]) as usize
    }

    /// Global id of the first switch at `level`.
    #[inline]
    pub fn level_offset(&self, level: usize) -> u32 {
        self.level_offsets[level]
    }

    /// Total number of switches over all levels.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "from_stages always pushes the leading 0 offset"
    )]
    pub fn num_switches(&self) -> usize {
        *self.level_offsets.last().expect("nonempty offsets") as usize
    }

    /// Number of leaf switches (`N₁` in the paper).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.level_size(0)
    }

    /// Compute nodes attached to each leaf switch.
    #[inline]
    pub fn terminals_per_leaf(&self) -> usize {
        self.terminals_per_leaf
    }

    /// Total number of compute nodes `T`.
    #[inline]
    pub fn num_terminals(&self) -> usize {
        self.num_leaves() * self.terminals_per_leaf
    }

    /// The level of a switch given its global id.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is out of range.
    pub fn level_of(&self, switch: u32) -> usize {
        assert!(
            (switch as usize) < self.num_switches(),
            "switch {switch} out of range"
        );
        match self.level_offsets.binary_search(&switch) {
            Ok(exact) => {
                // `switch` is the first id of some level; skip over empty
                // levels that share the same offset.
                let mut level = exact;
                while self.level_offsets[level + 1] == switch {
                    level += 1;
                }
                level
            }
            Err(insert) => insert - 1,
        }
    }

    /// Global switch id from `(level, index-within-level)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn switch_id(&self, level: usize, index: usize) -> u32 {
        assert!(
            index < self.level_size(level),
            "index {index} out of range at level {level}"
        );
        self.level_offsets[level] + vid(index)
    }

    /// The bipartite link graph between `level` and `level + 1`.
    ///
    /// Side one indexes the lower level locally, side two the upper level.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= num_levels()`.
    #[inline]
    pub fn stage(&self, level: usize) -> &BipartiteGraph {
        &self.stages[level]
    }

    pub(crate) fn stage_mut(&mut self, level: usize) -> &mut BipartiteGraph {
        &mut self.stages[level]
    }

    pub(crate) fn set_level_size(&mut self, level: usize, size: usize) {
        let old = self.level_size(level);
        // Every later offset is at least `offsets[level + 1] ≥ old`.
        for off in self.level_offsets.iter_mut().skip(level + 1) {
            *off = vid(*off as usize - old + size);
        }
    }

    /// Upward neighbors (global ids) of a switch; empty for roots.
    pub fn up_neighbors(&self, switch: u32) -> Vec<u32> {
        let level = self.level_of(switch);
        if level + 1 == self.num_levels() {
            return Vec::new();
        }
        let local = switch - self.level_offsets[level];
        let base = self.level_offsets[level + 1];
        self.stages[level].adj1[local as usize]
            .iter()
            .map(|&u| base + u)
            .collect()
    }

    /// Downward switch neighbors (global ids); empty for leaves (their
    /// downward ports attach compute nodes).
    pub fn down_neighbors(&self, switch: u32) -> Vec<u32> {
        let level = self.level_of(switch);
        if level == 0 {
            return Vec::new();
        }
        let local = switch - self.level_offsets[level];
        let base = self.level_offsets[level - 1];
        self.stages[level - 1].adj2[local as usize]
            .iter()
            .map(|&d| base + d)
            .collect()
    }

    /// Every inter-switch link, lower endpoint first.
    pub fn links(&self) -> Vec<Link> {
        let mut out = Vec::with_capacity(self.num_links());
        for (i, stage) in self.stages.iter().enumerate() {
            let lo_base = self.level_offsets[i];
            let hi_base = self.level_offsets[i + 1];
            for (lo, ups) in stage.adj1.iter().enumerate() {
                for &up in ups {
                    out.push(Link {
                        lower: lo_base + vid(lo),
                        upper: hi_base + up,
                    });
                }
            }
        }
        out
    }

    /// Number of inter-switch links (wires between switches).
    pub fn num_links(&self) -> usize {
        self.stages.iter().map(BipartiteGraph::num_edges).sum()
    }

    /// Number of switch-to-terminal links.
    pub fn num_terminal_links(&self) -> usize {
        self.num_terminals()
    }

    /// Total switch ports in use: two per inter-switch wire plus one per
    /// terminal link (the measure plotted in the paper's Figure 7, where
    /// "the number of network wires is half the number of network ports").
    pub fn num_switch_ports(&self) -> usize {
        2 * self.num_links() + self.num_terminal_links()
    }

    /// The leaf switch hosting terminal `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[inline]
    pub fn leaf_of_terminal(&self, t: u32) -> u32 {
        assert!(
            (t as usize) < self.num_terminals(),
            "terminal {t} out of range"
        );
        t / vid(self.terminals_per_leaf)
    }

    /// The leaf-to-leaf diameter: the maximum switch-graph distance
    /// between two leaf switches, i.e. the paper's notion of indirect
    /// network diameter (`D ≤ 2(l-1)` when up/down routing exists).
    ///
    /// Returns `None` if some leaf pair is disconnected.
    pub fn leaf_diameter(&self) -> Option<u32> {
        let g = self.switch_graph();
        let mut best = 0;
        for leaf in 0..vid(self.num_leaves()) {
            let dist = rfc_graph::traversal::bfs_distances(&g, leaf);
            for &d in dist.iter().take(self.num_leaves()) {
                if d == rfc_graph::traversal::UNREACHABLE {
                    return None;
                }
                best = best.max(d);
            }
        }
        Some(best)
    }

    /// The switch-level graph (terminals excluded) as a [`Csr`].
    pub fn switch_graph(&self) -> Csr {
        let edges: Vec<(u32, u32)> = self
            .links()
            .into_iter()
            .map(|l| (l.lower, l.upper))
            .collect();
        Csr::from_edges(self.num_switches(), &edges)
    }

    /// A copy of this network with the given inter-switch links removed
    /// (fault injection for the Section 7 resiliency study).
    ///
    /// Links not present in the network are ignored. Terminal attachment
    /// is unaffected.
    pub fn with_links_removed(&self, faults: &[Link]) -> FoldedClos {
        // BTreeSet rather than HashSet: only membership is queried, but
        // the ordered set keeps this path inside the determinism lint's
        // hash-collection ban with zero cost at fault-list scale.
        let mut removed_per_stage: Vec<BTreeSet<(u32, u32)>> =
            vec![BTreeSet::new(); self.stages.len()];
        for f in faults {
            let (lo, hi) = if f.lower < f.upper {
                (f.lower, f.upper)
            } else {
                (f.upper, f.lower)
            };
            let level = self.level_of(lo);
            if level + 1 >= self.level_offsets.len() {
                continue;
            }
            if self.level_of(hi) != level + 1 {
                continue; // not an adjacent-level pair; ignore
            }
            let lo_local = lo - self.level_offsets[level];
            let hi_local = hi - self.level_offsets[level + 1];
            removed_per_stage[level].insert((lo_local, hi_local));
        }
        let mut clone = self.clone();
        for (stage, removed) in clone.stages.iter_mut().zip(&removed_per_stage) {
            if removed.is_empty() {
                continue;
            }
            for (lo, ups) in stage.adj1.iter_mut().enumerate() {
                ups.retain(|&up| !removed.contains(&(vid(lo), up)));
            }
            for (up, los) in stage.adj2.iter_mut().enumerate() {
                los.retain(|&lo| !removed.contains(&(lo, vid(up))));
            }
        }
        clone
    }

    /// Whether the network is radix-regular per Definition 3.1: every
    /// non-root switch has `R/2` up-links and `R/2` down-links (down-links
    /// of leaves are their terminals) and roots have only down-links.
    pub fn is_radix_regular(&self) -> bool {
        let half = self.radix / 2;
        if self.terminals_per_leaf != half {
            return false;
        }
        let l = self.num_levels();
        for level in 0..l {
            for idx in 0..self.level_size(level) {
                let up = if level + 1 < l {
                    self.stages[level].adj1[idx].len()
                } else {
                    0
                };
                let down = if level > 0 {
                    self.stages[level - 1].adj2[idx].len()
                } else {
                    self.terminals_per_leaf
                };
                let expected_down = if level + 1 == l { self.radix } else { half };
                let expected_up = if level + 1 == l { 0 } else { half };
                if up != expected_up || down != expected_down {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::random::BipartiteGraph;

    /// A tiny hand-built 2-level folded Clos: 4 leaves of degree 1 up,
    /// 2 roots of degree 2 down.
    fn tiny() -> FoldedClos {
        let stage = BipartiteGraph {
            adj1: vec![vec![0], vec![0], vec![1], vec![1]],
            adj2: vec![vec![0, 1], vec![2, 3]],
        };
        FoldedClos::from_stages(CloKind::Cft, 2, 1, &[4, 2], vec![stage]).unwrap()
    }

    #[test]
    fn accessors_on_tiny_network() {
        let t = tiny();
        assert_eq!(t.num_levels(), 2);
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.num_leaves(), 4);
        assert_eq!(t.num_terminals(), 4);
        assert_eq!(t.level_size(1), 2);
        assert_eq!(t.level_offset(1), 4);
        assert_eq!(t.switch_id(1, 1), 5);
        assert_eq!(t.level_of(0), 0);
        assert_eq!(t.level_of(3), 0);
        assert_eq!(t.level_of(4), 1);
        assert_eq!(t.level_of(5), 1);
    }

    #[test]
    fn neighbors_are_global_ids() {
        let t = tiny();
        assert_eq!(t.up_neighbors(0), vec![4]);
        assert_eq!(t.up_neighbors(2), vec![5]);
        assert_eq!(t.up_neighbors(4), Vec::<u32>::new());
        assert_eq!(t.down_neighbors(4), vec![0, 1]);
        assert_eq!(t.down_neighbors(0), Vec::<u32>::new());
    }

    #[test]
    fn links_and_ports() {
        let t = tiny();
        let links = t.links();
        assert_eq!(links.len(), 4);
        assert_eq!(t.num_links(), 4);
        assert!(links.contains(&Link { lower: 3, upper: 5 }));
        assert_eq!(t.num_switch_ports(), 2 * 4 + 4);
    }

    #[test]
    fn terminal_mapping() {
        let stage = BipartiteGraph {
            adj1: vec![vec![0], vec![0]],
            adj2: vec![vec![0, 1]],
        };
        let t = FoldedClos::from_stages(CloKind::Cft, 2, 3, &[2, 1], vec![stage]).unwrap();
        assert_eq!(t.num_terminals(), 6);
        assert_eq!(t.leaf_of_terminal(0), 0);
        assert_eq!(t.leaf_of_terminal(5), 1);
    }

    #[test]
    fn switch_graph_is_connected_for_tiny() {
        let t = tiny();
        let g = t.switch_graph();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 4);
        assert!(
            !rfc_graph::connectivity::is_connected(&g),
            "two disjoint root trees"
        );
    }

    #[test]
    fn fault_injection_removes_links() {
        let t = tiny();
        let faulty = t.with_links_removed(&[Link { lower: 0, upper: 4 }]);
        assert_eq!(faulty.num_links(), 3);
        assert_eq!(faulty.up_neighbors(0), Vec::<u32>::new());
        assert_eq!(faulty.down_neighbors(4), vec![1]);
        // Unknown links are ignored.
        let same = t.with_links_removed(&[Link { lower: 0, upper: 5 }]);
        assert_eq!(same.num_links(), 4);
    }

    #[test]
    fn validation_rejects_asymmetric_stage() {
        let stage = BipartiteGraph {
            adj1: vec![vec![0], vec![]],
            adj2: vec![vec![0, 1]],
        };
        let err = FoldedClos::from_stages(CloKind::Cft, 2, 1, &[2, 1], vec![stage]);
        assert!(err.is_err());
    }

    #[test]
    fn validation_rejects_wrong_level_count() {
        let err = FoldedClos::from_stages(CloKind::Cft, 2, 1, &[2], vec![]);
        assert!(err.is_err());
    }

    #[test]
    fn radix_regularity_of_tiny() {
        let t = tiny();
        assert!(
            t.is_radix_regular(),
            "1 up + 1 terminal per leaf, 2 down per root"
        );
    }

    #[test]
    fn debug_and_kind_display() {
        let t = tiny();
        assert!(format!("{t:?}").contains("FoldedClos"));
        assert_eq!(CloKind::RandomFoldedClos.to_string(), "rfc");
        assert_eq!(CloKind::Oft.to_string(), "oft");
    }
}
