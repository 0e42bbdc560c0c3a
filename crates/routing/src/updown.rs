//! Up/down routing tables for folded Clos networks.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rand::Rng;

use rfc_graph::{vid, HeapBytes, ReachSet};
use rfc_topology::{FoldedClos, LinkEvent};

/// What an incremental repair ([`UpDownRouting::apply_event`]) touched.
///
/// `changed` drives correctness (which reach sets differ from before);
/// `table_dirty` drives candidate-table patching (which switches' routing
/// rows may differ — the changed switches, the event endpoints, and every
/// current neighbor of a changed switch, since a row consults its
/// neighbors' reach sets). The recompute counters expose how small the
/// dirty ancestor region was relative to a full rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairScope {
    /// Switches whose `down_reach` or `updown_reach` changed (sorted).
    pub changed: Vec<u32>,
    /// Switches whose candidate rows must be rebuilt (sorted superset of
    /// `changed` plus the event endpoints and neighbors of the changed).
    pub table_dirty: Vec<u32>,
    /// The event's `[lower, upper]` endpoints — the only switches whose
    /// *adjacency* changed. Every other switch in `table_dirty` keeps its
    /// neighbor lists, so its candidate row can differ from the pre-event
    /// value only at destinations in [`dst_delta`](Self::dst_delta); a
    /// table patcher may splice those rows instead of re-deriving the
    /// whole column.
    pub endpoints: [u32; 2],
    /// Sorted leaves whose membership changed in at least one reach set
    /// during this repair (the union of the symmetric differences of
    /// every replaced `down_reach` / `updown_reach`). A candidate row
    /// consults only its own adjacency, the `d == current` singleton, and
    /// neighbor reach-set membership of `d`, so outside `endpoints` the
    /// rows are unchanged at every destination not listed here.
    pub dst_delta: Vec<u32>,
    /// Down-reach sets recomputed (including unchanged re-derivations).
    pub down_recomputed: usize,
    /// Updown-reach sets recomputed (including unchanged re-derivations).
    pub updown_recomputed: usize,
}

/// Deadlock-free equal-cost multi-path up/down routing (Section 4.1).
///
/// For every switch `s` the table stores two leaf [`ReachSet`]s:
///
/// * `down_reach(s)` — leaves reachable from `s` using only down-links,
/// * `updown_reach(s)` — leaves reachable going up at least once and then
///   down (i.e. leaves sharing an ancestor strictly above `s`).
///
/// A packet at `s` destined to leaf `d` descends toward any down-neighbor
/// whose `down_reach` contains `d`, or else climbs to any up-neighbor `u`
/// with `d ∈ down_reach(u) ∪ updown_reach(u)` — preferring up-neighbors
/// that can turn around immediately. Every leaf pair is connected exactly
/// when each leaf's `updown_reach` covers all other leaves, which is the
/// common-ancestor condition of Theorem 4.2.
///
/// Reach sets are density-adaptive (DESIGN.md §15): descendant sets of a
/// CFT/XGFT are contiguous leaf ranges, so they stay interval-coded at a
/// few bytes per switch instead of `leaves / 8`; random folded Clos and
/// RRN fragment them and the affected sets fall back to dense bitsets.
/// The adjacency is CSR-flattened (one offsets + one flat array per
/// direction), so the live-query hot path does one slice index per
/// neighbor list instead of chasing a `Vec<Vec<_>>`.
///
/// The table is self-contained (it copies the adjacency out of the
/// [`FoldedClos`]), so it can outlive the topology and be queried from the
/// simulator without lifetime coupling.
///
/// Tables can also be *repaired in place*: see
/// [`UpDownRouting::apply_event`], which resynchronizes the CSR adjacency
/// and recomputes only the reach sets inside the event's dirty ancestor
/// region, producing state byte-identical to a from-scratch build on the
/// post-event topology.
#[derive(Clone, PartialEq, Eq)]
pub struct UpDownRouting {
    num_leaves: usize,
    up_off: Vec<u32>,
    up_adj: Vec<u32>,
    down_off: Vec<u32>,
    down_adj: Vec<u32>,
    down_reach: Vec<ReachSet>,
    updown_reach: Vec<ReachSet>,
}

impl fmt::Debug for UpDownRouting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UpDownRouting")
            .field("switches", &self.down_reach.len())
            .field("leaves", &self.num_leaves)
            .finish()
    }
}

impl UpDownRouting {
    /// Builds the routing table for `clos` in `O(links · leaves / 64)`.
    ///
    /// The two reachability passes run one level at a time; within a
    /// level every switch depends only on already-finished levels, so
    /// each level fans out over the shared worker pool
    /// (`rfc_parallel`), chunked by switch. Per-switch unions start
    /// from an empty bitset and visit neighbors in adjacency order, so
    /// the tables are byte-identical at any thread count.
    pub fn new(clos: &FoldedClos) -> Self {
        let n = clos.num_switches();
        let leaves = clos.num_leaves();
        let levels = clos.num_levels();
        let mut up_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut up_adj: Vec<u32> = Vec::new();
        let mut down_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut down_adj: Vec<u32> = Vec::new();
        up_off.push(0);
        down_off.push(0);
        for s in 0..vid(n) {
            up_adj.extend(clos.up_neighbors(s));
            up_off.push(vid(up_adj.len()));
            down_adj.extend(clos.down_neighbors(s));
            down_off.push(vid(down_adj.len()));
        }
        let level_ids = |level: usize| -> Vec<u32> {
            (0..clos.level_size(level))
                .map(|idx| clos.switch_id(level, idx))
                .collect()
        };
        let mut table = Self {
            num_leaves: leaves,
            up_off,
            up_adj,
            down_off,
            down_adj,
            down_reach: (0..n).map(|_| ReachSet::new(leaves)).collect(),
            updown_reach: (0..n).map(|_| ReachSet::new(leaves)).collect(),
        };

        // Downward reachability, bottom-up.
        for (leaf, reach) in table.down_reach.iter_mut().enumerate().take(leaves) {
            reach.insert(leaf);
        }
        for level in 1..levels {
            let ids = level_ids(level);
            let computed = rfc_parallel::map(ids.clone(), |s| table.derive_down(s));
            for (s, acc) in ids.into_iter().zip(computed) {
                table.down_reach[s as usize] = acc;
            }
        }

        // Up-then-down reachability, top-down.
        for level in (0..levels - 1).rev() {
            let ids = level_ids(level);
            let computed = rfc_parallel::map(ids.clone(), |s| table.derive_updown(s));
            for (s, acc) in ids.into_iter().zip(computed) {
                table.updown_reach[s as usize] = acc;
            }
        }
        table
    }

    /// `down_reach(s)` derived from `s`'s down-neighbors: the union of
    /// their down-reach sets, from an empty set in adjacency order.
    /// [`UpDownRouting::new`] and [`UpDownRouting::apply_event`] both
    /// derive through it, so a repaired set is byte-identical to a fresh
    /// one by construction.
    fn derive_down(&self, s: u32) -> ReachSet {
        let mut acc = ReachSet::new(self.num_leaves);
        for &d in self.down(s as usize) {
            acc.union_with(&self.down_reach[d as usize]);
        }
        acc
    }

    /// `updown_reach(s)` derived from `s`'s up-neighbors: the union of
    /// their down- and updown-reach sets, from an empty set in adjacency
    /// order (see [`UpDownRouting::derive_down`]).
    fn derive_updown(&self, s: u32) -> ReachSet {
        let mut acc = ReachSet::new(self.num_leaves);
        for &u in self.up(s as usize) {
            acc.union_with(&self.down_reach[u as usize]);
            acc.union_with(&self.updown_reach[u as usize]);
        }
        acc
    }

    /// Up-neighbors of `s` (CSR slice).
    #[inline]
    fn up(&self, s: usize) -> &[u32] {
        &self.up_adj[self.up_off[s] as usize..self.up_off[s + 1] as usize]
    }

    /// Down-neighbors of `s` (CSR slice).
    #[inline]
    fn down(&self, s: usize) -> &[u32] {
        &self.down_adj[self.down_off[s] as usize..self.down_off[s + 1] as usize]
    }

    /// Replaces one CSR row, shifting subsequent offsets by the length
    /// delta. O(adjacency) memmove — cheap next to the reach-set work.
    fn replace_row(adj: &mut Vec<u32>, off: &mut [u32], s: usize, new_row: &[u32]) {
        let start = off[s] as usize;
        let end = off[s + 1] as usize;
        let old_len = end - start;
        adj.splice(start..end, new_row.iter().copied());
        match new_row.len().cmp(&old_len) {
            std::cmp::Ordering::Greater => {
                let d = vid(new_row.len() - old_len);
                for o in &mut off[s + 1..] {
                    *o += d;
                }
            }
            std::cmp::Ordering::Less => {
                let d = vid(old_len - new_row.len());
                for o in &mut off[s + 1..] {
                    *o -= d;
                }
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Incrementally repairs the table after one applied link event.
    ///
    /// `clos` must be the **post-event** topology (e.g.
    /// [`rfc_topology::LiveClos::current`] after `apply` returned `true`);
    /// the recovery insertion position is only known to the topology, so
    /// the CSR rows of the event's endpoints are resynchronized from it.
    /// Reach sets are then re-derived only inside the dirty region: the
    /// `down_reach` pass ascends from the upper endpoint, the
    /// `updown_reach` pass descends from the lower endpoint and from the
    /// down-neighbors of every down-changed switch. Each re-derivation
    /// goes through the same `derive_down` / `derive_updown` as
    /// [`UpDownRouting::new`] — from an empty set, neighbors in
    /// adjacency order — so representation choices (interval vs dense)
    /// reproduce and the table ends **byte-identical** to a
    /// from-scratch build on `clos`: dirty
    /// sets are recomputed identically, and clean sets equal the fresh
    /// values by induction (pure functions of unchanged inputs).
    ///
    /// Reverting an event (applying its
    /// [`inverse`](rfc_topology::LinkEvent::inverse) after reverting the
    /// topology) therefore restores byte-identical state.
    ///
    /// # Panics
    ///
    /// Panics if the event's endpoints are out of range for `clos`.
    pub fn apply_event(&mut self, clos: &FoldedClos, event: &LinkEvent) -> RepairScope {
        let (lower, upper) = if event.link.lower < event.link.upper {
            (event.link.lower, event.link.upper)
        } else {
            (event.link.upper, event.link.lower)
        };
        let leaves = self.num_leaves;
        let levels = clos.num_levels();

        // 1. Resynchronize the two CSR rows touched by the event.
        Self::replace_row(
            &mut self.up_adj,
            &mut self.up_off,
            lower as usize,
            &clos.up_neighbors(lower),
        );
        Self::replace_row(
            &mut self.down_adj,
            &mut self.down_off,
            upper as usize,
            &clos.down_neighbors(upper),
        );

        let mut changed: BTreeSet<u32> = BTreeSet::new();
        let mut down_recomputed = 0usize;
        let mut updown_recomputed = 0usize;
        // Destinations whose membership changed in any replaced set —
        // the splice frontier for candidate-table patching.
        let mut delta_mark = vec![false; leaves];

        // 2. Down-reach repair, ascending from the upper endpoint. Leaves
        // are self-seeded and never dirty.
        let mut dirty: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); levels];
        dirty[clos.level_of(upper)].insert(upper);
        for level in 1..levels {
            let ids: Vec<u32> = std::mem::take(&mut dirty[level]).into_iter().collect();
            for s in ids {
                let acc = self.derive_down(s);
                down_recomputed += 1;
                if acc != self.down_reach[s as usize] {
                    acc.for_each_diff(&self.down_reach[s as usize], |d| delta_mark[d] = true);
                    self.down_reach[s as usize] = acc;
                    changed.insert(s);
                    if level + 1 < levels {
                        for &u in self.up(s as usize) {
                            dirty[level + 1].insert(u);
                        }
                    }
                }
            }
        }

        // 3. Updown-reach repair, descending. Dirty: the lower endpoint
        // (its up-adjacency changed) plus the down-neighbors of every
        // down-changed switch (their up-neighbors' inputs changed). Roots
        // have no up-neighbors and stay empty.
        let mut dirty_ud: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); levels];
        dirty_ud[clos.level_of(lower)].insert(lower);
        for &s in &changed {
            for &d in self.down(s as usize) {
                dirty_ud[clos.level_of(d)].insert(d);
            }
        }
        for level in (0..levels.saturating_sub(1)).rev() {
            let ids: Vec<u32> = std::mem::take(&mut dirty_ud[level]).into_iter().collect();
            for s in ids {
                let acc = self.derive_updown(s);
                updown_recomputed += 1;
                if acc != self.updown_reach[s as usize] {
                    acc.for_each_diff(&self.updown_reach[s as usize], |d| delta_mark[d] = true);
                    self.updown_reach[s as usize] = acc;
                    changed.insert(s);
                    if level > 0 {
                        for &d in self.down(s as usize) {
                            dirty_ud[level - 1].insert(d);
                        }
                    }
                }
            }
        }

        // 4. Candidate rows consult a switch's own adjacency and its
        // neighbors' reach sets, so the dirty rows are the changed
        // switches, their current neighbors, and the two endpoints.
        let mut table_dirty: BTreeSet<u32> = changed.clone();
        table_dirty.insert(lower);
        table_dirty.insert(upper);
        for &s in &changed {
            for &u in self.up(s as usize) {
                table_dirty.insert(u);
            }
            for &d in self.down(s as usize) {
                table_dirty.insert(d);
            }
        }
        RepairScope {
            changed: changed.into_iter().collect(),
            table_dirty: table_dirty.into_iter().collect(),
            endpoints: [lower, upper],
            dst_delta: delta_mark
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m)
                .map(|(d, _)| vid(d))
                .collect(),
            down_recomputed,
            updown_recomputed,
        }
    }

    /// Number of leaf switches covered by the table.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Leaves reachable from `switch` using only down-links.
    #[inline]
    pub fn down_reach(&self, switch: u32) -> &ReachSet {
        &self.down_reach[switch as usize]
    }

    /// Leaves reachable from `switch` going up at least once, then down.
    #[inline]
    pub fn updown_reach(&self, switch: u32) -> &ReachSet {
        &self.updown_reach[switch as usize]
    }

    /// Whether leaves `a` and `b` share a common ancestor (i.e. an
    /// up/down path exists between them).
    pub fn leaves_connected(&self, a: u32, b: u32) -> bool {
        a == b || self.updown_reach[a as usize].contains(b as usize)
    }

    /// Whether *every* pair of leaves shares a common ancestor — the
    /// up/down-routing property whose probability Theorem 4.2
    /// characterizes.
    pub fn has_updown_property(&self) -> bool {
        if self.num_leaves <= 1 {
            return true;
        }
        (0..self.num_leaves).all(|leaf| {
            let reach = &self.updown_reach[leaf];
            // Needs all leaves except possibly itself.
            let ones = reach.count_ones();
            ones == self.num_leaves || (ones == self.num_leaves - 1 && !reach.contains(leaf))
        })
    }

    /// Fraction of leaf pairs with a common ancestor (diagnostic for
    /// near-threshold networks).
    pub fn connected_pair_fraction(&self) -> f64 {
        let n = self.num_leaves;
        if n < 2 {
            return 1.0;
        }
        let mut connected = 0usize;
        for a in 0..n {
            let reach = &self.updown_reach[a];
            let mut ones = reach.count_ones();
            if reach.contains(a) {
                ones -= 1;
            }
            connected += ones;
        }
        connected as f64 / (n * (n - 1)) as f64
    }

    /// Upward walk counts from `from`, one map per up-step `k = 0, 1, …`:
    /// every switch `k` up-links above `from` to the number of up-walks
    /// that reach it (step 0 is `{from: 1}`). Ends past the highest
    /// reachable level. `BTreeMap` keeps every accumulation and the
    /// callers' pairing loops in a fixed order regardless of hasher
    /// state — identical answers on every build of the same seed.
    fn climb(&self, from: u32) -> impl Iterator<Item = BTreeMap<u32, u64>> + '_ {
        std::iter::successors(Some(BTreeMap::from([(from, 1u64)])), move |counts| {
            let mut next: BTreeMap<u32, u64> = BTreeMap::new();
            for (&s, &c) in counts {
                for &u in self.up(s as usize) {
                    *next.entry(u).or_insert(0) += c;
                }
            }
            (!next.is_empty()).then_some(next)
        })
    }

    /// The lowest up-step of [`UpDownRouting::climb`] from `from` that
    /// holds a switch whose `down_reach` contains `dst` — where a minimal
    /// up/down path turns. `Some(0)` when `from` itself reaches `dst`
    /// downward, `None` when no up/down path exists.
    fn turn_height(&self, from: u32, dst: u32) -> Option<usize> {
        self.climb(from).position(|level| {
            level
                .keys()
                .any(|&s| self.down_reach[s as usize].contains(dst as usize))
        })
    }

    /// Exact minimal ECMP candidates: next hops lying on a *shortest*
    /// up/down path from `current` to leaf `dst`.
    ///
    /// [`UpDownRouting::next_hops_into`] is a fast greedy that may
    /// overshoot the optimal turn level by preferring any feasible
    /// up-neighbor (one-step lookahead — the behavior of a practical
    /// "up/down random" router). This method instead keeps, in the up
    /// phase, the up-neighbors whose own turn height is one step lower
    /// than `current`'s (sorted, deduplicated), so it is exact but
    /// climbs once per up-neighbor; it backs
    /// [`UpDownRouting::sample_path`] and path-length analyses. The down
    /// phase lists the covering down-neighbors in adjacency order.
    pub fn minimal_next_hops(&self, current: u32, dst: u32) -> Vec<u32> {
        let s = current as usize;
        let d = dst as usize;
        let mut out = Vec::new();
        if current == dst {
            return out;
        }
        if self.down_reach[s].contains(d) {
            for &c in self.down(s) {
                if self.down_reach[c as usize].contains(d) {
                    out.push(c);
                }
            }
            return out;
        }
        let Some(height) = self.turn_height(current, dst) else {
            return out;
        };
        out.extend(
            self.up(s)
                .iter()
                .copied()
                .filter(|&u| self.turn_height(u, dst) == Some(height - 1)),
        );
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of distinct *minimal* up/down paths between two leaves:
    /// the equal-cost multi-path diversity. `None` when no up/down path
    /// exists; `Some(1)` for `a == b` by convention.
    ///
    /// CFTs give `(R/2)^(l-1)` between leaves of different top-level
    /// subtrees, the 2-level OFT exactly 1 — the path-diversity gap
    /// behind the resiliency results of Section 7.
    pub fn updown_path_count(&self, a: u32, b: u32) -> Option<u64> {
        // Pair the up-walks of both endpoints at the common ancestors of
        // the turn height.
        let height = self.turn_height(a, b)?;
        let (from_a, from_b) = self.climb(a).zip(self.climb(b)).nth(height)?;
        Some(
            from_a
                .iter()
                .filter_map(|(s, ca)| from_b.get(s).map(|cb| ca * cb))
                .sum(),
        )
    }

    /// Samples one **minimal** up/down path from `src` leaf to `dst`
    /// leaf, choosing uniformly among exact ECMP candidates at every
    /// hop. Returns the switch sequence including both endpoints, or
    /// `None` when no up/down path exists.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a leaf id.
    pub fn sample_path<R: Rng + ?Sized>(
        &self,
        src: u32,
        dst: u32,
        rng: &mut R,
    ) -> Option<Vec<u32>> {
        assert!((src as usize) < self.num_leaves && (dst as usize) < self.num_leaves);
        if src == dst {
            return Some(vec![src]);
        }
        if !self.leaves_connected(src, dst) {
            return None;
        }
        let mut path = vec![src];
        let mut current = src;
        let mut buf = Vec::new();
        // An up/down path cannot exceed 2 * levels hops; guard generously.
        for _ in 0..4 * self.down_reach.len().max(8) {
            if current == dst {
                return Some(path);
            }
            buf.clear();
            buf.extend(self.minimal_next_hops(current, dst));
            if buf.is_empty() {
                return None;
            }
            let next = buf[rng.gen_range(0..buf.len())];
            path.push(next);
            current = next;
        }
        None
    }

    /// Length (in hops) of the minimal up/down path between two leaves:
    /// `2 h` where `h` is the lowest ancestor height at which they meet.
    /// Returns `None` if no common ancestor exists, `Some(0)` when
    /// `a == b`.
    pub fn updown_distance(&self, a: u32, b: u32) -> Option<u32> {
        self.turn_height(a, b).map(|h| vid(2 * h))
    }

    // xtask: hot-loop-begin — live candidate rows and the churn patch
    // query every row through this
    /// Appends every candidate next-hop switch for a packet at switch
    /// `current` destined to leaf `dst`; appends nothing when
    /// `current == dst` or no up/down route exists. Following any
    /// candidate reaches `dst`, and every route goes up then down, so
    /// the flow-controlled simulator is deadlock-free.
    ///
    /// A fast greedy: in the up phase it prefers up-neighbors that can
    /// turn around immediately, and otherwise takes any up-neighbor that
    /// still reaches `dst` (one-step lookahead — the behavior of a
    /// practical "up/down random" router). See
    /// [`UpDownRouting::minimal_next_hops`] for the exact minimal set.
    pub fn next_hops_into(&self, current: u32, dst: u32, out: &mut Vec<u32>) {
        let s = current as usize;
        let d = dst as usize;
        if current == dst {
            return;
        }
        // Down phase: any down-neighbor that still covers the target.
        if self.down_reach[s].contains(d) {
            for &c in self.down(s) {
                if self.down_reach[c as usize].contains(d) {
                    out.push(c);
                }
            }
            return;
        }
        // Up phase: prefer up-neighbors that can turn around immediately.
        let mark = out.len();
        for &u in self.up(s) {
            if self.down_reach[u as usize].contains(d) {
                out.push(u);
            }
        }
        if out.len() > mark {
            return;
        }
        for &u in self.up(s) {
            if self.updown_reach[u as usize].contains(d) {
                out.push(u);
            }
        }
    }
    // xtask: hot-loop-end

    /// [`UpDownRouting::next_hops_into`] into a fresh vector.
    pub fn next_hops(&self, current: u32, dst: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.next_hops_into(current, dst, &mut out);
        out
    }

    // xtask: hot-loop-begin — the simulator's churn patch derives
    // columns through this on every event, so it allocates nothing
    /// The destinations, ascending, where the candidate row of
    /// `current` may change: overwrites `starts` with `0` followed by
    /// every later destination below `dst_space` whose
    /// [`UpDownRouting::next_hops_into`] answer may differ from its
    /// predecessor's. The starts split `0..dst_space` into runs on which
    /// the row is constant, so querying each start once enumerates every
    /// row; adjacent runs *may* carry equal rows, and consumers needing
    /// maximal runs must merge. Empty when `dst_space` is 0. This is how
    /// the simulator's candidate table enumerates rows without querying
    /// every `(switch, dst)` pair, reusing `starts` across switches.
    ///
    /// Runs in time proportional to the *runs* of the neighbors' reach
    /// sets rather than to `dst_space`, and at most to `dst_space`: once
    /// the boundaries outnumber the destinations, `starts` is every
    /// destination.
    ///
    /// The candidate row of `current` changes only where membership of
    /// `d` in one of the consulted sets changes: `down_reach(current)`,
    /// `down_reach(c)` for each down-neighbor, `down_reach(u)` /
    /// `updown_reach(u)` for each up-neighbor, plus the `d == current`
    /// singleton. Collecting every run boundary of those sets splits
    /// `0..dst_space` into segments on which the row is constant. On a
    /// CFT this is a few dozen segments per switch against tens of
    /// thousands of destinations.
    pub fn dst_run_starts(&self, current: u32, dst_space: u32, starts: &mut Vec<u32>) {
        starts.clear();
        if dst_space == 0 {
            return;
        }
        starts.push(0);
        let s = current as usize;
        let sets = std::iter::once(&self.down_reach[s])
            .chain(self.down(s).iter().map(|&c| &self.down_reach[c as usize]))
            .chain(
                self.up(s)
                    .iter()
                    .flat_map(|&u| [&self.down_reach[u as usize], &self.updown_reach[u as usize]]),
            );
        for set in sets {
            set.for_each_range(|a, b| {
                if a > 0 && a < dst_space {
                    starts.push(a);
                }
                if b < dst_space {
                    starts.push(b);
                }
            });
            if starts.len() > dst_space as usize {
                // More boundaries than destinations: every destination
                // starts a run, and sorting the boundaries would cost
                // more than the queries they save.
                starts.clear();
                starts.extend(0..dst_space);
                return;
            }
        }
        if current < dst_space {
            starts.push(current);
            if current + 1 < dst_space {
                starts.push(current + 1);
            }
        }
        starts.sort_unstable();
        starts.dedup();
    }
    // xtask: hot-loop-end
}

impl HeapBytes for UpDownRouting {
    /// Logical bytes of the CSR adjacency plus both reach-set columns
    /// (headers and per-set heap storage; see DESIGN.md §15).
    fn heap_bytes(&self) -> usize {
        let reach: usize = self
            .down_reach
            .iter()
            .chain(&self.updown_reach)
            .map(HeapBytes::heap_bytes)
            .sum();
        rfc_graph::slice_heap_bytes(&self.up_off)
            + rfc_graph::slice_heap_bytes(&self.up_adj)
            + rfc_graph::slice_heap_bytes(&self.down_off)
            + rfc_graph::slice_heap_bytes(&self.down_adj)
            + rfc_graph::slice_heap_bytes(&self.down_reach)
            + rfc_graph::slice_heap_bytes(&self.updown_reach)
            + reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cft_has_the_updown_property() {
        let net = FoldedClos::cft(4, 3).unwrap();
        let r = UpDownRouting::new(&net);
        assert!(r.has_updown_property());
        assert_eq!(r.connected_pair_fraction(), 1.0);
        assert_eq!(r.num_leaves(), 8);
    }

    #[test]
    fn oft_has_the_updown_property() {
        let net = FoldedClos::oft(3, 2).unwrap();
        let r = UpDownRouting::new(&net);
        assert!(r.has_updown_property());
    }

    #[test]
    fn down_reach_of_cft_root_covers_everything() {
        let net = FoldedClos::cft(4, 3).unwrap();
        let r = UpDownRouting::new(&net);
        let root = net.switch_id(2, 0);
        assert_eq!(r.down_reach(root).count_ones(), net.num_leaves());
        // Leaves reach only themselves downward.
        assert_eq!(r.down_reach(0).count_ones(), 1);
        assert!(r.down_reach(0).contains(0));
    }

    #[test]
    fn cft_distances_match_subtree_structure() {
        // CFT(4, 3): leaves (t, w) with t in [4], w in [2]; leaves in the
        // same subtree t meet at height 1 (distance 2), others at the
        // roots (distance 4).
        let net = FoldedClos::cft(4, 3).unwrap();
        let r = UpDownRouting::new(&net);
        assert_eq!(r.updown_distance(0, 0), Some(0));
        assert_eq!(r.updown_distance(0, 1), Some(2), "same subtree");
        assert_eq!(r.updown_distance(0, 2), Some(4), "different subtree");
        assert_eq!(r.updown_distance(0, 7), Some(4));
    }

    #[test]
    fn sampled_paths_are_valid_updown_walks() {
        let net = FoldedClos::cft(6, 3).unwrap();
        let r = UpDownRouting::new(&net);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let a = vid(rng.gen_range(0..net.num_leaves()));
            let b = vid(rng.gen_range(0..net.num_leaves()));
            let path = r
                .sample_path(a, b, &mut rng)
                .expect("CFT is fully connected");
            assert_eq!(path[0], a);
            assert_eq!(*path.last().unwrap(), b);
            // Up/down shape: levels rise monotonically then fall.
            let levels: Vec<usize> = path.iter().map(|&s| net.level_of(s)).collect();
            let peak = levels
                .iter()
                .position(|&l| l == *levels.iter().max().unwrap())
                .unwrap();
            for w in levels[..=peak].windows(2) {
                assert_eq!(w[1], w[0] + 1, "ascent must climb one level per hop");
            }
            for w in levels[peak..].windows(2) {
                assert_eq!(w[1] + 1, w[0], "descent must drop one level per hop");
            }
            // Minimality against the oracle distance.
            assert_eq!(vid(path.len()) - 1, r.updown_distance(a, b).unwrap());
        }
    }

    #[test]
    fn rfc_at_generous_radix_has_updown_property() {
        // 3-level RFC with radix far above the Theorem 4.2 threshold:
        // N1 ln N1 = 32 ln 32 ~ 111 << (R/2)^4 = 1296.
        let mut rng = StdRng::seed_from_u64(2);
        let net = FoldedClos::random(12, 32, 3, &mut rng).unwrap();
        let r = UpDownRouting::new(&net);
        assert!(r.has_updown_property());
        // All leaf pairs should be routable with minimal paths <= 4.
        for a in 0..4u32 {
            for b in 0..32u32 {
                if a == b {
                    continue;
                }
                let d = r.updown_distance(a, b).unwrap();
                assert!(d == 2 || d == 4, "distance {d} out of range");
            }
        }
    }

    #[test]
    fn rfc_below_threshold_loses_the_property() {
        // 2-level RFC with tiny radix: leaves have 2 up-links into 32
        // roots... wait, roots = N1/2 = 32; each leaf sees 2 of 32 roots,
        // so two leaves almost surely miss each other.
        let mut rng = StdRng::seed_from_u64(3);
        let net = FoldedClos::random(4, 64, 2, &mut rng).unwrap();
        let r = UpDownRouting::new(&net);
        assert!(!r.has_updown_property());
        assert!(r.connected_pair_fraction() < 0.5);
    }

    #[test]
    fn next_hops_empty_at_destination_or_when_unreachable() {
        let net = FoldedClos::cft(4, 2).unwrap();
        let r = UpDownRouting::new(&net);
        assert!(r.next_hops(0, 0).is_empty());
        let faulty = net.with_links_removed(
            &net.links()
                .iter()
                .filter(|l| l.lower == 0)
                .copied()
                .collect::<Vec<_>>(),
        );
        let fr = UpDownRouting::new(&faulty);
        assert!(fr.next_hops(0, 1).is_empty(), "leaf 0 is cut off");
        assert!(!fr.has_updown_property());
        assert_eq!(fr.updown_distance(0, 1), None);
        assert!(fr
            .sample_path(0, 1, &mut StdRng::seed_from_u64(0))
            .is_none());
    }

    #[test]
    fn ecmp_counts_on_cft_match_theory() {
        // CFT(R, 3): between leaves of different subtrees there are
        // (R/2)^2 up/down paths; the first hop offers R/2 candidates.
        let net = FoldedClos::cft(8, 3).unwrap();
        let r = UpDownRouting::new(&net);
        let hops = r.next_hops(0, vid(net.num_leaves() - 1));
        assert_eq!(hops.len(), 4);
        // All candidates are level-1 switches.
        for h in hops {
            assert_eq!(net.level_of(h), 1);
        }
    }

    #[test]
    fn faults_shrink_ecmp_but_keep_correctness() {
        let net = FoldedClos::cft(6, 3).unwrap();
        let all = net.links();
        // Remove a third of the links between levels 1 and 2.
        let victims: Vec<_> = all
            .iter()
            .filter(|l| net.level_of(l.lower) == 1)
            .step_by(3)
            .copied()
            .collect();
        let faulty = net.with_links_removed(&victims);
        let r = UpDownRouting::new(&faulty);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let a = vid(rng.gen_range(0..net.num_leaves()));
            let b = vid(rng.gen_range(0..net.num_leaves()));
            if let Some(path) = r.sample_path(a, b, &mut rng) {
                assert_eq!(*path.last().unwrap(), b);
            }
        }
    }

    #[test]
    fn path_counts_match_theory_on_cft_and_oft() {
        // CFT(R, 3): (R/2)^2 minimal paths across subtrees, R/2 within.
        let cft = FoldedClos::cft(8, 3).unwrap();
        let r = UpDownRouting::new(&cft);
        assert_eq!(r.updown_path_count(0, 1), Some(4), "same subtree: R/2");
        assert_eq!(
            r.updown_path_count(0, 8),
            Some(16),
            "cross subtree: (R/2)^2"
        );
        assert_eq!(r.updown_path_count(0, 0), Some(1));
        // 2-level OFT: unique minimal routes between distinct points.
        let oft = FoldedClos::oft(3, 2).unwrap();
        let ro = UpDownRouting::new(&oft);
        assert_eq!(ro.updown_path_count(0, 1), Some(1));
        assert_eq!(
            ro.updown_path_count(0, 14),
            Some(1),
            "across halves, distinct points"
        );
    }

    #[test]
    fn three_level_oft_keeps_near_unique_paths() {
        // Generic leaf pairs (both plane coordinates distinct) of the
        // 3-level OFT have exactly one minimal route; degenerate pairs
        // (a shared coordinate) get q+1.
        let oft = FoldedClos::oft(2, 3).unwrap();
        let r = UpDownRouting::new(&oft);
        // Leaves (h, x0, x1) indexed h*49 + x0 + 7*x1.
        let leaf = |h: u32, x0: u32, x1: u32| h * 49 + x0 + 7 * x1;
        assert_eq!(r.updown_path_count(leaf(0, 0, 0), leaf(0, 1, 1)), Some(1));
        assert_eq!(r.updown_path_count(leaf(0, 0, 0), leaf(1, 2, 4)), Some(1));
        assert_eq!(
            r.updown_path_count(leaf(0, 0, 0), leaf(0, 1, 0)),
            Some(1),
            "shared x1: the unique line through two points still pins the route"
        );
        assert_eq!(
            r.updown_path_count(leaf(0, 0, 0), leaf(1, 0, 0)),
            Some(9),
            "mirror leaves share all (q+1)^2 root ancestors"
        );
    }

    #[test]
    fn path_count_none_when_disconnected() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = FoldedClos::random(4, 64, 2, &mut rng).unwrap();
        let r = UpDownRouting::new(&net);
        // Far below threshold: some pair must be disconnected.
        let mut found_none = false;
        'outer: for a in 0..64u32 {
            for b in 0..64u32 {
                if a != b && r.updown_path_count(a, b).is_none() {
                    found_none = true;
                    break 'outer;
                }
            }
        }
        assert!(found_none);
    }

    #[test]
    fn minimal_next_hops_agree_with_updown_distance() {
        // On random 4-level networks the greedy oracle may overshoot;
        // the exact method must always follow the distance metric.
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let net = FoldedClos::random(4, 12, 4, &mut rng).unwrap();
            let r = UpDownRouting::new(&net);
            for a in 0..vid(net.num_leaves()) {
                for b in 0..vid(net.num_leaves()) {
                    let Some(d) = r.updown_distance(a, b) else {
                        continue;
                    };
                    if d == 0 {
                        continue;
                    }
                    // Following exact hops step by step must realize d.
                    let mut cur = a;
                    let mut left = d;
                    while cur != b {
                        let hops = r.minimal_next_hops(cur, b);
                        assert!(!hops.is_empty(), "stuck at {cur} -> {b}");
                        cur = hops[0];
                        left -= 1;
                    }
                    assert_eq!(left, 0, "path length mismatch for {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn greedy_oracle_is_a_superset_route_but_may_overshoot() {
        // The greedy candidates always keep the destination reachable,
        // even when not minimal.
        let mut rng = StdRng::seed_from_u64(78);
        let net = FoldedClos::random(6, 18, 3, &mut rng).unwrap();
        let r = UpDownRouting::new(&net);
        for a in 0..vid(net.num_leaves()) {
            for b in 0..vid(net.num_leaves()) {
                if a == b || !r.leaves_connected(a, b) {
                    continue;
                }
                for h in r.next_hops(a, b) {
                    assert!(
                        r.down_reach(h).contains(b as usize)
                            || r.updown_reach(h).contains(b as usize),
                        "greedy hop {h} loses {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_reachability_build_matches_serial() {
        // The per-level fan-out must leave the tables byte-identical to
        // a single-threaded build, on regular and random networks.
        let mut rng = StdRng::seed_from_u64(13);
        let nets = [
            FoldedClos::cft(6, 3).unwrap(),
            FoldedClos::random(8, 24, 3, &mut rng).unwrap(),
        ];
        for net in &nets {
            rfc_parallel::set_threads(Some(1));
            let serial = UpDownRouting::new(net);
            rfc_parallel::set_threads(Some(8));
            let parallel = UpDownRouting::new(net);
            rfc_parallel::set_threads(None);
            for s in 0..vid(net.num_switches()) {
                assert_eq!(serial.down_reach(s), parallel.down_reach(s), "switch {s}");
                assert_eq!(
                    serial.updown_reach(s),
                    parallel.updown_reach(s),
                    "switch {s}"
                );
            }
        }
    }

    #[test]
    fn cft_reach_sets_stay_interval_coded() {
        // Descendant sets of a regular folded Clos are contiguous leaf
        // ranges, so none of them should pay for a dense bitset, and —
        // once the leaf count dwarfs a single bitset word — the interval
        // encoding must undercut the dense word arrays it replaced.
        let net = FoldedClos::cft(16, 4).unwrap();
        let r = UpDownRouting::new(&net);
        let mut set_bytes = 0usize;
        for s in 0..vid(net.num_switches()) {
            assert!(!r.down_reach(s).is_dense(), "switch {s}");
            assert!(!r.updown_reach(s).is_dense(), "switch {s}");
            set_bytes += r.down_reach(s).heap_bytes() + r.updown_reach(s).heap_bytes();
        }
        let dense_words = 2 * net.num_switches() * net.num_leaves().div_ceil(64) * 8;
        assert!(
            set_bytes < dense_words / 4,
            "{set_bytes} bytes of runs should undercut {dense_words} bytes of words"
        );
        assert!(r.heap_bytes() > set_bytes, "adjacency must be accounted");
    }

    #[test]
    fn dst_run_enumeration_matches_per_dst_queries() {
        // The boundary-walk override must produce exactly the rows the
        // greedy oracle yields destination by destination — on a regular
        // CFT (contiguous runs), a fragmented random folded Clos, and
        // with a dst_space smaller than the leaf count.
        let mut rng = StdRng::seed_from_u64(21);
        let nets = [
            FoldedClos::cft(6, 3).unwrap(),
            FoldedClos::random(8, 24, 3, &mut rng).unwrap(),
        ];
        for net in &nets {
            let r = UpDownRouting::new(net);
            for dst_space in [vid(net.num_leaves()), vid(net.num_leaves()) / 2] {
                let mut starts: Vec<u32> = Vec::new();
                for s in 0..vid(net.num_switches()) {
                    r.dst_run_starts(s, dst_space, &mut starts);
                    assert!(starts.windows(2).all(|w| w[0] < w[1]), "ascending");
                    let bodies: Vec<Vec<u32>> = starts.iter().map(|&d| r.next_hops(s, d)).collect();
                    assert_eq!(starts.first(), Some(&0), "runs must cover from 0");
                    // Expand the runs back to one row per destination.
                    let mut rows: Vec<Vec<u32>> = Vec::new();
                    for (i, &start) in starts.iter().enumerate() {
                        let end = starts.get(i + 1).copied().unwrap_or(dst_space);
                        for _ in start..end {
                            rows.push(bodies[i].clone());
                        }
                    }
                    assert_eq!(rows.len(), dst_space as usize);
                    for d in 0..dst_space {
                        assert_eq!(rows[d as usize], r.next_hops(s, d), "switch {s} dst {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn apply_event_matches_from_scratch_build() {
        use rfc_topology::LiveClos;
        let mut rng = StdRng::seed_from_u64(41);
        let net = FoldedClos::random(6, 16, 3, &mut rng).unwrap();
        let mut live = LiveClos::new(&net);
        let mut r = UpDownRouting::new(&net);
        let links = net.links();
        let mut applied = 0;
        for i in 0..24 {
            let l = links[(i * 7) % links.len()];
            let ev = if i % 3 == 2 {
                LinkEvent::recover(l)
            } else {
                LinkEvent::fail(l)
            };
            if !live.apply(&ev) {
                continue;
            }
            applied += 1;
            let scope = r.apply_event(live.current(), &ev);
            let fresh = UpDownRouting::new(live.current());
            assert_eq!(r, fresh, "after event {i} ({ev:?})");
            assert!(
                scope.down_recomputed + scope.updown_recomputed <= net.num_switches(),
                "repair must not exceed a full rebuild"
            );
            for pair in scope.changed.windows(2) {
                assert!(pair[0] < pair[1], "changed must be sorted");
            }
            for &s in &scope.changed {
                assert!(
                    scope.table_dirty.contains(&s),
                    "table_dirty must cover changed"
                );
            }
        }
        assert!(applied > 10, "exercise both event kinds");
    }

    #[test]
    fn apply_then_revert_restores_byte_identical_state() {
        use rfc_topology::LiveClos;
        let net = FoldedClos::cft(6, 3).unwrap();
        let before = UpDownRouting::new(&net);
        let mut live = LiveClos::new(&net);
        let mut r = before.clone();
        for l in [net.links()[3], net.links()[17]] {
            let ev = LinkEvent::fail(l);
            assert!(live.apply(&ev));
            r.apply_event(live.current(), &ev);
            assert_ne!(r, before, "failing a CFT link must change reach state");
            assert!(live.apply(&ev.inverse()));
            r.apply_event(live.current(), &ev.inverse());
            assert_eq!(r, before);
        }
    }

    #[test]
    fn repair_scope_is_local_on_a_cft() {
        use rfc_topology::LiveClos;
        // On a large CFT a single stage-0 link failure dirties the
        // ancestor cone around it, not the whole network.
        let net = FoldedClos::cft(16, 4).unwrap();
        let mut live = LiveClos::new(&net);
        let mut r = UpDownRouting::new(&net);
        let ev = LinkEvent::fail(net.links()[0]);
        assert!(live.apply(&ev));
        let scope = r.apply_event(live.current(), &ev);
        assert!(
            scope.down_recomputed + scope.updown_recomputed < net.num_switches() / 2,
            "repair visited {} + {} of {} switches",
            scope.down_recomputed,
            scope.updown_recomputed,
            net.num_switches()
        );
        assert_eq!(r, UpDownRouting::new(live.current()));
    }

    #[test]
    fn debug_shows_table_shape() {
        let net = FoldedClos::cft(4, 2).unwrap();
        let r = UpDownRouting::new(&net);
        assert!(format!("{r:?}").contains("leaves"));
    }
}
