//! The candidate source of the request stage: for every `(switch,
//! destination)` pair, the out-ports a head packet may request.
//!
//! Routing oracles are deterministic per pair, and the request stage
//! asks for every head packet every cycle — so whenever it fits the byte
//! budget the answers are materialized once, fully *resolved to output
//! ports*, into a deduplicated run-length table ([`RleTable`]). Networks
//! whose table would not fit (the paper's 100K- and 200K-terminal RFCs)
//! query the oracle live instead. [`Candidates::row`] hides which source
//! is in use: both return the same out-ports in the same order, so
//! results are byte-identical either way (DESIGN.md §15).

use rfc_graph::vid;
use rfc_routing::RoutingOracle;

use crate::network::SimNetwork;

/// Above this many *bytes* of table arrays the build (or a churn patch)
/// aborts and the simulation queries the oracle live. The deduplicated
/// encoding keeps even the paper's Table 3 scale (cft(36,4), 209,952
/// terminals) around a dozen MB, so this is headroom, not a target.
const TABLE_BUDGET: usize = 64 << 20;

/// Where candidate rows come from.
#[derive(Debug, Clone)]
pub(crate) enum Candidates {
    /// Materialized, deduplicated, run-length-compressed table.
    Table(RleTable),
    /// Table would exceed the byte budget (or its offsets would overflow
    /// `u32`); query the oracle live.
    Live,
}

/// Scratch for one live row: the oracle's next hops and their resolved
/// out-ports. One per shard, reused every query.
#[derive(Debug, Default)]
pub(crate) struct RowBufs {
    hops: Vec<u32>,
    ports: Vec<u32>,
}

impl RowBufs {
    /// Asks `oracle` for `(switch, dst)` and resolves the answer to
    /// out-ports, in oracle order.
    fn live_row<O: RoutingOracle + ?Sized>(
        &mut self,
        net: &SimNetwork,
        oracle: &O,
        switch: u32,
        dst: u32,
    ) -> &[u32] {
        self.hops.clear();
        oracle.next_hops_into(switch, dst, &mut self.hops);
        resolve_out_ports(net, switch, &self.hops, &mut self.ports);
        &self.ports
    }
}

impl Candidates {
    /// Materializes the table under [`TABLE_BUDGET`], or falls back to
    /// live queries when it does not fit.
    pub(crate) fn build<O: RoutingOracle + Sync + ?Sized>(net: &SimNetwork, oracle: &O) -> Self {
        Self::build_within(net, oracle, TABLE_BUDGET)
    }

    /// [`Candidates::build`] under an explicit byte budget; tests pass a
    /// small one to force the mid-construction abort to live queries.
    pub(crate) fn build_within<O: RoutingOracle + Sync + ?Sized>(
        net: &SimNetwork,
        oracle: &O,
        budget: usize,
    ) -> Self {
        build_table(net, oracle, budget).map_or(Candidates::Live, Candidates::Table)
    }

    /// The resolved out-ports for `(switch, dst)`, in oracle order;
    /// empty when unroutable. A table row is a slice of the table; a
    /// live row is computed into `bufs`.
    ///
    /// # Panics
    ///
    /// Panics if the oracle returns a non-neighbor of `switch` (see
    /// [`resolve_out_ports`]).
    #[inline]
    pub(crate) fn row<'s, O: RoutingOracle + ?Sized>(
        &'s self,
        net: &SimNetwork,
        oracle: &O,
        switch: u32,
        dst: u32,
        bufs: &'s mut RowBufs,
    ) -> &'s [u32] {
        match self {
            Candidates::Table(table) => table.row(switch, dst),
            Candidates::Live => bufs.live_row(net, oracle, switch, dst),
        }
    }

    /// The candidates after a routing repair: a table is patched over
    /// `scope` against the repaired `oracle` (falling back to live when
    /// the result exceeds the budget), and a live source stays live.
    ///
    /// `index` must be the content → id map of the current table's row
    /// pool (built by [`row_index`], then carried between patches); a
    /// successful patch renumbers it in place to describe the new table.
    pub(crate) fn patched<O: RoutingOracle + ?Sized>(
        &self,
        net: &SimNetwork,
        oracle: &O,
        scope: &PatchScope<'_>,
        index: &mut RowInterner,
    ) -> Candidates {
        match self {
            Candidates::Table(old) => patch_table(net, oracle, old, scope, index)
                .map_or(Candidates::Live, Candidates::Table),
            Candidates::Live => Candidates::Live,
        }
    }

    /// The materialized table, or `None` on live queries.
    pub(crate) fn table(&self) -> Option<&RleTable> {
        match self {
            Candidates::Table(table) => Some(table),
            Candidates::Live => None,
        }
    }
}

impl rfc_graph::HeapBytes for Candidates {
    fn heap_bytes(&self) -> usize {
        self.table().map_or(0, RleTable::bytes)
    }
}

/// The deduplicated candidate table (DESIGN.md §15).
///
/// Three compressions stack on the old `switches × dst_space` matrix:
///
/// 1. **Rows resolve once** — a row is the out-port list one `(switch,
///    dst)` query yields, in oracle order (the cached-vs-live agreement
///    contract depends on that order).
/// 2. **Rows intern** — identical rows share one entry in the
///    `row_off`/`row_ports` pool. Same-level switches answer most
///    destinations identically (e.g. "all up-ports"), so a switch
///    contributes only a handful of distinct rows.
/// 3. **Columns run-length-compress** — per switch, destinations with
///    the same row collapse into `[start, next_start)` runs, which
///    folded-Clos reach sets keep to a few dozen per switch regardless
///    of the destination count.
///
/// Lookup is a binary search over the switch's runs (few dozen entries,
/// ~5 probes) instead of one flat index — measurably free next to the
/// draw + arbitration work per request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RleTable {
    pub(crate) dst_space: usize,
    /// Runs of switch `s` live at `col_off[s] .. col_off[s+1]` in the
    /// two parallel run arrays.
    pub(crate) col_off: Vec<u32>,
    /// Ascending first-destination of each run; the first run of every
    /// switch starts at 0, the last extends to `dst_space`.
    pub(crate) runs_start: Vec<u32>,
    /// Interned row id of each run.
    pub(crate) runs_row: Vec<u32>,
    /// Row `r`'s resolved out-ports live at `row_off[r] .. row_off[r+1]`
    /// in `row_ports`.
    pub(crate) row_off: Vec<u32>,
    pub(crate) row_ports: Vec<u32>,
}

impl RleTable {
    /// The resolved out-ports for `(switch, dst)`; empty when unroutable.
    #[inline]
    fn row(&self, switch: u32, dst: u32) -> &[u32] {
        let lo = self.col_off[switch as usize] as usize;
        let hi = self.col_off[switch as usize + 1] as usize;
        let runs = &self.runs_start[lo..hi];
        // Last run starting at or before dst; every switch's first run
        // starts at 0, so the subtraction cannot underflow.
        let k = lo + runs.partition_point(|&s| s <= dst) - 1;
        let r = self.runs_row[k] as usize;
        &self.row_ports[self.row_off[r] as usize..self.row_off[r + 1] as usize]
    }

    /// Logical bytes of the five arrays — the quantity checked against
    /// the build budget and reported to the memory ratchet.
    pub(crate) fn bytes(&self) -> usize {
        rfc_graph::slice_heap_bytes(&self.col_off)
            + rfc_graph::slice_heap_bytes(&self.runs_start)
            + rfc_graph::slice_heap_bytes(&self.runs_row)
            + rfc_graph::slice_heap_bytes(&self.row_off)
            + rfc_graph::slice_heap_bytes(&self.row_ports)
    }
}

/// A fresh, zero-switch [`RleTable`] ready for stitching.
fn empty_table(dst_space: usize) -> RleTable {
    RleTable {
        dst_space,
        col_off: vec![0u32],
        runs_start: Vec::new(),
        runs_row: Vec::new(),
        row_off: vec![0u32],
        row_ports: Vec::new(),
    }
}

/// Row contents → global row id, in first-appearance order. BTreeMap
/// keeps the layout independent of any hasher state.
pub(crate) type RowInterner = std::collections::BTreeMap<Vec<u32>, u32>;

/// The content → id index of `table`'s row pool, exactly as
/// [`patch_table`] consumes and maintains it. Built once per churn
/// run's dynamic state (see [`crate::churn`]); each patch then
/// renumbers it in place instead of re-deriving it, which is what keeps
/// a single-event patch an order of magnitude under a full build.
pub(crate) fn row_index(table: &RleTable) -> RowInterner {
    let mut index = RowInterner::new();
    for r in 0..table.row_off.len() - 1 {
        let ports = &table.row_ports[table.row_off[r] as usize..table.row_off[r + 1] as usize];
        index.insert(ports.to_vec(), vid(r));
    }
    index
}

/// Dirty-region description for [`patch_table`], distilled
/// from a routing repair (`rfc_routing::RepairScope`).
pub(crate) struct PatchScope<'a> {
    /// Switches whose columns must be re-derived (sorted, deduplicated).
    pub dirty: &'a [u32],
    /// The switches whose *adjacency* changed — their columns are
    /// recomputed from the oracle in full. Every other dirty switch keeps
    /// its neighbor lists and can differ only at `dst_delta`
    /// destinations, so its column is spliced from the old table.
    pub full: &'a [u32],
    /// Sorted destinations at which a non-`full` dirty switch's row may
    /// differ from its pre-event value.
    pub dst_delta: &'a [u32],
}

/// One switch's runs with switch-locally interned rows.
struct SwitchRuns {
    starts: Vec<u32>,
    /// Index into the local row pool, per run.
    rows: Vec<u32>,
    local_off: Vec<u32>,
    local_ports: Vec<u32>,
    /// Per local row: the old-table row id this content was copied from,
    /// or `u32::MAX` when freshly derived from the oracle. Lets the
    /// patch stitcher renumber spliced rows through its id array instead
    /// of re-interning them by content.
    local_old: Vec<u32>,
}

impl SwitchRuns {
    fn empty() -> Self {
        SwitchRuns {
            starts: Vec::new(),
            rows: Vec::new(),
            local_off: vec![0u32],
            local_ports: Vec::new(),
            local_old: Vec::new(),
        }
    }

    /// Resets to empty, keeping allocations — the patch loop reuses one
    /// instance across every dirty switch.
    fn clear(&mut self) {
        self.starts.clear();
        self.rows.clear();
        self.local_off.clear();
        self.local_off.push(0);
        self.local_ports.clear();
        self.local_old.clear();
    }

    /// Appends one run, interning its row locally (linear scan —
    /// switches hold a handful of distinct rows) and merging runs whose
    /// rows turn out equal. `old_id` records the old-table identity of a
    /// copied row (`u32::MAX` = derived, identity unknown).
    fn push_run(&mut self, start: u32, resolved: &[u32], old_id: u32) {
        let local = (0..self.local_off.len() - 1).find(|&r| {
            self.local_ports[self.local_off[r] as usize..self.local_off[r + 1] as usize]
                == resolved[..]
        });
        let local = vid(local.unwrap_or_else(|| {
            self.local_ports.extend_from_slice(resolved);
            self.local_off.push(vid(self.local_ports.len()));
            self.local_old.push(old_id);
            self.local_off.len() - 2
        }));
        // Old-table interning was content-unique, so a re-encounter that
        // knows its old id can settle a previously derived row's identity.
        if old_id != u32::MAX && self.local_old[local as usize] == u32::MAX {
            self.local_old[local as usize] = old_id;
        }
        if self.rows.last() == Some(&local) {
            return;
        }
        self.starts.push(start);
        self.rows.push(local);
    }
}

/// Resolves one switch's oracle answers to out-port runs.
fn switch_runs<O: RoutingOracle + ?Sized>(
    net: &SimNetwork,
    oracle: &O,
    switch: u32,
    dst32: u32,
) -> SwitchRuns {
    let mut sr = SwitchRuns::empty();
    let mut resolved: Vec<u32> = Vec::new();
    switch_runs_into(net, oracle, switch, dst32, &mut sr, &mut resolved);
    sr
}

/// Resolves next-hop switch ids into `switch`'s out-port numbers,
/// overwriting `resolved`.
///
/// # Panics
///
/// Panics if a hop is not a neighbor of `switch` — the oracle and the
/// network disagree about adjacency, which no repair can make sound.
fn resolve_out_ports(net: &SimNetwork, switch: u32, hops: &[u32], resolved: &mut Vec<u32>) {
    resolved.clear();
    for &hop in hops {
        let out = net
            .out_port_to(switch, hop)
            .expect("oracle returned a non-neighbor");
        resolved.push(out);
    }
}

/// [`switch_runs`] writing into caller-owned buffers (cleared first).
fn switch_runs_into<O: RoutingOracle + ?Sized>(
    net: &SimNetwork,
    oracle: &O,
    switch: u32,
    dst32: u32,
    sr: &mut SwitchRuns,
    resolved: &mut Vec<u32>,
) {
    sr.clear();
    oracle.for_each_dst_run(switch, dst32, &mut |start, hops| {
        resolve_out_ports(net, switch, hops, resolved);
        sr.push_run(start, resolved, u32::MAX);
    });
}

/// Rebuilds one *dirty but adjacency-stable* switch's runs by splicing:
/// the old column is kept wholesale except at `delta` destinations,
/// where the row is re-resolved against the repaired oracle. Sound
/// because such a switch's row can change only where a consulted reach
/// set's membership changed (see `rfc_routing::RepairScope::dst_delta`);
/// [`SwitchRuns::push_run`] re-merges equal neighbors, so the result is
/// byte-identical to a full [`switch_runs`] re-derivation.
#[allow(clippy::too_many_arguments)]
fn splice_runs_into<O: RoutingOracle + ?Sized>(
    net: &SimNetwork,
    oracle: &O,
    old: &RleTable,
    switch: u32,
    delta: &[u32],
    dst32: u32,
    sr: &mut SwitchRuns,
    bufs: &mut RowBufs,
) {
    sr.clear();
    let lo = old.col_off[switch as usize] as usize;
    let hi = old.col_off[switch as usize + 1] as usize;
    let mut di = delta.partition_point(|&d| d < old.runs_start.get(lo).copied().unwrap_or(0));
    for k in lo..hi {
        let a = old.runs_start[k];
        let b = if k + 1 < hi {
            old.runs_start[k + 1]
        } else {
            dst32
        };
        let old_id = old.runs_row[k] as usize;
        let content =
            &old.row_ports[old.row_off[old_id] as usize..old.row_off[old_id + 1] as usize];
        let mut pos = a;
        while di < delta.len() && delta[di] < b {
            let d = delta[di];
            di += 1;
            if pos < d {
                sr.push_run(pos, content, old.runs_row[k]);
            }
            sr.push_run(d, bufs.live_row(net, oracle, switch, d), u32::MAX);
            pos = d + 1;
        }
        if pos < b {
            sr.push_run(pos, content, old.runs_row[k]);
        }
    }
}

/// Appends one row's ports to the shared pool, returning its id.
/// `None` on `u32` overflow (callers fall back to live queries).
fn append_row(table: &mut RleTable, ports: &[u32]) -> Option<u32> {
    let id = u32::try_from(table.row_off.len() - 1).ok()?;
    table.row_ports.extend_from_slice(ports);
    table
        .row_off
        .push(u32::try_from(table.row_ports.len()).ok()?);
    Some(id)
}

/// Maps one switch's locally interned runs into the shared pool,
/// appending its column to `table`. Returns `None` on `u32` overflow
/// (the caller falls back to live queries).
fn stitch_switch(table: &mut RleTable, interner: &mut RowInterner, sr: &SwitchRuns) -> Option<()> {
    let mut global_of_local: Vec<u32> = Vec::with_capacity(sr.local_off.len() - 1);
    for r in 0..sr.local_off.len() - 1 {
        let ports = &sr.local_ports[sr.local_off[r] as usize..sr.local_off[r + 1] as usize];
        let id = match interner.get(ports) {
            Some(&id) => id,
            None => {
                let id = append_row(table, ports)?;
                interner.insert(ports.to_vec(), id);
                id
            }
        };
        global_of_local.push(id);
    }
    for (start, local) in sr.starts.iter().zip(&sr.rows) {
        table.runs_start.push(*start);
        table.runs_row.push(global_of_local[*local as usize]);
    }
    table
        .col_off
        .push(u32::try_from(table.runs_start.len()).ok()?);
    Some(())
}

/// Builds the deduplicated candidate table, or `None` when the byte
/// budget is exceeded or an index would overflow `u32` — both fall
/// back to live oracle queries rather than wrapping silently.
///
/// Switches are processed in fixed-size chunks: each chunk fans out
/// over the shared worker pool (`rfc_parallel`) and is stitched
/// serially *in switch order*, so the arrays are byte-identical to a
/// serial build at any thread count, and the budget check between
/// switches bounds how far an over-budget build can overshoot before
/// bailing.
fn build_table<O: RoutingOracle + Sync + ?Sized>(
    net: &SimNetwork,
    oracle: &O,
    budget: usize,
) -> Option<RleTable> {
    /// Switches per parallel stitching round.
    const CHUNK: usize = 4096;
    let dst_space = net
        .dst_switch_of_terminal
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let dst32 = vid(dst_space);
    let mut table = empty_table(dst_space);
    // Global interner: row contents → id, in first-appearance order
    // (switch-major), so the pool layout is deterministic. BTreeMap
    // keeps it independent of any hasher state.
    let mut interner: RowInterner = RowInterner::new();
    let all: Vec<u32> = (0..vid(net.num_switches())).collect();
    for chunk in all.chunks(CHUNK) {
        let per_switch: Vec<SwitchRuns> = rfc_parallel::map(chunk.to_vec(), |switch| {
            switch_runs(net, oracle, switch, dst32)
        });
        for sr in per_switch {
            stitch_switch(&mut table, &mut interner, &sr)?;
            if table.bytes() > budget {
                return None;
            }
        }
    }
    Some(table)
}

/// Region-scoped table repair: rebuilds only the `dirty` switches'
/// runs against the (already repaired) `oracle`, reuses every clean
/// switch's runs from `old`, and re-canonicalizes the shared row
/// pool in the same first-appearance order a fresh
/// [`build_table`] would produce — so the result is
/// byte-identical to a from-scratch build over the new oracle.
///
/// `index` must be the content → id map of `old`'s row pool (built
/// by [`row_index`], then carried between patches); on success it is
/// renumbered in place to describe the returned table.
///
/// Returns `None` on budget/overflow exhaustion, the same live-query
/// fallback as the full build (`index` is left untouched — stale,
/// but the caller stops patching once it falls back to live).
fn patch_table<O: RoutingOracle + ?Sized>(
    net: &SimNetwork,
    oracle: &O,
    old: &RleTable,
    scope: &PatchScope<'_>,
    index: &mut RowInterner,
) -> Option<RleTable> {
    let dst32 = vid(old.dst_space);
    let old_rows = old.row_off.len() - 1;
    let old_ports = |r: usize| &old.row_ports[old.row_off[r] as usize..old.row_off[r + 1] as usize];
    // Old row id → id in the rebuilt pool, assigned lazily in the
    // new scan's first-appearance order (`u32::MAX` = unseen; real
    // ids stay far below it under any byte budget). Rows of clean
    // switches renumber through this array alone — one indexed load
    // per run — which is what makes a patch an order of magnitude
    // cheaper than re-interning every row by content.
    let mut old_to_new: Vec<u32> = vec![u32::MAX; old_rows];
    // Contents the old pool has never held (dirty switches only).
    let mut fresh: RowInterner = RowInterner::new();
    let mut table = empty_table(old.dst_space);
    // A single-event patch shifts sizes by at most a few rows; old's
    // footprint is the right capacity to within a reallocation.
    table.runs_start.reserve(old.runs_start.len() + 8);
    table.runs_row.reserve(old.runs_row.len() + 8);
    table.row_ports.reserve(old.row_ports.len() + 64);
    table.row_off.reserve(old.row_off.len() + 8);
    table.col_off.reserve(old.col_off.len());
    // `scope.dirty` arrives sorted and deduplicated (`RepairScope`
    // collects from a set), so one cursor tracks it in switch order.
    // All dirty-switch work reuses one set of scratch buffers.
    let mut scratch = SwitchRuns::empty();
    let mut bufs = RowBufs::default();
    let mut global_of_local: Vec<u32> = Vec::new();
    let mut next_dirty = 0usize;
    for switch in 0..net.num_switches() {
        let is_dirty = next_dirty < scope.dirty.len() && scope.dirty[next_dirty] as usize == switch;
        if is_dirty {
            next_dirty += 1;
            let sw32 = vid(switch);
            if scope.full.contains(&sw32) {
                switch_runs_into(net, oracle, sw32, dst32, &mut scratch, &mut bufs.ports);
            } else {
                splice_runs_into(
                    net,
                    oracle,
                    old,
                    sw32,
                    scope.dst_delta,
                    dst32,
                    &mut scratch,
                    &mut bufs,
                );
            }
            let sr = &scratch;
            global_of_local.clear();
            for r in 0..sr.local_off.len() - 1 {
                let ports = &sr.local_ports[sr.local_off[r] as usize..sr.local_off[r + 1] as usize];
                // A spliced row remembers which old row it came from
                // (`local_old`), skipping the content lookup; a
                // recomputed row usually reproduces a content the
                // old pool already holds, and `index` lets it rejoin
                // that identity instead of forking a duplicate.
                let known = sr.local_old[r];
                let id = if known != u32::MAX {
                    let slot = &mut old_to_new[known as usize];
                    if *slot == u32::MAX {
                        *slot = append_row(&mut table, ports)?;
                    }
                    *slot
                } else if let Some(&old_id) = index.get(ports) {
                    let slot = &mut old_to_new[old_id as usize];
                    if *slot == u32::MAX {
                        *slot = append_row(&mut table, ports)?;
                    }
                    *slot
                } else if let Some(&id) = fresh.get(ports) {
                    id
                } else {
                    let id = append_row(&mut table, ports)?;
                    fresh.insert(ports.to_vec(), id);
                    id
                };
                global_of_local.push(id);
            }
            for (start, local) in sr.starts.iter().zip(&sr.rows) {
                table.runs_start.push(*start);
                table.runs_row.push(global_of_local[*local as usize]);
            }
        } else {
            // Clean switch: runs are unchanged, rows keep their old
            // content identity and renumber at first encounter. Run
            // order *is* local first-appearance order (push_run
            // assigns local ids that way), so the ids land exactly
            // where a fresh `stitch_switch` would put them.
            let lo = old.col_off[switch] as usize;
            let hi = old.col_off[switch + 1] as usize;
            table.runs_start.extend_from_slice(&old.runs_start[lo..hi]);
            for k in lo..hi {
                let old_id = old.runs_row[k] as usize;
                let id = if old_to_new[old_id] == u32::MAX {
                    let id = append_row(&mut table, old_ports(old_id))?;
                    old_to_new[old_id] = id;
                    id
                } else {
                    old_to_new[old_id]
                };
                table.runs_row.push(id);
            }
        }
        table
            .col_off
            .push(u32::try_from(table.runs_start.len()).ok()?);
        if table.bytes() > TABLE_BUDGET {
            return None;
        }
    }
    // Renumber the persistent index to the rebuilt pool: dropped
    // rows (never re-encountered) leave, survivors take their new
    // id, and brand-new contents join. No content is re-keyed, so
    // this is O(rows) pointer work, not O(rows) allocations.
    index.retain(|_, id| {
        let new_id = old_to_new[*id as usize];
        *id = new_id;
        new_id != u32::MAX
    });
    // Insert the few new contents one by one — `BTreeMap::append`
    // would bulk-rebuild the whole tree on every patch.
    for (ports, id) in fresh {
        index.insert(ports, id);
    }
    Some(table)
}
