//! The candidate source of the request stage: for every `(switch,
//! destination)` pair, the out-ports a head packet may request.
//!
//! A row is a *link mask*: bit `b` stands for the switch's `b`-th link
//! port, out-port `SimNetwork::first_link_port[switch] + b`. A switch's
//! link ports follow its `down ++ up` neighbor order, and the routing
//! lists next hops in that order too (a failed link only drops out of
//! it), so the set bits, lowest first, are the routing's answer in
//! routing order ([`nth_link`], [`links`]).
//!
//! Up/down routing is deterministic per pair, and the request stage
//! asks for every head packet every cycle — so whenever it fits the byte
//! budget the rows are materialized once into a per-switch run-length
//! table ([`RleTable`]). Networks whose table would not fit (the paper's
//! 100K- and 200K-terminal RFCs) query the routing live instead.
//! [`Candidates::row`] hides which source is in use: both return the
//! same mask, so results are byte-identical either way (DESIGN.md §15).
//!
//! A churn patch ([`Candidates::patch`]) rewrites, in place, only the
//! columns of the switches the routing repair made dirty, and in a full
//! column only the entries whose destinations changed (DESIGN.md §16).

use rfc_graph::vid;
use rfc_routing::{RepairScope, UpDownRouting};

use crate::network::SimNetwork;

/// Above this many *bytes* of table arrays the build (or a churn patch)
/// aborts and the simulation queries the routing live. The run-length
/// encoding keeps even the paper's Table 3 scale (cft(36,4), 209,952
/// terminals) under a dozen MB, so this is headroom, not a target.
const TABLE_BUDGET: usize = 64 << 20;

/// Where candidate rows come from.
#[derive(Debug, Clone)]
pub(crate) enum Candidates {
    /// Materialized, run-length-compressed table.
    Table(RleTable),
    /// Table would exceed the byte budget (or its offsets would overflow
    /// `u32`); query the routing live.
    Live,
}

/// Scratch for one live row: the routing's next hops. One per shard,
/// reused every query.
#[derive(Debug, Default)]
pub(crate) struct RowBufs {
    hops: Vec<u32>,
}

impl RowBufs {
    /// Logical heap bytes of the buffer (see [`rfc_graph::HeapBytes`]).
    pub(crate) fn heap_bytes(&self) -> usize {
        rfc_graph::slice_heap_bytes(&self.hops)
    }

    // xtask: hot-loop-begin — live rows are queried on every visit, and
    // a churn patch re-queries its changed entries through them
    /// Asks `routing` for `(switch, dst)` and resolves the answer to a
    /// link mask: bit `b` for the switch's `b`-th link port. The routing
    /// lists hops in link-port order, so one forward walk over the ports
    /// finds them all, and [`SimNetwork::validate`] keeps every bit
    /// within 64.
    ///
    /// # Panics
    ///
    /// Panics if a hop is not a neighbor of `switch`, or not in link-port
    /// order — the routing and the network disagree about adjacency,
    /// which no repair can make sound.
    fn live_row(
        &mut self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        switch: u32,
        dst: u32,
    ) -> u64 {
        self.hops.clear();
        routing.next_hops_into(switch, dst, &mut self.hops);
        let s = switch as usize;
        let ports = &net.link_neighbor
            [net.first_link_port[s] as usize..net.first_link_port[s + 1] as usize];
        let (mut mask, mut next) = (0u64, 0usize);
        for &hop in &self.hops {
            #[expect(
                clippy::expect_used,
                reason = "up/down routing names only neighbors, in adjacency order; see # Panics"
            )]
            let b = next
                + ports[next..]
                    .iter()
                    .position(|&nb| nb == hop)
                    .expect("routing returned a non-neighbor or left link-port order");
            mask |= 1 << b;
            next = b + 1;
        }
        mask
    }
    // xtask: hot-loop-end
}

impl Candidates {
    /// Materializes the table under [`TABLE_BUDGET`], or falls back to
    /// live queries when it does not fit.
    pub(crate) fn build(net: &SimNetwork, routing: &UpDownRouting) -> Self {
        Self::build_within(net, routing, TABLE_BUDGET)
    }

    /// [`Candidates::build`] under an explicit byte budget; tests pass a
    /// small one to force the mid-construction abort to live queries.
    pub(crate) fn build_within(net: &SimNetwork, routing: &UpDownRouting, budget: usize) -> Self {
        build_table(net, routing, budget).map_or(Candidates::Live, Candidates::Table)
    }

    // xtask: hot-loop-begin — the request scan looks up a row on every
    // visit
    /// The link mask of `(switch, dst)`; 0 when unroutable. A table row
    /// is read from the table; a live row is computed through `bufs`.
    ///
    /// # Panics
    ///
    /// Panics if the routing returns a non-neighbor of `switch` (see
    /// [`RowBufs::live_row`]).
    #[inline]
    pub(crate) fn row(
        &self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        switch: u32,
        dst: u32,
        bufs: &mut RowBufs,
    ) -> u64 {
        match self {
            Candidates::Table(table) => table.row(switch, dst),
            Candidates::Live => bufs.live_row(net, routing, switch, dst),
        }
    }
    // xtask: hot-loop-end

    /// Brings the candidates past a routing repair: a table is patched
    /// in place over `scope` against the repaired `routing` (falling
    /// back to live when the result exceeds the budget), and a live
    /// source stays live. `scratch` is reused across patches.
    pub(crate) fn patch(
        &mut self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        scope: &RepairScope,
        scratch: &mut ColumnScratch,
    ) {
        let Candidates::Table(table) = self else {
            return;
        };
        if table.patch(net, routing, scope, scratch).is_none() {
            *self = Candidates::Live;
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

// xtask: hot-loop-begin — the request scan decodes a row on every visit
/// Link `k` of `mask`, counting set bits from the lowest: candidate `k`
/// in routing order. `k` must be below `mask.count_ones()`.
///
/// A byte at a time through [`SELECT_IN_BYTE`]: clearing the lowest set
/// bit `k` times instead leaves the loop at a different `k` on every
/// call, and the request scan read slower with it (DESIGN.md §10
/// "History").
#[inline]
pub(crate) fn nth_link(mask: u64, k: usize) -> u32 {
    let (mut k, mut base) = (k, 0);
    for byte in mask.to_le_bytes() {
        let set = byte.count_ones() as usize;
        if k < set {
            return base + u32::from(SELECT_IN_BYTE[usize::from(byte)][k]);
        }
        k -= set;
        base += 8;
    }
    base
}

/// `SELECT_IN_BYTE[b][k]`: the position of byte `b`'s `k`-th set bit,
/// lowest first.
static SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut k, mut bit) = (0, 0u8);
        while bit < 8 {
            if (b >> bit) & 1 == 1 {
                table[b][k] = bit;
                k += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

/// The links of `mask`, lowest first: its candidates in routing order.
#[inline]
pub(crate) fn links(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros();
            mask &= mask - 1;
            b
        })
    })
}
// xtask: hot-loop-end

/// The link-mask candidate table (DESIGN.md §15): per switch, one
/// column of masks over the destinations `0..dst_space`, stored one of
/// two ways.
///
/// - A **run column** holds the maximal `[start, next_start)` runs of
///   destinations that share a mask. A CFT's subtree structure keeps
///   them few (cft(36,4): at most 36 runs over 11,664 destinations).
/// - A **full column** holds one mask per destination and no run
///   starts. A column is stored full when its maximal runs number at
///   least half its destinations ([`full_column`]): a random folded
///   Clos's reach sets fragment, and `rfc(16,128,3)` averages ~105 runs
///   over 128 destinations.
///
/// Lookup indexes a full column directly and binary-searches a run
/// column. The request scan looks a row up on every visit, and on a
/// fragmented switch the 7–10-probe search took about a third of a
/// saturated run (DESIGN.md §15).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RleTable {
    pub(crate) dst_space: usize,
    /// Switch `s`'s masks are `masks[mask_off[s] .. mask_off[s + 1]]`.
    pub(crate) mask_off: Vec<u32>,
    /// Switch `s`'s run starts are `runs_start[start_off[s] ..
    /// start_off[s + 1]]`: none for a full column; for a run column one
    /// per mask, ascending from 0, the last run extending to
    /// `dst_space`.
    pub(crate) start_off: Vec<u32>,
    pub(crate) runs_start: Vec<u32>,
    pub(crate) masks: Vec<u64>,
}

impl RleTable {
    // xtask: hot-loop-begin — `Candidates::row`'s table lookup
    /// The link mask of `(switch, dst)`; 0 when unroutable.
    #[inline]
    fn row(&self, switch: u32, dst: u32) -> u64 {
        let s = switch as usize;
        let (a, b) = (self.start_off[s] as usize, self.start_off[s + 1] as usize);
        let k = if a == b {
            // A full column: mask `d` is destination `d`'s.
            dst as usize
        } else {
            // Last run starting at or before dst; a run column's first
            // run starts at 0, so the subtraction cannot underflow.
            self.runs_start[a..b].partition_point(|&start| start <= dst) - 1
        };
        self.masks[self.mask_off[s] as usize + k]
    }
    // xtask: hot-loop-end

    /// Logical bytes of the four arrays — the quantity checked against
    /// the build budget and reported as the table's footprint.
    pub(crate) fn bytes(&self) -> usize {
        rfc_graph::slice_heap_bytes(&self.mask_off)
            + rfc_graph::slice_heap_bytes(&self.start_off)
            + rfc_graph::slice_heap_bytes(&self.runs_start)
            + rfc_graph::slice_heap_bytes(&self.masks)
    }

    /// Whether switch `s`'s column is stored full.
    pub(crate) fn is_full(&self, s: usize) -> bool {
        self.start_off[s] == self.start_off[s + 1]
    }

    /// Appends `col` as the next switch's column. `None` when an offset
    /// would overflow `u32` (callers fall back to live queries).
    fn push_column(&mut self, col: &ColumnScratch) -> Option<()> {
        self.masks.extend_from_slice(&col.masks);
        self.runs_start.extend_from_slice(&col.starts);
        self.mask_off.push(u32::try_from(self.masks.len()).ok()?);
        self.start_off
            .push(u32::try_from(self.runs_start.len()).ok()?);
        Some(())
    }

    // xtask: hot-loop-begin — the per-event patch allocates nothing: its
    // scratch lives in `DynState`, and only a table that outgrows its
    // capacity reallocates
    /// Repairs the table in place after a routing repair over `scope`,
    /// so that it equals a fresh [`build_table`] over the repaired
    /// `routing`. Only the `table_dirty` switches are touched:
    ///
    /// - the two event endpoints changed adjacency, so their columns
    ///   are re-derived from the routing;
    /// - any other dirty switch's masks can differ only at `dst_delta`
    ///   (see `rfc_routing::RepairScope::dst_delta`): a full column
    ///   re-queries those entries where it stands, a run column is
    ///   spliced at them in `O(runs + delta)`.
    ///
    /// A column that changes kind or length moves the columns after it.
    /// Returns `None` on budget or `u32`-offset exhaustion, the same
    /// live-query fallback as the build.
    fn patch(
        &mut self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        scope: &RepairScope,
        col: &mut ColumnScratch,
    ) -> Option<()> {
        let dst_space = self.dst_space;
        // Leaves past the last populated one are no destination.
        let delta = &scope.dst_delta[..scope
            .dst_delta
            .partition_point(|&d| (d as usize) < dst_space)];
        for &switch in &scope.table_dirty {
            let s = switch as usize;
            if scope.endpoints.contains(&switch) {
                col.derive(net, routing, switch, dst_space);
            } else if self.is_full(s) {
                let lo = self.mask_off[s] as usize;
                let column = &mut self.masks[lo..lo + dst_space];
                for &d in delta {
                    column[d as usize] = col.bufs.live_row(net, routing, switch, d);
                }
                let runs = 1 + column.windows(2).filter(|w| w[0] != w[1]).count();
                if full_column(runs, dst_space) {
                    continue;
                }
                col.clear();
                for (d, &mask) in column.iter().enumerate() {
                    col.push(vid(d), mask);
                }
            } else {
                col.splice(net, routing, self, switch, delta);
            }
            col.finish(dst_space);
            replace(&mut self.masks, &mut self.mask_off, s, &col.masks)?;
            replace(&mut self.runs_start, &mut self.start_off, s, &col.starts)?;
        }
        (self.bytes() <= TABLE_BUDGET).then_some(())
    }
}

/// Replaces entry range `s` of `items` (its ranges are delimited by
/// `off`) with `new`, shifting the later offsets when the length
/// changes. `None` when a length would overflow `u32`.
fn replace<T: Copy>(items: &mut Vec<T>, off: &mut [u32], s: usize, new: &[T]) -> Option<()> {
    let (lo, hi) = (off[s] as usize, off[s + 1] as usize);
    if new.len() == hi - lo {
        items[lo..hi].copy_from_slice(new);
        return Some(());
    }
    items.splice(lo..hi, new.iter().copied());
    u32::try_from(items.len()).ok()?;
    // Wrapping shifts are exact: every shifted offset fits `u32`, since
    // the array length does.
    let (old_len, new_len) = (vid(hi - lo), vid(new.len()));
    for o in &mut off[s + 1..] {
        *o = o.wrapping_add(new_len).wrapping_sub(old_len);
    }
    Some(())
}

/// One switch's column while it is derived or spliced, plus the scratch
/// that reuses: maximal runs in `starts`/`masks` until
/// [`ColumnScratch::finish`] decides the column's kind. The churn patch
/// keeps one in `DynState`, so a steady churn run allocates no column.
#[derive(Debug, Default)]
pub(crate) struct ColumnScratch {
    starts: Vec<u32>,
    masks: Vec<u64>,
    /// The routing's run starts (`UpDownRouting::dst_run_starts`).
    dst_starts: Vec<u32>,
    bufs: RowBufs,
}

impl ColumnScratch {
    /// Empties the column, keeping allocations.
    fn clear(&mut self) {
        self.starts.clear();
        self.masks.clear();
    }

    /// Appends a run of `mask` from `start`, merging it into the previous
    /// run when their masks are equal.
    fn push(&mut self, start: u32, mask: u64) {
        if self.masks.last() != Some(&mask) {
            self.starts.push(start);
            self.masks.push(mask);
        }
    }

    /// Resolves `switch`'s routing answers over destinations
    /// `0..dst_space` to maximal runs.
    fn derive(&mut self, net: &SimNetwork, routing: &UpDownRouting, switch: u32, dst_space: usize) {
        self.clear();
        routing.dst_run_starts(switch, vid(dst_space), &mut self.dst_starts);
        for k in 0..self.dst_starts.len() {
            let start = self.dst_starts[k];
            let mask = self.bufs.live_row(net, routing, switch, start);
            self.push(start, mask);
        }
    }

    /// Rebuilds the *run* column of `switch`, a dirty switch whose
    /// adjacency did not change, as maximal runs: `old`'s runs are kept
    /// except at the `delta` destinations (sorted, below `dst_space`),
    /// whose masks are re-queried against the repaired routing. Equal
    /// neighbors re-merge in [`ColumnScratch::push`], so the result
    /// equals a full [`ColumnScratch::derive`].
    fn splice(
        &mut self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        old: &RleTable,
        switch: u32,
        delta: &[u32],
    ) {
        self.clear();
        let s = switch as usize;
        let starts = &old.runs_start[old.start_off[s] as usize..old.start_off[s + 1] as usize];
        let masks = &old.masks[old.mask_off[s] as usize..old.mask_off[s + 1] as usize];
        let mut di = 0usize;
        for (k, (&a, &mask)) in starts.iter().zip(masks).enumerate() {
            let b = starts.get(k + 1).map_or(vid(old.dst_space), |&next| next);
            let mut pos = a;
            while di < delta.len() && delta[di] < b {
                let d = delta[di];
                di += 1;
                if pos < d {
                    self.push(pos, mask);
                }
                let changed = self.bufs.live_row(net, routing, switch, d);
                self.push(d, changed);
                pos = d + 1;
            }
            if pos < b {
                self.push(pos, mask);
            }
        }
    }

    /// Closes the column over `dst_space` destinations: when
    /// [`full_column`] says so, expands the runs in place to one mask per
    /// destination and drops the run starts.
    fn finish(&mut self, dst_space: usize) {
        let runs = self.masks.len();
        if !full_column(runs, dst_space) {
            return;
        }
        // Last run first: run `k` starts at or after `k`, so its fill
        // never overwrites a mask not yet read.
        self.masks.resize(dst_space, 0);
        for k in (0..runs).rev() {
            let end = self.starts.get(k + 1).map_or(dst_space, |&s| s as usize);
            let mask = self.masks[k];
            self.masks[self.starts[k] as usize..end].fill(mask);
        }
        self.starts.clear();
    }
}
// xtask: hot-loop-end

/// Whether a column of `runs` maximal runs over `dst_space`
/// destinations is stored full, one mask per destination. At `runs >=
/// dst_space / 2` a full column (8 bytes per destination) costs at most
/// 4/3 of the run bytes it replaces (12 per run), and its lookup is one index instead of a binary search;
/// below that the runs stay. Run counts come from the wiring: a random
/// folded Clos crosses the line on most switches, a CFT of three or more
/// levels on none of the measured ones.
fn full_column(runs: usize, dst_space: usize) -> bool {
    2 * runs >= dst_space
}

/// Builds the candidate table, or `None` when the byte budget is
/// exceeded or an offset would overflow `u32` — both fall back to live
/// routing queries rather than wrapping silently.
///
/// Switches are processed in fixed-size chunks: each chunk fans out
/// over the shared worker pool (`rfc_parallel`) and is appended
/// serially *in switch order*, so the arrays are byte-identical to a
/// serial build at any thread count, and the budget check between
/// switches bounds how far an over-budget build can overshoot before
/// bailing.
fn build_table(net: &SimNetwork, routing: &UpDownRouting, budget: usize) -> Option<RleTable> {
    /// Switches per parallel round.
    const CHUNK: usize = 4096;
    let dst_space = net
        .dst_switch_of_terminal
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut table = RleTable {
        dst_space,
        mask_off: vec![0],
        start_off: vec![0],
        ..RleTable::default()
    };
    let all: Vec<u32> = (0..vid(net.num_switches())).collect();
    for chunk in all.chunks(CHUNK) {
        let columns: Vec<ColumnScratch> = rfc_parallel::map(chunk.to_vec(), |switch| {
            let mut col = ColumnScratch::default();
            col.derive(net, routing, switch, dst_space);
            col.finish(dst_space);
            col
        });
        for col in &columns {
            table.push_column(col)?;
            if table.bytes() > budget {
                return None;
            }
        }
    }
    Some(table)
}

#[cfg(test)]
impl RleTable {
    /// Panics unless the offsets delimit every switch's column
    /// back to back and every column has the kind [`full_column`] gives
    /// it: a full column has one mask per destination, no run starts and
    /// at least `dst_space / 2` maximal runs; a run column has one start
    /// per mask, ascending from 0 below `dst_space`, adjacent masks
    /// different, and fewer than `dst_space / 2` runs.
    pub(crate) fn assert_layout(&self) {
        let n = self.mask_off.len() - 1;
        assert_eq!(self.start_off.len(), n + 1);
        assert_eq!((self.mask_off[0], self.start_off[0]), (0, 0));
        assert_eq!(self.mask_off[n] as usize, self.masks.len());
        assert_eq!(self.start_off[n] as usize, self.runs_start.len());
        for s in 0..n {
            let masks = &self.masks[self.mask_off[s] as usize..self.mask_off[s + 1] as usize];
            let starts =
                &self.runs_start[self.start_off[s] as usize..self.start_off[s + 1] as usize];
            let runs = if self.is_full(s) {
                assert_eq!(masks.len(), self.dst_space, "switch {s}: full column");
                1 + masks.windows(2).filter(|w| w[0] != w[1]).count()
            } else {
                assert_eq!(starts.len(), masks.len(), "switch {s}: one start per run");
                assert_eq!(starts[0], 0, "switch {s}'s first run");
                assert!(starts.windows(2).all(|w| w[0] < w[1]), "switch {s}: starts");
                assert!((starts[starts.len() - 1] as usize) < self.dst_space);
                assert!(masks.windows(2).all(|w| w[0] != w[1]), "switch {s}: runs");
                masks.len()
            };
            assert_eq!(
                full_column(runs, self.dst_space),
                self.is_full(s),
                "switch {s}: {runs} runs over {} destinations",
                self.dst_space
            );
        }
    }
}
