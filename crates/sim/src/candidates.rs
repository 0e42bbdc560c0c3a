//! The candidate source of the request stage: for every `(switch,
//! destination)` pair, the out-ports a head packet may request.
//!
//! Up/down routing is deterministic per pair, and the request stage
//! asks for every head packet every cycle — so whenever it fits the byte
//! budget the answers are materialized once, fully *resolved to output
//! ports*, into a run-length table with per-switch rows ([`RleTable`]).
//! Networks whose table would not fit (the paper's 100K- and
//! 200K-terminal RFCs) query the routing live instead.
//! [`Candidates::row`] hides which source is in use: both return the
//! same out-ports in the same order, so results are byte-identical
//! either way (DESIGN.md §15).
//!
//! Every switch owns its rows, so a churn patch ([`Candidates::patch`])
//! re-derives only the dirty switches and copies every clean switch's
//! runs and rows with a constant id and offset shift (DESIGN.md §16).

use rfc_graph::vid;
use rfc_routing::{RepairScope, UpDownRouting};

use crate::network::SimNetwork;

/// Above this many *bytes* of table arrays the build (or a churn patch)
/// aborts and the simulation queries the routing live. The run-length
/// encoding keeps even the paper's Table 3 scale (cft(36,4), 209,952
/// terminals) around a dozen MB, so this is headroom, not a target.
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

/// Scratch for one live row: the routing's next hops and their resolved
/// out-ports. One per shard, reused every query.
#[derive(Debug, Default)]
pub(crate) struct RowBufs {
    hops: Vec<u32>,
    ports: Vec<u32>,
}

impl RowBufs {
    /// Logical heap bytes of both buffers (see [`rfc_graph::HeapBytes`]).
    pub(crate) fn heap_bytes(&self) -> usize {
        rfc_graph::slice_heap_bytes(&self.hops) + rfc_graph::slice_heap_bytes(&self.ports)
    }

    /// Asks `routing` for `(switch, dst)` and resolves the answer to
    /// out-ports, in routing order.
    fn live_row(
        &mut self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        switch: u32,
        dst: u32,
    ) -> &[u32] {
        self.hops.clear();
        routing.next_hops_into(switch, dst, &mut self.hops);
        resolve_out_ports(net, switch, &self.hops, &mut self.ports);
        &self.ports
    }
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
    /// The resolved out-ports for `(switch, dst)`, in routing order;
    /// empty when unroutable. A table row is a slice of the table; a
    /// live row is computed into `bufs`.
    ///
    /// # Panics
    ///
    /// Panics if the routing returns a non-neighbor of `switch` (see
    /// [`resolve_out_ports`]).
    #[inline]
    pub(crate) fn row<'s>(
        &'s self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        switch: u32,
        dst: u32,
        bufs: &'s mut RowBufs,
    ) -> &'s [u32] {
        match self {
            Candidates::Table(table) => table.row(switch, dst),
            Candidates::Live => bufs.live_row(net, routing, switch, dst),
        }
    }
    // xtask: hot-loop-end

    /// Brings the candidates past a routing repair: a table is patched
    /// over `scope` against the repaired `routing` (falling back to live
    /// when the result exceeds the budget), and a live source stays
    /// live. The patch is written into `spare`, which then swaps in, so
    /// the replaced table's buffers are the next patch's `spare`.
    pub(crate) fn patch(
        &mut self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        scope: &RepairScope,
        spare: &mut RleTable,
    ) {
        let Candidates::Table(table) = self else {
            return;
        };
        if patch_table(net, routing, table, scope, spare).is_some() {
            std::mem::swap(table, spare);
        } else {
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

impl rfc_graph::HeapBytes for Candidates {
    fn heap_bytes(&self) -> usize {
        self.table().map_or(0, RleTable::bytes)
    }
}

/// The run-length candidate table (DESIGN.md §15).
///
/// Three compressions stack on the old `switches × dst_space` matrix:
///
/// 1. **Rows resolve once** — a row is the out-port list one `(switch,
///    dst)` query yields, in routing order (the cached-vs-live agreement
///    contract depends on that order).
/// 2. **Rows are per switch** — a switch stores each distinct row once,
///    and its rows take one contiguous id range, numbered in the order
///    they first appear in its runs. Resolved rows hold out-port ids of
///    one switch, so two switches could share only an empty row; a
///    global pool would save almost nothing. The range starts at the
///    row of the switch's first run, which is always its local row 0.
/// 3. **Columns run-length-compress** — per switch, destinations with
///    the same row collapse into `[start, next_start)` runs. A CFT's
///    subtree structure keeps them few (cft(36,4): at most 36 runs over
///    11,664 destinations), but a random folded Clos's reach sets
///    fragment: `rfc(16,128,3)` averages ~105 runs over 128
///    destinations, `rfc(36,648,3)` ~532 over 648.
///
/// A column with at least half as many runs as destinations is stored
/// *full* instead: one run per destination ([`full_column`]), still an
/// ordinary column of the same arrays. Lookup indexes a full column
/// directly and binary-searches a run column. The request scan looks a
/// row up on every visit, and on a fragmented switch the 7–10-probe
/// search took about a third of a saturated run (DESIGN.md §15).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RleTable {
    pub(crate) dst_space: usize,
    /// Runs of switch `s` live at `col_off[s] .. col_off[s+1]` in the
    /// two parallel run arrays.
    pub(crate) col_off: Vec<u32>,
    /// Ascending first-destination of each run; the first run of every
    /// switch starts at 0, the last extends to `dst_space`.
    pub(crate) runs_start: Vec<u32>,
    /// Row id of each run.
    pub(crate) runs_row: Vec<u32>,
    /// Row `r`'s resolved out-ports live at `row_off[r] .. row_off[r+1]`
    /// in `row_ports`.
    pub(crate) row_off: Vec<u32>,
    pub(crate) row_ports: Vec<u32>,
}

impl RleTable {
    // xtask: hot-loop-begin — `Candidates::row`'s table lookup
    /// The resolved out-ports for `(switch, dst)`; empty when unroutable.
    #[inline]
    fn row(&self, switch: u32, dst: u32) -> &[u32] {
        let lo = self.col_off[switch as usize] as usize;
        let hi = self.col_off[switch as usize + 1] as usize;
        let k = if hi - lo == self.dst_space {
            // A full column: run `d` is destination `d`.
            lo + dst as usize
        } else {
            // Last run starting at or before dst; every switch's first
            // run starts at 0, so the subtraction cannot underflow.
            lo + self.runs_start[lo..hi].partition_point(|&s| s <= dst) - 1
        };
        self.ports(self.runs_row[k] as usize)
    }

    /// Row `r`'s resolved out-ports.
    #[inline]
    fn ports(&self, r: usize) -> &[u32] {
        &self.row_ports[self.row_off[r] as usize..self.row_off[r + 1] as usize]
    }
    // xtask: hot-loop-end

    /// The id of the first row at or after run `k`: the row of that run
    /// (a switch's first run holds its first row), or the row count at
    /// the end of the table. The rows of switches `a..b` are therefore
    /// `first_row(col_off[a]) .. first_row(col_off[b])`.
    fn first_row(&self, k: usize) -> usize {
        self.runs_row
            .get(k)
            .map_or(self.row_off.len() - 1, |&r| r as usize)
    }

    /// Logical bytes of the five arrays — the quantity checked against
    /// the build budget and reported as the table's footprint.
    pub(crate) fn bytes(&self) -> usize {
        rfc_graph::slice_heap_bytes(&self.col_off)
            + rfc_graph::slice_heap_bytes(&self.runs_start)
            + rfc_graph::slice_heap_bytes(&self.runs_row)
            + rfc_graph::slice_heap_bytes(&self.row_off)
            + rfc_graph::slice_heap_bytes(&self.row_ports)
    }

    /// Appends a row without looking for its content; the caller knows
    /// the switch holds no equal row.
    fn add_row(&mut self, ports: &[u32]) -> u32 {
        self.row_ports.extend_from_slice(ports);
        self.row_off.push(vid(self.row_ports.len()));
        vid(self.row_off.len() - 2)
    }

    /// Empties the table to zero switches over `dst_space`, keeping its
    /// allocations.
    fn reset(&mut self, dst_space: usize) {
        self.dst_space = dst_space;
        self.col_off.clear();
        self.col_off.push(0);
        self.runs_start.clear();
        self.runs_row.clear();
        self.row_off.clear();
        self.row_off.push(0);
        self.row_ports.clear();
    }

    /// Appends the columns of switches `a..b` of `src` unchanged, moving
    /// their run, row and port ids by one constant shift each. `None`
    /// when an id would overflow `u32` (callers fall back to live
    /// queries).
    fn copy_switches(&mut self, src: &RleTable, a: usize, b: usize) -> Option<()> {
        fn moved(ids: &[u32], by: u32) -> impl Iterator<Item = u32> + '_ {
            ids.iter().map(move |&i| i.wrapping_add(by))
        }
        let (runs_lo, runs_hi) = (src.col_off[a] as usize, src.col_off[b] as usize);
        let (rows_lo, rows_hi) = (src.first_row(runs_lo), src.first_row(runs_hi));
        let (ports_lo, ports_hi) = (src.row_off[rows_lo], src.row_off[rows_hi]);
        // Wrapping shifts are exact whenever the shifted ids fit `u32`,
        // which the length checks below confirm.
        let shift = |base: usize, from: u32| Some(u32::try_from(base).ok()?.wrapping_sub(from));
        let run_shift = shift(self.runs_start.len(), src.col_off[a])?;
        let row_shift = shift(self.row_off.len() - 1, vid(rows_lo))?;
        let port_shift = shift(self.row_ports.len(), ports_lo)?;
        self.col_off
            .extend(moved(&src.col_off[a + 1..=b], run_shift));
        self.runs_start
            .extend_from_slice(&src.runs_start[runs_lo..runs_hi]);
        self.runs_row
            .extend(moved(&src.runs_row[runs_lo..runs_hi], row_shift));
        self.row_off
            .extend(moved(&src.row_off[rows_lo + 1..=rows_hi], port_shift));
        self.row_ports
            .extend_from_slice(&src.row_ports[ports_lo as usize..ports_hi as usize]);
        let longest = self
            .runs_start
            .len()
            .max(self.row_off.len())
            .max(self.row_ports.len());
        u32::try_from(longest).ok().map(|_| ())
    }
}

/// One switch's column while it is derived: a one-switch [`RleTable`]
/// whose rows are numbered in order of first appearance, appended to a
/// table by [`RleTable::copy_switches`], with the scratch its
/// derivation reuses across switches.
#[derive(Default)]
struct SwitchRuns {
    col: RleTable,
    /// The rows added by [`SwitchRuns::intern`], ordered by content:
    /// the lookup that keeps interning logarithmic in the row count.
    by_content: Vec<u32>,
    /// The row being resolved (`bufs.ports`) and live-row scratch.
    bufs: RowBufs,
    /// New row ids of the old column's rows during a splice.
    old_to_new: Vec<u32>,
}

impl SwitchRuns {
    /// Resets to an empty column, keeping allocations — the patch loop
    /// reuses one instance across every dirty switch. A column's
    /// `dst_space` is never read, so it stays 0.
    fn clear(&mut self) {
        self.col.reset(0);
        self.by_content.clear();
    }

    /// The id of the row holding `bufs.ports` among the rows interned
    /// so far, adding it when new.
    fn intern(&mut self) -> u32 {
        let ports = &self.bufs.ports;
        match self
            .by_content
            .binary_search_by(|&r| self.col.ports(r as usize).cmp(ports))
        {
            Ok(i) => self.by_content[i],
            Err(i) => {
                let r = self.col.add_row(ports);
                self.by_content.insert(i, r);
                r
            }
        }
    }

    /// Appends a run of row `row`, merging it into the previous run when
    /// their rows are equal.
    fn push(&mut self, start: u32, row: u32) {
        if self.col.runs_row.last() != Some(&row) {
            self.col.runs_start.push(start);
            self.col.runs_row.push(row);
        }
    }

    /// Closes the column over `dst_space` destinations: expands it to
    /// one run per destination when [`full_column`] says so, then
    /// records the one switch's run range.
    fn finish(&mut self, dst_space: usize) -> &RleTable {
        let col = &mut self.col;
        let runs = col.runs_start.len();
        if full_column(runs, dst_space) {
            // In place, last run first: run `k` starts at or after `k`,
            // so its fill never overwrites a row not yet read.
            col.runs_row.resize(dst_space, 0);
            for k in (0..runs).rev() {
                let end = col.runs_start.get(k + 1).map_or(dst_space, |&s| s as usize);
                let row = col.runs_row[k];
                col.runs_row[col.runs_start[k] as usize..end].fill(row);
            }
            col.runs_start.clear();
            col.runs_start.extend(0..vid(dst_space));
        }
        col.col_off.push(vid(col.runs_start.len()));
        &self.col
    }

    /// Resolves `switch`'s routing answers over destinations
    /// `0..dst32` to out-port runs.
    fn derive(&mut self, net: &SimNetwork, routing: &UpDownRouting, switch: u32, dst32: u32) {
        self.clear();
        routing.for_each_dst_run(switch, dst32, &mut |start, hops| {
            resolve_out_ports(net, switch, hops, &mut self.bufs.ports);
            let row = self.intern();
            self.push(start, row);
        });
    }

    /// Rebuilds one *dirty but adjacency-stable* switch's runs by
    /// splicing: the `old` column is kept wholesale except at `delta`
    /// destinations, where the row is re-resolved against the repaired
    /// routing. Sound because such a switch's row can change only where
    /// a consulted reach set's membership changed (see
    /// `rfc_routing::RepairScope::dst_delta`). A full `old` column
    /// compresses here like any other, and [`SwitchRuns::finish`]
    /// decides its kind afresh.
    ///
    /// An old row keeps its content, so it takes its new id through
    /// `old_to_new` on first use, without a content comparison. Only a
    /// re-resolved row is compared: against the switch's old rows (it
    /// may equal one that has not appeared yet) and then against the
    /// other re-resolved rows. Equal neighbors re-merge in
    /// [`SwitchRuns::push`], so the result is byte-identical to a full
    /// [`SwitchRuns::derive`].
    fn splice(
        &mut self,
        net: &SimNetwork,
        routing: &UpDownRouting,
        old: &RleTable,
        switch: u32,
        delta: &[u32],
    ) {
        self.clear();
        let lo = old.col_off[switch as usize] as usize;
        let hi = old.col_off[switch as usize + 1] as usize;
        let base = old.first_row(lo);
        let old_rows = base..old.first_row(hi);
        self.old_to_new.clear();
        self.old_to_new.resize(old_rows.len(), u32::MAX);
        let mut di = 0usize;
        for k in lo..hi {
            let a = old.runs_start[k];
            let b = if k + 1 < hi {
                old.runs_start[k + 1]
            } else {
                vid(old.dst_space)
            };
            let r = old.runs_row[k] as usize;
            let mut pos = a;
            while di < delta.len() && delta[di] < b {
                let d = delta[di];
                di += 1;
                if pos < d {
                    let row = self.kept(old, base, r);
                    self.push(pos, row);
                }
                self.bufs.live_row(net, routing, switch, d);
                let row = match old_rows.clone().find(|&o| old.ports(o) == self.bufs.ports) {
                    Some(o) => self.kept(old, base, o),
                    None => self.intern(),
                };
                self.push(d, row);
                pos = d + 1;
            }
            if pos < b {
                let row = self.kept(old, base, r);
                self.push(pos, row);
            }
        }
    }

    /// The new id of `old`'s row `r` (the switch's rows start at
    /// `base`), added unchanged on first use.
    fn kept(&mut self, old: &RleTable, base: usize, r: usize) -> u32 {
        let slot = &mut self.old_to_new[r - base];
        if *slot == u32::MAX {
            *slot = self.col.add_row(old.ports(r));
        }
        *slot
    }
}

/// Whether a column of `runs` runs over `dst_space` destinations is
/// stored full, one run per destination. At `runs >= dst_space / 2` a
/// full column costs at most twice the run bytes it replaces, and its
/// lookup is one index instead of a binary search; below that the runs
/// stay. Run counts come from the wiring: a random folded Clos crosses
/// the line on most switches, a CFT of three or more levels on none of
/// the measured ones.
fn full_column(runs: usize, dst_space: usize) -> bool {
    2 * runs >= dst_space
}

/// Resolves next-hop switch ids into `switch`'s out-port numbers,
/// overwriting `resolved`.
///
/// # Panics
///
/// Panics if a hop is not a neighbor of `switch` — the routing and the
/// network disagree about adjacency, which no repair can make sound.
fn resolve_out_ports(net: &SimNetwork, switch: u32, hops: &[u32], resolved: &mut Vec<u32>) {
    resolved.clear();
    for &hop in hops {
        #[expect(
            clippy::expect_used,
            reason = "up/down routing names only neighbors; see # Panics"
        )]
        let out = net
            .out_port_to(switch, hop)
            .expect("routing returned a non-neighbor");
        resolved.push(out);
    }
}

/// Builds the candidate table, or `None` when the byte budget is
/// exceeded or an index would overflow `u32` — both fall back to live
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
    let dst32 = vid(dst_space);
    let mut table = RleTable::default();
    table.reset(dst_space);
    let all: Vec<u32> = (0..vid(net.num_switches())).collect();
    for chunk in all.chunks(CHUNK) {
        // Each switch keeps only its column, not the derivation scratch.
        let per_switch: Vec<RleTable> = rfc_parallel::map(chunk.to_vec(), |switch| {
            let mut sr = SwitchRuns::default();
            sr.derive(net, routing, switch, dst32);
            sr.finish(dst_space);
            sr.col
        });
        for col in per_switch {
            table.copy_switches(&col, 0, 1)?;
            if table.bytes() > budget {
                return None;
            }
        }
    }
    Some(table)
}

/// Region-scoped table repair into `table` (overwritten, allocations
/// kept): rebuilds only the `table_dirty` switches' columns against the
/// (already repaired) `routing` and copies the clean switches between
/// them from `old` with a constant shift. Every switch owns its rows,
/// so the result is byte-identical to a from-scratch [`build_table`]
/// over the new routing.
///
/// Returns `None` on budget/overflow exhaustion, the same live-query
/// fallback as the full build.
fn patch_table(
    net: &SimNetwork,
    routing: &UpDownRouting,
    old: &RleTable,
    scope: &RepairScope,
    table: &mut RleTable,
) -> Option<()> {
    let dst32 = vid(old.dst_space);
    table.reset(old.dst_space);
    // All dirty-switch work reuses one column and its scratch.
    let mut sr = SwitchRuns::default();
    // `scope.table_dirty` arrives sorted and deduplicated; `clean` is
    // the first switch not yet written. Only the event endpoints changed
    // adjacency, so only their columns are re-derived in full; every
    // other dirty column can differ only at `dst_delta`, and is spliced.
    let mut clean = 0usize;
    for &switch in &scope.table_dirty {
        table.copy_switches(old, clean, switch as usize)?;
        if scope.endpoints.contains(&switch) {
            sr.derive(net, routing, switch, dst32);
        } else {
            sr.splice(net, routing, old, switch, &scope.dst_delta);
        }
        table.copy_switches(sr.finish(old.dst_space), 0, 1)?;
        if table.bytes() > TABLE_BUDGET {
            return None;
        }
        clean = switch as usize + 1;
    }
    table.copy_switches(old, clean, net.num_switches())?;
    (table.bytes() <= TABLE_BUDGET).then_some(())
}

#[cfg(test)]
impl RleTable {
    /// Panics unless every switch's rows form one contiguous id range
    /// that starts at its first run's row, right after the previous
    /// switch's range, numbered in order of first appearance and
    /// content-unique, and unless every column has the kind
    /// [`full_column`] gives it: a run column keeps adjacent runs on
    /// different rows and has fewer than `dst_space / 2` runs; a full
    /// column's run `k` starts at destination `k`, and its maximal runs
    /// number at least `dst_space / 2`.
    pub(crate) fn assert_layout(&self) {
        let mut next = 0;
        for s in 0..self.col_off.len() - 1 {
            let (lo, hi) = (self.col_off[s] as usize, self.col_off[s + 1] as usize);
            assert_eq!(self.runs_start[lo], 0, "switch {s}'s first run");
            let full = self.is_full(s);
            let base = next;
            let mut merged = 0;
            for k in lo..hi {
                let r = self.runs_row[k] as usize;
                assert!(
                    (base..=next).contains(&r),
                    "switch {s}: row {r} out of order"
                );
                let new_run = k == lo || self.runs_row[k - 1] as usize != r;
                assert!(full || new_run, "switch {s}: run {k}");
                merged += usize::from(new_run);
                if full {
                    assert_eq!(self.runs_start[k] as usize, k - lo, "switch {s}: run {k}");
                } else {
                    assert!(k == lo || self.runs_start[k - 1] < self.runs_start[k]);
                }
                next += usize::from(r == next);
            }
            assert_eq!(
                full_column(merged, self.dst_space),
                full,
                "switch {s}: {merged} runs over {} destinations",
                self.dst_space
            );
            let mut rows: Vec<&[u32]> = (base..next).map(|r| self.ports(r)).collect();
            rows.sort_unstable();
            rows.dedup();
            assert_eq!(rows.len(), next - base, "switch {s} repeats a row");
        }
        assert_eq!(next, self.row_off.len() - 1, "rows outside every switch");
    }

    /// Whether switch `s`'s column is stored full.
    pub(crate) fn is_full(&self, s: usize) -> bool {
        self.col_off[s + 1] - self.col_off[s] == vid(self.dst_space)
    }
}
