//! Sharded-execution substrate for the cycle engine (DESIGN.md §13).
//!
//! A run partitions the switches (and their attached terminals) into
//! contiguous shards, each owned by one worker. Per-cycle state that the
//! serial engine kept in one flat set of arrays lives here as one
//! [`ShardState`] per shard, indexed by *local* port ids; the
//! [`ShardPlan`] holds the global↔local maps. Cross-shard traffic
//! (packet arrivals and credit returns) crosses through per-shard-pair
//! [`ShardMsg`] mailboxes drained at the cycle boundary in fixed
//! (source shard, send order) order.
//!
//! Everything in this module is built so that results are **invariant
//! in the shard count**: all randomness is drawn statelessly via
//! [`draw`] (a counter-based SplitMix64 hash keyed on the cycle and a
//! global entity id), so no decision depends on which worker executes a
//! node or in what order events were appended.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rfc_graph::{slice_heap_bytes, vid};
use std::sync::Mutex;

use crate::candidates::RowBufs;
use crate::engine::{Packet, EVENT_WHEEL, NO_VIA};
use crate::network::SimNetwork;
use crate::SimConfig;

/// Sentinel for "no request yet" in the per-output request chains.
pub(crate) const NO_REQ: u32 = u32::MAX;

/// Sentinel for "no feeder": injection input ports are filled by their
/// terminal, not by an upstream output port.
pub(crate) const NO_PORT: u32 = u32::MAX;

/// Sentinel for "no slot": the end of a credit wait list.
const NO_SLOT: u32 = u32::MAX;

/// Where a local VC slot stands with respect to the request scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Off every list: empty, or parked until a `Wake` because all its
    /// candidate outputs are busy. Arrivals, injections and wakes
    /// re-list it.
    Idle,
    /// On the `active` worklist, scanned every cycle.
    Active,
    /// On the [`CreditWaits`] list of its only candidate output, which
    /// was free but had no credit for the head packet. Only a credit
    /// for that output (or a table change) re-lists it.
    CreditParked,
}

/// The independent stateless-draw streams of one run, all derived from
/// the run seed (stream 1 is the traffic-state build; see
/// [`Streams::derive`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Streams {
    /// Routing decisions: candidate pick and target-VC start.
    pub dec: u64,
    /// Arbitration priorities.
    pub arb: u64,
    /// Latency-reservoir sampling priorities.
    pub stats: u64,
    /// Base for the per-switch injection streams
    /// (`child_seed(inj, switch)` seeds switch's sequential generator).
    pub inj: u64,
}

impl Streams {
    /// Stream derivation from the run seed. Index 1 is taken by the
    /// traffic-state build (kept separate so the pattern's random
    /// pairing/destinations never interleave with engine draws).
    pub fn derive(seed: u64) -> Self {
        Streams {
            dec: rfc_parallel::child_seed(seed, 2),
            arb: rfc_parallel::child_seed(seed, 3),
            stats: rfc_parallel::child_seed(seed, 4),
            inj: rfc_parallel::child_seed(seed, 5),
        }
    }
}

/// A stateless uniform 64-bit draw: SplitMix64 finalizer over
/// `stream + cycle·γ₁ + entity·γ₂`.
///
/// Unlike a sequential generator, the value depends only on
/// `(stream, cycle, entity)` — never on how many draws other entities
/// made first — which is the property that makes every engine decision
/// identical at any shard count and any event ordering.
#[inline]
pub(crate) fn draw(stream: u64, cycle: u64, entity: u64) -> u64 {
    let mut z = stream
        .wrapping_add(cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(entity.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps the low 32 bits of a draw onto `0..n` without modulo bias
/// (Lemire reduction). `n` must be nonzero and fit in 32 bits.
#[inline]
pub(crate) fn bounded_lo(h: u64, n: usize) -> usize {
    debug_assert!(n > 0 && n <= u32::MAX as usize);
    (((h & 0xFFFF_FFFF) * n as u64) >> 32) as usize
}

/// Maps the high 32 bits of a draw onto `0..n` — an independent second
/// index from the same draw (used for the target-VC start).
#[inline]
pub(crate) fn bounded_hi(h: u64, n: usize) -> usize {
    debug_assert!(n > 0 && n <= u32::MAX as usize);
    (((h >> 32) * n as u64) >> 32) as usize
}

/// Narrows a ring/VC index or an event-wheel slot to its `u8` storage
/// form.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "ring and VC indices are bounded by SimConfig::assert_valid (≤ 255), \
              wheel slots by EVENT_WHEEL (64)"
)]
pub(crate) fn u8_of(x: usize) -> u8 {
    debug_assert!(x <= usize::from(u8::MAX));
    x as u8
}

/// Narrows a cycle to its `u32` generation-time form (see
/// [`Packet`]). It never saturates: [`SimConfig::validate`] bounds
/// `warmup_cycles + measure_cycles + packet_length` by `u32::MAX`, so
/// every cycle a packet can be generated in fits.
#[inline]
pub(crate) fn cycle32(cycle: u64) -> u32 {
    debug_assert!(cycle <= u64::from(u32::MAX), "cycle {cycle} outgrew u32");
    u32::try_from(cycle).unwrap_or(u32::MAX)
}

/// Narrows a latency to its `u32` sample form, saturating: a latency
/// beyond four billion cycles is off every scale the reservoir serves.
#[inline]
pub(crate) fn lat32(latency: u64) -> u32 {
    u32::try_from(latency).unwrap_or(u32::MAX)
}

/// One latency observation competing for a reservoir slot.
///
/// The reservoir is *order sampling* (bottom-R by priority): each
/// delivery gets an i.i.d. uniform priority from the stats stream keyed
/// on `(cycle, ejection port)` — a globally unique pair, since an
/// output port grants at most once per cycle — and the reservoir keeps
/// the R smallest. A simple random sample like classic reservoir
/// sampling, but mergeable: the global bottom-R of a union is contained
/// in the union of per-shard bottom-Rs, so per-shard reservoirs
/// concatenated, sorted, and truncated reproduce the single-shard
/// reservoir *byte-identically*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sample {
    pub prio: u64,
    pub cycle: u64,
    /// Global ejection-port id; with `cycle` a unique tie-break.
    pub out: u32,
    pub latency: u32,
}

impl Sample {
    /// Total order: priority, then the unique `(cycle, out)` pair.
    #[inline]
    pub(crate) fn key(&self) -> (u64, u64, u32) {
        (self.prio, self.cycle, self.out)
    }
}

/// Offers `s` to a bounded bottom-R reservoir kept as a max-heap on
/// [`Sample::key`]: the root is the *worst* retained sample, evicted
/// when a better (smaller-key) one arrives.
pub(crate) fn reservoir_offer(heap: &mut Vec<Sample>, cap: usize, s: Sample) {
    debug_assert!(cap >= 1);
    if heap.len() < cap {
        heap.push(s);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent].key() >= heap[i].key() {
                break;
            }
            heap.swap(parent, i);
            i = parent;
        }
        return;
    }
    if s.key() >= heap[0].key() {
        return;
    }
    heap[0] = s;
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut biggest = i;
        if l < heap.len() && heap[l].key() > heap[biggest].key() {
            biggest = l;
        }
        if r < heap.len() && heap[r].key() > heap[biggest].key() {
            biggest = r;
        }
        if biggest == i {
            return;
        }
        heap.swap(i, biggest);
        i = biggest;
    }
}

/// A message crossing a shard boundary, applied by the receiver in its
/// event-wheel slot `wslot` (the `wheel_slot` of the cycle it takes
/// effect in). Both variants carry *global* port ids; the receiver
/// maps them to its local indexing while draining.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardMsg {
    /// A packet header reaches an input VC owned by the receiver.
    Arrival {
        wslot: u8,
        in_port: u32,
        vc: u8,
        /// The packet's Valiant intermediate, or [`NO_VIA`].
        via: u32,
        packet: Packet,
    },
    /// A buffer slot freed downstream: replenish the credit mirror of
    /// the sender-side output port `out_port`.
    Credit { wslot: u8, out_port: u32, vc: u8 },
}

const _: () = assert!(std::mem::size_of::<ShardMsg>() <= 20);

/// One cross-shard mailbox: a locked message queue with exactly one
/// producer (its source shard, during the step phase) and one consumer
/// (its target shard, during the drain phase, after a barrier).
pub(crate) type MailboxCell = Mutex<Vec<ShardMsg>>;

/// Allocates the `shards × shards` mailbox matrix every sharded run
/// communicates through.
pub(crate) fn new_mailboxes(cells: usize) -> Vec<MailboxCell> {
    let mut mailboxes: Vec<MailboxCell> = Vec::with_capacity(cells);
    mailboxes.resize_with(cells, || MailboxCell::new(Vec::new()));
    mailboxes
}

/// Appends to a mailbox. The lock is uncontended by construction (see
/// [`MailboxCell`]); poison can only be residue of a panic elsewhere
/// and is recovered rather than cascaded.
#[inline]
pub(crate) fn mailbox_push(mailboxes: &[MailboxCell], idx: usize, msg: ShardMsg) {
    mailboxes[idx]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(msg);
}

/// A packet header due at a local input virtual channel (`slot` is
/// `local_in_port · v + vc`), stored in the shard's arrival wheel.
/// Arrivals keep a wheel apart from the other [`Event`]s so that
/// neither carries a tag beside a 16-byte payload: a tagged arrival
/// would be 20 bytes, and every credit and wake would pay for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub slot: u32,
    /// The packet's Valiant intermediate, or [`NO_VIA`].
    pub via: u32,
    pub packet: Packet,
}

/// A deferred action local to one shard, stored in its event wheel.
/// All port references are in *local* indexing (`slot` is
/// `local_in_port · v + vc`; `idx` is `local_out_port · v + vc`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// An injection-buffer slot frees (the tail left the source queue).
    CreditIn { slot: u32 },
    /// A downstream buffer slot frees: replenish the local credit
    /// mirror of the output port that feeds it.
    CreditOut { idx: u32 },
    /// A parked VC slot re-enters the active worklist: it was stalled
    /// on outputs that all stay busy until this event's cycle, so
    /// rescanning it earlier could never have produced a request.
    Wake { slot: u32 },
}

const _: () = assert!(std::mem::size_of::<Arrival>() == 16);
const _: () = assert!(std::mem::size_of::<Event>() <= 8);

/// A pending output-port request from one input virtual channel, stored
/// in the flat per-cycle request array and chained per output port.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    /// Local VC slot the head packet sits in.
    pub slot: u32,
    /// Index of the previous request for the same output port this
    /// cycle, or [`NO_REQ`] — the chain arbitration walks.
    pub prev: u32,
    /// Stateless arbitration priority; the smallest priority in the
    /// chain wins, making the winner a pure function of the requester
    /// *set* (chain order cannot matter).
    pub prio: u64,
    /// Global slot id — the deterministic tie-break when priorities
    /// collide.
    pub gid: u32,
    /// Target VC at the downstream input port; unused for ejection.
    pub target_vc: u8,
}

/// The switch→shard partition of one run and its global↔local port
/// maps. Rebuilt by [`ShardPlan::build`] whenever the network or shard
/// count changes; buffers retain capacity across runs.
///
/// Switches are split into contiguous ranges balanced by input-port
/// count (a proxy for per-cycle work). Because results are
/// shard-invariant, the balance heuristic is free to change without
/// affecting any statistic.
#[derive(Debug, Default)]
pub(crate) struct ShardPlan {
    /// Effective shard count (after clamping to the switch count).
    pub shards: usize,
    /// `switch_starts[k]..switch_starts[k+1]` are shard k's switches.
    pub switch_starts: Vec<u32>,
    /// Shard owning each switch.
    pub shard_of_switch: Vec<u32>,
    /// Terminals `term_offsets[s]..term_offsets[s+1]` live on switch
    /// `s`: population is densely packed, so each switch's terminals
    /// form one contiguous id range.
    pub term_offsets: Vec<u32>,
    /// Shard owning each global input port, and its local index there.
    pub shard_of_in: Vec<u32>,
    pub local_of_in: Vec<u32>,
    /// Shard owning each global output port, and its local index there.
    pub shard_of_out: Vec<u32>,
    pub local_of_out: Vec<u32>,
    /// The output port feeding each input port ([`NO_PORT`] for
    /// injection ports) — where freed-buffer credits must return.
    pub feeder_of_in: Vec<u32>,
    /// Per shard: owned global input-port ids, ascending.
    pub in_gids: Vec<Vec<u32>>,
    /// Per shard: owned global output-port ids, ascending.
    pub out_gids: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// Rebuilds the partition of `net` into `shards` contiguous ranges
    /// (callers clamp `shards` to `1..=num_switches`).
    pub fn build(&mut self, net: &SimNetwork, shards: usize) {
        let n = net.num_switches();
        debug_assert!(shards >= 1 && (n == 0 || shards <= n));
        self.shards = shards;

        // Contiguous ranges balanced by per-switch input-port count.
        let mut weight = vec![0u64; n];
        for &sw in &net.switch_of_in_port {
            weight[sw as usize] += 1;
        }
        let total: u64 = weight.iter().sum();
        self.switch_starts.clear();
        let mut s = 0usize;
        let mut cum = 0u64;
        for k in 0..shards {
            self.switch_starts.push(vid(s));
            // Greedy: take at least one switch, then up to this shard's
            // cumulative weight quota, always leaving one switch for
            // each shard still to open.
            let quota = total * (k as u64 + 1) / shards as u64;
            let max_end = n - (shards - k - 1);
            while s < max_end {
                cum += weight[s];
                s += 1;
                if cum >= quota {
                    break;
                }
            }
        }
        self.switch_starts.push(vid(n));
        self.shard_of_switch.clear();
        self.shard_of_switch.resize(n, 0);
        for k in 0..shards {
            for sw in self.switch_starts[k]..self.switch_starts[k + 1] {
                self.shard_of_switch[sw as usize] = vid(k);
            }
        }

        // Terminal ranges per host switch: prefix sums of the per-switch
        // counts, which are the ranges only because the terminal-to-switch
        // map ascends (the inject loop walks them as `offset + t`).
        debug_assert!(
            net.dst_switch_of_terminal.is_sorted(),
            "terminals must be densely packed onto switches"
        );
        self.term_offsets.clear();
        self.term_offsets.resize(n + 1, 0);
        for &sw in &net.dst_switch_of_terminal {
            self.term_offsets[sw as usize + 1] += 1;
        }
        for i in 0..n {
            self.term_offsets[i + 1] += self.term_offsets[i];
        }

        // Global↔local port maps, ascending per shard.
        for list in &mut self.in_gids {
            list.clear();
        }
        self.in_gids.resize_with(shards, Vec::new);
        self.shard_of_in.clear();
        self.local_of_in.clear();
        for (gid, &sw) in net.switch_of_in_port.iter().enumerate() {
            let sh = self.shard_of_switch[sw as usize];
            self.shard_of_in.push(sh);
            self.local_of_in.push(vid(self.in_gids[sh as usize].len()));
            self.in_gids[sh as usize].push(vid(gid));
        }
        for list in &mut self.out_gids {
            list.clear();
        }
        self.out_gids.resize_with(shards, Vec::new);
        self.shard_of_out.clear();
        self.local_of_out.clear();
        for (gid, &sw) in net.out_owner.iter().enumerate() {
            let sh = self.shard_of_switch[sw as usize];
            self.shard_of_out.push(sh);
            self.local_of_out
                .push(vid(self.out_gids[sh as usize].len()));
            self.out_gids[sh as usize].push(vid(gid));
        }

        net.feeder_out_of_in_ports(&mut self.feeder_of_in);
    }

    /// Logical heap bytes of the maps (see [`rfc_graph::HeapBytes`]).
    pub fn heap_bytes(&self) -> usize {
        slice_heap_bytes(&self.switch_starts)
            + slice_heap_bytes(&self.shard_of_switch)
            + slice_heap_bytes(&self.term_offsets)
            + slice_heap_bytes(&self.shard_of_in)
            + slice_heap_bytes(&self.local_of_in)
            + slice_heap_bytes(&self.shard_of_out)
            + slice_heap_bytes(&self.local_of_out)
            + slice_heap_bytes(&self.feeder_of_in)
            + nested_heap_bytes(&self.in_gids)
            + nested_heap_bytes(&self.out_gids)
    }
}

/// Logical heap bytes of a list of lists, outer and inner.
fn nested_heap_bytes<T>(lists: &[Vec<T>]) -> usize {
    slice_heap_bytes(lists) + lists.iter().map(|l| slice_heap_bytes(l)).sum::<usize>()
}

/// One shard's complete per-run state: the serial engine's flat arrays,
/// locally sized, plus the credit mirrors and the per-switch injection
/// generators.
#[derive(Debug, Default)]
pub(crate) struct ShardState {
    /// Flat ring-buffer packet storage: `buffer_packets` consecutive
    /// slots per local virtual channel, indexed `slot * cap + offset`.
    pub pkts: Vec<Packet>,
    /// The Valiant intermediate of each `pkts` entry ([`NO_VIA`] once
    /// passed), laid out like `pkts`; empty unless Valiant routing is
    /// on, so direct runs store no intermediates at all.
    pub vias: Vec<u32>,
    /// Ring-buffer head offset per VC slot.
    pub q_head: Vec<u8>,
    /// Occupied entries per VC slot.
    pub q_len: Vec<u8>,
    /// Free injection-buffer slots, indexed like the VC slots; only the
    /// entries of injection input ports are meaningful.
    pub in_credits: Vec<u8>,
    /// Credit mirror of the downstream buffers each *local output port*
    /// feeds (`local_out · v + vc`): decremented at grant, replenished
    /// by [`Event::CreditOut`] / [`ShardMsg::Credit`]. This shard-local
    /// ownership is what removes all cross-shard reads from the cycle
    /// loop.
    pub out_credits: Vec<u8>,
    /// Worklist of VC slots that may hold packets; stale entries are
    /// retired lazily by the request scan.
    pub active: Vec<u32>,
    /// Per VC slot: on `active`, credit-parked, or neither.
    pub slot_state: Vec<SlotState>,
    /// The credit-parked slots, listed per output port.
    pub credit_waits: CreditWaits,
    /// Serialization end per output port, narrowed by [`cycle32`] and
    /// indexed by **global** port id (only owned entries are ever
    /// touched): the request stage's busy/park scans walk candidate
    /// lists of global ids, and global indexing spares them a local-id
    /// translation on the hottest path (DESIGN.md §15).
    pub busy_until: Vec<u32>,
    /// Event wheels of [`EVENT_WHEEL`] slots, indexed by
    /// `wheel_slot(cycle)`: packet arrivals, and everything else.
    pub arrivals: Vec<Vec<Arrival>>,
    pub wheel: Vec<Vec<Event>>,
    /// Flat per-cycle request array; entries chain per output port.
    pub reqs: Vec<Request>,
    /// Most recent request index per local output port, or [`NO_REQ`].
    pub req_head: Vec<u32>,
    /// Requests per local output port this cycle.
    pub req_count: Vec<u32>,
    pub touched: Vec<u32>,
    /// Scratch for live candidate rows
    /// ([`crate::candidates::Candidates::row`]).
    pub row_bufs: RowBufs,
    /// Slot → global slot id (`global_in_port · v + vc`), the stateless
    /// draw key and arbitration tie-break; precomputed because the
    /// request stage needs it for every active slot every cycle. The
    /// scan derives the slot's switch from it, and a grant the slot's
    /// VC and feeding port, instead of storing them per slot.
    pub slot_gid: Vec<u32>,
    /// Owned switches that host at least one terminal, and their
    /// per-run sequential injection generators (reseeded each run from
    /// `child_seed(inj_stream, switch)` — the per-node stream that
    /// makes injection identical under any partition).
    pub inj_switches: Vec<u32>,
    pub inj_rngs: Vec<SmallRng>,
    /// Bottom-R latency reservoir (see [`Sample`]).
    pub reservoir: Vec<Sample>,
    pub generated: u64,
    pub refused: u64,
    pub unroutable: u64,
    pub delivered: u64,
    pub latency_sum: u64,
    /// `delivered` at every epoch boundary of the run, then at its end.
    pub epoch_marks: Vec<u64>,
    /// What the request and arbitration stages did this run.
    #[cfg(test)]
    pub work: WorkCounts,
}

/// Deterministic work counts of one run: request-scan slot visits,
/// requests formed and grants made. Test-only, so the hot loop pays
/// nothing for them in a release build.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorkCounts {
    pub visits: u64,
    pub requests: u64,
    pub grants: u64,
}

impl ShardState {
    /// Clears and resizes every buffer for shard `me` of `plan`.
    /// Retains capacity across runs.
    pub fn reset(
        &mut self,
        plan: &ShardPlan,
        me: usize,
        net: &SimNetwork,
        cfg: &SimConfig,
        inj_stream: u64,
    ) {
        let v = cfg.virtual_channels;
        let cap = cfg.buffer_packets;
        let n_in = plan.in_gids[me].len();
        let n_out = plan.out_gids[me].len();
        let slots = n_in * v;
        // Stale packet payloads are unreachable once q_len is zeroed, so
        // the ring storage only needs the right length, not a wipe.
        self.pkts.resize(slots * cap, Packet::default());
        let vias = if cfg.valiant_routing { slots * cap } else { 0 };
        self.vias.resize(vias, NO_VIA);
        self.q_head.clear();
        self.q_head.resize(slots, 0);
        self.q_len.clear();
        self.q_len.resize(slots, 0);
        self.in_credits.clear();
        self.in_credits.resize(slots, u8_of(cap));
        self.out_credits.clear();
        self.out_credits.resize(n_out * v, u8_of(cap));
        self.active.clear();
        self.slot_state.clear();
        self.slot_state.resize(slots, SlotState::Idle);
        self.credit_waits.reset(n_out, slots);
        self.busy_until.clear();
        self.busy_until.resize(net.num_out_ports(), 0);
        self.arrivals.iter_mut().for_each(Vec::clear);
        self.arrivals.resize_with(EVENT_WHEEL, Vec::new);
        self.wheel.iter_mut().for_each(Vec::clear);
        self.wheel.resize_with(EVENT_WHEEL, Vec::new);
        self.reqs.clear();
        self.req_head.clear();
        self.req_head.resize(n_out, NO_REQ);
        self.req_count.clear();
        self.req_count.resize(n_out, 0);
        self.touched.clear();
        self.slot_gid.clear();
        self.slot_gid.reserve(slots);
        for &gid in &plan.in_gids[me] {
            for vc in 0..v {
                self.slot_gid.push(vid(gid as usize * v + vc));
            }
        }
        self.inj_switches.clear();
        self.inj_rngs.clear();
        for sw in plan.switch_starts[me]..plan.switch_starts[me + 1] {
            let s = sw as usize;
            if plan.term_offsets[s + 1] > plan.term_offsets[s] {
                self.inj_switches.push(sw);
                self.inj_rngs
                    .push(SmallRng::seed_from_u64(rfc_parallel::child_seed(
                        inj_stream,
                        u64::from(sw),
                    )));
            }
        }
        self.reservoir.clear();
        self.generated = 0;
        self.refused = 0;
        self.unroutable = 0;
        self.delivered = 0;
        self.latency_sum = 0;
        self.epoch_marks.clear();
        #[cfg(test)]
        {
            self.work = WorkCounts::default();
        }
    }

    /// Logical heap bytes of every buffer (see [`rfc_graph::HeapBytes`]).
    pub fn heap_bytes(&self) -> usize {
        slice_heap_bytes(&self.pkts)
            + slice_heap_bytes(&self.vias)
            + slice_heap_bytes(&self.q_head)
            + slice_heap_bytes(&self.q_len)
            + slice_heap_bytes(&self.in_credits)
            + slice_heap_bytes(&self.out_credits)
            + slice_heap_bytes(&self.active)
            + slice_heap_bytes(&self.slot_state)
            + self.credit_waits.heap_bytes()
            + slice_heap_bytes(&self.busy_until)
            + nested_heap_bytes(&self.arrivals)
            + nested_heap_bytes(&self.wheel)
            + slice_heap_bytes(&self.reqs)
            + slice_heap_bytes(&self.req_head)
            + slice_heap_bytes(&self.req_count)
            + slice_heap_bytes(&self.touched)
            + self.row_bufs.heap_bytes()
            + slice_heap_bytes(&self.slot_gid)
            + slice_heap_bytes(&self.inj_switches)
            + slice_heap_bytes(&self.inj_rngs)
            + slice_heap_bytes(&self.reservoir)
            + slice_heap_bytes(&self.epoch_marks)
    }

    /// Packets queued or in flight inside this shard at run end (the
    /// mailboxes are empty: the run's last phase is a drain).
    pub fn in_flight(&self) -> u64 {
        self.q_len.iter().map(|&l| u64::from(l)).sum::<u64>()
            + self.arrivals.iter().map(Vec::len).sum::<usize>() as u64
    }

    /// Re-lists every credit-parked slot: a routing-table change can
    /// give a parked head a new candidate row, so its park no longer
    /// holds.
    pub fn relist_credit_parked(&mut self) {
        for o in 0..self.credit_waits.head.len() {
            self.credit_waits
                .relist(o, &mut self.slot_state, &mut self.active);
        }
    }
}

/// Intrusive per-output wait lists of credit-parked VC slots
/// (DESIGN.md §10 "Credit parking"). A slot is on at most one list,
/// exactly while its [`SlotState`] is `CreditParked`.
#[derive(Debug, Default)]
pub(crate) struct CreditWaits {
    /// First parked slot per local output port, or [`NO_SLOT`].
    head: Vec<u32>,
    /// The next slot on the same list, per local VC slot; read only
    /// while the slot is parked.
    next: Vec<u32>,
    /// Slots on all lists. At 0 a credit return skips the list
    /// lookup, so runs that never stall on credits pay nothing for it.
    parked: u32,
}

impl CreditWaits {
    fn reset(&mut self, n_out: usize, slots: usize) {
        self.head.clear();
        self.head.resize(n_out, NO_SLOT);
        // Stale links are unreachable once the heads are cleared.
        self.next.resize(slots, NO_SLOT);
        self.parked = 0;
    }

    fn heap_bytes(&self) -> usize {
        slice_heap_bytes(&self.head) + slice_heap_bytes(&self.next)
    }

    /// Parks `slot` (taken off the worklist by the caller) on the list
    /// of local output `o`.
    #[inline]
    pub fn park(&mut self, o: usize, slot: u32, slot_state: &mut [SlotState]) {
        let s = slot as usize;
        slot_state[s] = SlotState::CreditParked;
        self.next[s] = self.head[o];
        self.head[o] = slot;
        self.parked += 1;
    }

    /// Moves every slot parked on local output `o` back onto `active`.
    #[inline]
    pub fn relist(&mut self, o: usize, slot_state: &mut [SlotState], active: &mut Vec<u32>) {
        if self.parked == 0 {
            return;
        }
        let mut slot = std::mem::replace(&mut self.head[o], NO_SLOT);
        while slot != NO_SLOT {
            let s = slot as usize;
            debug_assert_eq!(
                slot_state[s],
                SlotState::CreditParked,
                "a credit woke slot {s}, which is not credit-parked"
            );
            slot_state[s] = SlotState::Active;
            active.push(slot);
            self.parked -= 1;
            slot = self.next[s];
        }
    }

    /// Debug builds check that the lists hold exactly the
    /// `CreditParked` slots, `parked` of them, and that none loops.
    pub fn debug_check(&self, slot_state: &[SlotState]) {
        if !cfg!(debug_assertions) {
            return;
        }
        let parked = slot_state
            .iter()
            .filter(|&&st| st == SlotState::CreditParked)
            .count();
        let mut listed = 0usize;
        for &first in &self.head {
            let mut slot = first;
            while slot != NO_SLOT && listed <= parked {
                debug_assert_eq!(slot_state[slot as usize], SlotState::CreditParked);
                listed += 1;
                slot = self.next[slot as usize];
            }
        }
        debug_assert_eq!(listed, parked, "the wait lists loop or miss a parked slot");
        debug_assert_eq!(self.parked as usize, parked, "the parked count drifted");
    }
}

// xtask: hot-loop-begin — enqueue, land and drain stay allocation-free
// xtask: lockstep-begin — runs between barrier waits every cycle; the
// mailbox `.lock()` calls are uncontended by construction (one
// producer, one consumer, phase-separated by the barriers)
impl ShardState {
    /// Appends `packet`, with its Valiant intermediate `via`, at the
    /// tail of VC slot `s`'s ring and lists the slot on the worklist if
    /// it was idle: the one way a packet enters a ring, for arrivals and
    /// injections alike.
    #[inline]
    pub fn enqueue(&mut self, cfg: &SimConfig, s: usize, packet: Packet, via: u32) {
        let cap = cfg.buffer_packets;
        // Ring tail; the wrap-if avoids a runtime modulo.
        let mut pos = self.q_head[s] as usize + self.q_len[s] as usize;
        if pos >= cap {
            pos -= cap;
        }
        self.pkts[s * cap + pos] = packet;
        if cfg.valiant_routing {
            self.vias[s * cap + pos] = via;
        }
        self.q_len[s] += 1;
        if self.slot_state[s] == SlotState::Idle {
            self.slot_state[s] = SlotState::Active;
            self.active.push(vid(s));
        }
    }

    /// Lands `msg` in its wheel slot, mapping its global port to this
    /// shard's local indexing (`v` VCs per port): the one way a message
    /// enters the wheels, for same-shard sends and drained mailboxes
    /// alike. Always inlined, so a same-shard grant pushes in place.
    #[inline(always)]
    pub fn land(&mut self, local_of_in: &[u32], local_of_out: &[u32], v: usize, msg: ShardMsg) {
        match msg {
            ShardMsg::Arrival {
                wslot,
                in_port,
                vc,
                via,
                packet,
            } => {
                let slot = local_of_in[in_port as usize] as usize * v + usize::from(vc);
                self.arrivals[usize::from(wslot)].push(Arrival {
                    slot: vid(slot),
                    via,
                    packet,
                });
            }
            ShardMsg::Credit {
                wslot,
                out_port,
                vc,
            } => {
                let idx = local_of_out[out_port as usize] as usize * v + usize::from(vc);
                self.wheel[usize::from(wslot)].push(Event::CreditOut { idx: vid(idx) });
            }
        }
    }

    /// Lands every message addressed to shard `me` in fixed source-shard
    /// order (each mailbox is already in its producer's deterministic
    /// send order). Runs between the two cycle barriers.
    pub fn drain_mailboxes(&mut self, plan: &ShardPlan, me: usize, mb: &[MailboxCell], v: usize) {
        for src in 0..plan.shards {
            let mut mailbox = mb[src * plan.shards + me]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for msg in mailbox.drain(..) {
                self.land(&plan.local_of_in, &plan.local_of_out, v, msg);
            }
        }
    }
}
// xtask: lockstep-end
// xtask: hot-loop-end

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test latencies are small sample indices"
)]
mod tests {
    use super::*;
    use rfc_topology::FoldedClos;

    #[test]
    fn partition_covers_all_switches_contiguously() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let net = SimNetwork::from_folded_clos(&clos);
        let n = net.num_switches();
        for shards in [1, 2, 3, 5, n] {
            let mut plan = ShardPlan::default();
            plan.build(&net, shards);
            assert_eq!(plan.switch_starts.len(), shards + 1);
            assert_eq!(plan.switch_starts[0], 0);
            assert_eq!(plan.switch_starts[shards] as usize, n);
            for k in 0..shards {
                assert!(
                    plan.switch_starts[k] < plan.switch_starts[k + 1],
                    "shard {k} of {shards} is empty"
                );
            }
            // Port maps invert correctly.
            for gid in 0..net.num_in_ports() {
                let sh = plan.shard_of_in[gid] as usize;
                let local = plan.local_of_in[gid] as usize;
                assert_eq!(plan.in_gids[sh][local] as usize, gid);
            }
            for gid in 0..net.num_out_ports() {
                let sh = plan.shard_of_out[gid] as usize;
                let local = plan.local_of_out[gid] as usize;
                assert_eq!(plan.out_gids[sh][local] as usize, gid);
            }
        }
    }

    #[test]
    fn terminal_ranges_are_exactly_each_switchs_terminals() {
        let clos = FoldedClos::cft(8, 3).unwrap();
        // Capacity 128 at 4 per leaf; 78 leaves the 20th leaf partly
        // filled and the last 12 leaves empty.
        let net = SimNetwork::from_folded_clos_populated(&clos, 78);
        let mut plan = ShardPlan::default();
        plan.build(&net, 4);
        assert_eq!(plan.term_offsets.len(), net.num_switches() + 1);
        for sw in 0..net.num_switches() {
            let range = plan.term_offsets[sw] as usize..plan.term_offsets[sw + 1] as usize;
            let hosted: Vec<usize> = (0..net.num_terminals())
                .filter(|&t| net.dst_switch_of_terminal[t] as usize == sw)
                .collect();
            assert_eq!(range.collect::<Vec<_>>(), hosted, "switch {sw}");
        }
        assert_eq!(plan.term_offsets[19 + 1] - plan.term_offsets[19], 2);
        assert_eq!(plan.term_offsets[net.num_switches()], 78);
    }

    #[test]
    fn reservoir_keeps_the_bottom_r_by_key() {
        let cap = 8;
        let mut heap = Vec::new();
        let mut all: Vec<Sample> = (0..100u64)
            .map(|i| Sample {
                prio: draw(7, i, 0),
                cycle: i,
                out: 0,
                latency: i as u32,
            })
            .collect();
        for &s in &all {
            reservoir_offer(&mut heap, cap, s);
        }
        all.sort_unstable_by_key(Sample::key);
        let mut kept: Vec<_> = heap.iter().map(Sample::key).collect();
        kept.sort_unstable();
        let expect: Vec<_> = all[..cap].iter().map(Sample::key).collect();
        assert_eq!(kept, expect, "heap must hold exactly the bottom-{cap}");
    }

    #[test]
    fn draws_are_pure_and_decorrelated() {
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 2, 4));
        assert_ne!(draw(1, 2, 3), draw(1, 3, 3));
        assert_ne!(draw(1, 2, 3), draw(2, 2, 3));
        // Lemire reduction stays in range and uses both halves.
        for n in [1usize, 2, 7, 100] {
            for c in 0..50 {
                let h = draw(9, c, 1);
                assert!(bounded_lo(h, n) < n);
                assert!(bounded_hi(h, n) < n);
            }
        }
    }
}
