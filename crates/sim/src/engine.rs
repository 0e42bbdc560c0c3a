//! The cycle-driven virtual cut-through simulation engine.
//!
//! # Hot-path layout
//!
//! Each cycle a shard runs four phases over its own state through a
//! per-cycle view, [`Cycle`]: `deliver`, `inject`, `request_scan` and
//! `arbitrate`. The engine is the bottleneck of every simulation
//! figure, so its per-cycle state is laid out flat (see DESIGN.md §10):
//!
//! * **Injection** draws the *gap* to the next injecting terminal from a
//!   geometric distribution ([`geometric_gap`]) instead of one Bernoulli
//!   draw per terminal — O(injections), not O(terminals), per cycle.
//! * **Packet queues** are fixed-capacity ring buffers of 8-byte
//!   packets in one flat array (`buffer_packets` slots per virtual
//!   channel), written only by `ShardState::enqueue` — no per-VC
//!   `VecDeque` headers or heap indirection.
//! * An **active-VC worklist** drives the request stage: only slots
//!   that hold packets are visited, with lazy removal when a slot is
//!   observed empty.
//! * **Parking** keeps stalled slots off the worklist. A slot whose
//!   candidate outputs are all busy waits for a `Wake` at the cycle the
//!   first one frees. A slot whose only candidate is free but has no
//!   credit in the head's VC range is *credit-parked*: it waits on that
//!   output's wait list ([`crate::shard::CreditWaits`]) until a credit
//!   for the output returns, or a churn table change re-lists it. Both
//!   are exact: no scan of a parked slot could have formed a request,
//!   and a scan has no side effects (every draw is stateless).
//! * **Requests** go into one flat preallocated array chained per
//!   output port (`prev` links + per-output head/count), so arbitration
//!   touches no nested vectors.
//! * **ECMP candidates** are materialized as *resolved output ports*,
//!   eliminating the per-request neighbor-to-port binary search.
//!
//! # Sharded execution
//!
//! A run partitions the switches into contiguous shards (DESIGN.md §13),
//! each advanced one cycle at a time by its own worker; cross-shard
//! packets and credits cross through mailboxes at the cycle boundary,
//! and land like same-shard ones, through `ShardState::land`.
//! All randomness is drawn *statelessly* per decision — a counter-based
//! hash over `(stream, cycle, global entity id)` ([`crate::shard::draw`])
//! for routing, arbitration and reservoir sampling, plus one sequential
//! per-switch generator for injection — so every decision is a pure
//! function of ids the partition cannot change. Results are therefore
//! **byte-identical at any shard count** (and at any worker-pool thread
//! count). Absolute statistics differ from the pre-sharding engine
//! because the RNG draw sequence changed shape (the same precedent as
//! the PR 3 engine overhaul).

use std::sync::PoisonError;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rfc_graph::{slice_heap_bytes, vid};
use rfc_routing::UpDownRouting;
use rfc_topology::{FoldedClos, LinkEvent};

use crate::candidates::{Candidates, RleTable, RowBufs};
use crate::churn::{ChurnResult, DynState, FaultSchedule};
use crate::network::{OutTarget, SimNetwork};
use crate::shard::{
    bounded_hi, bounded_lo, cycle32, draw, lat32, mailbox_push, new_mailboxes, reservoir_offer,
    u8_of, Arrival, Event, MailboxCell, Request, Sample, ShardMsg, ShardPlan, ShardState,
    SlotState, Streams, NO_PORT, NO_REQ,
};
use crate::traffic::Traffic;
use crate::{RequestMode, SimConfig, SimResult, TrafficPattern};

/// Size of the event wheel; link latency + packet length must stay below
/// this horizon.
pub(crate) const EVENT_WHEEL: usize = 64;

/// The event-wheel slot of cycle `at`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "this workspace is 64-bit only (DESIGN.md §12); even a 32-bit \
              truncation keeps the low bits, and EVENT_WHEEL divides 2^32"
)]
pub(crate) fn wheel_slot(at: u64) -> usize {
    (at as usize) % EVENT_WHEEL
}

/// Sentinel for "no Valiant intermediate".
pub(crate) const NO_VIA: u32 = u32::MAX;

/// The virtual-channel class a packet may occupy: with Valiant routing,
/// phase-0 packets (heading to the intermediate) use `[0, v/2)` and
/// phase-1 packets `[v/2, v)`, breaking the down→up dependency the
/// chained up/down phases would otherwise create.
#[inline]
fn vc_range(valiant: bool, in_phase_0: bool, v: usize) -> (usize, usize) {
    if !valiant {
        (0, v)
    } else if in_phase_0 {
        (0, v / 2)
    } else {
        (v / 2, v)
    }
}

/// Geometric skip-ahead: the number of silent terminals before the next
/// injecting one, `P(G = k) = (1-p)^k · p`, drawn in O(1) via inversion
/// as `floor(ln(1-u) / ln(1-p))` with `u` uniform in `[0, 1)`.
///
/// `ln_q` is the precomputed `ln(1-p)`: finite negative for `p` in
/// (0, 1) and `-inf` at `p = 1`, where the gap collapses to 0 — every
/// terminal injects, the correct limit. The caller must keep `p > 0`
/// (at `p = 0` the quotient degenerates instead of yielding an infinite
/// gap). The f64 → usize cast saturates, so huge gaps simply step past
/// the end of the terminal array.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the quotient is non-negative, and the saturating cast is the documented intent"
)]
fn geometric_gap(rng: &mut SmallRng, ln_q: f64) -> usize {
    let u: f64 = rng.gen();
    ((1.0 - u).ln() / ln_q) as usize
}

/// The request stage's pick among `len` candidate out-ports. `h` is the
/// slot's stateless per-cycle draw; its low half picks the candidate
/// (the high half is reserved for the target-VC start).
#[inline]
fn pick_candidate(mode: RequestMode, h: u64, len: usize, switch: u32, target: u32) -> usize {
    match mode {
        RequestMode::UpDownRandom => {
            if len == 1 {
                0
            } else {
                bounded_lo(h, len)
            }
        }
        RequestMode::UpDownHash => {
            let hh = (u64::from(switch).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ (u64::from(target).wrapping_mul(0xD1B5_4A32_D192_ED03));
            (hh >> 32) as usize % len
        }
    }
}

/// A packet in flight. Payload is irrelevant to the performance study;
/// only destination and timing are tracked, in 8 bytes (DESIGN.md §10
/// "Compact packets"): the destination switch is read from
/// `SimNetwork::dst_switch_of_terminal`, and a Valiant intermediate
/// travels beside the packet (`ShardState::vias`, [`Arrival`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Packet {
    dst_terminal: u32,
    /// Generation cycle, narrowed by [`cycle32`].
    gen_time: u32,
}

const _: () = assert!(std::mem::size_of::<Packet>() == 8);

/// The per-run read-only context shared by every shard worker.
#[derive(Debug)]
pub(crate) struct StepCtx {
    traffic: Traffic,
    streams: Streams,
    p_gen: f64,
    /// Precomputed `ln(1 - p_gen)`; see [`geometric_gap`].
    ln_q: f64,
    /// Terminal count, for the Valiant intermediate pick.
    t32: u32,
    warmup: u64,
    /// One past the last simulated cycle.
    pub(crate) end: u64,
}

/// One shard's view of one cycle: what the four phases
/// ([`Cycle::deliver`], [`Cycle::inject`], [`Cycle::request_scan`] and
/// [`Cycle::arbitrate`]) read while they mutate the shard's own
/// [`ShardState`]. The plan and network maps are held as slices, so
/// their base pointers and bounds stay hoisted out of the per-packet
/// loops.
struct Cycle<'a> {
    ctx: &'a StepCtx,
    cfg: &'a SimConfig,
    net: &'a SimNetwork,
    candidates: &'a Candidates,
    routing: &'a UpDownRouting,
    /// This shard's outgoing mailboxes, one per target shard.
    outbox: &'a [MailboxCell],
    me: usize,
    now: u64,
    term_offsets: &'a [u32],
    local_of_in: &'a [u32],
    local_of_out: &'a [u32],
    shard_of_in: &'a [u32],
    shard_of_out: &'a [u32],
    /// This shard's owned global output-port ids, by local index.
    out_gids: &'a [u32],
    feeder_of_in: &'a [u32],
    out_target: &'a [OutTarget],
    eject_port_of_terminal: &'a [u32],
    dst_switch_of_terminal: &'a [u32],
    inject_port_of_terminal: &'a [u32],
    switch_of_in_port: &'a [u32],
}

/// Reusable per-run buffers for [`Simulation::run_sharded_scratch`].
///
/// A run needs packet rings, credit counters, event wheels, request
/// chains, and the latency reservoirs — allocations whose sizes depend
/// only on the network and the shard count, not on the traffic. Callers
/// executing many runs (load sweeps, Monte-Carlo batches, one worker
/// thread of a parallel driver) build one `RunScratch` and pass it to
/// every run; the buffers are cleared and resized at the start of each
/// run, so steady-state execution allocates nothing.
///
/// A scratch may be freely reused across different `Simulation`s,
/// networks, and shard counts; results are identical to
/// [`Simulation::run`], which simply uses a fresh scratch internally.
#[derive(Debug, Default)]
pub struct RunScratch {
    /// The switch partition and global↔local port maps.
    pub(crate) plan: ShardPlan,
    /// One complete engine state per shard.
    pub(crate) shard_states: Vec<ShardState>,
    /// Reservoir merge area (all shards' samples, sorted, truncated).
    pub(crate) merge_buf: Vec<Sample>,
    /// The merged, sorted latency values percentiles are read from.
    pub(crate) latency_samples: Vec<u32>,
    /// Worker scopes the last run entered.
    #[cfg(test)]
    pub(crate) scopes: usize,
}

impl RunScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the shard plan and clears/resizes every per-shard state.
    /// Retains capacity across calls.
    pub(crate) fn reset(
        &mut self,
        net: &SimNetwork,
        cfg: &SimConfig,
        shards: usize,
        inj_stream: u64,
    ) {
        self.plan.build(net, shards);
        self.shard_states.truncate(shards);
        while self.shard_states.len() < shards {
            self.shard_states.push(ShardState::default());
        }
        for me in 0..shards {
            self.shard_states[me].reset(&self.plan, me, net, cfg, inj_stream);
        }
        self.merge_buf.clear();
        self.latency_samples.clear();
        #[cfg(test)]
        {
            self.scopes = 0;
        }
    }
}

/// Logical bytes of every per-run buffer: the engine half of the
/// footprint test (DESIGN.md §15).
impl rfc_graph::HeapBytes for RunScratch {
    fn heap_bytes(&self) -> usize {
        self.plan.heap_bytes()
            + slice_heap_bytes(&self.shard_states)
            + self
                .shard_states
                .iter()
                .map(ShardState::heap_bytes)
                .sum::<usize>()
            + slice_heap_bytes(&self.merge_buf)
            + slice_heap_bytes(&self.latency_samples)
    }
}

/// A configured simulation, ready to run traffic.
///
/// One `Simulation` can [`Simulation::run`] many independent experiments;
/// each run builds fresh per-run state and is fully determined by its
/// `(pattern, offered_load, seed)` triple — the shard count does not
/// enter the results.
///
/// Packets route by up/down routing, which makes the flow-controlled
/// engine deadlock-free; it is the only router. The type parameter is
/// vestigial: only `Simulation<'a, UpDownRouting>` is implemented. It
/// stays until the benchmark harness, which names that type, drops it
/// too (ROADMAP item 1).
#[derive(Debug)]
pub struct Simulation<'a, R> {
    net: &'a SimNetwork,
    routing: &'a R,
    config: SimConfig,
    candidates: Candidates,
}

impl<'a> Simulation<'a, UpDownRouting> {
    /// Creates a simulation over `net` routed by `routing`.
    ///
    /// The candidate table is built over the shared worker pool
    /// (`rfc_parallel`), chunked by switch; the result is byte-identical
    /// to a serial build at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::assert_valid`]).
    pub fn new(net: &'a SimNetwork, routing: &'a UpDownRouting, config: SimConfig) -> Self {
        config.assert_valid();
        Self {
            net,
            routing,
            config,
            candidates: Candidates::build(net, routing),
        }
    }

    /// A simulation over an already built candidate source — how tests
    /// force the live-query path.
    #[cfg(test)]
    pub(crate) fn with_candidates(
        net: &'a SimNetwork,
        routing: &'a UpDownRouting,
        config: SimConfig,
        candidates: Candidates,
    ) -> Self {
        config.assert_valid();
        Self {
            net,
            routing,
            config,
            candidates,
        }
    }

    /// The candidate source built at construction.
    #[cfg(test)]
    pub(crate) fn candidates(&self) -> &Candidates {
        &self.candidates
    }

    /// Logical bytes of the materialized candidate table, or `None` when
    /// the simulation runs on live routing queries — the table half of
    /// the `routing_bytes_per_terminal` figure (DESIGN.md §15).
    pub fn candidate_table_bytes(&self) -> Option<usize> {
        self.candidates.table().map(RleTable::bytes)
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs one experiment: `offered_load` is in phits per node per cycle
    /// (1.0 = every node tries to inject one phit per cycle). The shard
    /// count comes from [`rfc_parallel::current_shards`] (`--shards` /
    /// `RFC_SHARDS`); results are identical at any value.
    pub fn run(&self, pattern: TrafficPattern, offered_load: f64, seed: u64) -> SimResult {
        self.run_sharded_scratch(
            pattern,
            offered_load,
            seed,
            rfc_parallel::current_shards(),
            &mut RunScratch::new(),
        )
    }

    /// Like [`Simulation::run`] with an explicit shard count (clamped to
    /// the switch count) and caller-owned buffers — the entry point for
    /// load sweeps, parallel drivers and benchmarks. Results are
    /// identical to [`Simulation::run`] at any shard count.
    ///
    /// Randomness is organized as independent streams derived from
    /// `seed`: the traffic-state build, per-switch sequential injection
    /// generators, and three stateless counter streams for routing
    /// decisions, arbitration priorities, and reservoir sampling. No draw depends on event order or on the
    /// partition, which is what makes results shard-count-invariant.
    pub fn run_sharded_scratch(
        &self,
        pattern: TrafficPattern,
        offered_load: f64,
        seed: u64,
        shards: usize,
        scratch: &mut RunScratch,
    ) -> SimResult {
        let ctx = self.start_run(pattern, offered_load, seed, shards, scratch);
        self.lockstep(&ctx, scratch, None, &[], 1);
        self.merge_stats(offered_load, scratch)
    }

    /// Runs one experiment under failure churn on `shards` shards
    /// (clamped to the switch count) over caller-owned buffers:
    /// `schedule` events apply at cycle boundaries while traffic flows.
    /// `clos` must be the pristine topology this simulation's network
    /// and routing were built from. Alongside the usual end-of-run
    /// statistics, the run `0..end` is cut into `epochs` equal time
    /// slices, each reporting the deliveries it saw inside the
    /// measurement window; results are byte-identical at any shard
    /// count. Events at or after the last cycle are not applied.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors run_sharded_scratch plus the topology, schedule and epoch count"
    )]
    pub fn run_churn_sharded_scratch(
        &self,
        clos: &FoldedClos,
        schedule: &FaultSchedule,
        pattern: TrafficPattern,
        offered_load: f64,
        seed: u64,
        epochs: usize,
        shards: usize,
        scratch: &mut RunScratch,
    ) -> ChurnResult {
        let ctx = self.start_run(pattern, offered_load, seed, shards, scratch);
        let end = ctx.end;
        let epochs = epochs.clamp(1, usize::try_from(end.max(1)).unwrap_or(usize::MAX));
        let state = self.lockstep(&ctx, scratch, Some(clos), schedule.events(), epochs);
        let result = self.merge_stats(offered_load, scratch);

        // Per-epoch accepted load from the shards' `delivered` marks,
        // summed in shard order.
        let epoch_len = (end / epochs as u64).max(1);
        let (packet_length, terminals) = (self.config.packet_length, self.net.num_terminals());
        let mut prev_total = 0u64;
        let epoch_accepted = (0..epochs)
            .map(|e| {
                let total: u64 = scratch
                    .shard_states
                    .iter()
                    .map(|st| st.epoch_marks[e])
                    .sum();
                let cycles = if e + 1 == epochs {
                    end - epoch_len * e as u64
                } else {
                    epoch_len
                };
                (total - std::mem::replace(&mut prev_total, total)) as f64 * packet_length as f64
                    / (cycles.max(1) as f64 * terminals.max(1) as f64)
            })
            .collect();

        ChurnResult {
            result,
            epoch_accepted,
            availability: state.availability(end),
            events_applied: state.applied,
        }
    }

    /// Saturation throughput: accepted load when every node offers one
    /// phit per cycle.
    pub fn max_throughput(&self, pattern: TrafficPattern, seed: u64) -> f64 {
        self.run(pattern, 1.0, seed).accepted_load
    }

    /// Starts a run: builds the traffic state, resets `scratch` for
    /// `shards` shards (clamped to the switch count) and returns the
    /// context every shard reads while stepping.
    pub(crate) fn start_run(
        &self,
        pattern: TrafficPattern,
        offered_load: f64,
        seed: u64,
        shards: usize,
        scratch: &mut RunScratch,
    ) -> StepCtx {
        let cfg = self.config;
        let net = self.net;
        let terminals = net.num_terminals();
        let end = cfg.total_cycles();
        let mut traffic_rng = SmallRng::seed_from_u64(rfc_parallel::child_seed(seed, 1));
        let traffic = Traffic::new(pattern, terminals, end, &mut traffic_rng);
        let streams = Streams::derive(seed);
        let shard_count = shards.clamp(1, net.num_switches().max(1));
        scratch.reset(net, &cfg, shard_count, streams.inj);
        let p_gen = (offered_load / cfg.packet_length as f64).clamp(0.0, 1.0);
        StepCtx {
            traffic,
            streams,
            p_gen,
            // Skip-ahead denominator ln(1-p); see `geometric_gap` for the
            // p = 1 limit. Only used when p_gen > 0.
            ln_q: (1.0 - p_gen).ln(),
            t32: vid(terminals),
            warmup: cfg.warmup_cycles,
            end,
        }
    }

    /// The engine's one cycle loop: advances every shard of `scratch`
    /// through `0..ctx.end` in lockstep, replaying `events` (sorted, as
    /// [`FaultSchedule::events`]) against the run's [`DynState`] over
    /// `clos`, which it returns. Each shard marks its `delivered` total
    /// at every boundary of `epochs` equal slices and at the end. A plain
    /// run has no topology, no events and one epoch.
    ///
    /// One worker per shard (shard 0 on the caller's thread) runs the
    /// four phases and then drains the mailboxes each cycle, with a
    /// barrier after each. A cycle with due events first commits them
    /// under the state's write lock (DESIGN.md §13).
    pub(crate) fn lockstep<'s>(
        &'s self,
        ctx: &StepCtx,
        scratch: &mut RunScratch,
        clos: Option<&'s FoldedClos>,
        events: &[(u64, LinkEvent)],
        epochs: usize,
    ) -> DynState<'s> {
        let v = self.config.virtual_channels;
        let epoch_len = (ctx.end / epochs as u64).max(1);
        let RunScratch {
            plan,
            shard_states,
            #[cfg(test)]
            scopes,
            ..
        } = scratch;
        let plan: &ShardPlan = plan;
        let mailboxes = new_mailboxes(plan.shards * plan.shards);
        let mailboxes = &mailboxes[..];
        let barrier = rfc_parallel::SpinBarrier::new(plan.shards);
        let barrier = &barrier;
        let state = DynState::new(self.net, self.routing, &self.candidates, clos);
        let state = std::sync::RwLock::new(state);
        // Poison means shard 0 panicked mid-commit, and its barrier guard
        // fails every peer at its next wait.
        let read = || state.read().unwrap_or_else(PoisonError::into_inner);
        let write = || state.write().unwrap_or_else(PoisonError::into_inner);
        #[cfg(test)]
        {
            *scopes += 1;
        }
        rfc_parallel::run_shard_workers(shard_states, |me, st| {
            // A panic in the cycle loop (engine invariant failure)
            // poisons the barrier so the other shards fail fast instead
            // of spinning on a generation that never comes.
            let _poison = barrier.guard();
            // This shard's read guard, the first event not yet due, and
            // the table version its credit-parked slots were listed under.
            let (mut guard, mut next, mut seen) = (None, 0, 0);
            // xtask: lockstep-begin — every shard runs this loop in step
            // with its peers; the lock is taken at the first cycle and at
            // cycles with due events only
            for now in 0..ctx.end {
                let due = events[next..].iter().take_while(|e| e.0 == now).count();
                if due > 0 {
                    // xtask: allow(lockstep-region) — the commit's write lock, free: no reader is left
                    let commit = (me == 0).then(write);
                    barrier.wait();
                    if let Some(mut ds) = commit {
                        ds.commit(now, &events[next..next + due]);
                    }
                    next += due;
                }
                // xtask: allow(lockstep-region) — read lock, taken again only after a commit
                let ds = guard.get_or_insert_with(read);
                if ds.applied != seen {
                    seen = ds.applied;
                    st.relist_credit_parked();
                }
                if now > 0 && now.is_multiple_of(epoch_len) && now / epoch_len < epochs as u64 {
                    st.epoch_marks.push(st.delivered);
                }
                let cycle = self.cycle(ctx, plan, ds, mailboxes, me, now);
                cycle.deliver(st);
                cycle.inject(st);
                cycle.request_scan(st);
                cycle.arbitrate(st);
                // All sends for this cycle are in the mailboxes…
                barrier.wait();
                st.drain_mailboxes(plan, me, mailboxes, v);
                if events.get(next).is_some_and(|e| e.0 == now + 1) {
                    guard = None;
                }
                // …and all drains done (and, before a commit, every read
                // guard dropped) before anyone starts cycle now + 1.
                barrier.wait();
            }
            // xtask: lockstep-end
            st.epoch_marks.push(st.delivered);
        });
        state.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Merges per-shard statistics (in fixed shard order) into the run
    /// result.
    pub(crate) fn merge_stats(&self, offered_load: f64, scratch: &mut RunScratch) -> SimResult {
        let cfg = self.config;
        let terminals = self.net.num_terminals();
        let RunScratch {
            shard_states,
            merge_buf,
            latency_samples,
            ..
        } = scratch;

        // Merge in fixed shard order: plain sums for the counters, a
        // sort-and-truncate for the bottom-R reservoirs (the global
        // bottom-R of a union is contained in the union of per-shard
        // bottom-Rs, so this reproduces the 1-shard reservoir exactly).
        let sum = |count: fn(&ShardState) -> u64| shard_states.iter().map(count).sum::<u64>();
        let delivered = sum(|st| st.delivered);
        merge_buf.clear();
        for st in shard_states.iter() {
            st.credit_waits.debug_check(&st.slot_state);
            merge_buf.extend_from_slice(&st.reservoir);
        }
        merge_buf.sort_unstable_by_key(Sample::key);
        merge_buf.truncate(cfg.latency_reservoir);
        latency_samples.clear();
        latency_samples.extend(merge_buf.iter().map(|s| s.latency));
        latency_samples.sort_unstable();

        let window = cfg.measure_cycles as f64;
        let percentile = |p: f64| -> f64 {
            if latency_samples.is_empty() {
                return f64::NAN;
            }
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "p is in [0, 1], so the index is within the sample vector"
            )]
            let idx = (p * (latency_samples.len() - 1) as f64).round() as usize;
            f64::from(latency_samples[idx])
        };
        SimResult {
            offered_load,
            accepted_load: delivered as f64 * cfg.packet_length as f64
                / (window * terminals.max(1) as f64),
            avg_latency: if delivered == 0 {
                f64::NAN
            } else {
                sum(|st| st.latency_sum) as f64 / delivered as f64
            },
            latency_p50: percentile(0.50),
            latency_p95: percentile(0.95),
            latency_p99: percentile(0.99),
            delivered_packets: delivered,
            generated_packets: sum(|st| st.generated),
            refused_packets: sum(|st| st.refused + st.unroutable),
            in_flight_at_end: sum(ShardState::in_flight),
        }
    }

    /// Shard `me`'s view of cycle `now`, reading the candidates and
    /// routing of the run's [`DynState`] rather than `self`'s, so a
    /// churn run's repairs take effect.
    fn cycle<'v>(
        &'v self,
        ctx: &'v StepCtx,
        plan: &'v ShardPlan,
        ds: &'v DynState<'_>,
        mailboxes: &'v [MailboxCell],
        me: usize,
        now: u64,
    ) -> Cycle<'v> {
        let net = self.net;
        Cycle {
            ctx,
            cfg: &self.config,
            net,
            candidates: &ds.candidates,
            routing: &ds.routing,
            outbox: &mailboxes[me * plan.shards..(me + 1) * plan.shards],
            me,
            now,
            term_offsets: &plan.term_offsets,
            local_of_in: &plan.local_of_in,
            local_of_out: &plan.local_of_out,
            shard_of_in: &plan.shard_of_in,
            shard_of_out: &plan.shard_of_out,
            out_gids: &plan.out_gids[me],
            feeder_of_in: &plan.feeder_of_in,
            out_target: &net.out_target,
            eject_port_of_terminal: &net.eject_port_of_terminal,
            dst_switch_of_terminal: &net.dst_switch_of_terminal,
            inject_port_of_terminal: &net.inject_port_of_terminal,
            switch_of_in_port: &net.switch_of_in_port,
        }
    }
}

// xtask: hot-loop-begin — the four phases must stay allocation-free
// xtask: lockstep-begin — they run between barrier waits every cycle;
// no locks, channels, sleeps, blocking I/O, or SeqCst here
impl Cycle<'_> {
    /// Phase 1: applies the events due this cycle. Within a wheel slot
    /// events commute: arrivals target distinct VC slots (one feeder per
    /// input port, one grant per output per cycle), credit increments
    /// are sums, and wakes only re-list slots, so arrivals may go first.
    /// An arrival or wake never re-lists a credit-parked slot: its head,
    /// the only packet the scan reads, is unchanged.
    #[inline]
    fn deliver(&self, st: &mut ShardState) {
        let v = self.cfg.virtual_channels;
        let wslot = wheel_slot(self.now);
        // The due arrivals leave `st` while they enqueue, and their
        // drained list goes back, its capacity kept for the next lap.
        let mut due = std::mem::take(&mut st.arrivals[wslot]);
        for Arrival { slot, via, packet } in due.drain(..) {
            st.enqueue(self.cfg, slot as usize, packet, via);
        }
        st.arrivals[wslot] = due;
        for ev in st.wheel[wslot].drain(..) {
            match ev {
                Event::CreditIn { slot } => {
                    st.in_credits[slot as usize] += 1;
                }
                Event::CreditOut { idx } => {
                    st.out_credits[idx as usize] += 1;
                    st.credit_waits
                        .relist(idx as usize / v, &mut st.slot_state, &mut st.active);
                }
                Event::Wake { slot } => {
                    let s = slot as usize;
                    if st.q_len[s] > 0 && st.slot_state[s] == SlotState::Idle {
                        st.slot_state[s] = SlotState::Active;
                        st.active.push(slot);
                    }
                }
            }
        }
    }

    /// Phase 2: injection, "shortest" injection mode — the virtual
    /// channel with most free slots. Each owned switch walks its own
    /// terminal group with its own sequential generator (seeded from the
    /// switch id), so the draw sequence a terminal sees is independent
    /// of the partition. The geometric skip-ahead visits exactly the
    /// terminals a per-terminal Bernoulli draw would have selected
    /// (identical in distribution).
    #[inline]
    fn inject(&self, st: &mut ShardState) {
        let (ctx, cfg, now) = (self.ctx, self.cfg, self.now);
        if ctx.p_gen > 0.0 {
            let v = cfg.virtual_channels;
            let in_window = now >= ctx.warmup;
            // The generators leave `st` while it enqueues.
            let mut rngs = std::mem::take(&mut st.inj_rngs);
            for (k, rng) in rngs.iter_mut().enumerate() {
                let sw = st.inj_switches[k];
                // Dense packing: the switch's terminals are one
                // contiguous id range starting at its offset.
                let first = self.term_offsets[sw as usize];
                let count = (self.term_offsets[sw as usize + 1] - first) as usize;
                let mut t = geometric_gap(rng, ctx.ln_q);
                while t < count {
                    let src = first + vid(t);
                    'inject: {
                        let Some(dst) = ctx.traffic.dest(src, now, rng) else {
                            break 'inject;
                        };
                        let dst_switch = self.dst_switch_of_terminal[dst as usize];
                        // Valiant stage: bounce through a random
                        // terminal's switch first, unless it is the
                        // source's or the destination's.
                        let mut via = NO_VIA;
                        if cfg.valiant_routing {
                            let vs =
                                self.dst_switch_of_terminal[rng.gen_range(0..ctx.t32) as usize];
                            if vs != sw && vs != dst_switch {
                                via = vs;
                            }
                        }
                        // Every leg of the route must have candidates:
                        // to the intermediate, and on to the destination.
                        let mid = if via == NO_VIA { dst_switch } else { via };
                        let bufs = &mut st.row_bufs;
                        if !self.routable(bufs, sw, mid) || !self.routable(bufs, mid, dst_switch) {
                            if in_window {
                                st.unroutable += 1;
                            }
                            break 'inject;
                        }
                        let in_port = self.inject_port_of_terminal[src as usize];
                        let base = self.local_of_in[in_port as usize] as usize * v;
                        // Valiant phase partition: packets still heading
                        // to an intermediate use the first half of the
                        // VCs. The range is nonempty by construction:
                        // assert_valid requires >= 2 VCs whenever
                        // Valiant splits them.
                        let (vc_lo, vc_hi) = vc_range(cfg.valiant_routing, via != NO_VIA, v);
                        let mut best = vc_lo;
                        for c in vc_lo + 1..vc_hi {
                            if st.in_credits[base + c] > st.in_credits[base + best] {
                                best = c;
                            }
                        }
                        if st.in_credits[base + best] == 0 {
                            if in_window {
                                st.refused += 1;
                            }
                            break 'inject;
                        }
                        st.in_credits[base + best] -= 1;
                        let packet = Packet {
                            dst_terminal: dst,
                            gen_time: cycle32(now),
                        };
                        st.enqueue(cfg, base + best, packet, via);
                        if in_window {
                            st.generated += 1;
                        }
                    }
                    t = t
                        .saturating_add(geometric_gap(rng, ctx.ln_q))
                        .saturating_add(1);
                }
            }
            st.inj_rngs = rngs;
        }
    }

    /// Whether a packet at switch `from` has a candidate toward `to`.
    #[inline]
    fn routable(&self, bufs: &mut RowBufs, from: u32, to: u32) -> bool {
        from == to
            || !self
                .candidates
                .row(self.net, self.routing, from, to, bufs)
                .is_empty()
    }

    /// Phase 3: routing requests. Every head packet asks for one random
    /// candidate output (the "up/down random" request mode), drawn
    /// statelessly from the slot's global id — worklist order cannot
    /// matter. Only occupied VC slots are visited; slots drained by a
    /// previous arbitration round retire here. A slot whose candidate
    /// outputs are ALL busy is *parked*: removed from the worklist with
    /// a `Wake` scheduled for the cycle the earliest output frees —
    /// until then a rescan could never have produced a request, so
    /// skipping it is exact. A slot whose only candidate is free but
    /// out of credits is *credit-parked* on that output's wait list
    /// until a credit for it returns (DESIGN.md §10).
    #[inline]
    fn request_scan(&self, st: &mut ShardState) {
        let (cfg, now) = (self.cfg, self.now);
        let (v, cap) = (cfg.virtual_channels, cfg.buffer_packets);
        let now32 = cycle32(now);
        let mut i = 0;
        'slots: while i < st.active.len() {
            let s = st.active[i] as usize;
            debug_assert_eq!(st.slot_state[s], SlotState::Active, "scanned slot {s}");
            #[cfg(test)]
            {
                st.work.visits += 1;
            }
            if st.q_len[s] == 0 {
                st.slot_state[s] = SlotState::Idle;
                st.active.swap_remove(i);
                continue;
            }
            // The global slot id: the stateless draw key and the
            // arbitration tie-break, both partition-independent.
            let gid = st.slot_gid[s];
            let switch = self.switch_of_in_port[gid as usize / v];
            let ring = s * cap + st.q_head[s] as usize;
            let head = st.pkts[ring];
            let via = if cfg.valiant_routing {
                // Valiant phase transition: the intermediate has been
                // reached, continue toward the real target.
                if st.vias[ring] == switch {
                    st.vias[ring] = NO_VIA;
                }
                st.vias[ring]
            } else {
                NO_VIA
            };
            let routing_target = if via != NO_VIA {
                via
            } else {
                self.dst_switch_of_terminal[head.dst_terminal as usize]
            };
            // Parks the current slot until `wake` (at most
            // packet_length cycles out, within the wheel horizon).
            macro_rules! park_until {
                ($wake:expr) => {{
                    st.slot_state[s] = SlotState::Idle;
                    st.active.swap_remove(i);
                    st.wheel[wheel_slot(u64::from($wake))].push(Event::Wake { slot: vid(s) });
                    continue 'slots;
                }};
            }
            let (out_gid, o, target_vc) = if routing_target == switch {
                let out = self.eject_port_of_terminal[head.dst_terminal as usize];
                let free_at = st.busy_until[out as usize];
                if free_at > now32 {
                    // The ejector is this packet's only way out.
                    park_until!(free_at);
                }
                (out, self.local_of_out[out as usize] as usize, u8::MAX)
            } else {
                // One draw serves both decisions: low half picks the
                // candidate, high half starts the target-VC rotation.
                let h = draw(self.ctx.streams.dec, now, u64::from(gid));
                let ports = self.candidates.row(
                    self.net,
                    self.routing,
                    switch,
                    routing_target,
                    &mut st.row_bufs,
                );
                if ports.is_empty() {
                    // Statically faulted networks never strand a packet
                    // mid-route (injection pre-checks every leg), but a
                    // churn commit does: a head whose row emptied stalls
                    // here, rescanned every cycle, until a later commit
                    // gives it a route (ROADMAP item 8).
                    i += 1;
                    continue;
                }
                let k = pick_candidate(cfg.request_mode, h, ports.len(), switch, routing_target);
                let out = ports[k];
                if st.busy_until[out as usize] > now32 {
                    let mut wake = u32::MAX;
                    for &cand in ports {
                        wake = wake.min(st.busy_until[cand as usize]);
                    }
                    if wake > now32 {
                        park_until!(wake);
                    }
                    // A free sibling exists: retry the uniform pick next
                    // cycle.
                    i += 1;
                    continue;
                }
                let o = self.local_of_out[out as usize] as usize;
                // Random target VC among those with a free slot (read
                // from this shard's credit mirror of the downstream
                // buffers this output feeds), restricted to the packet's
                // Valiant phase class. Wrap-if rotation instead of a
                // per-step modulo.
                let (vc_lo, vc_hi) = vc_range(cfg.valiant_routing, via != NO_VIA, v);
                let span = vc_hi - vc_lo;
                let start = if span == 1 { 0 } else { bounded_hi(h, span) };
                let ob = o * v;
                let mut cand = vc_lo + start;
                let mut chosen = None;
                for _ in 0..span {
                    if st.out_credits[ob + cand] > 0 {
                        chosen = Some(u8_of(cand));
                        break;
                    }
                    cand += 1;
                    if cand == vc_hi {
                        cand = vc_lo;
                    }
                }
                let Some(tvc) = chosen else {
                    if ports.len() == 1 {
                        // The pick cannot change and no draw has side
                        // effects, so every rescan would land here
                        // until a credit for this output returns.
                        st.active.swap_remove(i);
                        st.credit_waits.park(o, vid(s), &mut st.slot_state);
                        continue;
                    }
                    // A re-pick may find an output with credits: retry
                    // next cycle.
                    i += 1;
                    continue;
                };
                (out, o, tvc)
            };
            if st.req_count[o] == 0 {
                st.touched.push(vid(o));
            }
            st.reqs.push(Request {
                slot: vid(s),
                prev: st.req_head[o],
                // The priority is keyed on (cycle, output, slot): a pure
                // function of global ids, so the winner below depends
                // only on the requester *set*.
                prio: draw(
                    self.ctx.streams.arb,
                    now,
                    (u64::from(out_gid) << 32) | u64::from(gid),
                ),
                gid,
                target_vc,
            });
            st.req_head[o] = vid(st.reqs.len() - 1);
            st.req_count[o] += 1;
            #[cfg(test)]
            {
                st.work.requests += 1;
            }
            i += 1;
        }
    }

    /// Phase 4: random arbitration, one iteration, then traversal. Each
    /// free output port grants the requester with the smallest stateless
    /// priority (global slot id as tie-break) — an argmin over the
    /// request chain, independent of chain order — and sends the packet
    /// and the freed slot's credit on their way.
    #[inline]
    fn arbitrate(&self, st: &mut ShardState) {
        let (cfg, now) = (self.cfg, self.now);
        let (v, cap) = (cfg.virtual_channels, cfg.buffer_packets);
        for t in 0..st.touched.len() {
            let o = st.touched[t] as usize;
            let out_gid = self.out_gids[o];
            st.req_count[o] = 0;
            let first = st.req_head[o] as usize;
            st.req_head[o] = NO_REQ;
            let reqs = &st.reqs;
            let mut best = first;
            let mut cur = reqs[first].prev;
            while cur != NO_REQ {
                let c = cur as usize;
                if (reqs[c].prio, reqs[c].gid) < (reqs[best].prio, reqs[best].gid) {
                    best = c;
                }
                cur = reqs[c].prev;
            }
            let pick = reqs[best];
            let s = pick.slot as usize;
            // A granted VC always still holds its head packet (one
            // request per VC per cycle, one grant per output), but
            // never panic in the hot loop if that invariant breaks.
            if st.q_len[s] == 0 {
                debug_assert!(false, "granted VC slot {s} is empty");
                continue;
            }
            #[cfg(test)]
            {
                st.work.grants += 1;
            }
            let ring = s * cap + st.q_head[s] as usize;
            let packet = st.pkts[ring];
            let via = if cfg.valiant_routing {
                st.vias[ring]
            } else {
                NO_VIA
            };
            let next_head = st.q_head[s] as usize + 1;
            st.q_head[s] = if next_head == cap {
                0
            } else {
                u8_of(next_head)
            };
            st.q_len[s] -= 1;
            debug_assert!(st.busy_until[out_gid as usize] <= cycle32(now));
            st.busy_until[out_gid as usize] = cycle32(now + cfg.packet_length);
            // Return the freed buffer slot: to the local injection
            // credit for terminal-fed ports, else to the credit mirror
            // at the feeding output port's shard. The global slot id
            // is `global_in_port · v + vc`.
            let credit_at = now + cfg.packet_length;
            let gid = pick.gid as usize;
            let feeder = self.feeder_of_in[gid / v];
            if feeder == NO_PORT {
                st.wheel[wheel_slot(credit_at)].push(Event::CreditIn { slot: pick.slot });
            } else {
                let credit = ShardMsg::Credit {
                    wslot: u8_of(wheel_slot(credit_at)),
                    out_port: feeder,
                    vc: u8_of(gid % v),
                };
                self.send(st, self.shard_of_out[feeder as usize], credit);
            }
            match self.out_target[out_gid as usize] {
                OutTarget::Eject { terminal } => {
                    debug_assert_eq!(terminal, packet.dst_terminal);
                    if now >= self.ctx.warmup {
                        st.delivered += 1;
                        let latency = now + cfg.packet_length - u64::from(packet.gen_time);
                        st.latency_sum += latency;
                        // Order sampling keeps memory bounded at paper
                        // scale while staying mergeable across shards:
                        // each delivery competes with a stateless
                        // priority keyed on its unique (cycle, ejector).
                        reservoir_offer(
                            &mut st.reservoir,
                            cfg.latency_reservoir,
                            Sample {
                                prio: draw(self.ctx.streams.stats, now, u64::from(out_gid)),
                                cycle: now,
                                out: out_gid,
                                latency: lat32(latency),
                            },
                        );
                    }
                }
                OutTarget::Link { in_port } => {
                    st.out_credits[o * v + pick.target_vc as usize] -= 1;
                    let at = now + cfg.link_latency + cfg.router_latency;
                    let arrival = ShardMsg::Arrival {
                        wslot: u8_of(wheel_slot(at)),
                        in_port,
                        vc: pick.target_vc,
                        via,
                        packet,
                    };
                    self.send(st, self.shard_of_in[in_port as usize], arrival);
                }
            }
        }
        st.touched.clear();
        st.reqs.clear();
    }

    /// Sends `msg` to shard `to`, the owner of its port: it lands in
    /// `st` at once when that is this shard, and crosses the mailboxes
    /// otherwise.
    #[inline]
    fn send(&self, st: &mut ShardState, to: u32, msg: ShardMsg) {
        if to as usize == self.me {
            let v = self.cfg.virtual_channels;
            st.land(self.local_of_in, self.local_of_out, v, msg);
        } else {
            mailbox_push(self.outbox, to as usize, msg);
        }
    }
}
// xtask: lockstep-end
// xtask: hot-loop-end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::WorkCounts;
    use rfc_routing::UpDownRouting;
    use rfc_topology::FoldedClos;

    /// The last run's work counts, summed over its shards in shard
    /// order.
    fn work_counts(scratch: &RunScratch) -> WorkCounts {
        let mut sum = WorkCounts::default();
        for st in &scratch.shard_states {
            sum.visits += st.work.visits;
            sum.requests += st.work.requests;
            sum.grants += st.work.grants;
        }
        sum
    }

    /// The first RFC(8, 32, 3) with the up/down property drawn from
    /// `seed` — 128 terminals, saturating under uniform load 1.0.
    fn small_rfc(seed: u64) -> FoldedClos {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        loop {
            let clos = FoldedClos::random(8, 32, 3, &mut rng).unwrap();
            if UpDownRouting::new(&clos).has_updown_property() {
                return clos;
            }
        }
    }

    fn tiny_sim() -> (SimNetwork, UpDownRouting) {
        let clos = FoldedClos::cft(4, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        (SimNetwork::from_folded_clos(&clos), routing)
    }

    #[test]
    fn latency_reservoir_respects_the_configured_cap() {
        let (net, routing) = tiny_sim();
        let mut cfg = SimConfig::quick();
        cfg.latency_reservoir = 10;
        let sim = Simulation::new(&net, &routing, cfg);
        let mut scratch = RunScratch::new();
        let r = sim.run_sharded_scratch(
            TrafficPattern::Uniform,
            0.6,
            5,
            rfc_parallel::current_shards(),
            &mut scratch,
        );
        assert!(
            r.delivered_packets > 10,
            "test needs more deliveries ({}) than the cap",
            r.delivered_packets
        );
        assert!(
            scratch.latency_samples.len() <= 10,
            "reservoir grew to {} despite cap 10",
            scratch.latency_samples.len()
        );
        // Percentiles still come from the (capped) reservoir.
        assert!(r.latency_p99 >= r.latency_p50);
        assert!(r.latency_p50 >= 16.0);
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_runs() {
        let (net, routing) = tiny_sim();
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let mut scratch = RunScratch::new();
        // Dirty the scratch with a different pattern/load first.
        let _ = sim.run_sharded_scratch(
            TrafficPattern::Shuffle,
            0.9,
            99,
            rfc_parallel::current_shards(),
            &mut scratch,
        );
        for (load, seed) in [(0.3, 7u64), (0.8, 8)] {
            let fresh = sim.run(TrafficPattern::Uniform, load, seed);
            let reused = sim.run_sharded_scratch(
                TrafficPattern::Uniform,
                load,
                seed,
                rfc_parallel::current_shards(),
                &mut scratch,
            );
            assert_eq!(fresh, reused, "scratch reuse changed results");
        }
    }

    #[test]
    fn scratch_reuse_across_networks_is_equivalent() {
        // The flat ring/request buffers must resize correctly when one
        // scratch hops between networks of different port counts.
        let big = FoldedClos::cft(6, 3).unwrap();
        let big_routing = UpDownRouting::new(&big);
        let big_net = SimNetwork::from_folded_clos(&big);
        let big_sim = Simulation::new(&big_net, &big_routing, SimConfig::quick());
        let (small_net, small_routing) = tiny_sim();
        let small_sim = Simulation::new(&small_net, &small_routing, SimConfig::quick());

        let mut scratch = RunScratch::new();
        let big_fresh = big_sim.run(TrafficPattern::Uniform, 0.7, 17);
        let small_fresh = small_sim.run(TrafficPattern::Uniform, 0.7, 17);
        // big -> small -> big through the same scratch.
        assert_eq!(
            big_sim.run_sharded_scratch(
                TrafficPattern::Uniform,
                0.7,
                17,
                rfc_parallel::current_shards(),
                &mut scratch
            ),
            big_fresh
        );
        assert_eq!(
            small_sim.run_sharded_scratch(
                TrafficPattern::Uniform,
                0.7,
                17,
                rfc_parallel::current_shards(),
                &mut scratch
            ),
            small_fresh
        );
        assert_eq!(
            big_sim.run_sharded_scratch(
                TrafficPattern::Uniform,
                0.7,
                17,
                rfc_parallel::current_shards(),
                &mut scratch
            ),
            big_fresh
        );
    }

    #[test]
    fn scratch_reuse_across_shard_counts_is_equivalent() {
        // One scratch hopping 1 -> 4 -> 2 -> 1 shards must keep
        // reproducing the same results.
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let mut scratch = RunScratch::new();
        let base = sim.run_sharded_scratch(TrafficPattern::Uniform, 0.6, 13, 1, &mut scratch);
        assert_eq!(scratch.scopes, 1, "a plain run enters one worker scope");
        for shards in [4usize, 2, 1] {
            let r = sim.run_sharded_scratch(TrafficPattern::Uniform, 0.6, 13, shards, &mut scratch);
            assert_eq!(base, r, "shards {shards} diverged through scratch reuse");
            assert_eq!(scratch.scopes, 1, "{shards} shards");
        }
    }

    #[test]
    fn sharded_runs_are_byte_identical_to_serial() {
        // The sharding contract: every statistic — counters and latency
        // percentiles from the merged reservoir — is invariant in the
        // shard count.
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let mut scratch = RunScratch::new();
        for (pattern, load) in [
            (TrafficPattern::Uniform, 0.5),
            (TrafficPattern::RandomPairing, 0.9),
        ] {
            let base = sim.run_sharded_scratch(pattern, load, 77, 1, &mut scratch);
            for shards in [2usize, 3, 8] {
                let r = sim.run_sharded_scratch(pattern, load, 77, shards, &mut scratch);
                assert_eq!(base, r, "{pattern} diverged at {shards} shards");
            }
        }
    }

    #[test]
    fn one_switch_per_shard_crosses_boundaries_every_hop() {
        // cft(4, 2) has 6 switches; at 6 shards every switch-to-switch
        // link crosses a shard boundary, so packets cross shards on
        // consecutive cycles — the sharpest mailbox/credit-mirror test.
        let (net, routing) = tiny_sim();
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let base =
            sim.run_sharded_scratch(TrafficPattern::Uniform, 0.7, 19, 1, &mut RunScratch::new());
        assert!(base.delivered_packets > 0, "traffic must actually flow");
        let all = sim.run_sharded_scratch(
            TrafficPattern::Uniform,
            0.7,
            19,
            net.num_switches(),
            &mut RunScratch::new(),
        );
        assert_eq!(base, all, "one-switch shards diverged from serial");
        // Shard counts beyond the switch count clamp (and still match).
        let over =
            sim.run_sharded_scratch(TrafficPattern::Uniform, 0.7, 19, 64, &mut RunScratch::new());
        assert_eq!(base, over, "over-sharding must clamp, not diverge");
    }

    #[test]
    fn capped_reservoir_merges_byte_identically() {
        // With far more deliveries than reservoir slots, the per-shard
        // bottom-R reservoirs must merge to exactly the 1-shard
        // reservoir — percentiles byte-identical at any shard count.
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.latency_reservoir = 32;
        let sim = Simulation::new(&net, &routing, cfg);
        let mut scratch = RunScratch::new();
        let base = sim.run_sharded_scratch(TrafficPattern::Uniform, 0.6, 23, 1, &mut scratch);
        assert!(
            base.delivered_packets > 32 * 4,
            "need the cap to actually bind ({} deliveries)",
            base.delivered_packets
        );
        let base_samples = scratch.latency_samples.clone();
        for shards in [2usize, 4] {
            let r = sim.run_sharded_scratch(TrafficPattern::Uniform, 0.6, 23, shards, &mut scratch);
            assert_eq!(base, r, "capped stats diverged at {shards} shards");
            assert_eq!(
                base_samples, scratch.latency_samples,
                "merged reservoir contents diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn valiant_sharded_matches_serial() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.valiant_routing = true;
        let sim = Simulation::new(&net, &routing, cfg);
        let base =
            sim.run_sharded_scratch(TrafficPattern::Uniform, 0.4, 29, 1, &mut RunScratch::new());
        assert!(base.delivered_packets > 0);
        assert_eq!(
            base,
            sim.run_sharded_scratch(TrafficPattern::Uniform, 0.4, 29, 3, &mut RunScratch::new())
        );
    }

    #[test]
    fn valiant_runs_reproduce_their_recorded_results() {
        // Exact results recorded before packets moved their Valiant
        // intermediate to a side array: cft(8,3), uniform at load 0.6,
        // seed 2017, in both request modes, at 1 to 4 shards.
        let clos = FoldedClos::cft(8, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let recorded =
            |accepted_load: f64,
             avg_latency: f64,
             [p50, p95, p99]: [f64; 3],
             [delivered, generated, refused, in_flight]: [u64; 4]| SimResult {
                offered_load: 0.6,
                accepted_load,
                avg_latency,
                latency_p50: p50,
                latency_p95: p95,
                latency_p99: p99,
                delivered_packets: delivered,
                generated_packets: generated,
                refused_packets: refused,
                in_flight_at_end: in_flight,
            };
        for (mode, expected) in [
            (
                RequestMode::UpDownRandom,
                recorded(
                    0.4165,
                    304.498_799_519_807_9,
                    [280.0, 606.0, 753.0],
                    [3332, 4642, 92, 2049],
                ),
            ),
            (
                RequestMode::UpDownHash,
                recorded(
                    0.363_625,
                    326.247_851_495_359_2,
                    [283.0, 716.0, 900.0],
                    [2909, 4174, 560, 2046],
                ),
            ),
        ] {
            let mut cfg = SimConfig::quick();
            cfg.valiant_routing = true;
            cfg.request_mode = mode;
            let sim = Simulation::new(&net, &routing, cfg);
            for shards in 1..=4 {
                let r = sim.run_sharded_scratch(
                    TrafficPattern::Uniform,
                    0.6,
                    2017,
                    shards,
                    &mut RunScratch::new(),
                );
                assert_eq!(r, expected, "{mode:?} at {shards} shards moved");
            }
        }
    }

    #[test]
    fn saturated_work_counts_reproduce_their_recorded_values() {
        // Requests and grants are the engine's decisions, recorded
        // before credit parking: skipping visits must not move them.
        // Visits were 258,317 before credit parking.
        let clos = small_rfc(2017);
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let mut scratch = RunScratch::new();
        let expected = WorkCounts {
            visits: 252_659,
            requests: 83_918,
            grants: 38_792,
        };
        for shards in 1..=3 {
            let r =
                sim.run_sharded_scratch(TrafficPattern::Uniform, 1.0, 2017, shards, &mut scratch);
            assert_eq!(r.delivered_packets, 6_606, "{shards} shards");
            assert_eq!(work_counts(&scratch), expected, "{shards} shards");
        }

        // Valiant runs, in the setting of
        // `valiant_runs_reproduce_their_recorded_results`: the via
        // handling of injection, the scan and the grant.
        let clos = FoldedClos::cft(8, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.valiant_routing = true;
        let sim = Simulation::new(&net, &routing, cfg);
        let expected = WorkCounts {
            visits: 312_601,
            requests: 80_620,
            grants: 40_024,
        };
        for shards in 1..=3 {
            sim.run_sharded_scratch(TrafficPattern::Uniform, 0.6, 2017, shards, &mut scratch);
            assert_eq!(work_counts(&scratch), expected, "Valiant, {shards} shards");
        }

        // Churn runs, in the setting of the churn module's
        // `churn_runs_reproduce_their_recorded_results`: commits re-list
        // credit-parked slots.
        let clos = FoldedClos::cft(4, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let cfg = SimConfig::quick();
        let sim = Simulation::new(&net, &routing, cfg);
        let schedule = FaultSchedule::poisson(&clos, 0.05, 100.0, cfg.total_cycles(), 100);
        let expected = WorkCounts {
            visits: 45_763,
            requests: 9_213,
            grants: 4_424,
        };
        for shards in 1..=3 {
            sim.run_churn_sharded_scratch(
                &clos,
                &schedule,
                TrafficPattern::Uniform,
                1.0,
                0,
                4,
                shards,
                &mut scratch,
            );
            assert_eq!(work_counts(&scratch), expected, "churn, {shards} shards");
        }
    }

    #[test]
    fn arrivals_leave_credit_parked_slots_parked() {
        // A packet arriving behind a credit-parked head must not
        // re-list its slot: the scan would park it a second time and
        // its wait list would loop. Step a saturated run one cycle at a
        // time, count link-fed slots that grew while parked (only an
        // arrival grows them, before any credit of the cycle re-lists
        // them), and check the lists at every cycle boundary.
        let clos = small_rfc(2017);
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let v = sim.config().virtual_channels;
        let mut scratch = RunScratch::new();
        let ctx = sim.start_run(TrafficPattern::Uniform, 1.0, 2017, 2, &mut scratch);
        let mut parked_len: Vec<Vec<u8>> = scratch
            .shard_states
            .iter()
            .map(|st| vec![0; st.slot_state.len()])
            .collect();
        let mut grew = 0;
        // The lockstep loop, serialized: both shards run the four
        // phases, then both drain, so the lists can be checked between
        // cycles.
        let mailboxes = new_mailboxes(4);
        let ds = DynState::new(&net, &routing, &sim.candidates, None);
        for now in 0..ctx.end {
            for me in 0..2 {
                let cycle = sim.cycle(&ctx, &scratch.plan, &ds, &mailboxes, me, now);
                let st = &mut scratch.shard_states[me];
                cycle.deliver(st);
                cycle.inject(st);
                cycle.request_scan(st);
                cycle.arbitrate(st);
            }
            for me in 0..2 {
                scratch.shard_states[me].drain_mailboxes(&scratch.plan, me, &mailboxes, v);
            }
            for (st, prev) in scratch.shard_states.iter().zip(&mut parked_len) {
                st.credit_waits.debug_check(&st.slot_state);
                for (s, prev) in prev.iter_mut().enumerate() {
                    let link_fed =
                        scratch.plan.feeder_of_in[st.slot_gid[s] as usize / v] != NO_PORT;
                    let parked = st.slot_state[s] == SlotState::CreditParked;
                    if parked && link_fed && *prev != 0 && st.q_len[s] > *prev {
                        grew += 1;
                    }
                    *prev = if parked { st.q_len[s] } else { 0 };
                }
            }
        }
        assert!(grew > 0, "no arrival landed on a credit-parked slot");
        let stepped = sim.merge_stats(1.0, &mut scratch);
        let whole = sim.run_sharded_scratch(
            TrafficPattern::Uniform,
            1.0,
            2017,
            1,
            &mut RunScratch::new(),
        );
        assert_eq!(stepped, whole);
    }

    #[test]
    fn live_oracle_sharded_matches_serial() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let live = Candidates::build_within(&net, &routing, 0);
        let sim = Simulation::with_candidates(&net, &routing, SimConfig::quick(), live);
        assert_eq!(sim.candidate_table_bytes(), None);
        let base =
            sim.run_sharded_scratch(TrafficPattern::Uniform, 0.5, 37, 1, &mut RunScratch::new());
        assert!(base.delivered_packets > 0);
        assert_eq!(
            base,
            sim.run_sharded_scratch(TrafficPattern::Uniform, 0.5, 37, 4, &mut RunScratch::new())
        );
    }

    #[test]
    fn ambient_shard_override_does_not_change_results() {
        // `run` picks up rfc_parallel::current_shards(); because results
        // are shard-invariant, the override must be unobservable.
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        rfc_parallel::set_shards(Some(3));
        let sharded = sim.run(TrafficPattern::Uniform, 0.4, 9);
        rfc_parallel::set_shards(None);
        let plain = sim.run(TrafficPattern::Uniform, 0.4, 9);
        assert_eq!(sharded, plain);
    }

    #[test]
    fn zero_load_delivers_nothing() {
        let (net, routing) = tiny_sim();
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let r = sim.run(TrafficPattern::Uniform, 0.0, 1);
        assert_eq!(r.delivered_packets, 0);
        assert_eq!(r.generated_packets, 0);
        assert!(r.avg_latency.is_nan());
        assert_eq!(r.accepted_load, 0.0);
    }

    #[test]
    fn geometric_gaps_have_the_geometric_mean() {
        // E[G] = (1-p)/p for P(G=k) = (1-p)^k p.
        let mut rng = SmallRng::seed_from_u64(42);
        for p in [0.05f64, 0.2, 0.7] {
            let ln_q = (1.0 - p).ln();
            let n = 40_000;
            let mean = (0..n)
                .map(|_| geometric_gap(&mut rng, ln_q) as f64)
                .sum::<f64>()
                / n as f64;
            let expected = (1.0 - p) / p;
            assert!(
                (mean - expected).abs() < expected * 0.08 + 0.02,
                "p={p}: mean gap {mean} vs expected {expected}"
            );
        }
        // p = 1: the gap degenerates to 0 (every terminal injects).
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..100 {
            assert_eq!(geometric_gap(&mut rng, 0f64.ln()), 0);
        }
    }

    #[test]
    fn skip_ahead_injection_matches_the_offered_rate() {
        // The generated-packet rate must track offered_load across loads
        // and seeds — the statistical-equivalence contract of the
        // skip-ahead sampler (exactly Bernoulli per terminal per cycle).
        let clos = FoldedClos::cft(8, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.measure_cycles = 4_000;
        let sim = Simulation::new(&net, &routing, cfg);
        let mut scratch = RunScratch::new();
        for load in [0.05f64, 0.2, 0.5] {
            for seed in [1u64, 2, 3] {
                let r = sim.run_sharded_scratch(
                    TrafficPattern::Uniform,
                    load,
                    seed,
                    rfc_parallel::current_shards(),
                    &mut scratch,
                );
                let expected = load / cfg.packet_length as f64
                    * net.num_terminals() as f64
                    * cfg.measure_cycles as f64;
                let got = r.generated_packets as f64;
                assert!(
                    (got - expected).abs() < expected * 0.15,
                    "load {load} seed {seed}: generated {got}, expected ~{expected}"
                );
            }
        }
    }

    #[test]
    fn light_load_has_near_minimal_latency() {
        let (net, routing) = tiny_sim();
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let r = sim.run(TrafficPattern::Uniform, 0.05, 2);
        assert!(r.delivered_packets > 0);
        // Minimal latency: 16 phits + a few header hops (2 switch hops at
        // most in a 2-level CFT + injection + ejection arbitration).
        assert!(
            r.avg_latency >= 16.0,
            "latency {} below serialization",
            r.avg_latency
        );
        assert!(
            r.avg_latency < 40.0,
            "latency {} too high for light load",
            r.avg_latency
        );
    }

    #[test]
    fn uniform_full_load_approaches_unity_on_a_cft() {
        // A CFT is rearrangeably non-blocking; uniform traffic at load 1.0
        // should be accepted at a high rate.
        let clos = FoldedClos::cft(8, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 2_000;
        let sim = Simulation::new(&net, &routing, cfg);
        let r = sim.run(TrafficPattern::Uniform, 1.0, 3);
        assert!(
            r.accepted_load > 0.7,
            "accepted {} too low",
            r.accepted_load
        );
    }

    #[test]
    fn conservation_generated_equals_delivered_plus_backlog() {
        let (net, routing) = tiny_sim();
        let mut cfg = SimConfig::quick();
        cfg.warmup_cycles = 0; // count every packet from cycle zero
        let sim = Simulation::new(&net, &routing, cfg);
        let r = sim.run(TrafficPattern::Uniform, 0.6, 4);
        assert_eq!(
            r.generated_packets,
            r.delivered_packets + r.in_flight_at_end,
            "no packet may vanish"
        );
    }

    #[test]
    fn conservation_holds_under_sharding() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.warmup_cycles = 0;
        let sim = Simulation::new(&net, &routing, cfg);
        for shards in [1usize, 4] {
            let r = sim.run_sharded_scratch(
                TrafficPattern::Uniform,
                0.6,
                4,
                shards,
                &mut RunScratch::new(),
            );
            assert_eq!(
                r.generated_packets,
                r.delivered_packets + r.in_flight_at_end,
                "no packet may vanish at {shards} shards"
            );
        }
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let (net, routing) = tiny_sim();
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let a = sim.run(TrafficPattern::FixedRandom, 0.4, 9);
        let b = sim.run(TrafficPattern::FixedRandom, 0.4, 9);
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.avg_latency, b.avg_latency);
        let c = sim.run(TrafficPattern::FixedRandom, 0.4, 10);
        // Different seeds must give a different experiment. Delivered
        // counts alone can collide by chance; the latency distribution
        // makes the comparison robust.
        assert!(
            a.delivered_packets != c.delivered_packets
                || a.avg_latency != c.avg_latency
                || a.latency_p99 != c.latency_p99,
            "seeds 9 and 10 produced identical results: {a:?}"
        );
    }

    #[test]
    fn runs_are_identical_at_any_build_thread_count() {
        // Thread count only affects table construction (byte-identical
        // by design), so whole-run results must not move either.
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        rfc_parallel::set_threads(Some(1));
        let serial = Simulation::new(&net, &routing, SimConfig::quick());
        rfc_parallel::set_threads(Some(8));
        let parallel = Simulation::new(&net, &routing, SimConfig::quick());
        rfc_parallel::set_threads(None);
        assert_eq!(
            serial.run(TrafficPattern::Uniform, 0.6, 12),
            parallel.run(TrafficPattern::Uniform, 0.6, 12),
        );
    }

    #[test]
    fn parallel_table_build_is_byte_identical_to_serial() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let cfg = SimConfig::quick();
        rfc_parallel::set_threads(Some(1));
        let serial = Simulation::new(&net, &routing, cfg);
        rfc_parallel::set_threads(Some(8));
        let parallel = Simulation::new(&net, &routing, cfg);
        rfc_parallel::set_threads(None);
        let s = serial.candidates().table().expect("table fits the budget");
        let p = parallel
            .candidates()
            .table()
            .expect("table fits the budget");
        assert_eq!(s, p, "parallel build diverged from serial");
        assert!(!s.row_ports.is_empty(), "table must hold resolved ports");
    }

    #[test]
    fn deduped_table_rows_match_dense_oracle_answers() {
        // Expanding the per-switch, run-length-compressed table back to
        // one row per (switch, dst) pair must reproduce exactly what the
        // old dense build stored: the routing's answer, resolved to out
        // ports, in routing order. Checked on a regular CFT (long runs)
        // and a random folded Clos (worst-case fragmentation).
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let nets = [
            FoldedClos::cft(6, 3).unwrap(),
            FoldedClos::random(8, 24, 3, &mut rng).unwrap(),
        ];
        for clos in &nets {
            let routing = UpDownRouting::new(clos);
            let net = SimNetwork::from_folded_clos(clos);
            let sim = Simulation::new(&net, &routing, SimConfig::quick());
            let table = sim.candidates().table().expect("table fits the budget");
            table.assert_layout();
            let dst_space = table.dst_space;
            let mut hops = Vec::new();
            let mut bufs = RowBufs::default();
            for switch in 0..vid(net.num_switches()) {
                for dst in 0..vid(dst_space) {
                    hops.clear();
                    routing.next_hops_into(switch, dst, &mut hops);
                    let dense: Vec<u32> = hops
                        .iter()
                        .map(|&h| net.out_port_to(switch, h).unwrap())
                        .collect();
                    assert_eq!(
                        sim.candidates().row(&net, &routing, switch, dst, &mut bufs),
                        &dense[..],
                        "switch {switch} dst {dst}"
                    );
                }
            }
            // And the dedup must actually pay: fewer rows than
            // (switch, dst) pairs.
            assert!(table.row_off.len() - 1 < net.num_switches() * dst_space);
        }
    }

    #[test]
    fn deduped_table_undercuts_the_dense_layout() {
        // The old layout stored (switches × dst_space + 1) offsets plus
        // every resolved port; the compressed table must come in well
        // under just the offset array. cft(8, 4) has 64 destinations but
        // only ~R/2 + 2 runs per switch, so the ratio is structural.
        let clos = FoldedClos::cft(8, 4).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let bytes = sim.candidate_table_bytes().unwrap();
        let dense_offsets =
            (net.num_switches() * sim.candidates().table().unwrap().dst_space + 1) * 4;
        assert!(
            bytes < dense_offsets / 2,
            "{bytes} bytes should undercut {dense_offsets} bytes of dense offsets"
        );
    }

    #[test]
    fn sweep_latency_grows_with_load() {
        let (net, routing) = tiny_sim();
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let results: Vec<SimResult> = [0.1, 0.9]
            .iter()
            .zip(5u64..)
            .map(|(&load, seed)| sim.run(TrafficPattern::Uniform, load, seed))
            .collect();
        assert_eq!(results.len(), 2);
        assert!(
            results[1].avg_latency > results[0].avg_latency,
            "latency must rise toward saturation: {} vs {}",
            results[0].avg_latency,
            results[1].avg_latency
        );
    }

    #[test]
    fn random_pairing_on_a_cft_is_routable() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let r = sim.run(TrafficPattern::RandomPairing, 0.3, 6);
        assert!(r.delivered_packets > 0);
        assert!(r.accepted_load > 0.2);
    }

    #[test]
    fn max_throughput_reports_saturation() {
        let (net, routing) = tiny_sim();
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let t = sim.max_throughput(TrafficPattern::Uniform, 7);
        assert!(t > 0.3 && t <= 1.05, "throughput {t} out of range");
    }

    #[test]
    fn router_latency_widens_the_level_gap() {
        // With per-hop router cost, deeper networks pay proportionally
        // more latency — the mechanism behind the paper's 15-20% RFC
        // advantage at fewer levels.
        let shallow = FoldedClos::cft(4, 2).unwrap();
        let deep = FoldedClos::cft(4, 4).unwrap();
        let mut cfg = SimConfig::quick();
        cfg.router_latency = 4;
        let lat = |clos: &FoldedClos| {
            let routing = UpDownRouting::new(clos);
            let net = SimNetwork::from_folded_clos(clos);
            Simulation::new(&net, &routing, cfg)
                .run(TrafficPattern::Uniform, 0.1, 5)
                .avg_latency
        };
        let (s, d) = (lat(&shallow), lat(&deep));
        assert!(
            d > s + 15.0,
            "4 extra hops at 4+1 cycles each must show: shallow {s}, deep {d}"
        );
    }

    #[test]
    fn candidate_table_and_live_oracle_agree_exactly() {
        // The materialized table must be a pure cache. A build whose
        // byte budget cannot hold the table aborts mid-construction (the
        // same path a u32 offset overflow takes) and queries the routing
        // live, with results identical for the same seeds.
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let cfg = SimConfig::quick();
        let cached = Simulation::new(&net, &routing, cfg);
        let bytes = cached
            .candidate_table_bytes()
            .expect("the deduped table must materialize");
        let budget = 64;
        assert!(bytes > budget, "the budget must bind");
        let live = Candidates::build_within(&net, &routing, budget);
        let live = Simulation::with_candidates(&net, &routing, cfg, live);
        assert_eq!(live.candidate_table_bytes(), None, "64 bytes cannot fit");
        for (pattern, load) in [
            (TrafficPattern::Uniform, 0.4),
            (TrafficPattern::RandomPairing, 0.8),
        ] {
            let a = cached.run(pattern, load, 99);
            let b = live.run(pattern, load, 99);
            assert_eq!(a, b, "{pattern}: deduped table diverged from live routing");
        }
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let (net, routing) = tiny_sim();
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let r = sim.run(TrafficPattern::Uniform, 0.5, 21);
        assert!(r.latency_p50 <= r.latency_p95);
        assert!(r.latency_p95 <= r.latency_p99);
        assert!(r.latency_p50 >= 16.0, "p50 below serialization time");
        // The mean sits between the median and the tail under load.
        assert!(r.avg_latency >= r.latency_p50 * 0.5);
        assert!(r.avg_latency <= r.latency_p99 * 1.5);
    }

    #[test]
    fn hash_request_mode_still_delivers() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.request_mode = crate::RequestMode::UpDownHash;
        let sim = Simulation::new(&net, &routing, cfg);
        let r = sim.run(TrafficPattern::Uniform, 0.3, 22);
        assert!(r.delivered_packets > 0);
        assert!((r.accepted_load - 0.3).abs() < 0.08);
    }

    #[test]
    fn hash_mode_saturates_below_random_mode_on_permutations() {
        // Static hashing cannot spread a permutation across the ECMP
        // fan-out as well as per-cycle re-randomization.
        let clos = FoldedClos::cft(8, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut random_cfg = SimConfig::quick();
        random_cfg.measure_cycles = 2_000;
        let mut hash_cfg = random_cfg;
        hash_cfg.request_mode = crate::RequestMode::UpDownHash;
        let random_sat = Simulation::new(&net, &routing, random_cfg)
            .max_throughput(TrafficPattern::RandomPairing, 23);
        let hash_sat = Simulation::new(&net, &routing, hash_cfg)
            .max_throughput(TrafficPattern::RandomPairing, 23);
        assert!(
            hash_sat <= random_sat + 0.05,
            "hash {hash_sat} should not beat random {random_sat}"
        );
    }

    #[test]
    fn valiant_routing_delivers_with_longer_paths() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let direct_cfg = SimConfig::quick();
        let mut valiant_cfg = direct_cfg;
        valiant_cfg.valiant_routing = true;
        let direct =
            Simulation::new(&net, &routing, direct_cfg).run(TrafficPattern::Uniform, 0.2, 31);
        let valiant =
            Simulation::new(&net, &routing, valiant_cfg).run(TrafficPattern::Uniform, 0.2, 31);
        assert!(valiant.delivered_packets > 0);
        assert!(
            valiant.avg_latency > direct.avg_latency,
            "the extra bounce must cost latency: {} vs {}",
            valiant.avg_latency,
            direct.avg_latency
        );
        assert!(
            (valiant.accepted_load - 0.2).abs() < 0.05,
            "light load still accepted"
        );
    }

    #[test]
    fn valiant_costs_throughput_on_uniform_traffic() {
        // The paper's point: RFCs do not need Valiant; turning it on
        // under benign uniform traffic wastes roughly half the
        // bandwidth.
        let clos = FoldedClos::cft(8, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::quick();
        cfg.measure_cycles = 2_000;
        let direct =
            Simulation::new(&net, &routing, cfg).max_throughput(TrafficPattern::Uniform, 32);
        let mut vcfg = cfg;
        vcfg.valiant_routing = true;
        let valiant =
            Simulation::new(&net, &routing, vcfg).max_throughput(TrafficPattern::Uniform, 32);
        assert!(
            valiant < direct * 0.85,
            "valiant {valiant} should clearly undercut direct {direct}"
        );
    }

    #[test]
    fn faulty_network_refuses_unroutable_pairs() {
        // Cut leaf 0 off from the spine: its packets are unroutable and
        // counted as refused, but the rest of the network still works.
        let clos = FoldedClos::cft(4, 2).unwrap();
        let faults: Vec<_> = clos.links().into_iter().filter(|l| l.lower == 0).collect();
        let faulty = clos.with_links_removed(&faults);
        let routing = UpDownRouting::new(&faulty);
        let net = SimNetwork::from_folded_clos(&faulty);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let r = sim.run(TrafficPattern::Uniform, 0.5, 8);
        assert!(r.refused_packets > 0, "leaf 0 sources must be refused");
        assert!(r.delivered_packets > 0, "other leaves keep communicating");
    }

    #[test]
    fn unroutable_counting_respects_the_measurement_window() {
        // Regression: `unroutable` used to increment over the warmup
        // too, while `refused` was window-gated — yet refused_packets
        // sums both. With both gated, a longer warmup in front of the
        // same measurement window must not inflate the count.
        let clos = FoldedClos::cft(4, 2).unwrap();
        let faults: Vec<_> = clos.links().into_iter().filter(|l| l.lower == 0).collect();
        let faulty = clos.with_links_removed(&faults);
        let routing = UpDownRouting::new(&faulty);
        let net = SimNetwork::from_folded_clos(&faulty);
        let mut short = SimConfig::quick();
        short.warmup_cycles = 0;
        short.measure_cycles = 2_000;
        let mut long = short;
        long.warmup_cycles = 4_000;
        let a = Simulation::new(&net, &routing, short).run(TrafficPattern::Uniform, 0.5, 11);
        let b = Simulation::new(&net, &routing, long).run(TrafficPattern::Uniform, 0.5, 11);
        assert!(a.refused_packets > 20, "fault must refuse packets");
        let (a, b) = (a.refused_packets as f64, b.refused_packets as f64);
        // Same window length => statistically equal counts; the old
        // asymmetric gating would have made b ~3x a here.
        assert!(
            b < a * 1.5 && b > a * 0.5,
            "window-gated counts diverged: {a} vs {b}"
        );
    }
}
