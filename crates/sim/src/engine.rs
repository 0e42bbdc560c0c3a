//! The cycle-driven virtual cut-through simulation engine.
//!
//! # Hot-path layout
//!
//! The engine is the bottleneck of every simulation figure, so its
//! per-cycle state is laid out flat (see DESIGN.md §10):
//!
//! * **Injection** draws the *gap* to the next injecting terminal from a
//!   geometric distribution ([`geometric_gap`]) instead of one Bernoulli
//!   draw per terminal — O(injections), not O(terminals), per cycle.
//! * **Packet queues** are fixed-capacity ring buffers in one flat
//!   array (`buffer_packets` slots per virtual channel) — no per-VC
//!   `VecDeque` headers or heap indirection.
//! * An **active-VC worklist** drives the request stage: only slots
//!   that hold packets are visited, with lazy removal when a slot is
//!   observed empty.
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
//! packets and credits cross through mailboxes at the cycle boundary.
//! All randomness is drawn *statelessly* per decision — a counter-based
//! hash over `(stream, cycle, global entity id)` ([`crate::shard::draw`])
//! for routing, arbitration and reservoir sampling, plus one sequential
//! per-switch generator for injection — so every decision is a pure
//! function of ids the partition cannot change. Results are therefore
//! **byte-identical at any shard count** (and at any worker-pool thread
//! count). Absolute statistics differ from the pre-sharding engine
//! because the RNG draw sequence changed shape (the same precedent as
//! the PR 3 engine overhaul).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rfc_graph::vid;
use rfc_routing::UpDownRouting;
use rfc_topology::FoldedClos;

use crate::candidates::{Candidates, RleTable};
use crate::churn::{ChurnResult, DynState, FaultSchedule};
use crate::network::{OutTarget, SimNetwork};
use crate::shard::{
    bounded_hi, bounded_lo, drain_mailboxes, draw, lat32, mailbox_push, new_mailboxes,
    reservoir_offer, u8_of, Event, MailboxCell, Request, Sample, ShardMsg, ShardPlan, ShardState,
    Streams, NO_PORT, NO_REQ,
};
use crate::traffic::TrafficModel;
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
const NO_VIA: u32 = u32::MAX;

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
/// only identity, destination, and timing are tracked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packet {
    dst_terminal: u32,
    dst_switch: u32,
    /// Valiant intermediate switch, or [`NO_VIA`] once passed (or when
    /// Valiant routing is off).
    via_switch: u32,
    gen_time: u64,
}

impl Default for Packet {
    fn default() -> Self {
        Self {
            dst_terminal: 0,
            dst_switch: 0,
            via_switch: NO_VIA,
            gen_time: 0,
        }
    }
}

/// The per-run read-only context shared by every shard worker.
#[derive(Debug)]
pub(crate) struct StepCtx {
    traffic: Box<dyn TrafficModel>,
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
    /// Address of the network the last run simulated, and that run's
    /// measurement window: what [`Simulation::port_utilization`] checks
    /// before reading the per-shard busy counters.
    last_run: Option<(usize, u64)>,
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
        self.last_run = Some((std::ptr::from_ref(net).addr(), cfg.measure_cycles));
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

    /// The candidate source built at construction (shared by every
    /// plain run; a churn run patches its own copy).
    pub(crate) fn candidates(&self) -> &Candidates {
        &self.candidates
    }

    /// The network this simulation runs on.
    pub(crate) fn net(&self) -> &'a SimNetwork {
        self.net
    }

    /// The routing next hops come from.
    pub(crate) fn routing(&self) -> &'a UpDownRouting {
        self.routing
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
    /// identical to [`Simulation::run`] at any shard count; afterwards
    /// [`Simulation::port_utilization`] reads the run's port probes out
    /// of `scratch`.
    ///
    /// Randomness is organized as independent streams derived from
    /// `seed` (see [`Streams`]): the traffic-state build, per-switch
    /// sequential injection generators, and three stateless counter
    /// streams for routing decisions, arbitration priorities, and
    /// reservoir sampling. No draw depends on event order or on the
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
        self.lockstep(&self.candidates, self.routing, scratch, &ctx, 0..ctx.end);
        self.merge_stats(offered_load, scratch)
    }

    /// Runs one experiment under failure churn on `shards` shards
    /// (clamped to the switch count) over caller-owned buffers:
    /// `schedule` events apply at cycle boundaries while traffic flows.
    /// `clos` must be the pristine topology this simulation's network
    /// and routing were built from. The measurement is reported in
    /// `epochs` equal time slices alongside the usual end-of-run
    /// statistics; results are byte-identical at any shard count.
    /// Events at or after the last cycle are not applied.
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
        let cfg = self.config;
        let terminals = self.net.num_terminals();
        let ctx = self.start_run(pattern, offered_load, seed, shards, scratch);
        let end = ctx.end;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "this workspace is 64-bit only (DESIGN.md §12), where u64 → usize is lossless"
        )]
        let epochs = epochs.clamp(1, (end.max(1)) as usize);
        let epoch_len = (end / epochs as u64).max(1);

        // Segment ends: every epoch boundary and distinct event cycle
        // inside the run, then the end itself.
        let mut cuts: Vec<u64> = (1..epochs as u64)
            .map(|e| e * epoch_len)
            .chain(schedule.events().iter().map(|&(cycle, _)| cycle))
            .filter(|&cycle| 0 < cycle && cycle < end)
            .chain([end])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let delivered = |scratch: &RunScratch| -> u64 {
            scratch.shard_states.iter().map(|st| st.delivered).sum()
        };
        let mut ds = DynState::new(self, clos);
        let mut ok = ds.routing.has_updown_property();
        let mut ok_cycles = 0u64;
        let mut events_applied = 0usize;
        let mut next_event = 0usize;
        // `delivered` totals at epoch boundaries and at the end.
        let mut marks: Vec<u64> = Vec::with_capacity(epochs);
        let mut from = 0u64;
        for to in cuts {
            // Events due at `from` apply before its cycle is stepped.
            let mut changed = false;
            while let Some((cycle, ev)) = schedule.events().get(next_event) {
                if *cycle > from || *cycle >= end {
                    break;
                }
                next_event += 1;
                if ds.apply(ev) {
                    events_applied += 1;
                    changed = true;
                }
            }
            if changed {
                ok = ds.routing.has_updown_property();
            }
            if ok {
                ok_cycles += to - from;
            }
            if from > 0 && from.is_multiple_of(epoch_len) && from / epoch_len < epochs as u64 {
                marks.push(delivered(scratch));
            }
            self.lockstep(&ds.candidates, &ds.routing, scratch, &ctx, from..to);
            from = to;
        }
        marks.push(delivered(scratch));

        let result = self.merge_stats(offered_load, scratch);

        // Per-epoch accepted load from the delivery marks.
        let mut epoch_accepted = Vec::with_capacity(marks.len());
        let mut prev_total = 0u64;
        for (e, &total) in marks.iter().enumerate() {
            let cycles = if e + 1 == marks.len() {
                end - epoch_len * e as u64
            } else {
                epoch_len
            };
            epoch_accepted.push(
                (total - prev_total) as f64 * cfg.packet_length as f64
                    / (cycles.max(1) as f64 * terminals.max(1) as f64),
            );
            prev_total = total;
        }

        ChurnResult {
            result,
            epoch_accepted,
            availability: if end == 0 {
                1.0
            } else {
                ok_cycles as f64 / end as f64
            },
            events_applied,
        }
    }

    /// Saturation throughput: accepted load when every node offers one
    /// phit per cycle.
    pub fn max_throughput(&self, pattern: TrafficPattern, seed: u64) -> f64 {
        self.run(pattern, 1.0, seed).accepted_load
    }

    /// Per-port serialization utilization over the measurement window of
    /// the last run made through `scratch`, or `None` when that run was
    /// not on this simulation's network (compared by address) or
    /// `scratch` has not run yet.
    pub fn port_utilization(&self, scratch: &RunScratch) -> Option<crate::stats::PortUtilization> {
        let (net, window) = scratch.last_run?;
        if net != std::ptr::from_ref(self.net).addr() {
            return None;
        }
        let mut busy = vec![0u64; self.net.num_out_ports()];
        for (st, gids) in scratch.shard_states.iter().zip(&scratch.plan.out_gids) {
            for (&b, &gid) in st.busy_cycles.iter().zip(gids) {
                busy[gid as usize] = b;
            }
        }
        let mut link = Vec::new();
        let mut eject = Vec::new();
        for (out, &b) in busy.iter().enumerate() {
            let utilization = b as f64 / window as f64;
            match self.net.out_target[out] {
                OutTarget::Link { .. } => link.push(utilization),
                OutTarget::Eject { .. } => eject.push(utilization),
            }
        }
        Some(crate::stats::PortUtilization { link, eject })
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
        let traffic = crate::traffic::build(pattern, terminals, end, &mut traffic_rng);
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

    /// Advances every shard of `scratch` through `cycles` in lockstep,
    /// routing over `candidates`/`routing`. The one cycle loop of the
    /// engine: a plain run is the single segment `0..end`, a churn run
    /// one segment per stretch between routing changes.
    ///
    /// Each shard runs on its own worker (shard 0 on the caller's
    /// thread, a lone shard with no threads at all); per cycle it
    /// steps, then drains the mailboxes its peers filled, with a barrier
    /// after each phase. The segment ends with every mailbox drained.
    pub(crate) fn lockstep(
        &self,
        candidates: &Candidates,
        routing: &UpDownRouting,
        scratch: &mut RunScratch,
        ctx: &StepCtx,
        cycles: std::ops::Range<u64>,
    ) {
        let v = self.config.virtual_channels;
        let RunScratch {
            plan, shard_states, ..
        } = scratch;
        let plan: &ShardPlan = plan;
        let mailboxes = new_mailboxes(plan.shards * plan.shards);
        let mailboxes = &mailboxes[..];
        let barrier = rfc_parallel::SpinBarrier::new(plan.shards);
        let barrier = &barrier;
        rfc_parallel::run_shard_workers(shard_states, |me, st| {
            // A panic in the cycle loop (engine invariant failure)
            // poisons the barrier so the other shards fail fast instead
            // of spinning on a generation that never comes.
            let _poison = barrier.guard();
            for now in cycles.clone() {
                self.step_shard(candidates, routing, plan, me, st, mailboxes, ctx, now);
                // All sends for this cycle are in the mailboxes…
                barrier.wait();
                drain_mailboxes(plan, me, st, mailboxes, v);
                // …and all drains done before anyone starts cycle
                // now + 1.
                barrier.wait();
            }
        });
    }

    /// Merges per-shard statistics (in fixed shard order) into the run
    /// result. Shared by the plain run path and the churn runner
    /// ([`crate::churn`]).
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
        let mut generated = 0u64;
        let mut refused = 0u64;
        let mut unroutable = 0u64;
        let mut delivered = 0u64;
        let mut latency_sum = 0u64;
        let mut in_flight = 0u64;
        merge_buf.clear();
        for st in shard_states.iter() {
            generated += st.generated;
            refused += st.refused;
            unroutable += st.unroutable;
            delivered += st.delivered;
            latency_sum += st.latency_sum;
            in_flight += st.in_flight();
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
                latency_sum as f64 / delivered as f64
            },
            latency_p50: percentile(0.50),
            latency_p95: percentile(0.95),
            latency_p99: percentile(0.99),
            delivered_packets: delivered,
            generated_packets: generated,
            refused_packets: refused + unroutable,
            in_flight_at_end: in_flight,
        }
    }

    /// Advances shard `me` by one cycle: deliver scheduled events,
    /// inject on owned switches, form routing requests, arbitrate and
    /// move packets. Cross-shard effects (arrivals at ports owned
    /// elsewhere, credits for buffers fed from elsewhere) go to the
    /// mailboxes; everything else stays in `st`.
    ///
    /// The candidate/routing pair is a parameter (rather than read from
    /// `self`) so churn runs can substitute their repaired state; plain
    /// runs pass `(&self.candidates, self.routing)`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the per-shard view of the run, passed as borrows so shards share nothing mutable"
    )]
    fn step_shard(
        &self,
        candidates: &Candidates,
        routing: &UpDownRouting,
        plan: &ShardPlan,
        me: usize,
        st: &mut ShardState,
        mailboxes: &[MailboxCell],
        ctx: &StepCtx,
        now: u64,
    ) {
        let cfg = &self.config;
        let net = self.net;
        let v = cfg.virtual_channels;
        let cap = cfg.buffer_packets;
        let in_window = now >= ctx.warmup;
        let ShardState {
            pkts,
            q_head,
            q_len,
            in_credits,
            out_credits,
            active,
            in_active,
            busy_until,
            busy_cycles,
            wheel,
            reqs,
            req_head,
            req_count,
            touched,
            row_bufs,
            slot_switch,
            slot_gid,
            slot_vc,
            slot_feeder,
            inj_switches,
            inj_rngs,
            reservoir,
            generated,
            refused,
            unroutable,
            delivered,
            latency_sum,
        } = st;
        // Local slice bindings so the optimizer can hoist the base
        // pointer and bounds loads out of the per-packet loops below.
        let local_of_in = plan.local_of_in.as_slice();
        let local_of_out = plan.local_of_out.as_slice();
        let shard_of_in = plan.shard_of_in.as_slice();
        let shard_of_out = plan.shard_of_out.as_slice();
        let out_gids_me = plan.out_gids[me].as_slice();
        let out_target = net.out_target.as_slice();
        let eject_port_of_terminal = net.eject_port_of_terminal.as_slice();
        let dst_switch_of_terminal = net.dst_switch_of_terminal.as_slice();
        let inject_port_of_terminal = net.inject_port_of_terminal.as_slice();

        // xtask: hot-loop-begin — the shard step must stay allocation-free
        // xtask: lockstep-begin — runs between barrier waits every cycle;
        // no locks, channels, sleeps, blocking I/O, or SeqCst here
        // 1. Deliver scheduled events. Drain (rather than take) the
        //    slot so its capacity survives to the next lap of the
        //    wheel. Within a slot, events commute: arrivals target
        //    distinct VC slots (one feeder per input port, one grant
        //    per output per cycle) and credit increments are sums.
        let wslot = wheel_slot(now);
        for ev in wheel[wslot].drain(..) {
            match ev {
                Event::Arrival { slot, packet } => {
                    let s = slot as usize;
                    // Ring tail; the wrap-if avoids a runtime modulo.
                    let mut pos = q_head[s] as usize + q_len[s] as usize;
                    if pos >= cap {
                        pos -= cap;
                    }
                    pkts[s * cap + pos] = packet;
                    q_len[s] += 1;
                    if !in_active[s] {
                        in_active[s] = true;
                        active.push(slot);
                    }
                }
                Event::CreditIn { slot } => {
                    in_credits[slot as usize] += 1;
                }
                Event::CreditOut { idx } => {
                    out_credits[idx as usize] += 1;
                }
                Event::Wake { slot } => {
                    let s = slot as usize;
                    if q_len[s] > 0 && !in_active[s] {
                        in_active[s] = true;
                        active.push(slot);
                    }
                }
            }
        }

        // 2. Injection, "shortest" injection mode — the virtual channel
        //    with most free slots. Each owned switch walks its own
        //    terminal group with its own sequential generator (seeded
        //    from the switch id), so the draw sequence a terminal sees
        //    is independent of the partition. The geometric skip-ahead
        //    visits exactly the terminals a per-terminal Bernoulli draw
        //    would have selected (identical in distribution).
        if ctx.p_gen > 0.0 {
            for (sw, rng) in inj_switches.iter().zip(inj_rngs.iter_mut()) {
                let sw_us = *sw as usize;
                let group = &plan.terms
                    [plan.term_offsets[sw_us] as usize..plan.term_offsets[sw_us + 1] as usize];
                let mut t = geometric_gap(rng, ctx.ln_q);
                while t < group.len() {
                    let src = group[t];
                    'inject: {
                        let Some(dst) = ctx.traffic.dest(src, now, rng) else {
                            break 'inject;
                        };
                        let dst_switch = dst_switch_of_terminal[dst as usize];
                        let src_switch = *sw;
                        // Valiant stage: bounce through a random
                        // terminal's switch first.
                        let via_switch = if cfg.valiant_routing {
                            let mid = rng.gen_range(0..ctx.t32);
                            let vs = dst_switch_of_terminal[mid as usize];
                            if vs == src_switch || vs == dst_switch {
                                NO_VIA
                            } else {
                                vs
                            }
                        } else {
                            NO_VIA
                        };
                        let first_target = if via_switch != NO_VIA {
                            via_switch
                        } else {
                            dst_switch
                        };
                        if src_switch != first_target
                            && candidates
                                .row(net, routing, src_switch, first_target, row_bufs)
                                .is_empty()
                        {
                            if in_window {
                                *unroutable += 1;
                            }
                            break 'inject;
                        }
                        if via_switch != NO_VIA
                            && via_switch != dst_switch
                            && candidates
                                .row(net, routing, via_switch, dst_switch, row_bufs)
                                .is_empty()
                        {
                            if in_window {
                                *unroutable += 1;
                            }
                            break 'inject;
                        }
                        let in_port = inject_port_of_terminal[src as usize];
                        let base = local_of_in[in_port as usize] as usize * v;
                        // Valiant phase partition: packets still heading
                        // to an intermediate use the first half of the
                        // VCs. The range is nonempty by construction:
                        // assert_valid requires >= 2 VCs whenever
                        // Valiant splits them.
                        let (vc_lo, vc_hi) = vc_range(cfg.valiant_routing, via_switch != NO_VIA, v);
                        let mut best = vc_lo;
                        for c in vc_lo + 1..vc_hi {
                            if in_credits[base + c] > in_credits[base + best] {
                                best = c;
                            }
                        }
                        if in_credits[base + best] == 0 {
                            if in_window {
                                *refused += 1;
                            }
                            break 'inject;
                        }
                        in_credits[base + best] -= 1;
                        let s = base + best;
                        let mut pos = q_head[s] as usize + q_len[s] as usize;
                        if pos >= cap {
                            pos -= cap;
                        }
                        pkts[s * cap + pos] = Packet {
                            dst_terminal: dst,
                            dst_switch,
                            via_switch,
                            gen_time: now,
                        };
                        q_len[s] += 1;
                        if !in_active[s] {
                            in_active[s] = true;
                            active.push(vid(s));
                        }
                        if in_window {
                            *generated += 1;
                        }
                    }
                    t = t
                        .saturating_add(geometric_gap(rng, ctx.ln_q))
                        .saturating_add(1);
                }
            }
        }

        // 3. Routing requests: every head packet asks for one random
        //    candidate output (the "up/down random" request mode), drawn
        //    statelessly from the slot's global id — worklist order
        //    cannot matter. Only occupied VC slots are visited; slots
        //    drained by a previous arbitration round retire here. A slot
        //    whose candidate outputs are ALL busy is *parked*: removed
        //    from the worklist with a `Wake` scheduled for the cycle the
        //    earliest output frees — until then a rescan could never
        //    have produced a request, so skipping it is exact.
        let mut i = 0;
        'slots: while i < active.len() {
            let s = active[i] as usize;
            if q_len[s] == 0 {
                in_active[s] = false;
                active.swap_remove(i);
                continue;
            }
            let switch = slot_switch[s];
            let head = &mut pkts[s * cap + q_head[s] as usize];
            // Valiant phase transition: the intermediate has been
            // reached, continue toward the real target.
            if head.via_switch == switch {
                head.via_switch = NO_VIA;
            }
            let routing_target = if head.via_switch != NO_VIA {
                head.via_switch
            } else {
                head.dst_switch
            };
            let head = *head;
            // Parks the current slot until `wake` (at most
            // packet_length cycles out, within the wheel horizon).
            macro_rules! park_until {
                ($wake:expr) => {{
                    in_active[s] = false;
                    active.swap_remove(i);
                    wheel[wheel_slot($wake)].push(Event::Wake { slot: vid(s) });
                    continue 'slots;
                }};
            }
            // The global slot id: the stateless draw key and the
            // arbitration tie-break, both partition-independent.
            let gid = slot_gid[s];
            let (out_gid, o, target_vc) = if routing_target == switch {
                let out = eject_port_of_terminal[head.dst_terminal as usize];
                let free_at = busy_until[out as usize];
                if free_at > now {
                    // The ejector is this packet's only way out.
                    park_until!(free_at);
                }
                (out, local_of_out[out as usize] as usize, u8::MAX)
            } else {
                // One draw serves both decisions: low half picks the
                // candidate, high half starts the target-VC rotation.
                let h = draw(ctx.streams.dec, now, u64::from(gid));
                let ports = candidates.row(net, routing, switch, routing_target, row_bufs);
                if ports.is_empty() {
                    // Statically faulted networks never strand a packet
                    // mid-route (injection pre-checks), but stay safe:
                    // stall it.
                    i += 1;
                    continue;
                }
                let k = pick_candidate(cfg.request_mode, h, ports.len(), switch, routing_target);
                let out = ports[k];
                if busy_until[out as usize] > now {
                    let mut wake = u64::MAX;
                    for &cand in ports {
                        wake = wake.min(busy_until[cand as usize]);
                    }
                    if wake > now {
                        park_until!(wake);
                    }
                    // A free sibling exists: retry the uniform pick next
                    // cycle.
                    i += 1;
                    continue;
                }
                let o = local_of_out[out as usize] as usize;
                // Random target VC among those with a free slot (read
                // from this shard's credit mirror of the downstream
                // buffers this output feeds), restricted to the packet's
                // Valiant phase class. Wrap-if rotation instead of a
                // per-step modulo.
                let (vc_lo, vc_hi) = vc_range(cfg.valiant_routing, head.via_switch != NO_VIA, v);
                let span = vc_hi - vc_lo;
                let start = if span == 1 { 0 } else { bounded_hi(h, span) };
                let ob = o * v;
                let mut cand = vc_lo + start;
                let mut chosen = None;
                for _ in 0..span {
                    if out_credits[ob + cand] > 0 {
                        chosen = Some(u8_of(cand));
                        break;
                    }
                    cand += 1;
                    if cand == vc_hi {
                        cand = vc_lo;
                    }
                }
                let Some(tvc) = chosen else {
                    // Downstream credits return at unpredictable times;
                    // keep the slot live and retry.
                    i += 1;
                    continue;
                };
                (out, o, tvc)
            };
            if req_count[o] == 0 {
                touched.push(vid(o));
            }
            reqs.push(Request {
                slot: vid(s),
                prev: req_head[o],
                // The priority is keyed on (cycle, output, slot): a pure
                // function of global ids, so the winner below depends
                // only on the requester *set*.
                prio: draw(
                    ctx.streams.arb,
                    now,
                    (u64::from(out_gid) << 32) | u64::from(gid),
                ),
                gid,
                target_vc,
            });
            req_head[o] = vid(reqs.len() - 1);
            req_count[o] += 1;
            i += 1;
        }

        // 4. Random arbitration, one iteration: each free output port
        //    grants the requester with the smallest stateless priority
        //    (global slot id as tie-break) — an argmin over the request
        //    chain, independent of chain order.
        for &out in touched.iter() {
            let o = out as usize;
            let out_gid = out_gids_me[o];
            req_count[o] = 0;
            let first = req_head[o] as usize;
            req_head[o] = NO_REQ;
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
            if q_len[s] == 0 {
                debug_assert!(false, "granted VC slot {s} is empty");
                continue;
            }
            let packet = pkts[s * cap + q_head[s] as usize];
            let next_head = q_head[s] as usize + 1;
            q_head[s] = if next_head == cap {
                0
            } else {
                u8_of(next_head)
            };
            q_len[s] -= 1;
            debug_assert!(busy_until[out_gid as usize] <= now);
            busy_until[out_gid as usize] = now + cfg.packet_length;
            if in_window {
                busy_cycles[o] += cfg.packet_length.min(ctx.end - now);
            }
            // Return the freed buffer slot: to the local injection
            // credit for terminal-fed ports, else to the credit mirror
            // at the feeding output port's shard.
            let credit_at = now + cfg.packet_length;
            let feeder = slot_feeder[s];
            if feeder == NO_PORT {
                wheel[wheel_slot(credit_at)].push(Event::CreditIn { slot: pick.slot });
            } else {
                let fsh = shard_of_out[feeder as usize] as usize;
                if fsh == me {
                    let idx = local_of_out[feeder as usize] as usize * v + slot_vc[s] as usize;
                    wheel[wheel_slot(credit_at)].push(Event::CreditOut { idx: vid(idx) });
                } else {
                    mailbox_push(
                        mailboxes,
                        me * plan.shards + fsh,
                        ShardMsg::Credit {
                            at: credit_at,
                            out_port: feeder,
                            vc: slot_vc[s],
                        },
                    );
                }
            }
            match out_target[out_gid as usize] {
                OutTarget::Eject { terminal } => {
                    debug_assert_eq!(terminal, packet.dst_terminal);
                    if in_window {
                        *delivered += 1;
                        let latency = now + cfg.packet_length - packet.gen_time;
                        *latency_sum += latency;
                        // Order sampling keeps memory bounded at paper
                        // scale while staying mergeable across shards:
                        // each delivery competes with a stateless
                        // priority keyed on its unique (cycle, ejector).
                        reservoir_offer(
                            reservoir,
                            cfg.latency_reservoir,
                            Sample {
                                prio: draw(ctx.streams.stats, now, u64::from(out_gid)),
                                cycle: now,
                                out: out_gid,
                                latency: lat32(latency),
                            },
                        );
                    }
                }
                OutTarget::Link { in_port: tgt, .. } => {
                    out_credits[o * v + pick.target_vc as usize] -= 1;
                    let at = now + cfg.link_latency + cfg.router_latency;
                    let tsh = shard_of_in[tgt as usize] as usize;
                    if tsh == me {
                        let slot = local_of_in[tgt as usize] as usize * v + pick.target_vc as usize;
                        wheel[wheel_slot(at)].push(Event::Arrival {
                            slot: vid(slot),
                            packet,
                        });
                    } else {
                        mailbox_push(
                            mailboxes,
                            me * plan.shards + tsh,
                            ShardMsg::Arrival {
                                at,
                                in_port: tgt,
                                vc: pick.target_vc,
                                packet,
                            },
                        );
                    }
                }
            }
        }
        touched.clear();
        reqs.clear();
        // xtask: lockstep-end
        // xtask: hot-loop-end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::RowBufs;
    use rfc_routing::UpDownRouting;
    use rfc_topology::FoldedClos;

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
        for shards in [4usize, 2, 1] {
            let r = sim.run_sharded_scratch(TrafficPattern::Uniform, 0.6, 13, shards, &mut scratch);
            assert_eq!(base, r, "shards {shards} diverged through scratch reuse");
        }
    }

    #[test]
    fn sharded_runs_are_byte_identical_to_serial() {
        // The tentpole contract: every statistic — counters, latency
        // percentiles from the merged reservoir, and per-port probes —
        // is invariant in the shard count.
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
            let base_probes = sim.port_utilization(&scratch).unwrap();
            for shards in [2usize, 3, 8] {
                let r = sim.run_sharded_scratch(pattern, load, 77, shards, &mut scratch);
                let probes = sim.port_utilization(&scratch).unwrap();
                assert_eq!(base, r, "{pattern} diverged at {shards} shards");
                assert_eq!(base_probes.link, probes.link, "{pattern} link probes");
                assert_eq!(base_probes.eject, probes.eject, "{pattern} eject probes");
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
    fn probes_locate_the_incast_bottleneck() {
        // All-to-one traffic: terminal 0's ejector saturates while the
        // mean link sits far below it.
        let clos = FoldedClos::cft(8, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let mut scratch = RunScratch::new();
        let r = sim.run_sharded_scratch(TrafficPattern::AllToOne, 1.0, 41, 1, &mut scratch);
        let probes = sim.port_utilization(&scratch).unwrap();
        assert!(r.delivered_packets > 0);
        assert!(probes.eject[0] > 0.9, "hot ejector {}", probes.eject[0]);
        assert!(
            probes.eject[1..].iter().all(|&u| u == 0.0),
            "only terminal 0 receives"
        );
        assert!(probes.mean_link() < probes.eject[0]);
    }

    #[test]
    fn probes_match_accepted_load_under_uniform() {
        // For a fully populated network, mean ejection utilization IS
        // the accepted load.
        let clos = FoldedClos::cft(6, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let mut scratch = RunScratch::new();
        let r = sim.run_sharded_scratch(TrafficPattern::Uniform, 0.5, 42, 1, &mut scratch);
        let probes = sim.port_utilization(&scratch).unwrap();
        assert!(
            (probes.mean_eject() - r.accepted_load).abs() < 0.02,
            "eject {} vs accepted {}",
            probes.mean_eject(),
            r.accepted_load
        );
        assert!(probes.max_link() <= 1.0 + 1e-9);
    }

    #[test]
    fn port_utilization_reads_only_this_networks_last_run() {
        let big = FoldedClos::cft(6, 3).unwrap();
        let big_routing = UpDownRouting::new(&big);
        let big_net = SimNetwork::from_folded_clos(&big);
        let big_sim = Simulation::new(&big_net, &big_routing, SimConfig::quick());
        let (small_net, small_routing) = tiny_sim();
        let small_sim = Simulation::new(&small_net, &small_routing, SimConfig::quick());
        let mut scratch = RunScratch::new();
        assert_eq!(
            small_sim.port_utilization(&scratch),
            None,
            "nothing ran yet"
        );
        small_sim.run_sharded_scratch(TrafficPattern::Uniform, 0.5, 3, 2, &mut scratch);
        let probes = small_sim.port_utilization(&scratch).unwrap();
        assert_eq!(
            probes.link.len() + probes.eject.len(),
            small_net.num_out_ports()
        );
        assert_eq!(
            big_sim.port_utilization(&scratch),
            None,
            "the last run was on another network"
        );
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
