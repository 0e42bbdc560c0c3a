//! Failure churn: running a simulation while the network changes.
//!
//! A [`FaultSchedule`] is a deterministic, pre-generated list of link
//! events (fail/recover) pinned to simulated cycles. The churn runner,
//! [`crate::Simulation::run_churn_sharded_scratch`], replays it *during*
//! the one lockstep run a plain run also makes: at a cycle with due
//! events, shard 0 applies them to the run's one [`DynState`] — a
//! [`LiveClos`] overlay, an incrementally repaired [`UpDownRouting`]
//! table ([`UpDownRouting::apply_event`]), and the candidate table,
//! patched in place at the entries the repair changed — while the other
//! shards wait to read it (DESIGN.md §13, §16). The patch reuses one
//! column scratch held here, so a steady churn run allocates no table.
//!
//! Repairs are pure functions of the schedule and happen only while no
//! shard steps, so results are **byte-identical at any shard count**,
//! exactly like plain runs, and the routing state exists once whatever
//! the shard count.
//!
//! The physical [`SimNetwork`] stays pristine throughout: a failed link
//! disappears from the *routing* state, so no new packet is steered
//! into it, while packets already queued toward a dead-end stall until
//! repair restores a path (or the run ends) — the behavior measured by
//! the availability and accepted-load-over-time outputs.

use std::borrow::Cow;
use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rfc_routing::UpDownRouting;
use rfc_topology::{FoldedClos, Link, LinkEvent, LinkEventKind, LiveClos};

use crate::candidates::{Candidates, ColumnScratch};
use crate::network::SimNetwork;
use crate::SimResult;

/// A deterministic, cycle-stamped sequence of link events, applied at
/// cycle boundaries by [`crate::Simulation::run_churn_sharded_scratch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Sorted by `(cycle, event)`; ties resolve by the event order so
    /// the application sequence is total and partition-independent.
    events: Vec<(u64, LinkEvent)>,
}

impl FaultSchedule {
    /// A schedule from explicit `(cycle, event)` pairs; the list is
    /// sorted into the canonical application order.
    #[must_use]
    pub fn new(mut events: Vec<(u64, LinkEvent)>) -> Self {
        events.sort_unstable();
        FaultSchedule { events }
    }

    /// The empty schedule — churn runs degrade to plain runs.
    #[must_use]
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// The canonical `(cycle, event)` sequence.
    #[must_use]
    pub fn events(&self) -> &[(u64, LinkEvent)] {
        &self.events
    }

    /// Number of scheduled events (both kinds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Poisson link churn over `[0, horizon)`: failures arrive as a
    /// Poisson process at `rate` failures per cycle (network-wide),
    /// each striking a uniformly random *distinct* link that is
    /// currently up; its repair completes after an exponential downtime
    /// with the given mean (at least one cycle). Arrivals on a link
    /// already down are dropped, matching real-world churn models where
    /// a dead link cannot fail again.
    ///
    /// The schedule is a pure function of `(clos, rate, mean_downtime,
    /// horizon, seed)` — generation happens up front, so the simulated
    /// results stay shard-invariant.
    #[must_use]
    pub fn poisson(
        clos: &FoldedClos,
        rate: f64,
        mean_downtime: f64,
        horizon: u64,
        seed: u64,
    ) -> Self {
        let mut distinct: Vec<Link> = clos.links();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.is_empty() || rate <= 0.0 {
            return FaultSchedule::default();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut down_until: BTreeMap<Link, u64> = BTreeMap::new();
        let mut events: Vec<(u64, LinkEvent)> = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += exponential(&mut rng, 1.0 / rate);
            if !t.is_finite() || t >= horizon as f64 {
                break;
            }
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "t is finite and in [0, horizon), checked just above"
            )]
            let cycle = t as u64;
            let link = distinct[rng.gen_range(0..distinct.len())];
            if down_until.get(&link).is_some_and(|&until| until > cycle) {
                continue;
            }
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "an exponential draw is non-negative; a huge one saturates to a link that never recovers"
            )]
            let downtime = (exponential(&mut rng, mean_downtime).ceil() as u64).max(1);
            let recover_at = cycle.saturating_add(downtime);
            events.push((cycle, LinkEvent::fail(link)));
            if recover_at < horizon {
                events.push((recover_at, LinkEvent::recover(link)));
                down_until.insert(link, recover_at);
            } else {
                down_until.insert(link, u64::MAX);
            }
        }
        FaultSchedule::new(events)
    }
}

/// An exponential draw with the given mean, via inversion.
fn exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// Result of one churn run: the usual end-of-run statistics plus the
/// dynamic-network outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnResult {
    /// End-of-run statistics, exactly as a plain run reports them.
    pub result: SimResult,
    /// Accepted load (phits per node per cycle) per epoch, exposing the
    /// dips and recoveries the end-of-run mean hides. The epochs are
    /// equal slices of the whole run, `0..warmup + measure` (the last
    /// slice takes the remainder), and each counts only the deliveries
    /// inside the measurement window, so an epoch that overlaps the
    /// warm-up reads low.
    pub epoch_accepted: Vec<f64>,
    /// Fraction of simulated cycles during which the up/down property
    /// held on the current (faulted) topology.
    pub availability: f64,
    /// Events from the schedule that actually changed the topology
    /// (duplicate fails / spurious recovers are no-ops).
    pub events_applied: usize,
}

/// The routing state of a run: the simulation's own routing and table,
/// borrowed until the first event that changes the topology forks them
/// into an overlay, a repaired routing and a patched table, kept
/// byte-identical to a from-scratch build on the current topology.
pub(crate) struct DynState<'a> {
    net: &'a SimNetwork,
    /// The topology the first change copies; `None` on a plain run.
    clos: Option<&'a FoldedClos>,
    live: Option<LiveClos>,
    pub(crate) routing: Cow<'a, UpDownRouting>,
    pub(crate) candidates: Cow<'a, Candidates>,
    /// The table patch's scratch, reused by every event.
    column: ColumnScratch,
    /// Events that changed the topology: the table version shards
    /// re-list their credit-parked slots against.
    pub(crate) applied: usize,
    /// Cycles the up/down property held before `since`, and whether it
    /// has held since.
    ok_cycles: u64,
    since: u64,
    ok: bool,
}

impl<'a> DynState<'a> {
    /// The pristine state, copying nothing; `clos` must be the topology
    /// `net` and `routing` were built from.
    pub(crate) fn new(
        net: &'a SimNetwork,
        routing: &'a UpDownRouting,
        candidates: &'a Candidates,
        clos: Option<&'a FoldedClos>,
    ) -> Self {
        DynState {
            net,
            clos,
            live: None,
            routing: Cow::Borrowed(routing),
            candidates: Cow::Borrowed(candidates),
            column: ColumnScratch::default(),
            applied: 0,
            ok_cycles: 0,
            since: 0,
            ok: clos.is_none() || routing.has_updown_property(),
        }
    }

    /// Applies the events due at cycle `now` (a duplicate fail or a
    /// spurious recover changes nothing), then re-checks the up/down
    /// property if the topology changed.
    pub(crate) fn commit(&mut self, now: u64, due: &[(u64, LinkEvent)]) {
        let before = self.applied;
        for (_, ev) in due {
            // While nothing is down only failing a pristine link changes
            // anything, and the first such event builds the overlay.
            if self.live.is_none() && self.clos.is_some_and(|clos| fails_a_link(clos, ev)) {
                self.live = self.clos.map(LiveClos::new);
            }
            let Some(live) = &mut self.live else {
                continue;
            };
            if live.apply(ev) {
                let scope = self.routing.to_mut().apply_event(live.current(), ev);
                self.candidates.to_mut().patch(
                    self.net,
                    &self.routing,
                    &scope,
                    ev.kind,
                    &mut self.column,
                );
                #[cfg(test)]
                if let Some(table) = self.candidates.table() {
                    table.assert_layout();
                }
                self.applied += 1;
            }
        }
        if self.applied > before {
            if self.ok {
                self.ok_cycles += now - self.since;
            }
            (self.ok, self.since) = (self.routing.has_updown_property(), now);
        }
    }

    /// Fraction of the run's `end` cycles (at least one, as
    /// [`crate::SimConfig::validate`] demands) during which the up/down
    /// property held.
    pub(crate) fn availability(&self, end: u64) -> f64 {
        let tail = if self.ok { end - self.since } else { 0 };
        (self.ok_cycles + tail) as f64 / end as f64
    }
}

/// Whether `ev` fails a link of `clos`: the only event
/// [`LiveClos::apply`] does not ignore while nothing is down.
fn fails_a_link(clos: &FoldedClos, ev: &LinkEvent) -> bool {
    let (lower, upper) = (
        ev.link.lower.min(ev.link.upper),
        ev.link.lower.max(ev.link.upper),
    );
    ev.kind == LinkEventKind::Fail && clos.links().contains(&Link { lower, upper })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::PatchCounts;
    use crate::engine::{RunScratch, Simulation};
    use crate::{SimConfig, SimResult, TrafficPattern};
    use rfc_graph::HeapBytes;

    /// Independent reference for the runner's `availability` and
    /// `events_applied`: replays `schedule` against a standalone overlay
    /// and counts the `[0, end)` cycles during which the up/down
    /// property holds, plus the events that changed the topology.
    fn reference_availability(
        clos: &FoldedClos,
        routing: &UpDownRouting,
        schedule: &FaultSchedule,
        end: u64,
    ) -> (f64, usize) {
        if end == 0 {
            return (1.0, 0);
        }
        let mut live = LiveClos::new(clos);
        let mut routing = routing.clone();
        let mut ok = routing.has_updown_property();
        let mut ok_cycles = 0u64;
        let mut prev = 0u64;
        let mut applied = 0usize;
        for (cycle, ev) in &schedule.events {
            if *cycle >= end {
                break;
            }
            if ok {
                ok_cycles += cycle - prev;
            }
            prev = *cycle;
            if live.apply(ev) {
                routing.apply_event(live.current(), ev);
                applied += 1;
                ok = routing.has_updown_property();
            }
        }
        if ok {
            ok_cycles += end - prev;
        }
        (ok_cycles as f64 / end as f64, applied)
    }

    fn setup(radix: usize, levels: usize) -> (FoldedClos, SimNetwork, UpDownRouting) {
        let clos = FoldedClos::cft(radix, levels).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        (clos, net, routing)
    }

    fn churn_cfg() -> SimConfig {
        let mut cfg = SimConfig::quick();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 1_200;
        cfg
    }

    #[test]
    fn empty_schedule_matches_a_plain_run() {
        let (clos, net, routing) = setup(6, 3);
        let cfg = churn_cfg();
        let sim = Simulation::new(&net, &routing, cfg);
        let plain = sim.run(TrafficPattern::Uniform, 0.5, 11);
        let churn = sim.run_churn_sharded_scratch(
            &clos,
            &FaultSchedule::empty(),
            TrafficPattern::Uniform,
            0.5,
            11,
            4,
            rfc_parallel::current_shards(),
            &mut RunScratch::new(),
        );
        assert_eq!(churn.result, plain, "no events => identical run");
        assert_eq!(churn.events_applied, 0);
        assert_eq!(churn.availability, 1.0);
        assert_eq!(churn.epoch_accepted.len(), 4);
        let mean = churn.epoch_accepted.iter().sum::<f64>() / 4.0;
        assert!(
            (mean - plain.accepted_load).abs() < 0.05,
            "epoch mean {mean} vs accepted {}",
            plain.accepted_load
        );
    }

    #[test]
    fn churn_results_are_shard_invariant() {
        // The tentpole contract at a non-divisor shard count: every
        // output — end-of-run stats, epoch series, availability — must
        // be byte-identical across 1, 2 and 3 shards.
        let (clos, net, routing) = setup(6, 3);
        let cfg = churn_cfg();
        let sim = Simulation::new(&net, &routing, cfg);
        let schedule = FaultSchedule::poisson(&clos, 0.01, 150.0, cfg.total_cycles(), 42);
        assert!(schedule.len() > 4, "schedule too quiet: {}", schedule.len());
        let mut scratch = RunScratch::new();
        let base = sim.run_churn_sharded_scratch(
            &clos,
            &schedule,
            TrafficPattern::Uniform,
            0.6,
            7,
            5,
            1,
            &mut scratch,
        );
        assert!(base.events_applied > 0);
        for shards in [2usize, 3, 5] {
            let r = sim.run_churn_sharded_scratch(
                &clos,
                &schedule,
                TrafficPattern::Uniform,
                0.6,
                7,
                5,
                shards,
                &mut scratch,
            );
            assert_eq!(base, r, "churn diverged at {shards} shards");
        }
    }

    #[test]
    fn live_candidate_churn_matches_the_table() {
        // Networks too large for the table budget run churn on live
        // routing queries: repairs must leave them byte-identical to the
        // patched table at any shard count.
        let (clos, net, routing) = setup(6, 3);
        let cfg = churn_cfg();
        let table = Simulation::new(&net, &routing, cfg);
        let live = Candidates::build_within(&net, &routing, 0);
        let live = Simulation::with_candidates(&net, &routing, cfg, live);
        assert_eq!(live.candidate_table_bytes(), None);
        let schedule = FaultSchedule::poisson(&clos, 0.01, 150.0, cfg.total_cycles(), 42);
        assert!(schedule.len() > 4, "schedule too quiet: {}", schedule.len());
        let mut scratch = RunScratch::new();
        for shards in [1usize, 3] {
            let mut run = |sim: &Simulation<'_, UpDownRouting>| {
                sim.run_churn_sharded_scratch(
                    &clos,
                    &schedule,
                    TrafficPattern::Uniform,
                    0.6,
                    7,
                    5,
                    shards,
                    &mut scratch,
                )
            };
            let (a, b) = (run(&table), run(&live));
            assert!(a.events_applied > 0);
            assert_eq!(
                a, b,
                "live churn diverged from the table at {shards} shards"
            );
        }
    }

    #[test]
    fn patched_candidate_table_is_byte_identical_to_fresh_build() {
        // After every applied event, the patched table must equal what
        // a from-scratch Simulation::new would build over the repaired
        // routing — the same contract the routing repair itself honors —
        // and keep the column layout. The CFT's run columns are spliced;
        // the random wirings' full columns are rewritten where they
        // stand, and there a re-queried entry can merge with its
        // neighbors.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2017);
        let nets = [
            (FoldedClos::cft(6, 3).unwrap(), 0.02, 9),
            (FoldedClos::random(8, 32, 3, &mut rng).unwrap(), 0.02, 5),
            (FoldedClos::random(12, 72, 3, &mut rng).unwrap(), 0.03, 6),
        ];
        let cfg = churn_cfg();
        for (clos, rate, seed) in &nets {
            let routing = UpDownRouting::new(clos);
            let net = SimNetwork::from_folded_clos(clos);
            let sim = Simulation::new(&net, &routing, cfg);
            let schedule = FaultSchedule::poisson(clos, *rate, 200.0, 2_000, *seed);
            assert!(schedule.len() > 6);
            let mut ds = DynState::new(&net, &routing, sim.candidates(), Some(clos));
            for due in schedule.events().chunks(1) {
                let cycle = due[0].0;
                ds.commit(cycle, due);
                let fresh = Simulation::new(&net, &ds.routing, cfg);
                let patched = ds.candidates.table().expect("the patched table fits");
                let built = fresh.candidates().table().expect("the fresh table fits");
                patched.assert_layout();
                assert_eq!(patched, built, "patched table diverged at cycle {cycle}");
            }
            assert!(
                ds.applied > 6,
                "only {} events changed the topology",
                ds.applied
            );
        }
    }

    #[test]
    fn every_link_event_patches_endpoints_in_place_exactly() {
        // Every link of a small RFC fails and recovers on its own, then
        // two up-links of leaf 0 fail together and recover in reverse
        // order; after every event the patched table equals a fresh
        // build. All columns are full here, so both endpoints' columns
        // are rewritten in place: the counts show that path ran for
        // both roles and both kinds, and re-queried entries whose only
        // candidate was the failed link.
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let clos = FoldedClos::random(8, 24, 3, &mut rng).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let cfg = churn_cfg();
        let sim = Simulation::new(&net, &routing, cfg);
        let table = sim.candidates().table().expect("the table fits");
        assert!((0..clos.num_switches()).all(|s| table.is_full(s)));
        let mut links = clos.links();
        links.dedup();
        let mut events: Vec<LinkEvent> = links
            .iter()
            .flat_map(|&l| [LinkEvent::fail(l), LinkEvent::recover(l)])
            .collect();
        let ups: Vec<Link> = links.iter().copied().filter(|l| l.lower == 0).collect();
        events.extend([
            LinkEvent::fail(ups[0]),
            LinkEvent::fail(ups[1]),
            LinkEvent::recover(ups[1]),
            LinkEvent::recover(ups[0]),
        ]);
        let mut ds = DynState::new(&net, &routing, sim.candidates(), Some(&clos));
        for (cycle, &ev) in (0u64..).zip(&events) {
            ds.commit(cycle, &[(cycle, ev)]);
            let fresh = Simulation::new(&net, &ds.routing, cfg);
            assert_eq!(
                ds.candidates.table(),
                fresh.candidates().table(),
                "patched table diverged after {ev:?}"
            );
        }
        assert_eq!(ds.applied, events.len());
        let counts = ds.column.counts;
        assert_eq!(counts.events, events.len());
        assert!(
            counts.in_place.iter().flatten().all(|&n| n > 0),
            "{counts:?}"
        );
        assert!(counts.sole_link_requeries > 0, "{counts:?}");
    }

    #[test]
    fn churn_patch_work_reproduces_its_recorded_counts() {
        // The schedule of `churn_runs_reproduce_their_recorded_results`
        // (cft(4,3), dense Poisson churn, 111 applied events) replayed
        // through one `DynState`: the live queries the table patch makes,
        // split between the event endpoints' columns and the other dirty
        // columns' `dst_delta` entries. Re-deriving both endpoint columns
        // in full made 1,200 endpoint queries here; the `dst_delta`
        // queries are the same either way.
        let (clos, net, routing) = setup(4, 3);
        let cfg = SimConfig::quick();
        let sim = Simulation::new(&net, &routing, cfg);
        let end = cfg.total_cycles();
        let schedule = FaultSchedule::poisson(&clos, 0.05, 100.0, end, 100);
        let mut ds = DynState::new(&net, &routing, sim.candidates(), Some(&clos));
        for &(cycle, ev) in schedule.events().iter().take_while(|e| e.0 < end) {
            ds.commit(cycle, &[(cycle, ev)]);
        }
        assert_eq!(ds.applied, 111);
        assert_eq!(
            ds.column.counts,
            PatchCounts {
                events: 111,
                queries: 4_452,
                endpoint_queries: 862,
                delta_queries: 3_590,
                in_place: [[49, 38], [56, 41]],
                sole_link_requeries: 0,
            }
        );
    }

    #[test]
    fn availability_reflects_property_loss_and_recovery() {
        // A 2-level OFT loses the up/down property on its first link
        // failure; fail at 100, recover at 300, over 1000 cycles =>
        // availability 0.8 exactly.
        let clos = FoldedClos::oft(3, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = churn_cfg();
        cfg.measure_cycles = 1_000;
        let sim = Simulation::new(&net, &routing, cfg);
        let link = clos.links()[0];
        let schedule = FaultSchedule::new(vec![
            (100, LinkEvent::fail(link)),
            (300, LinkEvent::recover(link)),
        ]);
        let churn = sim.run_churn_sharded_scratch(
            &clos,
            &schedule,
            TrafficPattern::Uniform,
            0.3,
            5,
            4,
            rfc_parallel::current_shards(),
            &mut RunScratch::new(),
        );
        let (availability, applied) = (churn.availability, churn.events_applied);
        assert_eq!(applied, 2);
        assert!(
            (availability - 0.8).abs() < 1e-12,
            "availability {availability}"
        );
    }

    #[test]
    fn segment_edges_are_shard_invariant_and_match_the_reference() {
        // Events at cycle 0, two at one cycle, one on an epoch boundary,
        // a duplicate fail, one at the last cycle's end and one beyond
        // it: every segment edge case of the runner at once.
        let (clos, net, routing) = setup(4, 2);
        let cfg = churn_cfg();
        let end = cfg.total_cycles();
        let epochs = 4;
        let epoch_len = end / epochs as u64;
        let sim = Simulation::new(&net, &routing, cfg);
        let leaf0: Vec<Link> = clos.links().into_iter().filter(|l| l.lower == 0).collect();
        let other: Vec<Link> = clos.links().into_iter().filter(|l| l.lower != 0).collect();
        let schedule = FaultSchedule::new(vec![
            (0, LinkEvent::fail(other[0])),
            (150, LinkEvent::fail(leaf0[0])),
            (150, LinkEvent::fail(leaf0[1])),
            (epoch_len, LinkEvent::recover(leaf0[0])),
            (epoch_len + 150, LinkEvent::fail(other[0])),
            (2 * epoch_len + 7, LinkEvent::recover(leaf0[1])),
            (end, LinkEvent::recover(other[0])),
            (end + 500, LinkEvent::fail(other[1])),
        ]);
        let mut scratch = RunScratch::new();
        let base = sim.run_churn_sharded_scratch(
            &clos,
            &schedule,
            TrafficPattern::Uniform,
            0.5,
            13,
            epochs,
            1,
            &mut scratch,
        );
        // One worker scope serves the whole run, every event included.
        assert_eq!(scratch.scopes, 1);
        // Five events change the topology; the duplicate fail is a
        // no-op and the events at or after `end` never apply.
        assert_eq!(base.events_applied, 5);
        assert!(base.availability < 1.0, "leaf 0 was cut off for a while");
        assert_eq!(
            (base.availability, base.events_applied),
            reference_availability(&clos, &routing, &schedule, end)
        );
        assert_eq!(base.epoch_accepted.len(), epochs);
        for shards in 2..=4 {
            let r = sim.run_churn_sharded_scratch(
                &clos,
                &schedule,
                TrafficPattern::Uniform,
                0.5,
                13,
                epochs,
                shards,
                &mut scratch,
            );
            assert_eq!(base, r, "churn diverged at {shards} shards");
            assert_eq!(scratch.scopes, 1, "{shards} shards");
        }
    }

    /// Bytes `ds` owns: the routing and candidate table it forked. The
    /// overlay and the patch scratch have no byte accounting; the same
    /// first change builds them.
    fn owned_bytes(ds: &DynState<'_>) -> usize {
        let routing = match &ds.routing {
            Cow::Owned(routing) => routing.heap_bytes(),
            Cow::Borrowed(_) => 0,
        };
        let candidates = match &ds.candidates {
            Cow::Owned(candidates) => candidates.table().map_or(0, |t| t.bytes()),
            Cow::Borrowed(_) => 0,
        };
        routing + candidates
    }

    #[test]
    fn one_lazy_dyn_state_serves_every_shard_count() {
        // A run copies nothing until an event changes the topology, and
        // then holds one forked state whatever the shard count.
        let (clos, net, routing) = setup(4, 2);
        let sim = Simulation::new(&net, &routing, churn_cfg());
        let end = sim.config().total_cycles();
        let links = clos.links();
        let run = |events: &[(u64, LinkEvent)], shards: usize| {
            let mut scratch = RunScratch::new();
            let ctx = sim.start_run(TrafficPattern::Uniform, 0.5, 13, shards, &mut scratch);
            let ds = sim.lockstep(&ctx, &mut scratch, Some(&clos), events, 1);
            (owned_bytes(&ds), ds.live.is_some(), ds.applied)
        };
        let no_ops = FaultSchedule::new(vec![
            (10, LinkEvent::recover(links[0])),
            (20, LinkEvent::fail(Link { lower: 0, upper: 1 })),
            (end, LinkEvent::fail(links[0])),
        ]);
        let real = FaultSchedule::new(vec![
            (100, LinkEvent::fail(links[0])),
            (300, LinkEvent::fail(links[1])),
            (500, LinkEvent::recover(links[0])),
        ]);
        for shards in 1..=4 {
            assert_eq!(run(&[], shards), (0, false, 0), "empty, {shards} shards");
            assert_eq!(
                run(no_ops.events(), shards),
                (0, false, 0),
                "no-ops, {shards} shards"
            );
        }
        let forked = run(real.events(), 1);
        assert!(forked.0 >= routing.heap_bytes(), "{forked:?}");
        assert_eq!((forked.1, forked.2), (true, 3));
        for shards in 2..=4 {
            assert_eq!(run(real.events(), shards), forked, "{shards} shards");
        }
    }

    #[test]
    fn churn_degrades_and_recovers_accepted_load() {
        // Kill every up-link of leaf 0's switch mid-run: availability
        // drops below 1 and the end-of-run result differs from the
        // fault-free run.
        let (clos, net, routing) = setup(4, 2);
        let cfg = churn_cfg();
        let sim = Simulation::new(&net, &routing, cfg);
        let faults: Vec<_> = clos.links().into_iter().filter(|l| l.lower == 0).collect();
        let mid = cfg.total_cycles() / 3;
        let rec = 2 * cfg.total_cycles() / 3;
        let mut events: Vec<(u64, LinkEvent)> =
            faults.iter().map(|&l| (mid, LinkEvent::fail(l))).collect();
        events.extend(faults.iter().map(|&l| (rec, LinkEvent::recover(l))));
        let schedule = FaultSchedule::new(events);
        let churn = sim.run_churn_sharded_scratch(
            &clos,
            &schedule,
            TrafficPattern::Uniform,
            0.6,
            3,
            6,
            rfc_parallel::current_shards(),
            &mut RunScratch::new(),
        );
        let plain = sim.run(TrafficPattern::Uniform, 0.6, 3);
        assert!(churn.availability < 1.0);
        assert!(churn.events_applied >= 2);
        assert_ne!(churn.result, plain, "failures must perturb the run");
        // Before the failure the run is byte-identical to fault-free,
        // so the first epoch's accepted load is healthy.
        assert!(churn.epoch_accepted[0] > 0.4, "{:?}", churn.epoch_accepted);
    }

    #[test]
    fn churn_runs_reproduce_their_recorded_results() {
        // Exact results recorded before credit parking: cft(4,3) at
        // load 1.0 under dense Poisson churn, asserted at 1 to 4
        // shards. A table change can give a credit-parked head a new
        // candidate row, so the runner must re-list parked slots after
        // every change; without that, uniform delivers 694 packets.
        let (clos, net, routing) = setup(4, 3);
        let cfg = SimConfig::quick();
        let sim = Simulation::new(&net, &routing, cfg);
        let schedule = FaultSchedule::poisson(&clos, 0.05, 100.0, cfg.total_cycles(), 100);
        let recorded = |accepted_load: f64,
                        avg_latency: f64,
                        [p50, p95, p99]: [f64; 3],
                        [delivered, generated, refused, in_flight]: [u64; 4],
                        epoch_accepted: [f64; 4]| ChurnResult {
            result: SimResult {
                offered_load: 1.0,
                accepted_load,
                avg_latency,
                latency_p50: p50,
                latency_p95: p95,
                latency_p99: p99,
                delivered_packets: delivered,
                generated_packets: generated,
                refused_packets: refused,
                in_flight_at_end: in_flight,
            },
            epoch_accepted: epoch_accepted.to_vec(),
            availability: 0.595_384_615_384_615_4,
            events_applied: 111,
        };
        let mut scratch = RunScratch::new();
        for (pattern, expected) in [
            (
                TrafficPattern::Uniform,
                recorded(
                    0.695,
                    191.069_064_748_201_44,
                    [154.0, 442.0, 626.0],
                    [695, 945, 65, 345],
                    [
                        0.058_461_538_461_538_46,
                        0.753_846_153_846_153_8,
                        0.726_153_846_153_846_1,
                        0.6,
                    ],
                ),
            ),
            (
                TrafficPattern::RandomPairing,
                recorded(
                    0.659,
                    209.215_477_996_965_1,
                    [172.0, 530.0, 647.0],
                    [659, 888, 89, 318],
                    [
                        0.055_384_615_384_615_386,
                        0.64,
                        0.689_230_769_230_769_2,
                        0.643_076_923_076_923_1,
                    ],
                ),
            ),
        ] {
            for shards in 1..=4 {
                let r = sim.run_churn_sharded_scratch(
                    &clos,
                    &schedule,
                    pattern,
                    1.0,
                    0,
                    4,
                    shards,
                    &mut scratch,
                );
                assert_eq!(r, expected, "{pattern} at {shards} shards moved");
            }
        }
    }

    #[test]
    fn poisson_schedules_are_deterministic_and_well_formed() {
        let (clos, _, _) = setup(6, 3);
        let a = FaultSchedule::poisson(&clos, 0.01, 100.0, 5_000, 1);
        let b = FaultSchedule::poisson(&clos, 0.01, 100.0, 5_000, 1);
        assert_eq!(a, b, "same inputs, same schedule");
        assert!(!a.is_empty());
        // Sorted, in-horizon, and every recover is preceded by a fail
        // of the same link.
        let mut down: std::collections::BTreeSet<Link> = std::collections::BTreeSet::new();
        let mut prev = 0u64;
        for (cycle, ev) in a.events() {
            assert!(*cycle < 5_000);
            assert!(*cycle >= prev);
            prev = *cycle;
            match ev.kind {
                rfc_topology::LinkEventKind::Fail => {
                    assert!(down.insert(ev.link), "double fail of {:?}", ev.link);
                }
                rfc_topology::LinkEventKind::Recover => {
                    assert!(down.remove(&ev.link), "recover of an up link");
                }
            }
        }
        let c = FaultSchedule::poisson(&clos, 0.01, 100.0, 5_000, 2);
        assert_ne!(a, c, "different seeds, different schedules");
    }
}
