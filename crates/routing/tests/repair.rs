//! Property-based tests for incremental up/down repair: after any event
//! sequence the repaired table must be byte-identical to a from-scratch
//! build, and applying an event then its inverse must restore the exact
//! prior state.

#![expect(
    clippy::expect_used,
    reason = "test fixtures use small, known-valid parameters; a failure is a failed test"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_routing::UpDownRouting;
use rfc_topology::{FoldedClos, LinkEvent, LiveClos, Network};

fn arb_rfc() -> impl Strategy<Value = FoldedClos> {
    (2usize..5, 2usize..5, 0u64..1000).prop_map(|(half, levels, seed)| {
        let radix = 2 * half;
        let n1 = 4 * half + 4;
        let mut rng = StdRng::seed_from_u64(seed);
        FoldedClos::random(radix, n1 & !1, levels, &mut rng).expect("feasible RFC")
    })
}

/// A sequence of (link index, fail?) choices over the network's links.
fn arb_events() -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((0usize..1000, 0usize..2), 1..30)
        .prop_map(|v| v.into_iter().map(|(p, f)| (p, f == 0)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any random event sequence ends byte-identical to a from-scratch
    /// build on the final topology.
    #[test]
    fn event_sequences_end_equal_to_fresh_build(net in arb_rfc(), choices in arb_events()) {
        let links = net.links();
        let mut live = LiveClos::new(&net);
        let mut repaired = UpDownRouting::new(&net);
        for (pick, fail) in choices {
            let l = links[pick % links.len()];
            let ev = if fail { LinkEvent::fail(l) } else { LinkEvent::recover(l) };
            if live.apply(&ev) {
                repaired.apply_event(live.current(), &ev);
            }
        }
        prop_assert!(repaired == UpDownRouting::new(live.current()));
    }

    /// The splice contract of [`rfc_routing::RepairScope`]: outside the
    /// event's endpoints, a dirty switch's candidate rows differ from
    /// their pre-event values only at destinations listed in `dst_delta`
    /// (and rows of switches outside `table_dirty` don't differ at all).
    #[test]
    fn rows_change_only_at_endpoints_or_delta_destinations(
        net in arb_rfc(),
        choices in arb_events(),
        pick in 0usize..1000,
    ) {
        let links = net.links();
        let mut live = LiveClos::new(&net);
        let mut repaired = UpDownRouting::new(&net);
        for (p, fail) in choices {
            let l = links[p % links.len()];
            let ev = if fail { LinkEvent::fail(l) } else { LinkEvent::recover(l) };
            if live.apply(&ev) {
                repaired.apply_event(live.current(), &ev);
            }
        }
        let before = repaired.clone();
        let l = links[pick % links.len()];
        let ev = if live.down_links().contains(&l) {
            LinkEvent::recover(l)
        } else {
            LinkEvent::fail(l)
        };
        prop_assert!(live.apply(&ev));
        let scope = repaired.apply_event(live.current(), &ev);
        let dst_space = rfc_graph::vid(net.num_leaves());
        let rows = |r: &UpDownRouting, s: u32| {
            let mut starts = Vec::new();
            r.dst_run_starts(s, dst_space, &mut starts);
            starts
                .into_iter()
                .map(|start| (start, r.next_hops(s, start)))
                .collect::<Vec<_>>()
        };
        for s in 0..rfc_graph::vid(Network::num_switches(&net)) {
            let old_rows = rows(&before, s);
            let new_rows = rows(&repaired, s);
            if !scope.table_dirty.contains(&s) {
                prop_assert_eq!(&old_rows, &new_rows, "clean switch {} changed", s);
                continue;
            }
            if scope.endpoints.contains(&s) {
                continue; // adjacency changed: full recompute, no contract.
            }
            // Expand both run lists and compare destination by destination.
            let expand = |rows: &[(u32, Vec<u32>)]| {
                let mut per_dst: Vec<Vec<u32>> = Vec::with_capacity(dst_space as usize);
                for (k, (start, hops)) in rows.iter().enumerate() {
                    let end = rows.get(k + 1).map_or(dst_space, |r| r.0);
                    for _ in *start..end {
                        per_dst.push(hops.clone());
                    }
                }
                per_dst
            };
            let old_dst = expand(&old_rows);
            let new_dst = expand(&new_rows);
            for d in 0..dst_space {
                if old_dst[d as usize] != new_dst[d as usize] {
                    prop_assert!(
                        scope.dst_delta.contains(&d),
                        "switch {} row changed at dst {} not in dst_delta {:?}",
                        s, d, scope.dst_delta
                    );
                }
            }
        }
    }

    /// `apply_event` followed by the inverse event restores byte-identical
    /// routing state, from any intermediate overlay.
    #[test]
    fn apply_then_revert_is_identity(net in arb_rfc(), choices in arb_events(), pick in 0usize..1000) {
        let links = net.links();
        let mut live = LiveClos::new(&net);
        let mut repaired = UpDownRouting::new(&net);
        // Drive to an arbitrary intermediate state first.
        for (p, fail) in choices {
            let l = links[p % links.len()];
            let ev = if fail { LinkEvent::fail(l) } else { LinkEvent::recover(l) };
            if live.apply(&ev) {
                repaired.apply_event(live.current(), &ev);
            }
        }
        let snapshot = repaired.clone();
        let l = links[pick % links.len()];
        // Pick whichever direction is currently a real change.
        let ev = if live.down_links().contains(&l) {
            LinkEvent::recover(l)
        } else {
            LinkEvent::fail(l)
        };
        prop_assert!(live.apply(&ev));
        repaired.apply_event(live.current(), &ev);
        prop_assert!(live.apply(&ev.inverse()));
        repaired.apply_event(live.current(), &ev.inverse());
        prop_assert!(repaired == snapshot);
    }
}
