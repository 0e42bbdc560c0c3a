//! Exhaustive model checking of the sharded engine's mailbox exchange
//! with the in-tree `loomlite` checker (DESIGN.md §14).
//!
//! Per cycle the engine's workers (a) push cross-shard messages into
//! per-`(src, dst)` mailboxes during the step phase, (b) cross a
//! barrier, (c) drain the mailboxes addressed to them in ascending
//! source-shard order, and (d) cross the barrier again
//! (`crates/sim/src/engine.rs` / `shard.rs::drain_mailboxes`). The
//! engine's shard-count invariance rests on that drain being a pure
//! function of what was sent: every interleaving of the step phase must
//! leave every receiver with the **same** message sequence.
//!
//! The models below replay one exchange at sequential-consistency
//! granularity — one step per `mailbox_push` (the lock is held per
//! push) and one step per drained source mailbox (the lock is held per
//! drain) — for 2 and 3 shards, and prove:
//!
//! * no schedule deadlocks at either barrier crossing,
//! * no drain starts before the step-phase barrier has collected every
//!   shard (so no receiver can observe a half-filled mailbox),
//! * the drained sequence at every receiver is byte-identical across
//!   all interleavings: ascending source shard, FIFO within a source.
//!
//! A negative control removes the first barrier and asserts the checker
//! exhibits a schedule where a receiver drains early and the FIFO
//! result breaks — evidence the barrier placement, not luck, is what
//! the determinism rests on.

#![expect(
    clippy::cast_possible_truncation,
    clippy::unwrap_used,
    reason = "model shard and message counts are single digits"
)]

use loomlite::{check, Explored, ModelError, Step, Thread, DONE};
use rfc_graph::vid;

/// Messages each shard sends to each other shard per cycle.
const MSGS: u8 = 2;

/// Shared state: the mailbox grid, the two barrier phases (modeled as
/// ideal counters — the barrier protocol itself is proven in
/// `crates/parallel/tests/loom_models.rs`), and the drained output.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Mail {
    /// `boxes[src * shards + dst]`: FIFO of `(src, seq)` messages.
    boxes: Vec<Vec<(u8, u8)>>,
    /// Arrival counts of the step-phase and drain-phase barriers.
    arrived: [u8; 2],
    /// Per receiver: messages applied, in drain order.
    received: Vec<Vec<(u8, u8)>>,
}

impl Mail {
    fn new(shards: usize) -> Self {
        Mail {
            boxes: vec![Vec::new(); shards * shards],
            arrived: [0, 0],
            received: vec![Vec::new(); shards],
        }
    }
}

/// The deterministic sequence receiver `dst` must end up with:
/// ascending source shard, FIFO within each source.
fn expected(shards: usize, dst: usize) -> Vec<(u8, u8)> {
    let mut out = Vec::new();
    for src in 0..shards {
        if src == dst {
            continue;
        }
        for seq in 0..MSGS {
            out.push((src as u8, seq));
        }
    }
    out
}

/// One shard worker. pc phases, in order: `(shards-1)·MSGS` pushes
/// (one per message, peers in ascending order), barrier-1 arrive,
/// barrier-1 guard, `shards` drains (one per source mailbox, ascending
/// — mirroring `drain_mailboxes`), barrier-2 arrive, barrier-2 guard.
/// `skip_barrier` is the negative control: it elides the step-phase
/// barrier entirely.
fn shard(me: usize, shards: usize, skip_barrier: bool) -> impl Fn(&mut Mail, &mut u32) -> Step {
    let pushes = vid(shards - 1) * u32::from(MSGS);
    move |s, pc| {
        let n = shards as u8;
        // Push phase: message k goes to the k/MSGS-th peer (ascending,
        // skipping self), with sequence number k % MSGS.
        if *pc < pushes {
            let peer_index = (*pc / u32::from(MSGS)) as usize;
            let dst = (0..shards).filter(|&d| d != me).nth(peer_index).unwrap();
            let seq = (*pc % u32::from(MSGS)) as u8;
            s.boxes[me * shards + dst].push((me as u8, seq));
            *pc += 1;
            return Step::Ran;
        }
        let phase = *pc - pushes;
        if !skip_barrier {
            if phase == 0 {
                s.arrived[0] += 1;
                *pc += 1;
                return Step::Ran;
            }
            if phase == 1 {
                if s.arrived[0] < n {
                    return Step::Blocked;
                }
                *pc += 1;
                return Step::Ran;
            }
        }
        let barrier1 = if skip_barrier { 0 } else { 2 };
        let drain = phase - barrier1;
        if (drain as usize) < shards {
            // Drain one source mailbox wholesale: the real drain holds
            // the mailbox lock for the full `mb.drain(..)`.
            let src = drain as usize;
            let msgs = std::mem::take(&mut s.boxes[src * shards + me]);
            s.received[me].extend(msgs);
            *pc += 1;
            return Step::Ran;
        }
        match drain as usize - shards {
            0 => {
                s.arrived[1] += 1;
                *pc += 1;
                Step::Ran
            }
            _ => {
                if s.arrived[1] < n {
                    return Step::Blocked;
                }
                Step::Done
            }
        }
    }
}

/// The exchange's safety invariants, checked at every reachable state.
fn mail_invariant(shards: usize) -> impl Fn(&Mail, &[u32]) -> Result<(), String> {
    move |s, pcs| {
        let n = shards as u8;
        // A drain can only run once the step-phase barrier collected
        // everyone: observing output with an open barrier means a
        // receiver saw a half-filled mailbox.
        if s.received.iter().any(|r| !r.is_empty()) && s.arrived[0] < n {
            return Err(format!(
                "drain before the step barrier: arrived {}/{n}",
                s.arrived[0]
            ));
        }
        // FIFO within each source: every mailbox and every received
        // run of one source must carry consecutive sequence numbers.
        for (idx, mbox) in s.boxes.iter().enumerate() {
            for (offset, &(src, seq)) in mbox.iter().enumerate() {
                if usize::from(src) != idx / shards || usize::from(seq) != offset {
                    return Err(format!("mailbox {idx} out of order: {mbox:?}"));
                }
            }
        }
        if pcs.iter().all(|&pc| pc == DONE) {
            for (dst, got) in s.received.iter().enumerate() {
                let want = expected(shards, dst);
                if *got != want {
                    return Err(format!(
                        "receiver {dst} drained {got:?}, every schedule must yield {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Checks the full exchange for a given shard count.
fn check_exchange(shards: usize) -> Result<Explored, ModelError> {
    let threads: Vec<Thread<'_, Mail>> = (0..shards)
        .map(|me| Box::new(shard(me, shards, false)) as Thread<'_, Mail>)
        .collect();
    check(Mail::new(shards), &threads, mail_invariant(shards))
}

#[test]
fn two_shard_exchange_is_deterministic_under_every_schedule() {
    let explored = check_exchange(2).expect("2-shard exchange must be sound");
    assert!(
        explored.terminal_states >= 1,
        "every schedule must terminate"
    );
    assert!(explored.states > 10, "the model must actually interleave");
}

#[test]
fn three_shard_exchange_is_deterministic_under_every_schedule() {
    let explored = check_exchange(3).expect("3-shard exchange must be sound");
    assert!(
        explored.terminal_states >= 1,
        "every schedule must terminate"
    );
}

/// Negative control: without the step-phase barrier some schedule lets
/// a receiver drain a mailbox its peer is still filling, and the
/// terminal FIFO check breaks. The checker must exhibit that schedule —
/// proof the barrier placement carries the determinism guarantee.
#[test]
fn dropping_the_step_barrier_breaks_determinism() {
    let threads: Vec<Thread<'_, Mail>> = (0..2)
        .map(|me| Box::new(shard(me, 2, true)) as Thread<'_, Mail>)
        .collect();
    let err = check(Mail::new(2), &threads, mail_invariant(2))
        .expect_err("an unsynchronized drain must be able to miss messages");
    assert!(
        matches!(err, ModelError::Invariant { .. }),
        "expected a determinism violation, got {err}"
    );
}
