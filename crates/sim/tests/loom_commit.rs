//! Exhaustive model checking of the sharded engine's commit handoff
//! with the in-tree `loomlite` checker (DESIGN.md §14).
//!
//! A run's shards read one routing state (`DynState`) through one
//! `RwLock`. At a cycle with due link events (`Simulation::lockstep` in
//! `crates/sim/src/engine.rs`) every shard (a) drops its read guard,
//! (b) crosses the previous cycle's last barrier; shard 0 then
//! (c) takes the write lock, (d) crosses the commit barrier, (e) applies
//! the events — here two writes, the routing and then the candidate
//! table, so a half-applied commit is a visible state — and (f) drops
//! the write lock, while every other shard crosses the commit barrier
//! and waits in `read`. Each shard then (g) takes its read guard,
//! (h) re-lists its credit-parked slots against the table version, and
//! (i) steps the cycle, reading both halves.
//!
//! The models below replay that handoff at sequential-consistency
//! granularity (one step per lock operation, barrier arrival, write
//! and read) for 2 and 3 shards, and prove:
//!
//! * no schedule deadlocks,
//! * no shard steps a cycle while the commit is half-applied or the
//!   write lock is held,
//! * every shard's re-list and step see the new table version.
//!
//! A negative control drops the commit barrier before the write and
//! asserts the checker exhibits a schedule where a shard re-lists or
//! steps against the stale table: shard 0 holding the write lock before
//! its peers pass the barrier, not luck, is what the handoff rests on.

#![expect(
    clippy::cast_possible_truncation,
    reason = "model shard counts are single digits"
)]

use loomlite::{check, Explored, ModelError, Step, Thread, DONE};

/// Shared state: the lock, the two barriers (modeled as ideal counters
/// — the barrier protocol itself is proven in
/// `crates/parallel/tests/loom_models.rs`), the committed state and
/// what each shard observed.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Handoff {
    /// Read guards held, and whether the write lock is held.
    readers: u8,
    writer: bool,
    /// Arrivals at the previous cycle's last barrier and at the commit
    /// barrier.
    arrived: [u8; 2],
    /// The routing and candidate-table versions: 0 before the commit,
    /// 1 after it, different while it is half-applied.
    routing: u8,
    table: u8,
    /// Per shard: the table version its re-list saw.
    relisted: Vec<Option<u8>>,
    /// Per shard: inside its step, and the versions the step read.
    stepping: Vec<bool>,
    stepped: Vec<Option<(u8, u8)>>,
}

impl Handoff {
    /// Every shard enters the due cycle holding the read guard it
    /// stepped the previous cycle under.
    fn new(shards: usize) -> Self {
        Handoff {
            readers: shards as u8,
            relisted: vec![None; shards],
            stepping: vec![false; shards],
            stepped: vec![None; shards],
            ..Handoff::default()
        }
    }
}

/// One atomic step of a shard's program.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Drop the read guard (before the previous cycle's last barrier).
    DropView,
    /// Arrive at, then wait on, barrier 0 (the previous cycle's last)
    /// or 1 (the commit barrier).
    Arrive(usize),
    Wait(usize),
    /// Shard 0's commit: lock, apply both halves, unlock.
    Write,
    ApplyRouting,
    ApplyTable,
    Unwrite,
    /// Every shard: take the read guard, re-list, step (entered and
    /// left in two steps), and release the guard at the cycle's end.
    Read,
    Relist,
    StepBegin,
    StepEnd,
    Unread,
}

/// Shard `me`'s program for one due cycle. `commit_barrier` false is
/// the negative control: nobody waits for shard 0 to hold the lock.
fn program(me: usize, commit_barrier: bool) -> Vec<Op> {
    let mut ops = vec![Op::DropView, Op::Arrive(0), Op::Wait(0)];
    let barrier = if commit_barrier {
        vec![Op::Arrive(1), Op::Wait(1)]
    } else {
        Vec::new()
    };
    if me == 0 {
        ops.push(Op::Write);
        ops.extend(barrier);
        ops.extend([Op::ApplyRouting, Op::ApplyTable, Op::Unwrite]);
    } else {
        ops.extend(barrier);
    }
    ops.extend([Op::Read, Op::Relist, Op::StepBegin, Op::StepEnd, Op::Unread]);
    ops
}

/// Shard `me` as a loomlite thread over its program.
fn shard(me: usize, shards: usize, commit_barrier: bool) -> Thread<'static, Handoff> {
    let ops = program(me, commit_barrier);
    Box::new(move |s: &mut Handoff, pc: &mut u32| {
        let Some(&op) = ops.get(*pc as usize) else {
            return Step::Done;
        };
        match op {
            Op::DropView | Op::Unread => s.readers -= 1,
            Op::Arrive(b) => s.arrived[b] += 1,
            Op::Wait(b) => {
                if usize::from(s.arrived[b]) < shards {
                    return Step::Blocked;
                }
            }
            Op::Write => {
                if s.writer || s.readers > 0 {
                    return Step::Blocked;
                }
                s.writer = true;
            }
            Op::ApplyRouting => s.routing = 1,
            Op::ApplyTable => s.table = 1,
            Op::Unwrite => s.writer = false,
            Op::Read => {
                if s.writer {
                    return Step::Blocked;
                }
                s.readers += 1;
            }
            Op::Relist => s.relisted[me] = Some(s.table),
            Op::StepBegin => s.stepping[me] = true,
            Op::StepEnd => {
                s.stepping[me] = false;
                s.stepped[me] = Some((s.routing, s.table));
            }
        }
        *pc += 1;
        if *pc as usize == ops.len() {
            Step::Done
        } else {
            Step::Ran
        }
    })
}

/// The handoff's safety invariants, checked at every reachable state.
fn handoff_invariant(s: &Handoff, pcs: &[u32]) -> Result<(), String> {
    if s.writer && s.readers > 0 {
        return Err(format!("write lock held beside {} readers", s.readers));
    }
    for (me, &stepping) in s.stepping.iter().enumerate() {
        if stepping && (s.writer || (s.routing, s.table) != (1, 1)) {
            return Err(format!(
                "shard {me} steps while the commit is half-applied: routing {}, table {}, \
                 writer {}",
                s.routing, s.table, s.writer
            ));
        }
    }
    for (me, seen) in s.relisted.iter().enumerate() {
        if *seen == Some(0) {
            return Err(format!("shard {me} re-listed against the stale table"));
        }
    }
    for (me, read) in s.stepped.iter().enumerate() {
        if read.is_some_and(|versions| versions != (1, 1)) {
            return Err(format!("shard {me} stepped on {read:?}, not the new state"));
        }
    }
    if pcs.iter().all(|&pc| pc == DONE) {
        let relisted = s.relisted.iter().all(Option::is_some);
        let stepped = s.stepped.iter().all(Option::is_some);
        if !relisted || !stepped || s.readers > 0 || s.writer {
            return Err(format!("the cycle ended incomplete: {s:?}"));
        }
    }
    Ok(())
}

/// Checks the handoff for a given shard count.
fn check_handoff(shards: usize, commit_barrier: bool) -> Result<Explored, ModelError> {
    let threads: Vec<Thread<'_, Handoff>> = (0..shards)
        .map(|me| shard(me, shards, commit_barrier))
        .collect();
    check(Handoff::new(shards), &threads, handoff_invariant)
}

#[test]
fn two_shard_commit_is_safe_under_every_schedule() {
    let explored = check_handoff(2, true).expect("2-shard handoff must be sound");
    assert!(
        explored.terminal_states >= 1,
        "every schedule must terminate"
    );
    assert!(explored.states > 10, "the model must actually interleave");
}

#[test]
fn three_shard_commit_is_safe_under_every_schedule() {
    let explored = check_handoff(3, true).expect("3-shard handoff must be sound");
    assert!(
        explored.terminal_states >= 1,
        "every schedule must terminate"
    );
}

/// Negative control: without the commit barrier a peer can take its
/// read guard before shard 0 takes the write lock, and re-list and step
/// against the stale table. The checker must exhibit that schedule.
#[test]
fn dropping_the_commit_barrier_lets_a_shard_read_stale_state() {
    for shards in [2, 3] {
        let err = check_handoff(shards, false)
            .expect_err("a read before the write lock must be reachable");
        assert!(
            matches!(err, ModelError::Invariant { .. }),
            "expected a stale read at {shards} shards, got {err}"
        );
    }
}
