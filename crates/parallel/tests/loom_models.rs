//! Exhaustive model checking of the [`rfc_parallel::SpinBarrier`]
//! generation protocol with the in-tree `loomlite` checker (DESIGN.md
//! §14).
//!
//! The barrier's `wait` compiles down to four atomic steps — load the
//! generation, increment `arrived`, and (for the last arrival) reset
//! `arrived` then bump the generation — plus a spin on the generation
//! for everyone else. The models below replay exactly those steps at
//! sequential-consistency granularity and let the checker explore every
//! schedule of 2 and 3 parties over 2 rounds, proving:
//!
//! * no deadlock and no lost wakeup (every schedule terminates),
//! * no early release (nobody leaves round *r* before every party has
//!   done its round-*r* work),
//! * no double release (the generation never outruns the round count),
//! * the poison protocol frees survivors of a panicking peer, and the
//!   pre-poison protocol provably hung them (the regression the
//!   [`rfc_parallel::PoisonGuard`] fix closed).
//!
//! Negative controls mutate the protocol (release steps swapped, poison
//! check removed) and assert the checker catches the bug — evidence the
//! proofs above are not vacuous.

#![expect(
    clippy::cast_possible_truncation,
    reason = "model party counts are single digits"
)]

use loomlite::{check, Explored, ModelError, Step, Thread, DONE};

/// Shared state of the barrier model: the two barrier atomics plus
/// per-party observables the invariants read.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Barrier {
    /// `SpinBarrier::arrived` (parties checked in this generation).
    arrived: u8,
    /// `SpinBarrier::generation` (release counter waiters spin on).
    generation: u8,
    /// `SpinBarrier::poisoned`, set by a panicking party's guard.
    poisoned: bool,
    /// Per party: the generation loaded on entry to the current round.
    observed: Vec<u8>,
    /// Per party: units of pre-barrier work done (bumped entering a
    /// round, before touching the barrier).
    work: Vec<u8>,
    /// Per party: rounds fully completed (bumped on barrier exit).
    round: Vec<u8>,
}

impl Barrier {
    fn new(parties: usize) -> Self {
        Barrier {
            observed: vec![0; parties],
            work: vec![0; parties],
            round: vec![0; parties],
            ..Barrier::default()
        }
    }
}

/// pc encoding: `round * 10 + phase`. Phases within one round:
/// 0 work, 1 load generation, 2 increment arrived (branch), 3+4 the
/// last arrival's release pair, 5 the waiters' spin guard.
const PHASES: u32 = 10;

/// Exit a round: advance to the next round's work phase or finish.
fn exit_round(s: &mut Barrier, who: usize, pc: &mut u32, round: u32, rounds: u32) -> Step {
    s.round[who] += 1;
    if round + 1 == rounds {
        Step::Done
    } else {
        *pc = (round + 1) * PHASES;
        Step::Ran
    }
}

/// One barrier party looping `rounds` times. `swap_release` is the
/// negative control: it performs the last arrival's two release steps
/// in the wrong order (generation bump before the arrived reset),
/// which must be caught as a lost arrival.
fn party(
    who: usize,
    parties: u8,
    rounds: u32,
    swap_release: bool,
) -> impl Fn(&mut Barrier, &mut u32) -> Step {
    move |s, pc| {
        let round = *pc / PHASES;
        match *pc % PHASES {
            0 => {
                s.work[who] += 1;
                *pc += 1;
                Step::Ran
            }
            1 => {
                // gen = self.generation.load(Acquire)
                s.observed[who] = s.generation;
                *pc += 1;
                Step::Ran
            }
            2 => {
                // self.arrived.fetch_add(1, AcqRel) + 1 == self.parties
                s.arrived += 1;
                *pc = round * PHASES + if s.arrived == parties { 3 } else { 5 };
                Step::Ran
            }
            3 => {
                // Last arrival, first release step.
                if swap_release {
                    s.generation += 1;
                } else {
                    s.arrived = 0;
                }
                *pc += 1;
                Step::Ran
            }
            4 => {
                // Last arrival, second release step, then exit.
                if swap_release {
                    s.arrived = 0;
                } else {
                    s.generation += 1;
                }
                exit_round(s, who, pc, round, rounds)
            }
            _ => {
                // while self.generation.load(Acquire) == gen { spin }
                if s.generation == s.observed[who] {
                    return Step::Blocked;
                }
                exit_round(s, who, pc, round, rounds)
            }
        }
    }
}

/// The barrier's safety invariants, checked at every reachable state.
fn barrier_invariant(rounds: u32) -> impl Fn(&Barrier, &[u32]) -> Result<(), String> {
    move |s, pcs| {
        let max_round = s.round.iter().copied().max().unwrap_or(0);
        let min_round = s.round.iter().copied().min().unwrap_or(0);
        if max_round - min_round > 1 {
            return Err(format!(
                "lockstep broken: round spread {:?} exceeds 1",
                s.round
            ));
        }
        for (who, &r) in s.round.iter().enumerate() {
            if let Some(laggard) = s.work.iter().position(|&w| w < r) {
                return Err(format!(
                    "early release: party {who} finished round {r} \
                     but party {laggard} has only done {} work steps",
                    s.work[laggard]
                ));
            }
        }
        if u32::from(s.generation) > rounds {
            return Err(format!(
                "double release: generation {} after at most {rounds} rounds",
                s.generation
            ));
        }
        if pcs.iter().all(|&pc| pc == DONE) {
            if s.round.iter().any(|&r| u32::from(r) != rounds) {
                return Err(format!("a party skipped a round: {:?}", s.round));
            }
            if s.arrived != 0 {
                return Err(format!("arrived count leaked: {}", s.arrived));
            }
        }
        Ok(())
    }
}

/// Checks `parties` correct barrier parties over `rounds` rounds.
fn check_barrier(parties: usize, rounds: u32) -> Result<Explored, ModelError> {
    let threads: Vec<Thread<'_, Barrier>> = (0..parties)
        .map(|who| Box::new(party(who, parties as u8, rounds, false)) as Thread<'_, Barrier>)
        .collect();
    check(Barrier::new(parties), &threads, barrier_invariant(rounds))
}

#[test]
fn two_party_barrier_protocol_is_sound() {
    let explored = check_barrier(2, 2).expect("2-party barrier must be deadlock-free");
    assert!(
        explored.terminal_states >= 1,
        "every schedule must terminate"
    );
    assert!(explored.states > 10, "the model must actually interleave");
}

#[test]
fn three_party_barrier_protocol_is_sound() {
    let explored = check_barrier(3, 2).expect("3-party barrier must be deadlock-free");
    assert!(
        explored.terminal_states >= 1,
        "every schedule must terminate"
    );
}

/// Negative control: releasing the generation before resetting the
/// arrived count lets a fast next-round arrival be clobbered by the
/// reset — a lost arrival the checker must find (as a deadlock or a
/// broken invariant, depending on which schedule DFS hits first).
#[test]
fn swapped_release_order_is_caught() {
    let threads: Vec<Thread<'_, Barrier>> = (0..2)
        .map(|who| Box::new(party(who, 2, 2, true)) as Thread<'_, Barrier>)
        .collect();
    let err = check(Barrier::new(2), &threads, barrier_invariant(2))
        .expect_err("the swapped release order is a real protocol bug");
    assert!(
        matches!(
            err,
            ModelError::Deadlock { .. } | ModelError::Invariant { .. }
        ),
        "unexpected failure mode: {err}"
    );
}

/// A survivor party: one normal round, then a second round whose spin
/// guard honors (or, for the negative control, ignores) the poison
/// flag — exactly the fallback path `SpinBarrier::wait` runs after its
/// spin burst.
fn survivor(
    who: usize,
    parties: u8,
    check_poison: bool,
) -> impl Fn(&mut Barrier, &mut u32) -> Step {
    move |s, pc| {
        let round = *pc / PHASES;
        match *pc % PHASES {
            0 => {
                s.work[who] += 1;
                *pc += 1;
                Step::Ran
            }
            1 => {
                s.observed[who] = s.generation;
                *pc += 1;
                Step::Ran
            }
            2 => {
                s.arrived += 1;
                *pc = round * PHASES + if s.arrived == parties { 3 } else { 5 };
                Step::Ran
            }
            3 => {
                s.arrived = 0;
                *pc += 1;
                Step::Ran
            }
            4 => {
                s.generation += 1;
                exit_round(s, who, pc, round, 2)
            }
            _ => {
                if s.generation != s.observed[who] {
                    return exit_round(s, who, pc, round, 2);
                }
                if check_poison && s.poisoned {
                    // assert!(!self.poisoned...) fires: the party
                    // unwinds instead of spinning forever.
                    return Step::Done;
                }
                Step::Blocked
            }
        }
    }
}

/// A party that panics between barrier phases: one normal round, then
/// its `PoisonGuard` drops mid-unwind and poisons the barrier.
fn panicker(who: usize, parties: u8) -> impl Fn(&mut Barrier, &mut u32) -> Step {
    move |s, pc| {
        let round = *pc / PHASES;
        match *pc % PHASES {
            0 => {
                s.work[who] += 1;
                *pc += 1;
                Step::Ran
            }
            1 => {
                s.observed[who] = s.generation;
                *pc += 1;
                Step::Ran
            }
            2 => {
                s.arrived += 1;
                *pc = round * PHASES + if s.arrived == parties { 3 } else { 5 };
                Step::Ran
            }
            3 => {
                s.arrived = 0;
                *pc += 1;
                Step::Ran
            }
            4 => {
                s.generation += 1;
                s.round[who] += 1;
                // Panic after the round-0 barrier: poison and unwind.
                s.poisoned = true;
                Step::Done
            }
            _ => {
                if s.generation == s.observed[who] {
                    return Step::Blocked;
                }
                s.round[who] += 1;
                s.poisoned = true;
                Step::Done
            }
        }
    }
}

/// Poison models reuse only the no-deadlock guarantee; the lockstep
/// invariants do not apply once a party has died mid-protocol.
fn no_invariant(_: &Barrier, _: &[u32]) -> Result<(), String> {
    Ok(())
}

/// With the poison flag, survivors of a panicking peer always unwind:
/// no schedule of 3 parties (one dying after round 0) deadlocks.
#[test]
fn poisoned_barrier_frees_the_survivors() {
    let threads: Vec<Thread<'_, Barrier>> = vec![
        Box::new(panicker(0, 3)),
        Box::new(survivor(1, 3, true)),
        Box::new(survivor(2, 3, true)),
    ];
    let explored = check(Barrier::new(3), &threads, no_invariant)
        .expect("poison must free every waiting survivor");
    assert!(explored.terminal_states >= 1);
}

/// Negative control — the pre-fix barrier: without the poison check the
/// survivors spin on a generation bump that can never come, and the
/// checker proves the hang (this is the regression
/// `panicking_worker_poisons_the_barrier` guards in src/lib.rs).
#[test]
fn unpoisoned_abandonment_is_a_proven_deadlock() {
    let threads: Vec<Thread<'_, Barrier>> = vec![
        Box::new(panicker(0, 3)),
        Box::new(survivor(1, 3, false)),
        Box::new(survivor(2, 3, false)),
    ];
    let err = check(Barrier::new(3), &threads, no_invariant)
        .expect_err("abandoning a poison-less barrier must hang its waiters");
    assert!(
        matches!(err, ModelError::Deadlock { .. }),
        "expected a deadlock, got {err}"
    );
}
