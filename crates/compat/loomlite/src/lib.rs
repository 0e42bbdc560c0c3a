//! A bounded model checker for small concurrency protocols — the
//! registry-free stand-in for `loom` this workspace uses to prove its
//! barrier and mailbox protocols free of deadlock, lost-wakeup, and
//! double-release states.
//!
//! # Model
//!
//! A *model* is a shared state `S` plus a fixed set of threads. Each
//! thread is a pure step function `fn(&mut S, &mut u32) -> Step` over
//! the state and its own program counter: called with the thread
//! scheduled, it performs **one atomic step** of the protocol (one
//! load, one store, one read-modify-write — whatever granularity the
//! modeled code's real atomicity gives), advances its pc, and reports:
//!
//! * [`Step::Ran`] — it made progress; the scheduler may now pick any
//!   thread (including this one) for the next step.
//! * [`Step::Blocked`] — it cannot progress in this state (a spin loop
//!   whose exit condition is false). A blocked step must leave state
//!   and pc untouched; the checker verifies this and panics otherwise,
//!   because an impure "blocked" step means the model's atomicity is
//!   drawn wrong.
//! * [`Step::Done`] — the thread finished; it is never scheduled again.
//!
//! [`check`] then explores **every** reachable interleaving by
//! depth-first search over `(state, pcs)` nodes, deduplicating visited
//! nodes, so the number of explored states is bounded by the state
//! space itself rather than the (exponentially larger) schedule count.
//! This is sequential-consistency-level checking: it exhausts schedule
//! nondeterminism but not weak-memory reorderings, which is the right
//! tool for protocols whose operations are individually `SeqCst`-free
//! but pair Release/Acquire correctly (see DESIGN.md §14 for scope and
//! limits).
//!
//! An invariant callback runs at every node; a violation or a deadlock
//! (all live threads blocked) is reported with the full schedule that
//! reached it, as `(thread, pc-before-step)` pairs.
//!
//! # Example
//!
//! Two threads each increment a "non-atomic" counter modeled as a
//! load/store pair; the checker finds the lost update:
//!
//! ```
//! use loomlite::{check, ModelError, Step};
//!
//! #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
//! struct S { shared: u8, local: [u8; 2] }
//!
//! fn incr(who: usize) -> impl Fn(&mut S, &mut u32) -> Step {
//!     move |s, pc| match *pc {
//!         0 => { s.local[who] = s.shared; *pc = 1; Step::Ran }
//!         _ => { s.shared = s.local[who] + 1; Step::Done }
//!     }
//! }
//!
//! let err = check(
//!     S::default(),
//!     &[Box::new(incr(0)), Box::new(incr(1))],
//!     |s, pcs| {
//!         if pcs.iter().all(|&pc| pc == loomlite::DONE) && s.shared != 2 {
//!             return Err(format!("lost update: counter is {}", s.shared));
//!         }
//!         Ok(())
//!     },
//! )
//! .unwrap_err();
//! assert!(matches!(err, ModelError::Invariant { .. }));
//! ```

use std::collections::BTreeSet;

/// Sentinel pc value marking a finished thread in the `pcs` slice the
/// invariant callback receives.
pub const DONE: u32 = u32::MAX;

/// Default cap on distinct `(state, pcs)` nodes; [`check`] fails with
/// [`ModelError::StateSpaceExceeded`] beyond it rather than running
/// away. Generous for protocol models (hundreds to a few thousand
/// states); use [`check_bounded`] to raise it deliberately.
pub const DEFAULT_MAX_STATES: usize = 1 << 20;

/// Outcome of one scheduled thread step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The thread performed one atomic step and can be scheduled again.
    Ran,
    /// The thread cannot progress in this state (pure check: state and
    /// pc must be unchanged).
    Blocked,
    /// The thread finished; it is never scheduled again.
    Done,
}

/// One model thread: a step function over the shared state and the
/// thread's own program counter.
pub type Thread<'a, S> = Box<dyn Fn(&mut S, &mut u32) -> Step + 'a>;

/// One scheduled step of a counterexample trace: which thread ran and
/// the pc it was at before the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Index into the `threads` slice passed to [`check`].
    pub thread: usize,
    /// The thread's pc before the step executed.
    pub pc: u32,
}

/// Why exploration stopped without proving the model correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Every live thread reported [`Step::Blocked`]: a deadlock (or a
    /// lost wakeup — some release step that should have happened never
    /// can).
    Deadlock {
        /// The schedule that reached the stuck state.
        trace: Vec<TraceStep>,
    },
    /// The invariant callback rejected a reachable state.
    Invariant {
        /// The invariant's description of what is wrong.
        message: String,
        /// The schedule that reached the violating state.
        trace: Vec<TraceStep>,
    },
    /// More distinct states than the bound; the model is bigger than a
    /// protocol model should be (or genuinely unbounded).
    StateSpaceExceeded {
        /// The bound that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Deadlock { trace } => {
                write!(f, "deadlock after {} steps: {:?}", trace.len(), trace)
            }
            ModelError::Invariant { message, trace } => {
                write!(
                    f,
                    "invariant violated after {} steps: {message}; schedule {:?}",
                    trace.len(),
                    trace
                )
            }
            ModelError::StateSpaceExceeded { limit } => {
                write!(f, "state space exceeds {limit} distinct states")
            }
        }
    }
}

/// Exploration statistics of a successful [`check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Distinct `(state, pcs)` nodes visited.
    pub states: usize,
    /// Nodes in which every thread had finished.
    pub terminal_states: usize,
}

/// Exhaustively explores every interleaving of `threads` from
/// `initial`, calling `invariant` on each distinct reachable state
/// (with the per-thread pcs, [`DONE`] for finished threads).
///
/// Returns exploration statistics if no schedule deadlocks and the
/// invariant holds everywhere; otherwise the first counterexample in
/// DFS order. Equivalent to [`check_bounded`] at
/// [`DEFAULT_MAX_STATES`].
///
/// # Panics
///
/// Panics if a thread mutates the state or its pc while reporting
/// [`Step::Blocked`] — that is a malformed model, not a property of the
/// modeled protocol.
pub fn check<S, F>(
    initial: S,
    threads: &[Thread<'_, S>],
    invariant: F,
) -> Result<Explored, ModelError>
where
    S: Clone + Ord + std::fmt::Debug,
    F: Fn(&S, &[u32]) -> Result<(), String>,
{
    check_bounded(initial, threads, invariant, DEFAULT_MAX_STATES)
}

/// [`check`] with an explicit bound on distinct explored states.
pub fn check_bounded<S, F>(
    initial: S,
    threads: &[Thread<'_, S>],
    invariant: F,
    max_states: usize,
) -> Result<Explored, ModelError>
where
    S: Clone + Ord + std::fmt::Debug,
    F: Fn(&S, &[u32]) -> Result<(), String>,
{
    assert!(!threads.is_empty(), "a model needs at least one thread");
    let mut explorer = Explorer {
        threads,
        invariant,
        visited: BTreeSet::new(),
        trace: Vec::new(),
        terminal_states: 0,
        max_states,
    };
    explorer.explore(initial, vec![0; threads.len()])?;
    Ok(Explored {
        states: explorer.visited.len(),
        terminal_states: explorer.terminal_states,
    })
}

struct Explorer<'a, S, F> {
    threads: &'a [Thread<'a, S>],
    invariant: F,
    visited: BTreeSet<(S, Vec<u32>)>,
    trace: Vec<TraceStep>,
    terminal_states: usize,
    max_states: usize,
}

impl<S, F> Explorer<'_, S, F>
where
    S: Clone + Ord + std::fmt::Debug,
    F: Fn(&S, &[u32]) -> Result<(), String>,
{
    /// DFS from one `(state, pcs)` node. `self.trace` holds the
    /// schedule that reached it, for counterexample reporting.
    fn explore(&mut self, state: S, pcs: Vec<u32>) -> Result<(), ModelError> {
        if !self.visited.insert((state.clone(), pcs.clone())) {
            return Ok(()); // already proven from here
        }
        if self.visited.len() > self.max_states {
            return Err(ModelError::StateSpaceExceeded {
                limit: self.max_states,
            });
        }
        if let Err(message) = (self.invariant)(&state, &pcs) {
            return Err(ModelError::Invariant {
                message,
                trace: self.trace.clone(),
            });
        }

        let mut live = 0usize;
        let mut ran = 0usize;
        for (index, step_fn) in self.threads.iter().enumerate() {
            let before_pc = pcs[index];
            if before_pc == DONE {
                continue;
            }
            live += 1;
            let mut next_state = state.clone();
            let mut next_pc = before_pc;
            let outcome = step_fn(&mut next_state, &mut next_pc);
            match outcome {
                Step::Blocked => {
                    assert!(
                        next_state == state && next_pc == before_pc,
                        "thread {index} mutated the model while Blocked at pc {before_pc}: \
                         a blocked step must be a pure guard"
                    );
                }
                Step::Ran | Step::Done => {
                    ran += 1;
                    let mut next_pcs = pcs.clone();
                    next_pcs[index] = if outcome == Step::Done { DONE } else { next_pc };
                    self.trace.push(TraceStep {
                        thread: index,
                        pc: before_pc,
                    });
                    self.explore(next_state, next_pcs)?;
                    self.trace.pop();
                }
            }
        }
        if live == 0 {
            self.terminal_states += 1;
        } else if ran == 0 {
            return Err(ModelError::Deadlock {
                trace: self.trace.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
    struct Pair {
        a: u8,
        b: u8,
    }

    /// Both interleavings of two independent single-step threads are
    /// explored: initial, two intermediates, one (deduplicated) final.
    #[test]
    fn explores_all_interleavings() {
        let threads: Vec<Thread<'_, Pair>> = vec![
            Box::new(|s: &mut Pair, _pc: &mut u32| {
                s.a += 1;
                Step::Done
            }),
            Box::new(|s: &mut Pair, _pc: &mut u32| {
                s.b += 1;
                Step::Done
            }),
        ];
        let explored = check(Pair::default(), &threads, |_, _| Ok(())).expect("model is sound");
        assert_eq!(explored.states, 4);
        assert_eq!(explored.terminal_states, 1);
    }

    /// A thread blocking on a flag nobody sets is reported as a
    /// deadlock with the (empty) schedule that reached it.
    #[test]
    fn detects_deadlock() {
        let threads: Vec<Thread<'_, Pair>> =
            vec![Box::new(
                |s: &mut Pair, _pc: &mut u32| {
                    if s.a == 0 {
                        Step::Blocked
                    } else {
                        Step::Done
                    }
                },
            )];
        let err = check(Pair::default(), &threads, |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, ModelError::Deadlock { ref trace } if trace.is_empty()));
    }

    /// A waiter blocked on a flag its peer eventually sets completes:
    /// blocking is not deadlock while another thread can run.
    #[test]
    fn blocked_thread_resumes_after_release() {
        let threads: Vec<Thread<'_, Pair>> = vec![
            Box::new(|s: &mut Pair, _pc: &mut u32| {
                if s.a == 0 {
                    Step::Blocked
                } else {
                    s.b = 7;
                    Step::Done
                }
            }),
            Box::new(|s: &mut Pair, _pc: &mut u32| {
                s.a = 1;
                Step::Done
            }),
        ];
        let explored = check(Pair::default(), &threads, |s, pcs| {
            if pcs.iter().all(|&pc| pc == DONE) && s.b != 7 {
                return Err("waiter never ran its body".to_string());
            }
            Ok(())
        })
        .expect("release always arrives");
        assert!(explored.terminal_states >= 1);
    }

    /// Invariant violations surface the schedule that produced them.
    #[test]
    fn reports_invariant_counterexample() {
        let threads: Vec<Thread<'_, Pair>> = vec![
            Box::new(|s: &mut Pair, _pc: &mut u32| {
                s.a += 1;
                Step::Done
            }),
            Box::new(|s: &mut Pair, _pc: &mut u32| {
                s.b += 1;
                Step::Done
            }),
        ];
        let err = check(Pair::default(), &threads, |s, _| {
            if s.b == 1 && s.a == 0 {
                return Err("b before a".to_string());
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            ModelError::Invariant { message, trace } => {
                assert_eq!(message, "b before a");
                assert_eq!(trace, vec![TraceStep { thread: 1, pc: 0 }]);
            }
            other => panic!("expected invariant violation, got {other:?}"),
        }
    }

    /// The state bound trips instead of looping on unbounded models.
    #[test]
    fn bounds_the_state_space() {
        let threads: Vec<Thread<'_, Pair>> = vec![Box::new(|s: &mut Pair, _pc: &mut u32| {
            s.a = s.a.wrapping_add(1);
            Step::Ran
        })];
        let err = check_bounded(Pair::default(), &threads, |_, _| Ok(()), 16).unwrap_err();
        assert_eq!(err, ModelError::StateSpaceExceeded { limit: 16 });
    }

    /// An impure Blocked step is a malformed model and panics loudly.
    #[test]
    #[should_panic(expected = "pure guard")]
    fn impure_blocked_step_panics() {
        let threads: Vec<Thread<'_, Pair>> = vec![Box::new(|s: &mut Pair, _pc: &mut u32| {
            s.a += 1; // mutation leaking out of a "blocked" step
            Step::Blocked
        })];
        let _ = check(Pair::default(), &threads, |_, _| Ok(()));
    }
}
