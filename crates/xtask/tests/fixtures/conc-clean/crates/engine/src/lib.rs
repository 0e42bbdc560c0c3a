//! Fixture engine: a miniature lockstep shard path touching every
//! concurrency rule of `cargo xtask lint` — a Relaxed read under a
//! reasoned allow, explicit orderings everywhere, a lockstep region
//! whose only lock activity is an uncontended `.lock()` call, and a
//! known sync-primitive tally.
//! Never compiled; parsed only by the xtask lint integration tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Cross-shard mailbox; the lock type lives outside the lockstep
/// region, only the uncontended `.lock()` call appears inside it.
pub struct Mailbox {
    /// Pending messages.
    pub msgs: Mutex<Vec<u64>>,
}

/// Cycles completed; the monitoring read below is a reasoned Relaxed.
pub static CYCLE: AtomicUsize = AtomicUsize::new(0);

/// One shard's cycle step.
pub fn step(mb: &Mailbox) -> usize {
    // xtask: allow(relaxed-ordering) — fixture: monotonic cycle counter read, no synchronization carried
    let seen = CYCLE.load(Ordering::Relaxed);
    // xtask: lockstep-begin — fixture per-cycle path
    let drained = mb.msgs.lock().map(|m| m.len()).unwrap_or(0);
    CYCLE.fetch_add(1, Ordering::AcqRel);
    // xtask: lockstep-end
    seen + drained
}
