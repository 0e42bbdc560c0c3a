//! A minimal scoped worker pool for embarrassingly parallel stages.
//!
//! Every expensive experiment driver in `rfc-net` is a loop of
//! independent jobs: one simulator run per `(pattern, load)` point, one
//! Monte-Carlo trial per repetition, one removal order per sample — and
//! the setup-heavy builds lower in the stack (routing reachability
//! tables, the simulator's ECMP candidate table) are loops of
//! independent per-switch chunks. This crate fans such loops out across
//! OS threads with zero external dependencies: [`std::thread::scope`]
//! plus an atomic work counter. It sits at the bottom of the workspace
//! dependency graph (no deps of its own) so every layer — `routing`,
//! `sim`, and the `rfc-net` facade, which re-exports it as
//! `rfc_net::parallel` — can share the one pool configuration.
//!
//! # Determinism
//!
//! Parallelism must not change results. Two rules make that hold:
//!
//! 1. Jobs never share an RNG. A driver draws one base seed from its
//!    caller-provided generator and derives an independent child seed
//!    per job with [`child_seed`] (a SplitMix64 finalizer over the job
//!    index), so the random stream a job sees depends only on
//!    `(base, index)` — never on which thread ran it or in what order.
//! 2. Results are written into a slot addressed by job index, so the
//!    output vector order matches the serial loop.
//!
//! Consequently `map` with 1 thread and with N threads produce
//! byte-identical output, which `crates/core/tests/parallel_determinism.rs`
//! locks in.
//!
//! # Thread count
//!
//! Resolution order: [`set_threads`] override (the `rfcgen --threads`
//! flag), then the `RFC_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. A value of 1 runs jobs inline
//! on the caller's thread with no pool at all.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Chunk size for work claiming: workers grab jobs in batches of this
/// many to keep contention on the shared counter negligible while still
/// stealing well when job costs are skewed (e.g. high-load simulator
/// runs take far longer than low-load ones).
const CHUNK: usize = 4;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for all subsequent [`map`] calls.
///
/// `Some(0)` is treated as unset. This is what `rfcgen --threads` and
/// the `rfcbench` benchmark call; it takes precedence over `RFC_THREADS`.
pub fn set_threads(n: Option<usize>) {
    // xtask: allow(relaxed-ordering) — config cell: a lone flag read at pool startup; no data is published through it
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count [`map`] will use right now.
///
/// Resolution order: [`set_threads`] override, `RFC_THREADS`
/// environment variable, [`std::thread::available_parallelism`] (1 when
/// even that is unavailable).
pub fn current_threads() -> usize {
    // xtask: allow(relaxed-ordering) — config cell read; the value is a standalone count, not a guard for other data
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("RFC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Process-wide shard-count override; 0 means "not set".
static SHARD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the intra-run shard count for subsequent simulator runs.
///
/// `Some(0)` is treated as unset. This is what `rfcgen --shards` and the
/// `rfcbench` benchmark call; it takes precedence over `RFC_SHARDS`.
pub fn set_shards(n: Option<usize>) {
    // xtask: allow(relaxed-ordering) — config cell: a lone flag read at run startup; no data is published through it
    SHARD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The shard count a simulator run started right now will use.
///
/// Resolution order: [`set_shards`] override, `RFC_SHARDS` environment
/// variable, then 1 (serial). Unlike [`current_threads`] the default is
/// *not* the machine's core count: shards parallelize *inside* one run,
/// while [`map`] already parallelizes *across* runs, and defaulting both
/// to all cores would oversubscribe every sweep. Results are identical
/// at any shard count, so this is purely a performance knob.
pub fn current_shards() -> usize {
    // xtask: allow(relaxed-ordering) — config cell read; the value is a standalone count, not a guard for other data
    let forced = SHARD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("RFC_SHARDS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    1
}

/// A sense-reversing spin barrier for cycle-lockstep shard workers.
///
/// The simulator's sharded engine crosses a barrier twice per simulated
/// cycle (after stepping, after draining mailboxes). At thousands to
/// millions of cycles per run, `std::sync::Barrier`'s mutex+condvar
/// round trip dominates; this barrier is two atomics and a bounded spin,
/// which is what makes fine-grained lockstep sharding profitable at all.
///
/// Waiters spin on a generation counter with [`std::hint::spin_loop`]
/// for a short burst — long enough to cover an on-time peer on another
/// core — then fall back to [`std::thread::yield_now`] on every further
/// iteration, so oversubscribed configurations (more shards than cores)
/// degrade to scheduler-cooperative waiting instead of burning a core
/// per blocked party.
///
/// # Poisoning
///
/// A party that panics between barrier phases would leave its peers
/// waiting for a generation that never comes. Workers therefore hold a
/// [`PoisonGuard`] (see [`SpinBarrier::guard`]): when one unwinds mid-
/// protocol it poisons the barrier, and every waiter's fallback path
/// checks the flag and panics instead of yielding forever. The check
/// lives only in the post-spin branch, so the panic-free fast path
/// (peer arrives within the spin burst) costs nothing extra.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// A barrier for `parties` participating threads (must be ≥ 1).
    #[must_use]
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all `parties` threads have called `wait` for the
    /// current generation.
    ///
    /// Release/Acquire pairing on both atomics makes every write a
    /// thread performed before the barrier visible to every thread
    /// after it, which is what the mailbox exchange relies on.
    ///
    /// # Panics
    ///
    /// Panics if the barrier is [poisoned](SpinBarrier::poison) while
    /// waiting, so a peer's panic fails the whole worker team fast
    /// instead of hanging it.
    pub fn wait(&self) {
        if self.parties == 1 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arrival: reset the count for the next generation,
            // then release everyone by bumping the generation.
            // xtask: allow(relaxed-ordering) — barrier reset ordered by the generation Release store / Acquire loads around it
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins: u32 = 0;
        while self.generation.load(Ordering::Acquire) == gen {
            if spins < 128 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                assert!(
                    !self.poisoned.load(Ordering::Acquire),
                    "SpinBarrier poisoned: a peer worker panicked between barrier phases"
                );
                std::thread::yield_now();
            }
        }
    }

    /// Marks the barrier poisoned: every current and future waiter's
    /// fallback path will panic instead of waiting for a release that
    /// can no longer happen.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// An RAII guard that [poisons](SpinBarrier::poison) the barrier if
    /// it is dropped during a panic unwind. Every worker of a lockstep
    /// team should hold one for its whole closure body.
    #[must_use]
    pub fn guard(&self) -> PoisonGuard<'_> {
        PoisonGuard { barrier: self }
    }
}

/// RAII handle from [`SpinBarrier::guard`]: poisons the barrier when
/// dropped mid-panic, so surviving parties unwind instead of hanging.
#[derive(Debug)]
pub struct PoisonGuard<'a> {
    barrier: &'a SpinBarrier,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.barrier.poison();
        }
    }
}

/// Runs `f` once per element of `states`, each on its own thread,
/// passing it the element's index and exclusive `&mut` access to it.
///
/// This is the execution substrate for the sharded simulator: each
/// shard's queues, credits and event wheel live in one `states` element,
/// and the workers coordinate through a [`SpinBarrier`] and shared
/// mailboxes captured by `f`. State 0 runs on the caller's thread and
/// only the others get a scoped thread, so a single state runs inline
/// with no threads at all.
///
/// Worker panics are re-raised on the caller with their original
/// payload. A panic *between* barrier phases would leave the surviving
/// workers waiting; teams coordinating through a [`SpinBarrier`] must
/// therefore hold a [`PoisonGuard`] ([`SpinBarrier::guard`]) so peers
/// fail fast instead of hanging (the engine's workers do).
pub fn run_shard_workers<T, F>(states: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    // One compiled copy of `f` serves the three calls below; inlining a
    // large worker body into each would triple its code.
    let f: &(dyn Fn(usize, &mut T) + Sync) = &f;
    let Some((first, rest)) = states.split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        f(0, first);
        return;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(index, state)| scope.spawn(move || f(index + 1, state)))
            .collect();
        f(0, first);
        for h in handles {
            h.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    });
}

/// Derives the RNG seed for job `index` from a per-stage `base` seed.
///
/// SplitMix64: the standard 64-bit finalizer over `base + (index+1)·γ`.
/// Consecutive indices map to statistically independent seeds, and the
/// result depends only on `(base, index)`, which is what makes parallel
/// schedules reproducible. Drivers must use this (rather than handing
/// jobs slices of one shared stream) for every parallelized loop.
#[must_use]
pub fn child_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add((index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `f` to every job, in parallel, preserving input order.
///
/// Equivalent to `jobs.into_iter().map(f).collect()` but fanned out
/// over [`current_threads`] workers. `f` must be deterministic in its
/// argument alone (seed any randomness via [`child_seed`]); under that
/// contract the output is identical at every thread count.
pub fn map<T, U, F>(jobs: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    map_init(jobs, || (), |(), job| f(job))
}

/// Like [`map`], but each worker first builds a reusable state with
/// `init` and threads it through its jobs.
///
/// This is how the sweep drivers share one `RunScratch` (the
/// simulator's preallocated queues and event wheel) across all runs a
/// worker executes, instead of reallocating per job.
pub fn map_init<T, U, S, F, I>(jobs: Vec<T>, init: I, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    let n_jobs = jobs.len();
    let threads = current_threads().min(n_jobs).max(1);

    if threads == 1 {
        let mut state = init();
        return jobs.into_iter().map(|job| f(&mut state, job)).collect();
    }

    // Job intake: each slot is taken exactly once by the worker that
    // claims its index. Mutex<Option<T>> keeps this safe without
    // `unsafe`; the lock is uncontended by construction (a slot has
    // exactly one claimant) so the cost is one atomic pair per job,
    // dwarfed by any simulator run or Monte-Carlo trial.
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);

    let mut per_worker: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done: Vec<(usize, U)> = Vec::new();
                    loop {
                        // xtask: allow(relaxed-ordering) — work-stealing cursor hands out disjoint indices; job data moves via the slot Mutex
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= n_jobs {
                            break;
                        }
                        let end = (start + CHUNK).min(n_jobs);
                        for (idx, slot) in slots.iter().enumerate().take(end).skip(start) {
                            // A slot is locked exactly once (by its sole
                            // claimant), so poisoning can only be residue
                            // of a panic elsewhere — recover the job
                            // rather than cascade the panic.
                            #[expect(
                                clippy::expect_used,
                                reason = "each slot is claimed by exactly one worker"
                            )]
                            let job = slot
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .take()
                                .expect("job claimed twice");
                            done.push((idx, f(&mut state, job)));
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Re-raise a worker's panic with its original payload
                // instead of wrapping it in a second, less informative
                // `expect` panic.
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    // Reassemble in job order.
    let mut out: Vec<Option<U>> = Vec::with_capacity(n_jobs);
    out.resize_with(n_jobs, || None);
    for worker in &mut per_worker {
        for (idx, value) in worker.drain(..) {
            out[idx] = Some(value);
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "the workers drain every claimed job, and every job is claimed"
    )]
    let results = out
        .into_iter()
        .map(|v| v.expect("job produced no result"))
        .collect();
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-wide override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    /// Takes the override lock, recovering from poison: a failed
    /// sibling test must not cascade into every other override test.
    fn override_guard() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn map_preserves_order() {
        let _g = override_guard();
        set_threads(Some(4));
        let out = map((0..100u64).collect(), |x| x * x);
        set_threads(None);
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_at_any_thread_count() {
        let _g = override_guard();
        let jobs: Vec<u64> = (0..37).collect();
        set_threads(Some(1));
        let serial = map(jobs.clone(), |x| child_seed(42, x));
        for threads in [2, 3, 8] {
            set_threads(Some(threads));
            let parallel = map(jobs.clone(), |x| child_seed(42, x));
            assert_eq!(serial, parallel, "thread count {threads} changed results");
        }
        set_threads(None);
    }

    #[test]
    fn map_init_reuses_worker_state() {
        let _g = override_guard();
        set_threads(Some(2));
        // Each worker counts its own jobs; total must equal the job count.
        let counts = map_init(
            (0..50usize).collect(),
            || 0usize,
            |seen, _job| {
                *seen += 1;
                *seen
            },
        );
        set_threads(None);
        // Per-worker counters are each contiguous 1..=k sequences; the
        // sum of "is 1" entries equals the number of workers that ran.
        let workers = counts.iter().filter(|&&c| c == 1).count();
        assert!((1..=2).contains(&workers));
        assert_eq!(counts.len(), 50);
    }

    #[test]
    fn empty_and_single_job_inputs() {
        let _g = override_guard();
        set_threads(Some(8));
        let empty: Vec<u32> = map(Vec::<u32>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(map(vec![7u32], |x| x + 1), vec![8]);
        set_threads(None);
    }

    #[test]
    fn child_seeds_differ_and_are_stable() {
        let a = child_seed(2017, 0);
        let b = child_seed(2017, 1);
        assert_ne!(a, b);
        assert_eq!(a, child_seed(2017, 0), "child_seed must be pure");
        // Different bases decorrelate.
        assert_ne!(child_seed(1, 5), child_seed(2, 5));
    }

    #[test]
    fn shard_count_defaults_to_one() {
        let _g = override_guard();
        set_shards(None);
        std::env::remove_var("RFC_SHARDS");
        assert_eq!(current_shards(), 1, "shards must default to serial");
        std::env::set_var("RFC_SHARDS", "4");
        assert_eq!(current_shards(), 4);
        std::env::remove_var("RFC_SHARDS");
        set_shards(Some(8));
        assert_eq!(current_shards(), 8, "override beats env");
        set_shards(None);
    }

    #[test]
    fn shard_workers_own_their_state_by_index() {
        let mut states: Vec<(usize, u64)> = (0..6).map(|i| (i, 0)).collect();
        run_shard_workers(&mut states, |index, state| {
            assert_eq!(state.0, index, "worker got the wrong shard");
            state.1 = child_seed(99, index as u64);
        });
        for (i, state) in states.iter().enumerate() {
            assert_eq!(state.1, child_seed(99, i as u64));
        }
    }

    #[test]
    fn shard_workers_single_state_runs_inline() {
        let caller = std::thread::current().id();
        let mut states = vec![None];
        run_shard_workers(&mut states, |_, state| {
            *state = Some(std::thread::current().id());
        });
        assert_eq!(states[0], Some(caller), "one shard must not spawn");
    }

    #[test]
    fn shard_workers_run_state_zero_on_the_caller() {
        let caller = std::thread::current().id();
        let mut states = vec![None; 3];
        run_shard_workers(&mut states, |_, state| {
            *state = Some(std::thread::current().id());
        });
        assert_eq!(states[0], Some(caller), "state 0 must not spawn");
        for state in &states[1..] {
            assert!(state.is_some_and(|id| id != caller), "the others spawn");
        }
        assert_ne!(states[1], states[2], "one thread per spawned state");
    }

    #[test]
    fn spin_barrier_synchronizes_rounds() {
        const PARTIES: usize = 4;
        // Miri executes this orders of magnitude slower; fewer rounds
        // still cross every barrier path.
        const ROUNDS: usize = if cfg!(miri) { 10 } else { 200 };
        let barrier = SpinBarrier::new(PARTIES);
        let counter = AtomicUsize::new(0);
        let mut states: Vec<Vec<usize>> = vec![Vec::new(); PARTIES];
        run_shard_workers(&mut states, |_, seen| {
            for round in 0..ROUNDS {
                counter.fetch_add(1, Ordering::Relaxed);
                barrier.wait();
                // Between the two waits the counter is stable at its
                // per-round total: everyone has incremented, nobody has
                // started the next round.
                seen.push(counter.load(Ordering::Relaxed) - round * PARTIES);
                barrier.wait();
            }
        });
        for seen in &states {
            assert!(seen.iter().all(|&s| s == PARTIES), "barrier leaked a round");
        }
    }

    #[test]
    fn spin_barrier_single_party_is_free() {
        let barrier = SpinBarrier::new(1);
        for _ in 0..10 {
            barrier.wait();
        }
    }

    #[test]
    fn panicking_worker_poisons_the_barrier() {
        // Regression: without poisoning, workers 1 and 2 yield forever
        // at their second wait once worker 0 dies between phases, and
        // this test times out instead of completing. Run the whole team
        // on a helper thread so a hang fails the test rather than
        // wedging the harness.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caught = std::panic::catch_unwind(|| {
                let barrier = SpinBarrier::new(3);
                let mut states = vec![(); 3];
                run_shard_workers(&mut states, |index, ()| {
                    let _poison = barrier.guard();
                    barrier.wait();
                    if index == 0 {
                        panic!("worker 0 dies between barrier phases");
                    }
                    for _ in 0..1000 {
                        barrier.wait();
                    }
                });
            });
            tx.send(caught.is_err())
                .expect("the test thread waits on the channel");
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("surviving workers must fail fast, not hang");
        assert!(panicked, "the worker panic must propagate to the caller");
    }

    #[test]
    fn env_var_sets_thread_count() {
        let _g = override_guard();
        set_threads(None);
        std::env::set_var("RFC_THREADS", "3");
        assert_eq!(current_threads(), 3);
        std::env::remove_var("RFC_THREADS");
        set_threads(Some(5));
        assert_eq!(current_threads(), 5);
        set_threads(None);
    }
}
