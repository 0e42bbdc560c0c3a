//! Concurrency-soundness checks over the sharded execution substrate
//! (DESIGN.md §14), run by `cargo xtask lint` on the same scanned lines
//! as every other rule:
//!
//! 1. **Atomic-ordering rule** — every atomic operation in non-test
//!    code outside `crates/compat` must spell its memory ordering at
//!    the call site (`Ordering::Acquire`, not a bare imported variant),
//!    so a reviewer never has to chase a `use` to see what a barrier
//!    load synchronizes with.
//! 2. **Reasoned `Relaxed`** — `Ordering::Relaxed` is only legal under
//!    an `// xtask: allow(relaxed-ordering) — <reason>` directive that
//!    says why no data is published through the atomic (config cells,
//!    the work-stealing cursor, the barrier's reset). A
//!    `relaxed-ordering` allow that covers no `Relaxed` fails at its own
//!    line, so the allows cannot drift from the tree.
//! 3. **Lockstep-region rule** — `lockstep-begin` / `lockstep-end`
//!    raw-comment markers (same mechanism as `hot-loop-alloc`)
//!    delimit the per-cycle shard path; inside them, lock types,
//!    channels, sleeps, blocking I/O, and `SeqCst` are banned — the
//!    region runs between two barrier waits every cycle and must
//!    neither block nor over-synchronize.
//! 4. **Sync-primitive tally** — per-crate counts of lock-type and
//!    atomic-type mentions, ratcheted by the `sync-lock` /
//!    `sync-atomic` keys in `xtask-ratchet.toml`, so the concurrency
//!    surface grows only deliberately.
//!
//! Like every other check this is lexical, not type-aware: `.load(` /
//! `.store(` on a non-atomic receiver would false-positive (none exist
//! in the tree today) and would be suppressed with the allow directive.

use crate::rules::{
    contains_token, count_token, Region, Violation, LOCKSTEP_BEGIN, LOCKSTEP_END,
    RULE_ATOMIC_ORDERING, RULE_LOCKSTEP_REGION, RULE_RELAXED_ORDERING,
};
use crate::scan::{allow_covers, allow_directive, window, ScannedLine};

/// Atomic methods that take a memory ordering: each call must mention
/// `Ordering::` within the same statement (this line joined with the
/// next two, for rustfmt-wrapped arguments).
const ATOMIC_METHODS: &[&str] = &[
    ".load(",
    ".store(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_and(",
    ".fetch_nand(",
    ".fetch_or(",
    ".fetch_xor(",
    ".fetch_max(",
    ".fetch_min(",
    ".fetch_update(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
];

/// Lockstep regions, the per-cycle shard path between two barrier
/// waits: locks and channels (over-synchronization), sleeps, `SeqCst`
/// and blocking I/O are banned there.
const LOCKSTEP: Region = Region {
    name: "lockstep",
    begin: LOCKSTEP_BEGIN,
    end: LOCKSTEP_END,
    rule: RULE_LOCKSTEP_REGION,
    banned: &[
        "Mutex",
        "RwLock",
        "Condvar",
        "mpsc",
        "thread::sleep",
        "SeqCst",
        "File",
        "OpenOptions",
        "TcpStream",
        "UdpSocket",
        "stdin",
        "stdout",
        "stderr",
        "read_to_string",
        "println!",
        "eprintln!",
        "print!",
        "eprint!",
    ],
    why: "the per-cycle shard path runs between barrier waits and must not block, lock, or \
          over-synchronize",
};

/// Lock-side tokens of the sync-primitive ratchet: blocking
/// synchronization types (and the `mpsc` channel module).
const LOCK_TOKENS: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

/// Atomic-side tokens of the sync-primitive ratchet: the `std` atomic
/// cell types (`SpinBarrier`-style wrappers count via their fields).
const ATOMIC_TOKENS: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// The sync-primitive tally over one scanned file's non-test lines, as
/// `(ratchet key, count)`: lock-type mentions (`sync-lock`) and
/// atomic-type mentions (`sync-atomic`).
pub fn sync_counts(lines: &[ScannedLine]) -> [(&'static str, usize); 2] {
    let count = |tokens: &[&str]| -> usize {
        lines
            .iter()
            .filter(|line| !line.in_test)
            .flat_map(|line| tokens.iter().map(|tok| count_token(&line.code, tok)))
            .sum()
    };
    [
        ("sync-lock", count(LOCK_TOKENS)),
        ("sync-atomic", count(ATOMIC_TOKENS)),
    ]
}

/// The three line-local conc rules over one scanned file.
pub fn conc_violations(lines: &[ScannedLine]) -> Vec<Violation> {
    let mut out = LOCKSTEP.violations(lines);
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;

        // Rule 1a: orderings are spelled at call sites, never imported
        // as bare variants.
        if line.code.trim_start().starts_with("use ") && line.code.contains("Ordering::") {
            out.push(Violation::new(
                RULE_ATOMIC_ORDERING,
                lineno,
                "importing an `Ordering` variant hides the ordering at call sites; \
                 import the enum and write `Ordering::<variant>` at each operation",
            ));
        }

        // Rule 1b: every atomic operation names an ordering within the
        // same statement (this line joined with the next two, for
        // rustfmt-wrapped arguments).
        for method in ATOMIC_METHODS {
            let mut from = 0;
            while let Some(at) = line.code[from..].find(method) {
                from += at + method.len();
                let statement = window(lines[idx..].iter().map(|l| l.code.as_str()), from);
                if !statement.contains("Ordering::")
                    && !allow_covers(lines, idx, RULE_ATOMIC_ORDERING)
                {
                    out.push(Violation::new(
                        RULE_ATOMIC_ORDERING,
                        lineno,
                        format!(
                            "`{method}...)` without an explicit `Ordering::`; atomic \
                             operations must spell their memory ordering at the call site"
                        ),
                    ));
                }
            }
        }

        // Rule 2: Relaxed only under a reasoned allow, and every such
        // allow covers a Relaxed (it sits on one, or on a comment-only
        // line directly above one).
        let relaxed = |l: &ScannedLine| contains_token(&l.code, "Relaxed");
        if relaxed(line) && !allow_covers(lines, idx, RULE_RELAXED_ORDERING) {
            out.push(Violation::new(
                RULE_RELAXED_ORDERING,
                lineno,
                "`Ordering::Relaxed` without a reason; say why no data is published \
                 through the atomic with `// xtask: allow(relaxed-ordering) — <reason>`",
            ));
        }
        let allows_relaxed =
            allow_directive(line).is_some_and(|rules| rules.contains(&RULE_RELAXED_ORDERING));
        let covers_relaxed = relaxed(line)
            || (line.code.trim().is_empty() && lines.get(idx + 1).is_some_and(relaxed));
        if allows_relaxed && !covers_relaxed {
            out.push(Violation::new(
                RULE_RELAXED_ORDERING,
                lineno,
                "stale `allow(relaxed-ordering)`: it covers no `Ordering::Relaxed`; remove it",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn check(src: &str) -> Vec<Violation> {
        conc_violations(&scan(src))
    }

    #[test]
    fn atomic_op_without_ordering_is_flagged() {
        let v = check("fn f(a: &AtomicUsize) { a.fetch_add(1, order); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_ATOMIC_ORDERING);
        assert!(check("fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::AcqRel); }").is_empty());
    }

    #[test]
    fn wrapped_ordering_argument_is_visible() {
        let src = "fn f(a: &AtomicU64) {\n    a.compare_exchange(\n        old,\n        new, Ordering::AcqRel, Ordering::Acquire).ok();\n}";
        assert!(check(src).is_empty(), "{:?}", check(src));
    }

    #[test]
    fn variant_imports_are_banned() {
        let v = check("use std::sync::atomic::Ordering::Relaxed;");
        assert!(v.iter().any(|v| v.rule == RULE_ATOMIC_ORDERING), "{v:?}");
        // Importing the enum itself is the sanctioned spelling.
        assert!(check("use std::sync::atomic::{AtomicUsize, Ordering};").is_empty());
    }

    #[test]
    fn relaxed_needs_a_reasoned_allow() {
        let src = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_RELAXED_ORDERING);

        // A trailing allow, or one on the comment line above, covers it.
        let trailing = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); \
                        // xtask: allow(relaxed-ordering) — monotonic counter, no ordering needed\n}";
        assert!(check(trailing).is_empty());
        let above =
            "fn f(a: &AtomicUsize) {\n    // xtask: allow(relaxed-ordering) — config cell\n    \
                     a.load(Ordering::Relaxed);\n}";
        assert!(check(above).is_empty(), "{:?}", check(above));

        // An allow without a reason is no allow.
        let bare = "// xtask: allow(relaxed-ordering)\na.load(Ordering::Relaxed);";
        assert_eq!(check(bare).len(), 1);
    }

    #[test]
    fn a_relaxed_allow_covering_no_relaxed_is_stale() {
        // The allow sits above a line with no Relaxed: it fails at its
        // own line, and so does one trailing a Relaxed-free line.
        let src =
            "fn f(a: &AtomicUsize) {\n    // xtask: allow(relaxed-ordering) — was a counter\n    \
                   a.load(Ordering::Acquire);\n    \
                   let x = 1; // xtask: allow(relaxed-ordering, lockstep-region) — shared\n}";
        let v = check(src);
        assert_eq!(
            v.iter()
                .map(|v| (v.rule.as_str(), v.line))
                .collect::<Vec<_>>(),
            vec![(RULE_RELAXED_ORDERING, 2), (RULE_RELAXED_ORDERING, 4)],
            "{v:?}"
        );
        assert!(v[0].message.contains("stale"), "{}", v[0].message);
        // An allow two lines above, past a code line, covers nothing.
        let gap = "// xtask: allow(relaxed-ordering) — r\nlet x = 1;\na.load(Ordering::Relaxed);";
        let v = check(gap);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn lockstep_region_bans_locks_and_seqcst() {
        let src = "fn f() {\n\
                   let m = Mutex::new(0);\n\
                   // xtask: lockstep-begin\n\
                   let n = Mutex::new(1);\n\
                   a.store(1, Ordering::SeqCst);\n\
                   // xtask: lockstep-end\n\
                   let o = RwLock::new(2);\n\
                   }";
        let v = check(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == RULE_LOCKSTEP_REGION));
        assert_eq!(v[0].line, 4);
        assert_eq!(v[1].line, 5);
    }

    #[test]
    fn lockstep_allows_lock_calls_on_preexisting_mailboxes() {
        // The drain path locks mailboxes that are uncontended by
        // construction; only naming lock *types* in the region fires.
        let src = "// xtask: lockstep-begin\nlet q = mailbox.lock();\n// xtask: lockstep-end";
        assert!(check(src).is_empty());
    }

    #[test]
    fn unterminated_lockstep_marker_is_flagged() {
        let v = check("fn f() {}\n// xtask: lockstep-begin\nlet x = 1;");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("never closed"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n}";
        assert!(check(src).is_empty());
    }

    #[test]
    fn sync_counts_tally_types_not_calls() {
        let src = "use std::sync::Mutex;\n\
                   struct S { m: Mutex<u32>, a: AtomicUsize }\n\
                   fn f(s: &S) { s.m.lock(); }\n\
                   #[cfg(test)]\nmod tests { use std::sync::RwLock; }";
        // Two Mutex mentions; the test RwLock is exempt.
        assert_eq!(
            sync_counts(&scan(src)),
            [("sync-lock", 2), ("sync-atomic", 1)]
        );
        // SpinBarrier must not count as `Barrier`.
        assert_eq!(
            sync_counts(&scan("struct SpinBarrier;")),
            [("sync-lock", 0), ("sync-atomic", 0)]
        );
    }
}
