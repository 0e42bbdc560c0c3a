//! Concurrency-soundness checks over the sharded execution substrate
//! (DESIGN.md §14), run by `cargo xtask lint` on the same scanned lines
//! as every other rule:
//!
//! 1. **Atomic-ordering rule** — every atomic operation in non-test
//!    code outside `crates/compat` must spell its memory ordering at
//!    the call site (`Ordering::Acquire`, not a bare imported variant),
//!    so a reviewer never has to chase a `use` to see what a barrier
//!    load synchronizes with.
//! 2. **Relaxed allowlist** — `Ordering::Relaxed` is only legal at
//!    sites enumerated in the committed `xtask-conc.toml` (config
//!    cells, the work-stealing cursor) or carrying an
//!    `// xtask: allow(relaxed-ordering) — <reason>` directive. Stale
//!    allowlist entries that no longer match any site fail the check, so
//!    the file cannot drift from the tree.
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

use std::fs;
use std::path::Path;

use crate::rules::{
    contains_token, count_token, Violation, LOCKSTEP_BEGIN, LOCKSTEP_END, RULE_ATOMIC_ORDERING,
    RULE_LOCKSTEP_REGION, RULE_RELAXED_ORDERING,
};
use crate::scan::{allow_covers, ScannedLine};

/// File name of the committed Relaxed-ordering allowlist, at the repo
/// root.
pub const CONC_FILE: &str = "xtask-conc.toml";

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

/// Tokens banned inside a lockstep region: locks and channels
/// (over-synchronization in the per-cycle path), sleeps, `SeqCst`, and
/// blocking I/O.
const LOCKSTEP_FORBIDDEN: &[&str] = &[
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
];

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

/// Non-test sync-primitive tally of one file (or one crate, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncCounts {
    /// Lock-type mentions (`Mutex`, `RwLock`, `Condvar`, `Barrier`,
    /// `mpsc`).
    pub lock: usize,
    /// Atomic-type mentions (`AtomicUsize`, `AtomicBool`, ...).
    pub atomic: usize,
}

impl SyncCounts {
    /// Component-wise sum.
    pub fn add(&mut self, other: SyncCounts) {
        self.lock += other.lock;
        self.atomic += other.atomic;
    }

    /// Total sync-primitive mentions.
    pub fn total(&self) -> usize {
        self.lock + self.atomic
    }
}

/// One `[[relaxed]]` allowlist entry from `xtask-conc.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaxedAllow {
    /// 1-based line of the `[[relaxed]]` header, for diagnostics.
    pub line: usize,
    /// Workspace-relative path the entry applies to.
    pub file: String,
    /// Substring of the raw source line that identifies the site.
    pub contains: String,
    /// Why Relaxed is sound there.
    pub reason: String,
}

impl RelaxedAllow {
    /// Whether this entry covers the raw source line `raw` of the file
    /// displayed as `display`.
    fn covers(&self, display: &str, raw: &str) -> bool {
        self.file == display && raw.contains(&self.contains)
    }
}

/// Parses the allowlist file. Returns the entries, or a description of
/// the first malformed line. The format is a fixed list of `[[relaxed]]`
/// tables with quoted-string `file` / `contains` / `reason` keys, read
/// by a purpose-built parser rather than a TOML dependency.
pub fn parse_allowlist(text: &str) -> Result<Vec<RelaxedAllow>, String> {
    let mut out: Vec<RelaxedAllow> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[relaxed]]" {
            out.push(RelaxedAllow {
                line: idx + 1,
                file: String::new(),
                contains: String::new(),
                reason: String::new(),
            });
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = \"value\"`", idx + 1))?;
        let entry = out
            .last_mut()
            .ok_or_else(|| format!("line {}: key outside a [[relaxed]] table", idx + 1))?;
        let value = value
            .trim()
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("line {}: value is not a quoted string", idx + 1))?;
        match key.trim() {
            "file" => entry.file = value.to_string(),
            "contains" => entry.contains = value.to_string(),
            "reason" => entry.reason = value.to_string(),
            other => return Err(format!("line {}: unknown key `{other}`", idx + 1)),
        }
    }
    for entry in &out {
        if entry.file.is_empty() || entry.contains.is_empty() || entry.reason.is_empty() {
            return Err(format!(
                "line {}: [[relaxed]] entry needs non-empty `file`, `contains`, and `reason`",
                entry.line
            ));
        }
    }
    Ok(out)
}

/// Reads the committed allowlist at `root`. It fails closed: a missing
/// or malformed file is itself a violation, and the caller proceeds
/// with no allowances.
pub fn read_allowlist(root: &Path) -> Result<Vec<RelaxedAllow>, (String, Violation)> {
    let message = match fs::read_to_string(root.join(CONC_FILE)) {
        Ok(text) => match parse_allowlist(&text) {
            Ok(entries) => return Ok(entries),
            Err(e) => format!("malformed allowlist: {e}"),
        },
        Err(e) => format!(
            "cannot read the Relaxed-ordering allowlist: {e}; every \
             `Ordering::Relaxed` site must be enumerated in {CONC_FILE}"
        ),
    };
    Err((
        CONC_FILE.to_string(),
        Violation {
            rule: RULE_RELAXED_ORDERING.to_string(),
            line: 1,
            message,
        },
    ))
}

/// The drift check: an allowlist entry that covered no site (per the
/// `matched` flags [`conc_violations`] set) is stale and must be
/// deleted, so the file always mirrors the tree.
pub fn stale_entries(allowlist: &[RelaxedAllow], matched: &[bool]) -> Vec<(String, Violation)> {
    allowlist
        .iter()
        .zip(matched)
        .filter(|(_, &hit)| !hit)
        .map(|(entry, _)| {
            (
                CONC_FILE.to_string(),
                Violation {
                    rule: RULE_RELAXED_ORDERING.to_string(),
                    line: entry.line,
                    message: format!(
                        "stale allowlist entry: no line of `{}` contains `{}`; \
                         remove the entry (the allowlist must match the tree)",
                        entry.file, entry.contains
                    ),
                },
            )
        })
        .collect()
}

/// The sync-primitive tally over one scanned file's non-test lines.
pub fn sync_counts(lines: &[ScannedLine]) -> SyncCounts {
    let mut counts = SyncCounts::default();
    for line in lines {
        if line.in_test {
            continue;
        }
        for tok in LOCK_TOKENS {
            counts.lock += count_token(&line.code, tok);
        }
        for tok in ATOMIC_TOKENS {
            counts.atomic += count_token(&line.code, tok);
        }
    }
    counts
}

/// The three line-local conc rules over one scanned file.
///
/// `display` is the workspace-relative path (matched against allowlist
/// `file` keys); `matched` marks which allowlist entries covered at
/// least one site, for the drift check.
pub fn conc_violations(
    lines: &[ScannedLine],
    display: &str,
    allowlist: &[RelaxedAllow],
    matched: &mut [bool],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut lockstep_since: Option<usize> = None;
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        if line.raw.contains(LOCKSTEP_BEGIN) {
            lockstep_since = Some(lineno);
        } else if line.raw.contains(LOCKSTEP_END) {
            lockstep_since = None;
        }

        // Rule 1a: orderings are spelled at call sites, never imported
        // as bare variants.
        if line.code.trim_start().starts_with("use ") && line.code.contains("Ordering::") {
            out.push(Violation {
                rule: RULE_ATOMIC_ORDERING.to_string(),
                line: lineno,
                message: "importing an `Ordering` variant hides the ordering at call sites; \
                          import the enum and write `Ordering::<variant>` at each operation"
                    .to_string(),
            });
        }

        // Rule 1b: every atomic operation names an ordering within the
        // same (possibly wrapped) statement.
        for method in ATOMIC_METHODS {
            let mut from = 0;
            while let Some(at) = line.code[from..].find(method) {
                let col = from + at + method.len();
                from = col;
                if !statement_window(lines, idx, col).contains("Ordering::")
                    && !allow_covers(lines, idx, RULE_ATOMIC_ORDERING)
                {
                    out.push(Violation {
                        rule: RULE_ATOMIC_ORDERING.to_string(),
                        line: lineno,
                        message: format!(
                            "`{method}...)` without an explicit `Ordering::`; atomic \
                             operations must spell their memory ordering at the call site"
                        ),
                    });
                }
            }
        }

        // Rule 2: Relaxed only at enumerated or annotated sites.
        if contains_token(&line.code, "Relaxed") {
            let mut covered = allow_covers(lines, idx, RULE_RELAXED_ORDERING);
            for (i, entry) in allowlist.iter().enumerate() {
                if entry.covers(display, &line.raw) {
                    matched[i] = true;
                    covered = true;
                }
            }
            if !covered {
                out.push(Violation {
                    rule: RULE_RELAXED_ORDERING.to_string(),
                    line: lineno,
                    message: format!(
                        "`Ordering::Relaxed` outside the {CONC_FILE} allowlist; enumerate \
                         the site there or justify it with \
                         `// xtask: allow(relaxed-ordering) — <reason>`"
                    ),
                });
            }
        }

        // Rule 3: nothing blocking or over-synchronizing between the
        // barrier waits.
        if lockstep_since.is_some() {
            for needle in LOCKSTEP_FORBIDDEN {
                if !contains_token(&line.code, needle) {
                    continue;
                }
                if allow_covers(lines, idx, RULE_LOCKSTEP_REGION) {
                    continue;
                }
                out.push(Violation {
                    rule: RULE_LOCKSTEP_REGION.to_string(),
                    line: lineno,
                    message: format!(
                        "`{needle}` inside a lockstep region; the per-cycle shard path \
                         runs between barrier waits and must not block, lock, or \
                         over-synchronize"
                    ),
                });
            }
        }
    }
    if let Some(opened) = lockstep_since {
        out.push(Violation {
            rule: RULE_LOCKSTEP_REGION.to_string(),
            line: opened,
            message: format!("`{LOCKSTEP_BEGIN}` marker is never closed with `{LOCKSTEP_END}`"),
        });
    }
    out
}

/// The remainder of line `idx` starting at `col`, joined with the next
/// two lines' code text — the window in which a wrapped atomic call's
/// `Ordering::` argument must appear.
fn statement_window(lines: &[ScannedLine], idx: usize, col: usize) -> String {
    let mut window = String::new();
    if let Some((_, rest)) = lines[idx]
        .code
        .split_at_checked(col.min(lines[idx].code.len()))
    {
        window.push_str(rest);
    }
    for follow in lines.iter().skip(idx + 1).take(2) {
        window.push(' ');
        window.push_str(follow.code.trim());
    }
    window
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn check(src: &str) -> Vec<Violation> {
        conc_violations(&scan(src), "crates/x/src/lib.rs", &[], &mut [])
    }

    fn check_with(src: &str, allow: &[RelaxedAllow]) -> (Vec<Violation>, Vec<bool>) {
        let mut matched = vec![false; allow.len()];
        let v = conc_violations(&scan(src), "crates/x/src/lib.rs", allow, &mut matched);
        (v, matched)
    }

    fn entry(file: &str, contains: &str) -> RelaxedAllow {
        RelaxedAllow {
            line: 1,
            file: file.to_string(),
            contains: contains.to_string(),
            reason: "test".to_string(),
        }
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
    fn relaxed_needs_an_allowlist_entry_or_directive() {
        let src = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_RELAXED_ORDERING);

        let allow = [entry("crates/x/src/lib.rs", "a.load(Ordering::Relaxed)")];
        let (v, matched) = check_with(src, &allow);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(matched, vec![true]);

        // Wrong file: the entry does not cover the site.
        let allow = [entry("crates/y/src/lib.rs", "a.load(Ordering::Relaxed)")];
        let (v, matched) = check_with(src, &allow);
        assert_eq!(v.len(), 1);
        assert_eq!(matched, vec![false]);
    }

    #[test]
    fn relaxed_allow_directive_is_an_escape_hatch() {
        let src = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); \
                   // xtask: allow(relaxed-ordering) — monotonic counter, no ordering needed\n}";
        assert!(check(src).is_empty());
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
        let c = sync_counts(&scan(src));
        assert_eq!(c.lock, 2, "two Mutex mentions, test RwLock exempt");
        assert_eq!(c.atomic, 1);
        // SpinBarrier must not count as `Barrier`.
        assert_eq!(sync_counts(&scan("struct SpinBarrier;")).total(), 0);
    }

    #[test]
    fn allowlist_parses_and_validates() {
        let text = "# comment\n\n[[relaxed]]\nfile = \"crates/p/src/lib.rs\"\n\
                    contains = \"X.load\"\nreason = \"config cell\"\n";
        let entries = parse_allowlist(text).expect("well-formed allowlist must parse");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].line, 3);
        assert_eq!(entries[0].file, "crates/p/src/lib.rs");

        assert!(
            parse_allowlist("file = \"x\"\n").is_err(),
            "key before table"
        );
        assert!(
            parse_allowlist("[[relaxed]]\nfile = \"x\"\ncontains = \"y\"\n").is_err(),
            "missing reason"
        );
        assert!(
            parse_allowlist("[[relaxed]]\nfile = x\n").is_err(),
            "unquoted value"
        );
        assert!(
            parse_allowlist("[[relaxed]]\nwibble = \"x\"\n").is_err(),
            "unknown key"
        );
    }
}
