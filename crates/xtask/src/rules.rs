//! The lint rules: determinism bans, panic-surface counting, the
//! expect-message requirement, and the hot-loop allocation ban.
//!
//! Rules operate on the comment/string-stripped code text produced by
//! [`crate::scan`]; test code (inline `#[cfg(test)]` items as well as
//! whole `tests/`, `benches/`, `examples/` trees) is exempt from all of
//! them. A rule hit on a non-test line may be suppressed with an
//! `// xtask: allow(<rule>) — <reason>` comment on the same line or the
//! line directly above (see [`crate::scan::allow_directive`]).

use crate::scan::{allow_covers, ScannedLine};

/// Names of the determinism rules, as used in allow comments and
/// diagnostics.
pub const RULE_HASH_COLLECTIONS: &str = "hash-collections";
/// Rule name for wall-clock reads (`Instant::now`, `SystemTime::now`).
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule name for ambient, non-seeded randomness.
pub const RULE_AMBIENT_RNG: &str = "ambient-rng";
/// Rule name for `expect` calls without a literal message.
pub const RULE_EXPECT_MESSAGE: &str = "expect-message";
/// Rule name for heap allocation inside a marked hot-loop region.
pub const RULE_HOT_LOOP_ALLOC: &str = "hot-loop-alloc";
/// Rule name for potentially-lossy numeric `as` casts (ratcheted per
/// crate, see [`crate::casts`]).
pub const RULE_LOSSY_CAST: &str = "lossy-cast";
/// Rule name for inter-crate dependency edges that violate the layer
/// graph committed in `xtask-layers.toml` (see [`crate::layers`]).
pub const RULE_LAYERING: &str = "layering";
/// Rule name for atomic operations that do not spell an ordering at the
/// call site (see [`crate::conc`]).
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule name for `Ordering::Relaxed` sites outside the committed
/// `xtask-conc.toml` allowlist (see [`crate::conc`]).
pub const RULE_RELAXED_ORDERING: &str = "relaxed-ordering";
/// Rule name for blocking/over-synchronizing constructs inside a
/// marked lockstep region (see [`crate::conc`]).
pub const RULE_LOCKSTEP_REGION: &str = "lockstep-region";

/// Raw-comment marker opening a hot-loop region (e.g. the simulator's
/// cycle loop): until the matching end marker, allocating calls are
/// banned so steady-state iterations stay allocation-free.
pub const HOT_LOOP_BEGIN: &str = "xtask: hot-loop-begin";
/// Raw-comment marker closing a hot-loop region.
pub const HOT_LOOP_END: &str = "xtask: hot-loop-end";

/// Raw-comment marker opening a lockstep region (the per-cycle shard
/// path between barrier waits): until the matching end marker, blocking
/// and over-synchronizing constructs are banned (see [`crate::conc`]).
pub const LOCKSTEP_BEGIN: &str = "xtask: lockstep-begin";
/// Raw-comment marker closing a lockstep region.
pub const LOCKSTEP_END: &str = "xtask: lockstep-end";

/// One rule violation, positioned for `path:line` diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (one of the `RULE_*` constants, or a check-specific
    /// name like `ratchet` / `lint-gates` assigned by the caller).
    pub rule: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the hit.
    pub message: String,
}

/// Non-test panic-surface tally of one file (or one crate, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PanicCounts {
    /// `.unwrap()` calls.
    pub unwrap: usize,
    /// `.expect(` calls.
    pub expect: usize,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros.
    pub panic: usize,
}

impl PanicCounts {
    /// Component-wise sum.
    pub fn add(&mut self, other: PanicCounts) {
        self.unwrap += other.unwrap;
        self.expect += other.expect;
        self.panic += other.panic;
    }

    /// Total panic sites.
    pub fn total(&self) -> usize {
        self.unwrap + self.expect + self.panic
    }
}

/// Result of analyzing one source file.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Rule violations (determinism rules and expect-message hits).
    pub violations: Vec<Violation>,
    /// Panic-surface tally over the non-test lines.
    pub counts: PanicCounts,
}

/// The needles of one determinism rule.
struct DeterminismRule {
    name: &'static str,
    needles: &'static [&'static str],
    hint: &'static str,
}

const DETERMINISM_RULES: &[DeterminismRule] = &[
    DeterminismRule {
        name: RULE_HASH_COLLECTIONS,
        needles: &["HashMap", "HashSet"],
        hint: "iteration order is nondeterministic; use BTreeMap/BTreeSet or sort before iterating",
    },
    DeterminismRule {
        name: RULE_WALL_CLOCK,
        needles: &["Instant::now", "SystemTime::now"],
        hint: "wall-clock reads vary between runs; thread timing through the config instead",
    },
    DeterminismRule {
        name: RULE_AMBIENT_RNG,
        needles: &["thread_rng", "from_entropy", "random_seed"],
        hint: "ambient entropy breaks seed determinism; derive seeds via parallel::child_seed",
    },
];

/// Analyzes one scanned non-test file.
///
/// `deterministic` selects whether the determinism rules apply (they
/// cover only the seed-deterministic crates); panic counting and the
/// expect-message rule always run.
pub fn analyze_lines(lines: &[ScannedLine], deterministic: bool) -> FileAnalysis {
    let mut analysis = FileAnalysis::default();
    // Hot-loop regions are delimited by raw-comment markers; track the
    // opening line for the unterminated-region diagnostic.
    let mut hot_since: Option<usize> = None;
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        if line.raw.contains(HOT_LOOP_BEGIN) {
            hot_since = Some(lineno);
        } else if line.raw.contains(HOT_LOOP_END) {
            hot_since = None;
        }
        if hot_since.is_some() {
            for needle in ["Vec::new", "vec!", "Box::new", "String::new", "to_vec"] {
                if !contains_token(&line.code, needle) {
                    continue;
                }
                if allowed(lines, idx, RULE_HOT_LOOP_ALLOC) {
                    continue;
                }
                analysis.violations.push(Violation {
                    rule: RULE_HOT_LOOP_ALLOC.to_string(),
                    line: lineno,
                    message: format!(
                        "`{needle}` allocates inside a hot-loop region; preallocate in the \
                         scratch buffers or move it outside the markers"
                    ),
                });
            }
        }
        if deterministic {
            for rule in DETERMINISM_RULES {
                for needle in rule.needles {
                    if !contains_token(&line.code, needle) {
                        continue;
                    }
                    if allowed(lines, idx, rule.name) {
                        continue;
                    }
                    analysis.violations.push(Violation {
                        rule: rule.name.to_string(),
                        line: lineno,
                        message: format!("use of `{}`: {}", needle, rule.hint),
                    });
                }
            }
        }
        analysis.counts.unwrap += count_occurrences(&line.code, ".unwrap()");
        analysis.counts.expect += count_occurrences(&line.code, ".expect(");
        for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
            analysis.counts.panic += count_token(&line.code, mac);
        }
        // Every `.expect(` must carry a literal (or formatted) message;
        // inspect the raw text so the string contents are visible.
        let mut search = 0;
        while let Some(at) = line.code[search..].find(".expect(") {
            let col = search + at + ".expect(".len();
            if !expect_has_message(lines, idx, col) && !allowed(lines, idx, RULE_EXPECT_MESSAGE) {
                analysis.violations.push(Violation {
                    rule: RULE_EXPECT_MESSAGE.to_string(),
                    line: lineno,
                    message: "`.expect()` without a descriptive message; say what invariant failed"
                        .to_string(),
                });
            }
            search = col;
        }
    }
    if let Some(opened) = hot_since {
        analysis.violations.push(Violation {
            rule: RULE_HOT_LOOP_ALLOC.to_string(),
            line: opened,
            message: format!("`{HOT_LOOP_BEGIN}` marker is never closed with `{HOT_LOOP_END}`"),
        });
    }
    analysis
}

/// Whether line `idx` (or a comment-only line directly above) carries a
/// valid allow comment for `rule` (see [`crate::scan::allow_covers`]).
fn allowed(lines: &[ScannedLine], idx: usize, rule: &str) -> bool {
    allow_covers(lines, idx, rule)
}

/// Whether the argument starting at `col` of raw line `idx` (just after
/// `.expect(`) is a non-empty message: a string literal with content, a
/// `format!` invocation, or a borrowed/owned message expression.
fn expect_has_message(lines: &[ScannedLine], idx: usize, col: usize) -> bool {
    // Join the remainder of this raw line with the next couple of lines
    // so rustfmt-wrapped arguments are still visible.
    let mut arg = String::new();
    if let Some((_, rest)) = lines[idx]
        .raw
        .split_at_checked(col.min(lines[idx].raw.len()))
    {
        arg.push_str(rest);
    }
    for follow in lines.iter().skip(idx + 1).take(2) {
        arg.push(' ');
        arg.push_str(follow.raw.trim());
    }
    let arg = arg.trim_start();
    if let Some(rest) = arg.strip_prefix('"') {
        // Non-empty string literal.
        return !rest.starts_with('"');
    }
    // Accept computed messages: format!/concat! literals, references to
    // a message value, or an identifier holding one.
    arg.starts_with("format!")
        || arg.starts_with("concat!")
        || arg.starts_with('&')
        || arg
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Occurrences of `needle` in `hay` as a standalone token (not embedded
/// in a longer identifier / path segment).
pub(crate) fn count_token(hay: &str, needle: &str) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(at) = hay[from..].find(needle) {
        let start = from + at;
        let end = start + needle.len();
        let pre = hay[..start].chars().next_back();
        let pre_ok = pre.is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let post = hay[end..].chars().next();
        let post_ok = post.is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if pre_ok && post_ok {
            n += 1;
        }
        from = end;
    }
    n
}

/// Token test used by the determinism rules.
pub(crate) fn contains_token(hay: &str, needle: &str) -> bool {
    count_token(hay, needle) > 0
}

/// Plain substring occurrence count (the needle starts with `.` or ends
/// with `(`, so token boundaries are inherent).
fn count_occurrences(hay: &str, needle: &str) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(at) = hay[from..].find(needle) {
        n += 1;
        from += at + needle.len();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn analyze(src: &str, deterministic: bool) -> FileAnalysis {
        analyze_lines(&scan(src), deterministic)
    }

    #[test]
    fn hash_collections_fire_in_deterministic_code() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }";
        let a = analyze(src, true);
        assert_eq!(a.violations.len(), 2);
        assert!(a.violations.iter().all(|v| v.rule == RULE_HASH_COLLECTIONS));
        // Non-deterministic crates are not subject to the rule.
        assert!(analyze(src, false).violations.is_empty());
    }

    #[test]
    fn allow_comment_suppresses_one_line() {
        let src = "let m = HashMap::new(); // xtask: allow(hash-collections) — keys sorted below\n\
                   let n = HashMap::new();";
        let a = analyze(src, true);
        assert_eq!(a.violations.len(), 1, "only the unannotated line fires");
        assert_eq!(a.violations[0].line, 2);
    }

    #[test]
    fn multi_rule_allow_comment_suppresses_each_listed_rule() {
        // Regression: `allow(a, b)` used to be matched as the single
        // rule name "a, b" and suppressed nothing.
        let src = "let m = HashMap::new(); // xtask: allow(lossy-cast, hash-collections) — sorted before iteration";
        assert!(analyze(src, true).violations.is_empty());
        // ...but an unlisted rule still fires.
        let src =
            "let t = Instant::now(); // xtask: allow(lossy-cast, hash-collections) — wrong rules";
        assert_eq!(analyze(src, true).violations.len(), 1);
    }

    #[test]
    fn allow_comment_on_previous_line_applies() {
        let src = "// xtask: allow(wall-clock) — progress display only\nlet t = Instant::now();";
        assert!(analyze(src, true).violations.is_empty());
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let src = "let t = Instant::now(); // xtask: allow(wall-clock)";
        assert_eq!(analyze(src, true).violations.len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); x.unwrap(); }\n}";
        let a = analyze(src, true);
        assert!(a.violations.is_empty());
        assert_eq!(a.counts, PanicCounts::default());
    }

    #[test]
    fn panic_surface_is_counted() {
        let src =
            "fn f() { a.unwrap(); b.unwrap(); c.expect(\"m\"); panic!(\"x\"); unreachable!() }";
        let a = analyze(src, false);
        assert_eq!(a.counts.unwrap, 2);
        assert_eq!(a.counts.expect, 1);
        assert_eq!(a.counts.panic, 2);
    }

    #[test]
    fn unwrap_or_variants_do_not_count() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(g); c.unwrap_or_default(); }";
        assert_eq!(analyze(src, false).counts.total(), 0);
    }

    #[test]
    fn expect_without_message_is_flagged() {
        let src = "fn f() { a.expect(\"\"); }";
        let a = analyze(src, false);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].rule, RULE_EXPECT_MESSAGE);
        // Messaged / formatted / computed expects pass.
        for good in [
            "fn f() { a.expect(\"queue cannot be empty\"); }",
            "fn f() { a.expect(format!(\"bad {x}\")); }",
            "fn f() { a.expect(&msg); }",
        ] {
            assert!(analyze(good, false).violations.is_empty(), "{good}");
        }
    }

    #[test]
    fn wrapped_expect_message_on_next_line_passes() {
        let src = "fn f() {\n    a.expect(\n        \"a long invariant message\",\n    );\n}";
        assert!(analyze(src, false).violations.is_empty());
    }

    #[test]
    fn hot_loop_region_bans_allocation() {
        let src = "fn f() {\n\
                   let a = Vec::new();\n\
                   // xtask: hot-loop-begin\n\
                   let b = vec![0; 4];\n\
                   let c = Vec::new();\n\
                   // xtask: hot-loop-end\n\
                   let d = vec![1];\n\
                   }";
        let a = analyze(src, true);
        assert_eq!(a.violations.len(), 2, "{:?}", a.violations);
        assert!(a.violations.iter().all(|v| v.rule == RULE_HOT_LOOP_ALLOC));
        assert_eq!(a.violations[0].line, 4);
        assert_eq!(a.violations[1].line, 5);
    }

    #[test]
    fn hot_loop_allow_comment_is_an_escape_hatch() {
        let src = "// xtask: hot-loop-begin\n\
                   // xtask: allow(hot-loop-alloc) — cold error path\n\
                   let b = Vec::new();\n\
                   // xtask: hot-loop-end";
        assert!(analyze(src, true).violations.is_empty());
    }

    #[test]
    fn hot_loop_rule_applies_outside_deterministic_crates_too() {
        let src = "// xtask: hot-loop-begin\nlet b = String::new();\n// xtask: hot-loop-end";
        assert_eq!(analyze(src, false).violations.len(), 1);
    }

    #[test]
    fn unterminated_hot_loop_marker_is_flagged() {
        let src = "fn f() {}\n// xtask: hot-loop-begin\nlet x = 1;";
        let a = analyze(src, true);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].line, 2);
        assert!(a.violations[0].message.contains("never closed"));
    }

    #[test]
    fn needles_inside_strings_and_comments_do_not_fire() {
        let src = "let s = \"HashMap\"; // HashMap, Instant::now\nlet d = \"thread_rng\";";
        assert!(analyze(src, true).violations.is_empty());
    }

    #[test]
    fn token_boundaries_are_respected() {
        // `MyHashMapLike` must not trip the rule.
        let src = "struct MyHashMapLike;\nfn f(x: MyHashMapLike) {}";
        assert!(analyze(src, true).violations.is_empty());
    }
}
