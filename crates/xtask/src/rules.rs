//! The line-level rules clippy cannot express: the `#[expect]` ledger
//! behind the panic and cast ratchets, the expect-message requirement,
//! and the hot-loop allocation ban.
//!
//! Clippy enforces the panic surface (`unwrap_used`, `expect_used`,
//! `panic`, `unreachable`) and the lossy casts
//! (`cast_possible_truncation`, `cast_sign_loss`, `cast_possible_wrap`),
//! so every surviving site carries a reasoned
//! `#[expect(clippy::<lint>, reason = "...")]`. This module counts those
//! attributes per ratchet key and rejects inner ones, which cover a
//! whole crate or module. Rules operate on the comment/string-stripped code
//! text produced by [`crate::scan`]; test code (inline `#[cfg(test)]`
//! items as well as whole `tests/`, `benches/`, `examples/` trees) is
//! exempt from all of them.

use crate::scan::{allow_covers, window, ScannedLine};

/// Rule name for `expect` calls without a literal message.
pub const RULE_EXPECT_MESSAGE: &str = "expect-message";
/// Rule name for an inner `#![expect]`/`#![allow]` of a ratcheted lint,
/// which covers a whole crate or module instead of one site.
pub const RULE_EXPECT_SCOPE: &str = "expect-scope";
/// Rule name for heap allocation inside a marked hot-loop region.
pub const RULE_HOT_LOOP_ALLOC: &str = "hot-loop-alloc";
/// Rule name for inter-crate dependency edges that violate the layer
/// graph committed in `xtask-layers.toml` (see [`crate::layers`]).
pub const RULE_LAYERING: &str = "layering";
/// Rule name for atomic operations that do not spell an ordering at the
/// call site (see [`crate::conc`]).
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule name for `Ordering::Relaxed` sites without a reasoned allow, and
/// for such allows that cover no `Relaxed` (see [`crate::conc`]).
pub const RULE_RELAXED_ORDERING: &str = "relaxed-ordering";
/// Rule name for blocking/over-synchronizing constructs inside a
/// marked lockstep region (see [`crate::conc`]).
pub const RULE_LOCKSTEP_REGION: &str = "lockstep-region";

/// Raw-comment marker opening a hot-loop region (e.g. the simulator's
/// cycle loop), which bans allocation until the matching end marker.
pub const HOT_LOOP_BEGIN: &str = "xtask: hot-loop-begin";
/// Raw-comment marker closing a hot-loop region.
pub const HOT_LOOP_END: &str = "xtask: hot-loop-end";

/// Raw-comment marker opening a lockstep region (the per-cycle shard
/// path between barrier waits): until the matching end marker, blocking
/// and over-synchronizing constructs are banned (see [`crate::conc`]).
pub const LOCKSTEP_BEGIN: &str = "xtask: lockstep-begin";
/// Raw-comment marker closing a lockstep region.
pub const LOCKSTEP_END: &str = "xtask: lockstep-end";

/// The clippy lints whose `#[expect]` attributes the ratchet counts,
/// each with the ratchet key that counts it.
pub const RATCHETED_LINTS: &[(&str, &str)] = &[
    ("clippy::unwrap_used", "unwrap"),
    ("clippy::expect_used", "expect"),
    ("clippy::panic", "panic"),
    ("clippy::unreachable", "panic"),
    ("clippy::cast_possible_truncation", "lossy-cast"),
    ("clippy::cast_sign_loss", "lossy-cast"),
    ("clippy::cast_possible_wrap", "lossy-cast"),
];

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

impl Violation {
    /// A violation of `rule` at 1-based `line`.
    pub fn new(rule: &str, line: usize, message: impl Into<String>) -> Self {
        Violation {
            rule: rule.to_string(),
            line,
            message: message.into(),
        }
    }
}

/// One kind of marked region: between a line holding `begin` and one
/// holding `end`, the `banned` tokens fail as `rule`, for the reason
/// `why`. Hot-loop and lockstep regions share this one check.
pub(crate) struct Region {
    pub name: &'static str,
    pub begin: &'static str,
    pub end: &'static str,
    pub rule: &'static str,
    pub banned: &'static [&'static str],
    pub why: &'static str,
}

/// Hot-loop regions (e.g. the simulator's cycle loop) stay
/// allocation-free in their steady-state iterations.
const HOT_LOOP: Region = Region {
    name: "hot-loop",
    begin: HOT_LOOP_BEGIN,
    end: HOT_LOOP_END,
    rule: RULE_HOT_LOOP_ALLOC,
    banned: &["Vec::new", "vec!", "Box::new", "String::new", "to_vec"],
    why: "it allocates; preallocate in the scratch buffers or move it outside the markers",
};

impl Region {
    /// The region's violations over one scanned file: each banned token
    /// on a non-test line inside the region that no allow covers, and a
    /// region left open, at its `begin` line.
    pub(crate) fn violations(&self, lines: &[ScannedLine]) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut since: Option<usize> = None;
        for (idx, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if line.raw.contains(self.begin) {
                since = Some(idx + 1);
            } else if line.raw.contains(self.end) {
                since = None;
            }
            if since.is_none() || allow_covers(lines, idx, self.rule) {
                continue;
            }
            for needle in self.banned {
                if contains_token(&line.code, needle) {
                    let message = format!("`{needle}` inside a {} region; {}", self.name, self.why);
                    out.push(Violation::new(self.rule, idx + 1, message));
                }
            }
        }
        if let Some(opened) = since {
            let message = format!(
                "`{}` marker is never closed with `{}`",
                self.begin, self.end
            );
            out.push(Violation::new(self.rule, opened, message));
        }
        out
    }
}

/// One non-test `#[expect]` of a ratcheted lint, counted by the ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectSite {
    /// The ratchet key that counts it (`unwrap`, `expect`, `panic` or
    /// `lossy-cast`); an attribute naming lints of several keys yields
    /// one site per key.
    pub key: &'static str,
    /// 1-based line of the attribute's `#`.
    pub line: usize,
    /// The lints it names, as written.
    pub lints: String,
}

/// Result of analyzing one source file.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Rule violations.
    pub violations: Vec<Violation>,
    /// The ratcheted `#[expect]` sites over the non-test lines.
    pub expects: Vec<ExpectSite>,
}

/// Analyzes one scanned non-test file.
pub fn analyze_lines(lines: &[ScannedLine]) -> FileAnalysis {
    let mut analysis = FileAnalysis::default();
    expect_attributes(lines, &mut analysis);
    analysis.violations.extend(HOT_LOOP.violations(lines));
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        // Every `.expect(` must carry a literal (or formatted) message;
        // inspect the raw text so the string contents are visible.
        let mut search = 0;
        while let Some(at) = line.code[search..].find(".expect(") {
            let col = search + at + ".expect(".len();
            if !expect_has_message(lines, idx, col)
                && !allow_covers(lines, idx, RULE_EXPECT_MESSAGE)
            {
                analysis.violations.push(Violation::new(
                    RULE_EXPECT_MESSAGE,
                    idx + 1,
                    "`.expect()` without a descriptive message; say what invariant failed",
                ));
            }
            search = col;
        }
    }
    analysis
}

/// Collects the non-test `#[expect]` attributes of ratcheted lints into
/// `analysis.expects`, and flags as [`RULE_EXPECT_SCOPE`] an inner
/// `expect` or `allow` attribute of one (clippy's `allow_attributes`
/// checks only outer attributes).
fn expect_attributes(lines: &[ScannedLine], analysis: &mut FileAnalysis) {
    // The code text as one string, so an attribute may wrap.
    let mut text = String::new();
    let mut line_of = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        text.push_str(&line.code);
        text.push('\n');
        line_of.resize(text.len(), idx);
    }
    for opener in ["#[expect(", "#![expect(", "#![allow("] {
        let mut from = 0;
        while let Some(at) = text[from..].find(opener) {
            let start = from + at;
            from = start + opener.len();
            let idx = line_of[start];
            let Some(close) = group_end(&text, from - 1) else {
                continue;
            };
            if lines[idx].in_test {
                continue;
            }
            let lints: Vec<&str> = text[from..close]
                .split(',')
                .map(str::trim)
                .filter(|entry| !entry.is_empty() && !entry.contains('='))
                .collect();
            let mut keys: Vec<&'static str> = RATCHETED_LINTS
                .iter()
                .filter(|(lint, _)| lints.contains(lint))
                .map(|&(_, key)| key)
                .collect();
            keys.dedup();
            if keys.is_empty() {
                continue;
            }
            let lints = lints.join(", ");
            if opener.starts_with("#!") {
                analysis.violations.push(Violation::new(
                    RULE_EXPECT_SCOPE,
                    idx + 1,
                    format!(
                        "`{lints}` is suppressed for a whole crate or module; put a reasoned \
                         `#[expect]` on the statement, field, arm or fn that holds each site"
                    ),
                ));
                continue;
            }
            for key in keys {
                analysis.expects.push(ExpectSite {
                    key,
                    line: idx + 1,
                    lints: lints.clone(),
                });
            }
        }
    }
}

/// The index of the `)` closing the group that opens at `open`.
fn group_end(text: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in text.as_bytes().iter().enumerate().skip(open) {
        if b == b'(' {
            depth += 1;
        } else if b == b')' {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Whether the argument starting at `col` of raw line `idx` (just after
/// `.expect(`) is a non-empty message: a string literal with content, a
/// `format!` invocation, or a borrowed/owned message expression.
fn expect_has_message(lines: &[ScannedLine], idx: usize, col: usize) -> bool {
    let arg = window(lines[idx..].iter().map(|l| l.raw.as_str()), col);
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

/// Whether `needle` occurs in `hay` as a standalone token.
pub(crate) fn contains_token(hay: &str, needle: &str) -> bool {
    count_token(hay, needle) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn analyze(src: &str) -> FileAnalysis {
        analyze_lines(&scan(src))
    }

    fn keys(a: &FileAnalysis) -> Vec<(&'static str, usize)> {
        a.expects.iter().map(|e| (e.key, e.line)).collect()
    }

    #[test]
    fn ratcheted_expects_are_counted_per_key() {
        let src = "fn f() {\n\
                   #[expect(clippy::unwrap_used, reason = \"a, b\")]\n\
                   let a = x.unwrap();\n\
                   #[expect(\n    clippy::cast_possible_truncation,\n    clippy::cast_sign_loss,\n    \
                   clippy::expect_used,\n    reason = \"wrapped\"\n)]\n\
                   let b = y.expect(\"m\") as u8;\n\
                   #[expect(clippy::too_many_lines, reason = \"not ratcheted\")]\n\
                   }";
        let a = analyze(src);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(
            keys(&a),
            vec![("unwrap", 2), ("expect", 4), ("lossy-cast", 4)]
        );
        assert_eq!(
            a.expects[2].lints,
            "clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::expect_used"
        );
    }

    #[test]
    fn panic_and_unreachable_share_a_key() {
        let src = "#[expect(clippy::panic, reason = \"r\")]\nfn f() {}\n\
                   #[expect(clippy::unreachable, reason = \"r\")]\nfn g() {}";
        assert_eq!(keys(&analyze(src)), vec![("panic", 1), ("panic", 3)]);
    }

    #[test]
    fn test_code_expects_are_not_counted() {
        let src = "fn real() {}\n#[cfg(test)]\n\
                   #[expect(clippy::cast_possible_truncation, reason = \"small\")]\n\
                   mod tests {\n    #![expect(clippy::unwrap_used, reason = \"tests\")]\n}";
        let a = analyze(src);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.expects.is_empty(), "{:?}", a.expects);
    }

    #[test]
    fn inner_expects_of_ratcheted_lints_fail() {
        for (src, line) in [
            (
                "//! Doc.
#![expect(clippy::unwrap_used, reason = \"r\")]
",
                2,
            ),
            (
                "#![allow(clippy::cast_sign_loss, reason = \"r\")]
",
                1,
            ),
        ] {
            let a = analyze(src);
            assert_eq!(a.violations.len(), 1, "{src}: {:?}", a.violations);
            assert_eq!(a.violations[0].rule, RULE_EXPECT_SCOPE);
            assert_eq!(a.violations[0].line, line, "{src}");
            assert!(a.expects.is_empty(), "{src}");
        }
        // Crate-wide expects of lints the ratchet does not count are fine.
        assert!(analyze(
            "#![expect(missing_docs, reason = \"r\")]
"
        )
        .violations
        .is_empty());
    }

    #[test]
    fn expects_inside_comments_and_strings_do_not_count() {
        let src = "// #[expect(clippy::unwrap_used)]\nlet s = \"#[expect(clippy::panic)]\";";
        assert!(analyze(src).expects.is_empty());
    }

    #[test]
    fn expect_without_message_is_flagged() {
        let src = "fn f() { a.expect(\"\"); }";
        let a = analyze(src);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].rule, RULE_EXPECT_MESSAGE);
        // Messaged / formatted / computed expects pass.
        for good in [
            "fn f() { a.expect(\"queue cannot be empty\"); }",
            "fn f() { a.expect(format!(\"bad {x}\")); }",
            "fn f() { a.expect(&msg); }",
        ] {
            assert!(analyze(good).violations.is_empty(), "{good}");
        }
    }

    #[test]
    fn wrapped_expect_message_on_next_line_passes() {
        let src = "fn f() {\n    a.expect(\n        \"a long invariant message\",\n    );\n}";
        assert!(analyze(src).violations.is_empty());
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
        let a = analyze(src);
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
        assert!(analyze(src).violations.is_empty());
    }

    #[test]
    fn unterminated_hot_loop_marker_is_flagged() {
        let src = "fn f() {}\n// xtask: hot-loop-begin\nlet x = 1;";
        let a = analyze(src);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].line, 2);
        assert!(a.violations[0].message.contains("never closed"));
    }
}
