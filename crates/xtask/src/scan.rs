//! Lexical pass over one Rust source file.
//!
//! The analyzer is deliberately registry-free: no `syn`, no proc-macro
//! machinery — just a small character-level state machine that is exact
//! about the three things the rules need:
//!
//! 1. **What is code.** Comments and string-literal *contents* are
//!    blanked out before any pattern matching, so a `"Mutex"` inside a
//!    string or an `// uses Ordering::Relaxed` comment never fires a
//!    rule.
//! 2. **What is test code.** `#[cfg(test)]` / `#[test]` items are
//!    tracked by brace depth; lines inside them are exempt from every
//!    rule and tally.
//! 3. **Where the escape hatches are.** An
//!    `// xtask: allow(<rule>) — <reason>` comment on the flagged line
//!    or the line directly above suppresses a rule, but only with a
//!    non-empty reason, and only as the line's own `//` comment (see
//!    [`allow_directive`]).

/// One source line after the lexical pass.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// The line exactly as written (comments included) — used for the
    /// allow-comment escape hatch and the expect-message check.
    pub raw: String,
    /// The line with comment text and string-literal contents blanked
    /// out (delimiters kept); all pattern matching runs on this.
    pub code: String,
    /// Whether the line sits inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
}

/// Lexer mode carried across lines.
enum Mode {
    /// Plain code.
    Normal,
    /// Inside `/* ... */`, which nests in Rust; the payload is depth.
    BlockComment(u32),
    /// Inside a normal `"..."` string literal (they may span lines).
    Str,
    /// Inside a raw string `r##"..."##`; the payload is the hash count.
    RawStr(u32),
}

/// Splits `source` into [`ScannedLine`]s, classifying code vs. comment
/// vs. string and tracking which lines belong to test-only items.
pub fn scan(source: &str) -> Vec<ScannedLine> {
    let mut mode = Mode::Normal;
    // Brace depth of the scanned code and, when inside a test item, the
    // depth at which that item's block opened.
    let mut depth: u32 = 0;
    let mut test_depth: Option<u32> = None;
    // A test attribute was seen and we are waiting for the `{` that
    // opens its item (cleared by `;`, for attributes on use/extern
    // items that have no body).
    let mut pending_test = false;

    let mut out = Vec::new();
    for raw_line in source.lines() {
        // A test item that opens (or opens *and* closes) anywhere on
        // this line marks the whole line, so single-line
        // `#[cfg(test)] mod t { ... }` items are still exempt.
        let mut touched_test = test_depth.is_some();
        let chars: Vec<char> = raw_line.chars().collect();
        let mut code = String::with_capacity(chars.len());
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match mode {
                Mode::BlockComment(d) => {
                    code.push(' ');
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        code.push(' ');
                        i += 1;
                        mode = if d > 1 {
                            Mode::BlockComment(d - 1)
                        } else {
                            Mode::Normal
                        };
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        code.push(' ');
                        i += 1;
                        mode = Mode::BlockComment(d + 1);
                    }
                }
                Mode::Str => {
                    if c == '\\' {
                        code.push_str("  "); // escaped char (may be `"`)
                        i += 1;
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Normal;
                    } else {
                        code.push(' ');
                    }
                }
                Mode::RawStr(hashes) => {
                    if c == '"' && matches_hashes(&chars, i + 1, hashes) {
                        code.push('"');
                        for _ in 0..hashes {
                            code.push(' ');
                        }
                        i += hashes as usize;
                        mode = Mode::Normal;
                    } else {
                        code.push(' ');
                    }
                }
                Mode::Normal => match c {
                    '/' if chars.get(i + 1) == Some(&'/') => break, // line comment
                    '/' if chars.get(i + 1) == Some(&'*') => {
                        code.push_str("  ");
                        i += 1;
                        mode = Mode::BlockComment(1);
                    }
                    '"' => {
                        code.push('"');
                        mode = Mode::Str;
                    }
                    'r' | 'b' if is_raw_string_start(&chars, i) => {
                        // Consume `r`/`br` plus the hashes and opening quote.
                        let mut j = i + 1;
                        if chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        for _ in i..j {
                            code.push(' ');
                        }
                        code.push('"');
                        i = j; // j points at the opening `"`
                        mode = Mode::RawStr(hashes);
                    }
                    '\'' => {
                        // Char literal vs. lifetime: a literal is
                        // `'x'` or `'\...'`; a lifetime has no closing
                        // quote within reach.
                        if chars.get(i + 1) == Some(&'\\') {
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            for _ in i..=j.min(chars.len() - 1) {
                                code.push(' ');
                            }
                            i = j;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code.push_str("   ");
                            i += 2;
                        } else {
                            code.push('\'');
                        }
                    }
                    '{' => {
                        depth += 1;
                        if pending_test && test_depth.is_none() {
                            test_depth = Some(depth);
                            pending_test = false;
                            touched_test = true;
                        }
                        code.push('{');
                    }
                    '}' => {
                        if test_depth == Some(depth) {
                            test_depth = None;
                        }
                        depth = depth.saturating_sub(1);
                        code.push('}');
                    }
                    ';' => {
                        // An attribute on a body-less item (`use`,
                        // `extern crate`) never opens a block.
                        pending_test = false;
                        code.push(';');
                    }
                    _ => code.push(c),
                },
            }
            i += 1;
        }

        if test_depth.is_none() && is_test_attribute_line(&code) {
            pending_test = true;
        }
        out.push(ScannedLine {
            raw: raw_line.to_string(),
            code,
            in_test: touched_test || test_depth.is_some() || pending_test,
        });
    }
    out
}

/// Whether `chars[from..]` is exactly `hashes` hash signs (the closing
/// delimiter of a raw string).
fn matches_hashes(chars: &[char], from: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| chars.get(from + k) == Some(&'#'))
}

/// Whether position `i` starts a raw (or raw-byte) string literal:
/// `r"`, `r#"`, `br"`, `br#"`, with any number of hashes.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Reject identifiers ending in r/b, e.g. `var"` cannot occur but
    // `attr` followed by `"` could via macros; require a non-ident
    // char (or start of line) before.
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Whether a (comment-stripped) line carries a test attribute:
/// `#[test]`, `#[cfg(test)]`, or a `cfg(all(test, ...))`-style variant.
fn is_test_attribute_line(code: &str) -> bool {
    let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    compact.contains("#[test]")
        || compact.contains("#[cfg(test)]")
        || compact.contains("#[cfg(test,")
        || compact.contains("#[cfg(all(test")
        || compact.contains("#[cfg(any(test")
}

/// The first of `texts` (line texts from the line in question on) from
/// byte `col`, joined with the next two lines trimmed: the window in
/// which a rustfmt-wrapped call's argument appears.
pub(crate) fn window<'a>(mut texts: impl Iterator<Item = &'a str>, col: usize) -> String {
    let mut out = texts
        .next()
        .and_then(|t| t.get(col..))
        .unwrap_or_default()
        .to_string();
    for follow in texts.take(2) {
        out.push(' ');
        out.push_str(follow.trim());
    }
    out
}

/// The rules named by the `xtask: allow(<rule>[, <rule>...]) — <reason>`
/// escape hatch that is `line`'s own `//` comment; one directive may
/// suppress several rules (`allow(relaxed-ordering, lockstep-region)`).
/// A directive quoted in a doc comment or a string is not one, and a
/// missing or empty reason, or an empty rule entry, makes the allow
/// invalid (`None`) — every suppression must say *why*.
pub fn allow_directive(line: &ScannedLine) -> Option<Vec<&str>> {
    // The scanned code stops where the line comment starts.
    let (start, _) = line.raw.char_indices().nth(line.code.chars().count())?;
    let rest = line.raw[start..]
        .strip_prefix("//")?
        .trim_start()
        .strip_prefix("xtask: allow(")?;
    let (rules, reason) = rest.split_once(')')?;
    let rules: Vec<&str> = rules.split(',').map(str::trim).collect();
    let reason = reason.trim_start_matches([' ', '\t', '-', '—', ':', '–']);
    (!rules.iter().any(|r| r.is_empty()) && reason.chars().any(char::is_alphanumeric))
        .then_some(rules)
}

/// Whether line `idx` (or a comment-only line directly above) carries a
/// valid allow comment covering `rule`. A *trailing* comment only
/// covers its own line, so one allow never silently blankets the
/// statement below.
pub fn allow_covers(lines: &[ScannedLine], idx: usize, rule: &str) -> bool {
    let hit = |l: &ScannedLine| allow_directive(l).is_some_and(|rules| rules.contains(&rule));
    if hit(&lines[idx]) {
        return true;
    }
    idx > 0 && lines[idx - 1].code.trim().is_empty() && hit(&lines[idx - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let lines = scan("let x = \"Mutex\"; // Mutex here\nlet y = 1;");
        assert!(!lines[0].code.contains("Mutex"));
        assert!(lines[0].code.contains("let x"));
        assert_eq!(lines[1].code, "let y = 1;");
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let lines = scan("a /* x\n /* y */ still\n done */ b");
        assert_eq!(lines[0].code.trim_end(), "a");
        assert!(!lines[1].code.contains("still"));
        assert!(lines[2].code.contains('b'));
        assert!(!lines[2].code.contains("done"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let lines = scan("let s = r#\"Ordering::Relaxed\"#;\nlet t = 2;");
        assert!(!lines[0].code.contains("Relaxed"));
        assert_eq!(lines[1].code, "let t = 2;");
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let lines = scan("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(lines[0].code.contains("str"));
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}";
        let lines = scan(src);
        assert!(!lines[0].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(!lines[5].in_test, "region must close with its brace");
    }

    #[test]
    fn single_line_test_item_is_marked() {
        let src = "#[cfg(test)]\nmod tests { use std::x; }\nfn after() {}";
        let lines = scan(src);
        assert!(
            lines[1].in_test,
            "a test mod opening and closing on one line is still test code"
        );
        assert!(!lines[2].in_test);
    }

    #[test]
    fn cfg_test_on_use_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse std::x;\nfn real() { body(); }";
        let lines = scan(src);
        assert!(!lines[2].in_test, "`;` must clear the pending attribute");
    }

    fn directive(src: &str) -> Option<Vec<String>> {
        let lines = scan(src);
        allow_directive(&lines[0]).map(|rules| rules.iter().map(|r| r.to_string()).collect())
    }

    #[test]
    fn allow_directive_requires_a_reason() {
        assert_eq!(
            directive("x // xtask: allow(hot-loop-alloc) — cold path"),
            Some(vec!["hot-loop-alloc".to_string()])
        );
        assert_eq!(directive("x // xtask: allow(hot-loop-alloc)"), None);
        assert_eq!(directive("x // xtask: allow(hot-loop-alloc) — "), None);
        assert_eq!(directive("plain line"), None);
    }

    #[test]
    fn allow_directive_parses_multiple_rules() {
        assert_eq!(
            directive("x // xtask: allow(relaxed-ordering, lockstep-region) — both justified"),
            Some(vec![
                "relaxed-ordering".to_string(),
                "lockstep-region".to_string()
            ])
        );
        // An empty entry in the list invalidates the whole directive.
        assert_eq!(
            directive("x // xtask: allow(relaxed-ordering,) — reason"),
            None
        );
    }

    #[test]
    fn allow_covers_matches_any_listed_rule() {
        let lines = scan(
            "let x = 1; // xtask: allow(relaxed-ordering, lockstep-region) — shared reason\nf();",
        );
        assert!(allow_covers(&lines, 0, "relaxed-ordering"));
        assert!(allow_covers(&lines, 0, "lockstep-region"));
        assert!(!allow_covers(&lines, 0, "hot-loop-alloc"));
        // A trailing allow covers only its own line.
        assert!(!allow_covers(&lines, 1, "relaxed-ordering"));
    }

    #[test]
    fn quoted_directives_are_not_allows() {
        for src in [
            "/// Use `// xtask: allow(relaxed-ordering) — <reason>`.\nf();",
            "//! xtask: allow(relaxed-ordering) — crate doc\nf();",
            "let s = \"// xtask: allow(relaxed-ordering) — string\";\nf();",
        ] {
            let lines = scan(src);
            assert_eq!(allow_directive(&lines[0]), None, "{src}");
            assert!(!allow_covers(&lines, 1, "relaxed-ordering"), "{src}");
        }
    }
}
