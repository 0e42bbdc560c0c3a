//! Numeric-cast classification for the lossy-cast ratchet.
//!
//! A truncated switch or port index in a Jellyfish-style random
//! topology produces a *valid but wrong* graph rather than a crash, so
//! lossy `as` casts are exactly the bug class tier-1 tests cannot see.
//! This pass classifies every `expr as T` in non-test code by a
//! token-level scan of the comment/string-stripped text and ratchets
//! the per-crate *potentially-lossy* count in `xtask-ratchet.toml`.
//!
//! Classification is by the **target** type, refined by the source
//! token when it is a literal (the scanner has no type inference):
//!
//! | target                                      | class              |
//! |---------------------------------------------|--------------------|
//! | `u8 u16 u32 i8 i16 i32 f32`                 | potentially lossy  |
//! | `u64 i64 u128 i128 usize isize f64`         | widening (assumed) |
//! | non-primitive / pointer                     | ignored            |
//!
//! Casts to a 64-bit-or-wider target are *assumed* widening because
//! every platform this workspace targets has 64-bit `usize`; the
//! residual risks (`u64 as i64` sign flip, `u64 as f64` above 2^53)
//! are documented in DESIGN.md §12. A cast whose source token is an
//! integer literal that provably fits the target is lossless. The
//! escape hatch is `// xtask: allow(lossy-cast) — <reason>` with a
//! documented invariant; allowed sites are excluded from the ratchet.

use crate::rules::RULE_LOSSY_CAST;
use crate::scan::{allow_covers, ScannedLine};

/// Classification of one `as` cast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastClass {
    /// Provably value-preserving (literal source that fits the target).
    Lossless,
    /// Target at least as wide as any plausible source on 64-bit
    /// platforms; assumed value-preserving.
    Widening,
    /// Narrowing, float↔int, or signed↔unsigned risk: the cast can
    /// silently change the value.
    Lossy,
}

/// Per-file (or per-crate, summed) cast tally over non-test code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CastCounts {
    /// Provably lossless casts.
    pub lossless: usize,
    /// Widening-assumed casts.
    pub widening: usize,
    /// Potentially-lossy casts (the ratcheted number).
    pub lossy: usize,
    /// Lossy casts suppressed by a `lossy-cast` allow directive.
    pub allowed: usize,
}

impl CastCounts {
    /// Component-wise sum.
    pub fn add(&mut self, other: CastCounts) {
        self.lossless += other.lossless;
        self.widening += other.widening;
        self.lossy += other.lossy;
        self.allowed += other.allowed;
    }
}

/// One potentially-lossy cast site, listed as `path:line: as <type>`
/// when the crate's lossy-cast count rises above its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossySite {
    /// 1-based line number.
    pub line: usize,
    /// Target type of the cast.
    pub target: String,
}

/// Result of scanning one source file for casts.
#[derive(Debug, Clone, Default)]
pub struct CastAnalysis {
    /// Tally over the non-test lines.
    pub counts: CastCounts,
    /// Unsuppressed lossy sites (`counts.lossy` entries).
    pub lossy_sites: Vec<LossySite>,
}

/// Targets that can drop value bits from any 64-bit source.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
/// Targets assumed wide enough on the 64-bit platforms we build for.
const WIDE_TARGETS: &[&str] = &["u64", "i64", "u128", "i128", "usize", "isize", "f64"];

/// Tallies the numeric casts of one scanned non-test file; inline
/// `#[cfg(test)]` items are exempted per line.
pub fn analyze_casts(lines: &[ScannedLine]) -> CastAnalysis {
    let mut analysis = CastAnalysis::default();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (target, class) in casts_in_line(&line.code) {
            match class {
                CastClass::Lossless => analysis.counts.lossless += 1,
                CastClass::Widening => analysis.counts.widening += 1,
                CastClass::Lossy => {
                    if allow_covers(lines, idx, RULE_LOSSY_CAST) {
                        analysis.counts.allowed += 1;
                    } else {
                        analysis.counts.lossy += 1;
                        analysis.lossy_sites.push(LossySite {
                            line: idx + 1,
                            target,
                        });
                    }
                }
            }
        }
    }
    analysis
}

/// Every numeric cast on one comment/string-stripped line, as
/// `(target type, class)`.
fn casts_in_line(code: &str) -> Vec<(String, CastClass)> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < chars.len() {
        // A standalone `as` token.
        if chars[i] == 'a'
            && chars[i + 1] == 's'
            && (i == 0 || !is_ident(chars[i - 1]))
            && chars.get(i + 2).is_none_or(|&c| !is_ident(c))
        {
            let start = i;
            i += 2;
            if let Some((target, next)) = target_type(&chars, i) {
                let class = classify(&chars, start, &target);
                if let Some(class) = class {
                    out.push((target, class));
                }
                i = next;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Reads the cast target after the `as` keyword at `from`; returns the
/// final path segment and the index past the type. `None` when nothing
/// type-like follows (e.g. a blanked string region).
fn target_type(chars: &[char], from: usize) -> Option<(String, usize)> {
    let mut j = from;
    while chars.get(j) == Some(&' ') {
        j += 1;
    }
    let mut ty = String::new();
    while let Some(&c) = chars.get(j) {
        if is_ident(c) || c == ':' {
            ty.push(c);
            j += 1;
        } else {
            break;
        }
    }
    if ty.is_empty() {
        return None;
    }
    let last = ty.rsplit("::").next().unwrap_or(&ty).to_string();
    Some((last, j))
}

/// Classifies the cast ending at the `as` token starting at `as_at`.
/// `None` for non-numeric targets (enum/pointer casts are out of
/// scope for this pass).
fn classify(chars: &[char], as_at: usize, target: &str) -> Option<CastClass> {
    if WIDE_TARGETS.contains(&target) {
        // A float literal into f64 is exact; anything else is the
        // documented widening assumption.
        return Some(CastClass::Widening);
    }
    if !NARROW_TARGETS.contains(&target) {
        return None;
    }
    // Narrow target: exempt integer literals that provably fit.
    if let Some(lit) = previous_token(chars, as_at) {
        if lit.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            if let Some(value) = parse_int_literal(&lit) {
                if fits(value, target) {
                    return Some(CastClass::Lossless);
                }
            }
        }
    }
    Some(CastClass::Lossy)
}

/// The token directly before index `at`, scanning backward over spaces;
/// captures identifier/number characters plus `.` so float literals
/// come through whole.
fn previous_token(chars: &[char], at: usize) -> Option<String> {
    let mut j = at;
    while j > 0 && chars[j - 1] == ' ' {
        j -= 1;
    }
    let end = j;
    while j > 0 && (is_ident(chars[j - 1]) || chars[j - 1] == '.') {
        j -= 1;
    }
    if j == end {
        return None;
    }
    Some(chars[j..end].iter().collect())
}

/// Parses a Rust integer literal (underscores, 0x/0o/0b radixes, type
/// suffix). `None` for floats or malformed text.
fn parse_int_literal(lit: &str) -> Option<u128> {
    let cleaned: String = lit.chars().filter(|&c| c != '_').collect();
    if cleaned.contains('.') {
        return None;
    }
    // Strip a type suffix (u8, i32, usize, ...).
    let digits_end = if let Some(rest) = cleaned.strip_prefix("0x") {
        2 + rest
            .find(|c: char| !c.is_ascii_hexdigit())
            .unwrap_or(rest.len())
    } else if let Some(rest) = cleaned
        .strip_prefix("0o")
        .or_else(|| cleaned.strip_prefix("0b"))
    {
        2 + rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len())
    } else {
        cleaned
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(cleaned.len())
    };
    let (digits, _suffix) = cleaned.split_at(digits_end);
    if let Some(hex) = digits.strip_prefix("0x") {
        u128::from_str_radix(hex, 16).ok()
    } else if let Some(oct) = digits.strip_prefix("0o") {
        u128::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = digits.strip_prefix("0b") {
        u128::from_str_radix(bin, 2).ok()
    } else {
        digits.parse().ok()
    }
}

/// Whether `value` is representable in the narrow `target` type
/// (f32: exactly representable integer range, 2^24).
fn fits(value: u128, target: &str) -> bool {
    let max: u128 = match target {
        "u8" => u8::MAX as u128,
        "u16" => u16::MAX as u128,
        "u32" => u32::MAX as u128,
        "i8" => i8::MAX as u128,
        "i16" => i16::MAX as u128,
        "i32" => i32::MAX as u128,
        "f32" => 1 << 24,
        _ => return false,
    };
    value <= max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn counts(src: &str) -> CastCounts {
        analyze_casts(&scan(src)).counts
    }

    #[test]
    fn narrowing_targets_are_lossy() {
        // usize→u32, u64→u32, i64→i32, float→int, int→f32: each is one
        // lossy site regardless of the (invisible) source type.
        for src in [
            "let a = n.len() as u32;",
            "let b = big as u32;",
            "let c = signed as i32;",
            "let d = ratio as u16;",
            "let e = x as f32;",
        ] {
            assert_eq!(counts(src).lossy, 1, "{src}");
        }
    }

    #[test]
    fn wide_targets_are_widening() {
        let c = counts("let a = x as usize; let b = y as u64; let c = z as f64; let d = w as i64;");
        assert_eq!(c.widening, 4);
        assert_eq!(c.lossy, 0);
    }

    #[test]
    fn fitting_literals_are_lossless() {
        let c = counts("let a = 3 as u8; let b = 0xFFFF as u16; let c = 1_000 as i32;");
        assert_eq!(c.lossless, 3);
        assert_eq!(c.lossy, 0);
        // ...but an overflowing literal is lossy.
        assert_eq!(counts("let a = 300 as u8;").lossy, 1);
    }

    #[test]
    fn allow_directive_excludes_the_site() {
        let src =
            "let a = n as u32; // xtask: allow(lossy-cast) — n < radix^levels ≤ 2^32 by Table 3";
        let c = counts(src);
        assert_eq!(c.lossy, 0);
        assert_eq!(c.allowed, 1);
        // The directive on the preceding comment-only line also covers.
        let src = "// xtask: allow(lossy-cast) — bounded by construction\nlet a = n as u32;";
        assert_eq!(counts(src).lossy, 0);
    }

    #[test]
    fn multi_rule_allow_covers_lossy_cast() {
        let src = "let a = n as u32; // xtask: allow(lossy-cast, hash-collections) — both hold";
        assert_eq!(counts(src).lossy, 0);
    }

    #[test]
    fn test_code_is_exempt() {
        let inline = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let a = n as u32; }\n}";
        assert_eq!(counts(inline).lossy, 0);
    }

    #[test]
    fn strings_comments_and_idents_do_not_fire() {
        assert_eq!(
            counts("let s = \"x as u32\"; // y as u32"),
            CastCounts::default()
        );
        // `alias`/`asym` must not be read as the `as` keyword.
        assert_eq!(
            counts("let alias = basin; fn asym() {}"),
            CastCounts::default()
        );
    }

    #[test]
    fn non_numeric_targets_are_ignored() {
        assert_eq!(
            counts("let p = x as MyType; let q = e as Error;"),
            CastCounts::default()
        );
    }

    #[test]
    fn qualified_paths_classify_by_final_segment() {
        assert_eq!(counts("let a = x as std::primitive::u32;").lossy, 1);
    }

    #[test]
    fn lossy_sites_carry_line_numbers() {
        let a = analyze_casts(&scan("fn f() {\n    let a = n as u32;\n}"));
        assert_eq!(a.lossy_sites.len(), 1);
        assert_eq!(a.lossy_sites[0].line, 2);
        assert_eq!(a.lossy_sites[0].target, "u32");
    }

    #[test]
    fn multiple_casts_on_one_line_all_count() {
        let c = counts("let a = (x as u32, y as usize, 7 as u8);");
        assert_eq!(c.lossy, 1);
        assert_eq!(c.widening, 1);
        assert_eq!(c.lossless, 1);
    }
}
