//! The one reader of the TOML subset xtask's inputs are written in:
//! `xtask-layers.toml`, `xtask-ratchet.toml` and the workspace's
//! `Cargo.toml` manifests.
//!
//! A line is blank, a `#` comment, a `[section]` header or a
//! `key = value` entry. Values stay raw, so each caller gives them its
//! own meaning; any other line (a continuation of a multi-line array,
//! or a malformed line) is [`Line::Other`], which the committed-file
//! parsers reject and the manifest readers skip. Registry-free: no TOML
//! dependency.

use std::fs;
use std::path::Path;

use crate::rules::Violation;

/// One line that is neither blank nor a comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Line<'a> {
    /// A `[section]` header, brackets stripped.
    Section(&'a str),
    /// A `key = value` entry, both sides trimmed, under the current
    /// section (`""` before the first header).
    Entry {
        section: &'a str,
        key: &'a str,
        value: &'a str,
    },
    /// Anything else.
    Other,
}

/// The non-blank, non-comment lines of `text`, each with its 1-based
/// line number.
pub(crate) fn lines(text: &str) -> impl Iterator<Item = (usize, Line<'_>)> {
    let mut section = "";
    text.lines().enumerate().filter_map(move |(idx, raw)| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let item = if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header;
            Line::Section(header)
        } else if let Some((key, value)) = split_entry(line) {
            Line::Entry {
                section,
                key,
                value,
            }
        } else {
            Line::Other
        };
        Some((idx + 1, item))
    })
}

fn split_entry(s: &str) -> Option<(&str, &str)> {
    let (key, value) = s.split_once('=')?;
    Some((key.trim(), value.trim()))
}

/// The raw value of `key` in the inline table `value`
/// (`{ path = "../graph", workspace = true }`).
pub(crate) fn inline_value<'a>(value: &'a str, key: &str) -> Option<&'a str> {
    value
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .filter_map(split_entry)
        .find_map(|(k, v)| (k == key).then_some(v))
}

/// The contents of a quoted string value.
pub(crate) fn unquote(value: &str) -> Option<&str> {
    value.strip_prefix('"')?.strip_suffix('"')
}

/// Reads the committed file `name` at `root` with `parse`. It fails
/// closed: a missing file is a `rule` violation at line 1 (`hint` says
/// what to do), and a malformed one is a violation at the line `parse`
/// names.
pub(crate) fn read_committed<T>(
    root: &Path,
    name: &str,
    rule: &str,
    hint: &str,
    parse: impl Fn(&str) -> Result<T, (usize, String)>,
) -> Result<T, (String, Violation)> {
    let (line, message) = match fs::read_to_string(root.join(name)) {
        Ok(text) => match parse(&text) {
            Ok(parsed) => return Ok(parsed),
            Err((line, e)) => (line, format!("malformed {name}: {e}")),
        },
        Err(e) => (1, format!("cannot read {name}: {e}; {hint}")),
    };
    Err((name.to_string(), Violation::new(rule, line, message)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_track_sections_and_skip_comments() {
        let text = "# head\nfree = 1\n\n[a.b]\nk = \"v\" \n  [[bin]]\n[\n";
        let got: Vec<_> = lines(text).collect();
        assert_eq!(
            got,
            vec![
                (
                    2,
                    Line::Entry {
                        section: "",
                        key: "free",
                        value: "1"
                    }
                ),
                (4, Line::Section("a.b")),
                (
                    5,
                    Line::Entry {
                        section: "a.b",
                        key: "k",
                        value: "\"v\""
                    }
                ),
                (6, Line::Section("[bin]")),
                (7, Line::Other),
            ]
        );
    }

    #[test]
    fn inline_values_and_quotes() {
        let dep = "{ path = \"../graph\", features = [\"a\", \"b\"], workspace = true }";
        assert_eq!(
            inline_value(dep, "path").and_then(unquote),
            Some("../graph")
        );
        assert_eq!(inline_value(dep, "workspace"), Some("true"));
        assert_eq!(inline_value("\"1.0\"", "path"), None);
        assert_eq!(unquote("bare"), None);
    }
}
