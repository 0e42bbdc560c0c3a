//! The committed ratchet baseline (`xtask-ratchet.toml`).
//!
//! The baseline is one `crate → key → count` table, written as one
//! `[crate.<name>]` section per crate. A section records the crate's
//! non-test `#[expect]` attributes of clippy's panic-surface lints
//! (`unwrap` / `expect` / `panic`) and lossy-cast lints (`lossy-cast`,
//! see [`crate::rules::RATCHETED_LINTS`]), and its lock-type /
//! atomic-type sync primitives (`sync-lock` / `sync-atomic`, see
//! [`crate::conc`]). [`compare`] fails when any count
//! *rises* above the baseline and notes (without failing) a count that
//! dropped, so the baseline can be tightened with
//! `cargo xtask lint --write-ratchet`. The file is read with xtask's
//! one TOML line reader (`toml.rs`); a key missing from a section
//! counts as 0.

use std::collections::BTreeMap;

use crate::toml::{self, Line};
use crate::workspace::RATCHET_FILE;

/// `crate → key → count`, keyed by the crate's short name.
pub type Table = BTreeMap<String, BTreeMap<String, usize>>;

/// Sites behind a measured count, by `(crate, key)`, as
/// `path:line: ...` strings; a rise of that count lists them.
pub type Sites = BTreeMap<(String, String), Vec<String>>;

const PANIC_HINT: &str = "the panic-surface ratchet only turns downward";
const SYNC_HINT: &str = "new concurrency surface must be deliberate — justify the growth and \
                         re-baseline with `cargo xtask lint --write-ratchet`";

/// Every key of a crate section, in rendering order, with what to do
/// when its count rises. A diagnostic names the count `<key> count`.
pub(crate) const KEYS: &[(&str, &str)] = &[
    ("unwrap", PANIC_HINT),
    ("expect", PANIC_HINT),
    ("panic", PANIC_HINT),
    (
        "lossy-cast",
        "route ids through `rfc_graph::vid` or convert with `try_from`; the ratchet \
         only turns downward",
    ),
    ("sync-lock", SYNC_HINT),
    ("sync-atomic", SYNC_HINT),
];

/// Parses the ratchet file, or names its first malformed line and what
/// is wrong with it.
pub fn parse(text: &str) -> Result<Table, (usize, String)> {
    let mut out = Table::new();
    for (lineno, line) in toml::lines(text) {
        let err = |msg: String| (lineno, msg);
        match line {
            Line::Section(section) => {
                let name = section
                    .strip_prefix("crate.")
                    .ok_or_else(|| err("expected [crate.<name>]".to_string()))?;
                if out.insert(name.to_string(), BTreeMap::new()).is_some() {
                    return Err(err(format!("duplicate section [{section}]")));
                }
            }
            Line::Entry {
                section,
                key,
                value,
            } => {
                let row = section
                    .strip_prefix("crate.")
                    .and_then(|name| out.get_mut(name))
                    .ok_or_else(|| err("key outside a section".to_string()))?;
                if !KEYS.iter().any(|&(k, _)| k == key) {
                    return Err(err(format!("unknown key `{key}` in [{section}]")));
                }
                let n = value
                    .parse()
                    .map_err(|_| err("value is not an integer".to_string()))?;
                row.insert(key.to_string(), n);
            }
            Line::Other => return Err(err("expected `key = value`".to_string())),
        }
    }
    Ok(out)
}

/// Renders a table in the canonical file format: a header, then every
/// crate's section with its keys in order.
pub fn render(table: &Table) -> String {
    let mut out = String::from(
        "# Ratchet baselines, checked by `cargo xtask lint` (DESIGN.md §9).\n\
         #\n\
         # Per crate, over NON-TEST code: unwrap/expect/panic/lossy-cast count\n\
         # the `#[expect]` attributes naming clippy::unwrap_used, expect_used,\n\
         # panic or unreachable, and the three cast lints (DESIGN.md §12);\n\
         # sync-lock/sync-atomic count lock-type and atomic-type mentions\n\
         # (DESIGN.md §14).\n\
         # Each ratchet only turns one way: a count may drop (tighten with\n\
         # `cargo xtask lint --write-ratchet`) but any increase fails.\n",
    );
    for (name, counts) in table {
        out.push_str(&format!("\n[crate.{name}]\n"));
        for &(key, _) in KEYS {
            let n = counts.get(key).copied().unwrap_or(0);
            out.push_str(&format!("{key} = {n}\n"));
        }
    }
    out
}

/// Compares a measured table against the baseline.
///
/// Returns `(failures, improvements)`. Failures are rises (listing the
/// count's `sites`, when given) and bookkeeping errors: a measured
/// crate missing from the baseline, or a baseline crate that is not in
/// the workspace. Improvements are counts now below the baseline,
/// reported as a nudge to re-tighten.
pub fn compare(baseline: &Table, measured: &Table, sites: &Sites) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut improvements = Vec::new();
    for (name, have) in measured {
        let Some(want) = baseline.get(name) else {
            let found: Vec<String> = have.iter().map(|(k, n)| format!("{k} = {n}")).collect();
            failures.push(format!(
                "crate `{name}` is missing from {RATCHET_FILE} (measured {}); \
                 add it with `cargo xtask lint --write-ratchet`",
                found.join(", ")
            ));
            continue;
        };
        for &(key, hint) in KEYS {
            let h = have.get(key).copied().unwrap_or(0);
            let w = want.get(key).copied().unwrap_or(0);
            if h > w {
                let mut msg =
                    format!("crate `{name}`: {key} count rose to {h} (baseline {w}); {hint}");
                if let Some(list) = sites.get(&(name.clone(), key.to_string())) {
                    msg.push_str("; sites:");
                    for site in list {
                        msg.push_str("\n  ");
                        msg.push_str(site);
                    }
                }
                failures.push(msg);
            } else if h < w {
                improvements.push(format!(
                    "crate `{name}`: {key} count is {h}, below baseline {w} — \
                     tighten with `cargo xtask lint --write-ratchet`"
                ));
            }
        }
    }
    for name in baseline.keys() {
        if !measured.contains_key(name) {
            failures.push(format!(
                "{RATCHET_FILE} lists crate `{name}` which is not in the workspace; \
                 remove it with `cargo xtask lint --write-ratchet`"
            ));
        }
    }
    (failures, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|&(k, n)| (k.to_string(), n)).collect()
    }

    #[test]
    fn parse_render_round_trips() {
        let table = Table::from([
            (
                "core".to_string(),
                section(&[
                    ("unwrap", 3),
                    ("expect", 5),
                    ("panic", 1),
                    ("lossy-cast", 7),
                    ("sync-lock", 0),
                    ("sync-atomic", 0),
                ]),
            ),
            (
                "sim".to_string(),
                section(&[
                    ("unwrap", 0),
                    ("expect", 0),
                    ("panic", 0),
                    ("lossy-cast", 0),
                    ("sync-lock", 2),
                    ("sync-atomic", 3),
                ]),
            ),
        ]);
        let parsed = parse(&render(&table)).expect("rendered file must parse");
        assert_eq!(parsed, table);
    }

    #[test]
    fn keys_missing_from_old_files_count_as_zero() {
        let parsed = parse("[crate.a]\nunwrap = 1\nexpect = 2\npanic = 0\n")
            .expect("files without the newer keys must stay parseable");
        let measured = Table::from([(
            "a".to_string(),
            section(&[("unwrap", 1), ("expect", 2), ("lossy-cast", 0)]),
        )]);
        assert_eq!(compare(&parsed, &measured, &Sites::new()), (vec![], vec![]));
        assert!(render(&parsed)
            .contains("[crate.a]\nunwrap = 1\nexpect = 2\npanic = 0\nlossy-cast = 0\n"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("[notcrate.core]\n").is_err());
        assert!(parse("unwrap = 3\n").is_err(), "key before any section");
        assert!(parse("[crate.a]\nunwrap = x\n").is_err());
        assert!(parse("[crate.a]\nwibble = 3\n").is_err());
        assert!(parse("[crate.a]\n[crate.a]\n").is_err(), "duplicate crate");
    }

    #[test]
    fn compare_fails_rises_and_unmatched_crates_and_notes_drops() {
        for &(key, _) in KEYS {
            let base = Table::from([("x".to_string(), section(&[(key, 5)]))]);
            let measured = |n: usize| Table::from([("x".to_string(), section(&[(key, n)]))]);
            let sites = Sites::from([(
                ("x".to_string(), key.to_string()),
                vec!["src/a.rs:3: #[expect(clippy::cast_sign_loss)]".to_string()],
            )]);

            // A rise fails and names the key, the value and the baseline.
            let (failures, improvements) = compare(&base, &measured(6), &sites);
            assert_eq!(failures.len(), 1, "{key}: {failures:?}");
            let f = &failures[0];
            assert!(
                f.contains(key) && f.contains("rose to 6 (baseline 5)"),
                "{f}"
            );
            assert!(
                f.ends_with("sites:\n  src/a.rs:3: #[expect(clippy::cast_sign_loss)]"),
                "{f}"
            );
            assert!(improvements.is_empty());

            // A drop is a note, not a failure.
            let (failures, improvements) = compare(&base, &measured(4), &sites);
            assert!(failures.is_empty(), "{failures:?}");
            assert_eq!(improvements.len(), 1);
            assert!(
                improvements[0].contains(&format!("{key} count is 4, below baseline 5")),
                "{}",
                improvements[0]
            );

            // A baseline crate nothing measured fails.
            let (failures, _) = compare(&base, &Table::new(), &sites);
            assert_eq!(failures.len(), 1);
            assert!(
                failures[0].contains("not in the workspace"),
                "{}",
                failures[0]
            );

            // A measured crate without a baseline fails.
            let (failures, _) = compare(&Table::new(), &measured(0), &sites);
            assert_eq!(failures.len(), 1);
            assert!(failures[0].contains("missing from"), "{}", failures[0]);
        }
    }
}
