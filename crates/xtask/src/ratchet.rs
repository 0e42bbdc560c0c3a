//! The committed ratchet baseline (`xtask-ratchet.toml`).
//!
//! The baseline is one `section → key → count` table. A
//! `[crate.<name>]` section records a crate's non-test panic surface
//! (`unwrap` / `expect` / `panic`), its potentially-lossy `as` casts
//! (`lossy-cast`, see [`crate::casts`]) and its lock-type / atomic-type
//! sync primitives (`sync-lock` / `sync-atomic`, see [`crate::conc`]).
//! A `[scale.<name>]` section records one benchmark scale's routing
//! memory footprint (`routing-bytes-per-terminal`, measured by
//! `engine_baseline` and published in `BENCH_sim.json`; see DESIGN.md
//! §15). [`compare`] fails when any count *rises* above the baseline and
//! notes (without failing) a count that dropped, so the baseline can be
//! tightened with `cargo xtask lint --write-ratchet`. The file is read
//! with a purpose-built parser rather than a TOML dependency; a key
//! missing from a section counts as 0.

use std::collections::BTreeMap;

use crate::casts::CastCounts;
use crate::conc::SyncCounts;
use crate::rules::PanicCounts;
use crate::workspace::RATCHET_FILE;

/// `section → key → count`, with sections named `crate.<name>` or
/// `scale.<name>`.
pub type Table = BTreeMap<String, BTreeMap<String, usize>>;

/// Sites behind a measured count, by `(section, key)`, as
/// `path:line: ...` strings; a rise of that count lists them.
pub type Sites = BTreeMap<(String, String), Vec<String>>;

/// One family of sections (`crate.*` or `scale.*`) and its keys.
struct Family {
    prefix: &'static str,
    /// Completes "xtask-ratchet.toml lists <section> ..." for a
    /// baseline section nothing measured.
    unmeasured: &'static str,
    /// Keys in rendering order.
    keys: &'static [Key],
}

/// One ratcheted key.
struct Key {
    name: &'static str,
    /// How a diagnostic names the count.
    noun: &'static str,
    /// What to do when it rises.
    hint: &'static str,
}

const PANIC_HINT: &str = "the panic-surface ratchet only turns downward";
const SYNC_HINT: &str = "new concurrency surface must be deliberate — justify the growth and \
                         re-baseline with `cargo xtask lint --write-ratchet`";

const FAMILIES: &[Family] = &[
    Family {
        prefix: "crate",
        unmeasured: "which is not in the workspace",
        keys: &[
            Key {
                name: "unwrap",
                noun: "unwrap count",
                hint: PANIC_HINT,
            },
            Key {
                name: "expect",
                noun: "expect count",
                hint: PANIC_HINT,
            },
            Key {
                name: "panic",
                noun: "panic count",
                hint: PANIC_HINT,
            },
            Key {
                name: "lossy-cast",
                noun: "lossy-cast count",
                hint: "convert the new casts to `try_from` or justify them with \
                       `// xtask: allow(lossy-cast) — <invariant>`",
            },
            Key {
                name: "sync-lock",
                noun: "sync-lock count",
                hint: SYNC_HINT,
            },
            Key {
                name: "sync-atomic",
                noun: "sync-atomic count",
                hint: SYNC_HINT,
            },
        ],
    },
    Family {
        prefix: "scale",
        unmeasured: "which BENCH_sim.json does not report",
        keys: &[Key {
            name: "routing-bytes-per-terminal",
            noun: "routing-bytes-per-terminal",
            hint: "the routing-memory ratchet only turns downward — shrink the reach sets or \
                   candidate table, or justify the growth and re-baseline",
        }],
    },
];

/// The family of `section`, with the name after its prefix.
fn family(section: &str) -> Option<(&'static Family, &str)> {
    let (prefix, name) = section.split_once('.')?;
    FAMILIES
        .iter()
        .find(|f| f.prefix == prefix)
        .map(|f| (f, name))
}

/// `crate.sim` → ``crate `sim` ``, for diagnostics.
fn label(section: &str) -> String {
    match section.split_once('.') {
        Some((prefix, name)) => format!("{prefix} `{name}`"),
        None => format!("`{section}`"),
    }
}

/// The measured table: one `crate.<name>` section per crate of the
/// three crate tallies (which cover the same crates) and one
/// `scale.<name>` section per benchmark scale.
pub fn measure(
    panic: &BTreeMap<String, PanicCounts>,
    casts: &BTreeMap<String, CastCounts>,
    sync: &BTreeMap<String, SyncCounts>,
    scales: &BTreeMap<String, usize>,
) -> Table {
    let mut table = Table::new();
    for (name, p) in panic {
        let lossy = casts.get(name).map_or(0, |c| c.lossy);
        let s = sync.get(name).copied().unwrap_or_default();
        let counts = [
            ("unwrap", p.unwrap),
            ("expect", p.expect),
            ("panic", p.panic),
            ("lossy-cast", lossy),
            ("sync-lock", s.lock),
            ("sync-atomic", s.atomic),
        ];
        table.insert(
            format!("crate.{name}"),
            counts.iter().map(|&(k, n)| (k.to_string(), n)).collect(),
        );
    }
    for (name, &bytes) in scales {
        table.insert(
            format!("scale.{name}"),
            BTreeMap::from([("routing-bytes-per-terminal".to_string(), bytes)]),
        );
    }
    table
}

/// Parses the ratchet file, or describes its first malformed line.
pub fn parse(text: &str) -> Result<Table, String> {
    let mut out = Table::new();
    let mut current: Option<(&Family, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let (fam, _) = family(section).ok_or_else(|| {
                format!("line {lineno}: expected [crate.<name>] or [scale.<name>]")
            })?;
            if out.insert(section.to_string(), BTreeMap::new()).is_some() {
                return Err(format!("line {lineno}: duplicate section [{section}]"));
            }
            current = Some((fam, section.to_string()));
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let (fam, section) = current
            .as_ref()
            .ok_or_else(|| format!("line {lineno}: key outside a section"))?;
        let key = key.trim();
        if !fam.keys.iter().any(|k| k.name == key) {
            return Err(format!("line {lineno}: unknown key `{key}` in [{section}]"));
        }
        let n: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("line {lineno}: value is not an integer"))?;
        out.entry(section.clone())
            .or_default()
            .insert(key.to_string(), n);
    }
    Ok(out)
}

/// Renders a table in the canonical file format: a header, then every
/// section with its family's keys in order.
pub fn render(table: &Table) -> String {
    let mut out = String::from(
        "# Ratchet baselines, checked by `cargo xtask lint` (DESIGN.md §9).\n\
         #\n\
         # Per crate, over NON-TEST code: unwrap/expect/panic count `.unwrap()`,\n\
         # `.expect(` and panic!-family macros; lossy-cast counts\n\
         # potentially-lossy `as` casts (DESIGN.md §12); sync-lock/sync-atomic\n\
         # count lock-type and atomic-type mentions (DESIGN.md §14). Per scale,\n\
         # routing-bytes-per-terminal is the routing-state footprint from\n\
         # BENCH_sim.json (DESIGN.md §15).\n\
         # Each ratchet only turns one way: a count may drop (tighten with\n\
         # `cargo xtask lint --write-ratchet`) but any increase fails.\n",
    );
    for (section, counts) in table {
        out.push_str(&format!("\n[{section}]\n"));
        for key in family(section).map_or(&[][..], |(f, _)| f.keys) {
            let n = counts.get(key.name).copied().unwrap_or(0);
            out.push_str(&format!("{} = {n}\n", key.name));
        }
    }
    out
}

/// Compares a measured table against the baseline.
///
/// Returns `(failures, improvements)`. Failures are rises (listing the
/// count's `sites`, when given) and bookkeeping errors: a measured
/// section missing from the baseline, or a baseline section nothing
/// measured. Improvements are counts now below the baseline, reported
/// as a nudge to re-tighten.
pub fn compare(baseline: &Table, measured: &Table, sites: &Sites) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut improvements = Vec::new();
    for (section, have) in measured {
        let name = label(section);
        let Some(want) = baseline.get(section) else {
            let found: Vec<String> = have.iter().map(|(k, n)| format!("{k} = {n}")).collect();
            failures.push(format!(
                "{name} is missing from {RATCHET_FILE} (measured {}); \
                 add it with `cargo xtask lint --write-ratchet`",
                found.join(", ")
            ));
            continue;
        };
        for key in family(section).map_or(&[][..], |(f, _)| f.keys) {
            let h = have.get(key.name).copied().unwrap_or(0);
            let w = want.get(key.name).copied().unwrap_or(0);
            if h > w {
                let mut msg = format!(
                    "{name}: {} rose to {h} (baseline {w}); {}",
                    key.noun, key.hint
                );
                if let Some(list) = sites.get(&(section.clone(), key.name.to_string())) {
                    msg.push_str("; unsuppressed sites:");
                    for site in list {
                        msg.push_str("\n  ");
                        msg.push_str(site);
                    }
                }
                failures.push(msg);
            } else if h < w {
                improvements.push(format!(
                    "{name}: {} is {h}, below baseline {w} — \
                     tighten with `cargo xtask lint --write-ratchet`",
                    key.noun
                ));
            }
        }
    }
    for section in baseline.keys() {
        if !measured.contains_key(section) {
            let unmeasured =
                family(section).map_or("which nothing measured", |(f, _)| f.unmeasured);
            failures.push(format!(
                "{RATCHET_FILE} lists {} {unmeasured}; \
                 remove it with `cargo xtask lint --write-ratchet`",
                label(section)
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
        let panic = BTreeMap::from([
            (
                "core".to_string(),
                PanicCounts {
                    unwrap: 3,
                    expect: 5,
                    panic: 1,
                },
            ),
            ("sim".to_string(), PanicCounts::default()),
        ]);
        let casts = BTreeMap::from([(
            "core".to_string(),
            CastCounts {
                lossy: 7,
                ..CastCounts::default()
            },
        )]);
        let sync = BTreeMap::from([("sim".to_string(), SyncCounts { lock: 2, atomic: 3 })]);
        let scales = BTreeMap::from([("small".to_string(), 135), ("large".to_string(), 52)]);
        let table = measure(&panic, &casts, &sync, &scales);
        let parsed = parse(&render(&table)).expect("rendered file must parse");
        assert_eq!(parsed, table);
        assert_eq!(
            parsed["crate.core"],
            section(&[
                ("unwrap", 3),
                ("expect", 5),
                ("panic", 1),
                ("lossy-cast", 7),
                ("sync-lock", 0),
                ("sync-atomic", 0),
            ])
        );
        assert_eq!(parsed["crate.sim"]["sync-atomic"], 3);
        assert_eq!(parsed["scale.small"]["routing-bytes-per-terminal"], 135);
    }

    #[test]
    fn keys_missing_from_old_files_count_as_zero() {
        let parsed = parse("[crate.a]\nunwrap = 1\nexpect = 2\npanic = 0\n")
            .expect("files without the newer keys must stay parseable");
        let measured = Table::from([(
            "crate.a".to_string(),
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
        assert!(
            parse("[scale.s]\nunwrap = 3\n").is_err(),
            "crate key in a scale"
        );
        assert!(parse("[scale.s]\nrouting-bytes-per-terminal = x\n").is_err());
        assert!(parse("[scale.s]\n[scale.s]\n").is_err(), "duplicate scale");
    }

    #[test]
    fn compare_fails_rises_and_unmatched_sections_and_notes_drops() {
        for fam in FAMILIES {
            for key in fam.keys {
                let sec = format!("{}.x", fam.prefix);
                let base = Table::from([(sec.clone(), section(&[(key.name, 5)]))]);
                let measured = |n: usize| Table::from([(sec.clone(), section(&[(key.name, n)]))]);
                let sites = Sites::from([(
                    (sec.clone(), key.name.to_string()),
                    vec!["src/a.rs:3: as u32".to_string()],
                )]);

                // A rise fails and names the key, the value and the baseline.
                let (failures, improvements) = compare(&base, &measured(6), &sites);
                assert_eq!(failures.len(), 1, "{}: {failures:?}", key.name);
                let f = &failures[0];
                assert!(
                    f.contains(key.name) && f.contains("rose to 6 (baseline 5)"),
                    "{f}"
                );
                assert!(f.ends_with("sites:\n  src/a.rs:3: as u32"), "{f}");
                assert!(improvements.is_empty());

                // A drop is a note, not a failure.
                let (failures, improvements) = compare(&base, &measured(4), &sites);
                assert!(failures.is_empty(), "{failures:?}");
                assert_eq!(improvements.len(), 1);
                assert!(
                    improvements[0].contains(&format!("{} is 4, below baseline 5", key.noun)),
                    "{}",
                    improvements[0]
                );

                // A baseline section nothing measured fails.
                let (failures, _) = compare(&base, &Table::new(), &sites);
                assert_eq!(failures.len(), 1);
                assert!(failures[0].contains(fam.unmeasured), "{}", failures[0]);

                // A measured section without a baseline fails.
                let (failures, _) = compare(&Table::new(), &measured(0), &sites);
                assert_eq!(failures.len(), 1);
                assert!(failures[0].contains("missing from"), "{}", failures[0]);
            }
        }
    }
}
