//! Workspace discovery, per-crate checks, and the lint driver.
//!
//! The walker is self-contained (no `cargo metadata`, no registry): a
//! crate is any directory directly under `crates/` (or `crates/compat/`)
//! with a `Cargo.toml`, plus the root suite package. Files under
//! `tests/`, `benches/`, `examples/` or `fixtures/` are test-only by
//! path and exempt from every rule, so the driver never reads them.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::conc;
use crate::layers::{self, LayerCrate};
use crate::ratchet::{self, Sites};
use crate::rules::{analyze_lines, Violation};
use crate::scan::scan;
use crate::toml::{self, Line};

/// File name of the committed ratchet baseline, at the repo root.
pub const RATCHET_FILE: &str = "xtask-ratchet.toml";

/// One discovered workspace crate.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Short name used in diagnostics and the ratchet file (directory
    /// name; `compat-rand` for shims, `suite` for the root package).
    pub name: String,
    /// Crate directory.
    pub root: PathBuf,
}

/// Discovers every workspace crate under `root`.
pub fn discover(root: &Path) -> Result<Vec<CrateInfo>, String> {
    let mut crates = Vec::new();
    let crates_dir = root.join("crates");
    let entries = read_dir_sorted(&crates_dir)?;
    for dir in entries {
        if !dir.is_dir() {
            continue;
        }
        let dir_name = file_name(&dir);
        if dir_name == "compat" {
            for shim in read_dir_sorted(&dir)? {
                if shim.join("Cargo.toml").is_file() {
                    crates.push(CrateInfo {
                        name: format!("compat-{}", file_name(&shim)),
                        root: shim,
                    });
                }
            }
        } else if dir.join("Cargo.toml").is_file() {
            crates.push(CrateInfo {
                name: dir_name,
                root: dir,
            });
        }
    }
    // The root package (integration suite).
    crates.push(CrateInfo {
        name: "suite".to_string(),
        root: root.to_path_buf(),
    });
    Ok(crates)
}

/// The non-test `.rs` files of a crate, sorted: everything under its
/// `src/` that is not test-only by path.
fn source_files(krate: &CrateInfo) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let src = krate.root.join("src");
    if src.is_dir() {
        walk(&src, &mut files)?;
    }
    files.retain(|p| !is_test_path(p.strip_prefix(&krate.root).unwrap_or(p)));
    files.sort();
    Ok(files)
}

/// Whether a crate-relative path is test-only: any component named
/// `tests`, `benches`, `examples` or `fixtures`.
fn is_test_path(rel: &Path) -> bool {
    rel.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests" | "benches" | "examples" | "fixtures")
        )
    })
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            if file_name(&entry) != "target" {
                walk(&entry, out)?;
            }
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = rd
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| !file_name(p).starts_with('.'))
        .collect();
    entries.sort();
    Ok(entries)
}

fn file_name(p: &Path) -> String {
    p.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Checks that a crate manifest inherits the workspace lint table
/// (`[lints] workspace = true`), which forbids `unsafe_code` and sets
/// every clippy lint the workspace relies on.
pub fn check_manifest_lints(manifest: &str) -> bool {
    toml::lines(manifest).any(|(_, line)| {
        line == Line::Entry {
            section: "lints",
            key: "workspace",
            value: "true",
        }
    })
}

/// Everything `cargo xtask lint` found.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Hard failures: `(display path, violation)`, sorted by path and
    /// line.
    pub violations: Vec<(String, Violation)>,
    /// The measured ratchet table: per crate, the non-test `#[expect]`
    /// counts and sync-primitive tallies. Compared against, or written
    /// as, `xtask-ratchet.toml`.
    pub ratchet: ratchet::Table,
    /// Counts now below the committed baseline (nudges, not failures).
    pub improvements: Vec<String>,
}

impl LintReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every check over the workspace at `root` in one pass: each
/// non-test file is read and scanned once, and its lines feed the
/// `#[expect]` ledger, the expect-message and hot-loop rules, the sync
/// tallies, and the atomic-ordering and lockstep checks. The manifests
/// read for the lint-inheritance check feed the layering check; the
/// measured ratchet table is compared against `xtask-ratchet.toml`.
///
/// With `write_ratchet`, the measured table replaces
/// `xtask-ratchet.toml` instead of being compared against it.
pub fn run_lint(root: &Path, write_ratchet: bool) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let crates = discover(root)?;
    let mut layer_crates = Vec::new();
    let mut ws_paths = BTreeMap::new();
    let mut sites = Sites::new();
    for krate in &crates {
        // Workspace lint inheritance, and the dependency edges the
        // layering check reads.
        let manifest_path = krate.root.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        if !check_manifest_lints(&manifest) {
            report.violations.push((
                rel_display(root, &manifest_path),
                Violation::new(
                    "lint-gates",
                    1,
                    "manifest does not inherit [workspace.lints] \
                     (add `[lints]\\nworkspace = true`)",
                ),
            ));
        }
        let dir = krate.root.strip_prefix(root).unwrap_or(&krate.root);
        // The root manifest also holds `[workspace.dependencies]`.
        if dir.as_os_str().is_empty() {
            ws_paths = layers::workspace_dep_paths(&manifest);
        }
        layer_crates.push(LayerCrate {
            name: krate.name.clone(),
            dir: dir.to_path_buf(),
            deps: layers::manifest_deps(&manifest),
        });

        // Every line-level rule and tally, over one scan per file.
        let compat = krate.name.starts_with("compat-");
        let mut row: BTreeMap<String, usize> = ratchet::KEYS
            .iter()
            .map(|&(key, _)| (key.to_string(), 0))
            .collect();
        for path in source_files(krate)? {
            let src = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let lines = scan(&src);
            let display = rel_display(root, &path);
            let analysis = analyze_lines(&lines);
            for site in analysis.expects {
                *row.entry(site.key.to_string()).or_default() += 1;
                sites
                    .entry((krate.name.clone(), site.key.to_string()))
                    .or_default()
                    .push(format!(
                        "{display}:{}: #[expect({})]",
                        site.line, site.lints
                    ));
            }
            for (key, n) in conc::sync_counts(&lines) {
                *row.entry(key.to_string()).or_default() += n;
            }
            let mut file_violations = analysis.violations;
            if !compat {
                file_violations.extend(conc::conc_violations(&lines));
            }
            for v in file_violations {
                report.violations.push((display.clone(), v));
            }
        }
        report.ratchet.insert(krate.name.clone(), row);
    }

    match layers::read_layers(root) {
        Ok(config) => report
            .violations
            .extend(layers::check(&config, &layer_crates, &ws_paths)),
        Err(v) => report.violations.push(v),
    }

    if write_ratchet {
        let path = root.join(RATCHET_FILE);
        fs::write(&path, ratchet::render(&report.ratchet))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        match toml::read_committed(
            root,
            RATCHET_FILE,
            "ratchet",
            "create it with `cargo xtask lint --write-ratchet`",
            ratchet::parse,
        ) {
            Ok(baseline) => {
                let (failures, improvements) = ratchet::compare(&baseline, &report.ratchet, &sites);
                report.improvements = improvements;
                report
                    .violations
                    .extend(failures.into_iter().map(|message| {
                        let v = Violation::new("ratchet", 1, message);
                        (RATCHET_FILE.to_string(), v)
                    }));
            }
            Err(v) => report.violations.push(v),
        }
    }

    report
        .violations
        .sort_by(|a, b| (&a.0, a.1.line).cmp(&(&b.0, b.1.line)));
    Ok(report)
}

fn rel_display(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_files_are_exempt_wholesale() {
        for rel in [
            "tests/a.rs",
            "src/fixtures/b.rs",
            "benches/c.rs",
            "examples/d.rs",
        ] {
            assert!(is_test_path(Path::new(rel)), "{rel}");
        }
        assert!(!is_test_path(Path::new("src/tester.rs")));
    }

    #[test]
    fn manifest_check_requires_lints_inheritance() {
        assert!(check_manifest_lints(
            "[package]\nname = \"x\"\n[lints]\nworkspace = true\n"
        ));
        assert!(!check_manifest_lints("[package]\nname = \"x\"\n"));
        // `workspace = true` under a different section does not count.
        assert!(!check_manifest_lints("[dependencies]\nworkspace = true\n"));
    }
}
