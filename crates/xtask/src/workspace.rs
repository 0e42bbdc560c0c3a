//! Workspace discovery, per-crate checks, and the lint driver.
//!
//! The walker is self-contained (no `cargo metadata`, no registry): a
//! crate is any directory directly under `crates/` (or `crates/compat/`)
//! with a `Cargo.toml`, plus the root suite package. Files under
//! `tests/`, `benches/`, `examples/` or `fixtures/` are test-only by
//! path and exempt from every rule.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::casts::{analyze_casts, CastCounts};
use crate::conc::{self, SyncCounts};
use crate::ratchet;
use crate::rules::{analyze_source, PanicCounts, Violation};
use crate::scan::scan;

/// Short names of the crates whose output must be byte-identical for a
/// given seed; the determinism rules apply only to these.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "graph", "galois", "parallel", "topology", "routing", "sim", "core",
];

/// File name of the committed panic-surface baseline, at the repo root.
pub const RATCHET_FILE: &str = "xtask-ratchet.toml";

/// File name of the committed engine benchmark, at the repo root. Its
/// per-scale `routing_bytes_per_terminal` entries feed the
/// routing-memory ratchet (`[scale.*]` in [`RATCHET_FILE`]).
pub const BENCH_FILE: &str = "BENCH_sim.json";

/// One discovered workspace crate.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Short name used in diagnostics and the ratchet file (directory
    /// name; `compat-rand` for shims, `suite` for the root package).
    pub name: String,
    /// Crate directory.
    pub root: PathBuf,
    /// The crate's library root, whose header block is checked.
    pub lib_path: PathBuf,
    /// Whether the determinism rules apply.
    pub deterministic: bool,
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
                    crates.push(crate_info(format!("compat-{}", file_name(&shim)), shim)?);
                }
            }
        } else if dir.join("Cargo.toml").is_file() {
            crates.push(crate_info(dir_name, dir)?);
        }
    }
    // The root package (integration suite).
    crates.push(crate_info("suite".to_string(), root.to_path_buf())?);
    Ok(crates)
}

fn crate_info(name: String, dir: PathBuf) -> Result<CrateInfo, String> {
    let manifest = fs::read_to_string(dir.join("Cargo.toml"))
        .map_err(|e| format!("{}: {e}", dir.join("Cargo.toml").display()))?;
    // Honor an explicit `[lib] path = "..."`; default to src/lib.rs.
    let mut in_lib = false;
    let mut lib_rel = "src/lib.rs".to_string();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lib = line == "[lib]";
        } else if in_lib {
            if let Some(p) = line
                .strip_prefix("path = \"")
                .and_then(|r| r.strip_suffix('"'))
            {
                lib_rel = p.to_string();
            }
        }
    }
    let deterministic = DETERMINISTIC_CRATES.contains(&name.as_str());
    Ok(CrateInfo {
        lib_path: dir.join(lib_rel),
        name,
        root: dir,
        deterministic,
    })
}

/// All `.rs` files of a crate as `(path, is_test_file)`, sorted.
pub fn rust_files(krate: &CrateInfo) -> Result<Vec<(PathBuf, bool)>, String> {
    let mut files = Vec::new();
    // The root package shares its directory with the whole workspace:
    // walk only its own source trees.
    let subdirs: &[&str] = if krate.name == "suite" {
        &["src", "tests", "examples"]
    } else {
        &["src", "tests", "benches", "examples"]
    };
    for sub in subdirs {
        let dir = krate.root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    let files = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(&krate.root).unwrap_or(&p);
            let test_file = rel.components().any(|c| {
                matches!(
                    c.as_os_str().to_str(),
                    Some("tests" | "benches" | "examples" | "fixtures")
                )
            });
            (p.clone(), test_file)
        })
        .collect();
    Ok(files)
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

/// The standard lint-gate header every library root must keep.
const REQUIRED_GATES: &[&[&str]] = &[
    &["#![forbid(unsafe_code)]"],
    &["#![warn(missing_docs)]", "#![deny(missing_docs)]"],
];

/// Checks the `#![forbid(unsafe_code)]` / `#![warn(missing_docs)]`
/// header block of one library root.
pub fn check_lib_header(source: &str) -> Vec<String> {
    let mut missing = Vec::new();
    for alternatives in REQUIRED_GATES {
        if !alternatives.iter().any(|gate| source.contains(gate)) {
            missing.push(format!("missing lint gate {}", alternatives[0]));
        }
    }
    missing
}

/// Checks that a crate manifest inherits the workspace lint table
/// (`[lints] workspace = true`).
pub fn check_manifest_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// Everything `cargo xtask lint` found.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Hard failures: `(display path, violation)`.
    pub violations: Vec<(String, Violation)>,
    /// Measured non-test panic-surface per crate.
    pub counts: BTreeMap<String, PanicCounts>,
    /// Measured non-test cast tallies per crate (the lossy portion is
    /// ratcheted by `cargo xtask audit`; measured here so
    /// `--write-ratchet` renders the complete baseline in one pass).
    pub cast_counts: BTreeMap<String, CastCounts>,
    /// Measured non-test sync-primitive tallies per crate (ratcheted by
    /// `cargo xtask conc`; measured here for the same reason).
    pub sync_counts: BTreeMap<String, SyncCounts>,
    /// Per-scale `routing_bytes_per_terminal` read from the committed
    /// `BENCH_sim.json` (empty when the tree has no benchmark file, as
    /// in fixture workspaces). Ratcheted against the `[scale.*]`
    /// sections of `xtask-ratchet.toml`.
    pub scale_bytes: BTreeMap<String, usize>,
    /// Counts now below the committed baseline (nudges, not failures).
    pub improvements: Vec<String>,
}

impl LintReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every check over the workspace at `root`.
///
/// With `write_ratchet`, the measured counts replace
/// `xtask-ratchet.toml` instead of being compared against it.
pub fn run_lint(root: &Path, write_ratchet: bool) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let crates = discover(root)?;
    for krate in &crates {
        // Lint-gate header block.
        let lib_src = fs::read_to_string(&krate.lib_path)
            .map_err(|e| format!("{}: {e}", krate.lib_path.display()))?;
        let lib_display = rel_display(root, &krate.lib_path);
        for miss in check_lib_header(&lib_src) {
            report.violations.push((
                lib_display.clone(),
                Violation {
                    rule: "lint-gates".to_string(),
                    line: 1,
                    message: miss,
                },
            ));
        }

        // Workspace lint inheritance.
        let manifest_path = krate.root.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        if !check_manifest_lints(&manifest) {
            report.violations.push((
                rel_display(root, &manifest_path),
                Violation {
                    rule: "lint-gates".to_string(),
                    line: 1,
                    message: "manifest does not inherit [workspace.lints] \
                              (add `[lints]\\nworkspace = true`)"
                        .to_string(),
                },
            ));
        }

        // Per-file rules, panic counting, and cast/sync tallies.
        let mut crate_counts = PanicCounts::default();
        let mut crate_casts = CastCounts::default();
        let mut crate_sync = SyncCounts::default();
        for (path, test_file) in rust_files(krate)? {
            let src = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let analysis = analyze_source(&src, krate.deterministic, test_file);
            crate_counts.add(analysis.counts);
            crate_casts.add(analyze_casts(&src, test_file).counts);
            if !test_file {
                crate_sync.add(conc::sync_counts(&scan(&src)));
            }
            let display = rel_display(root, &path);
            for v in analysis.violations {
                report.violations.push((display.clone(), v));
            }
        }
        report.counts.insert(krate.name.clone(), crate_counts);
        report.cast_counts.insert(krate.name.clone(), crate_casts);
        report.sync_counts.insert(krate.name.clone(), crate_sync);
    }

    // Panic-surface and routing-memory ratchets.
    report.scale_bytes = bench_scale_bytes(root)?;
    let ratchet_path = root.join(RATCHET_FILE);
    if write_ratchet {
        fs::write(
            &ratchet_path,
            ratchet::render(
                &report.counts,
                &report.cast_counts,
                &report.sync_counts,
                &report.scale_bytes,
            ),
        )
        .map_err(|e| format!("{}: {e}", ratchet_path.display()))?;
    } else {
        match fs::read_to_string(&ratchet_path) {
            Ok(text) => {
                let baseline = ratchet::parse(&text)?;
                let (mut failures, mut improvements) = ratchet::compare(&baseline, &report.counts);
                let scale_baseline = ratchet::parse_scales(&text)?;
                let (scale_failures, scale_improvements) =
                    ratchet::compare_scales(&scale_baseline, &report.scale_bytes);
                failures.extend(scale_failures);
                improvements.extend(scale_improvements);
                for f in failures {
                    report.violations.push((
                        RATCHET_FILE.to_string(),
                        Violation {
                            rule: "ratchet".to_string(),
                            line: 1,
                            message: f,
                        },
                    ));
                }
                report.improvements = improvements;
            }
            Err(e) => {
                report.violations.push((
                    RATCHET_FILE.to_string(),
                    Violation {
                        rule: "ratchet".to_string(),
                        line: 1,
                        message: format!(
                            "cannot read the panic-surface baseline: {e}; \
                             create it with `cargo xtask lint --write-ratchet`"
                        ),
                    },
                ));
            }
        }
    }

    report
        .violations
        .sort_by(|a, b| (&a.0, a.1.line).cmp(&(&b.0, b.1.line)));
    Ok(report)
}

/// Reads the per-scale `routing_bytes_per_terminal` values out of the
/// committed [`BENCH_FILE`], keyed by scale name. A missing file yields
/// an empty map (fixture workspaces carry no benchmark); an unreadable
/// or structurally surprising file is an error, because a silently
/// skipped ratchet is worse than a loud one.
///
/// Line-based on the benchmark's fixed rendering (one key per line),
/// like every other parser in this crate: the scale name is the last
/// `"name": {` object-open seen before the key line.
pub fn bench_scale_bytes(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let path = root.join(BENCH_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut scales = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(name) = line
            .strip_suffix('{')
            .and_then(|l| l.trim_end().strip_suffix(':'))
        {
            current = name
                .trim()
                .strip_prefix('"')
                .and_then(|n| n.strip_suffix('"'))
                .map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("\"routing_bytes_per_terminal\":") {
            let scale = current.clone().ok_or_else(|| {
                format!("{BENCH_FILE}: routing_bytes_per_terminal outside a scale object")
            })?;
            let bytes: usize = rest
                .trim()
                .trim_end_matches(',')
                .parse()
                .map_err(|e| format!("{BENCH_FILE}: scale `{scale}`: {e}"))?;
            if scales.insert(scale.clone(), bytes).is_some() {
                return Err(format!(
                    "{BENCH_FILE}: duplicate routing_bytes_per_terminal for scale `{scale}`"
                ));
            }
        }
    }
    Ok(scales)
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
    fn header_check_accepts_warn_or_deny_docs() {
        let ok_warn = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        let ok_deny = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";
        assert!(check_lib_header(ok_warn).is_empty());
        assert!(check_lib_header(ok_deny).is_empty());
        let missing = check_lib_header("#![forbid(unsafe_code)]\n");
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("missing_docs"));
        assert_eq!(check_lib_header("").len(), 2);
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
