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

use crate::casts::{analyze_casts, CastCounts};
use crate::conc::{self, SyncCounts};
use crate::layers::{self, LayerCrate};
use crate::ratchet::{self, Sites};
use crate::rules::{analyze_lines, PanicCounts, Violation};
use crate::scan::scan;

/// Short names of the crates whose output must be byte-identical for a
/// given seed; the determinism rules apply only to these.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "graph", "galois", "parallel", "topology", "routing", "sim", "core",
];

/// File name of the committed ratchet baseline, at the repo root.
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
    /// Hard failures: `(display path, violation)`, sorted by path and
    /// line.
    pub violations: Vec<(String, Violation)>,
    /// Measured non-test panic surface per crate.
    pub counts: BTreeMap<String, PanicCounts>,
    /// Measured non-test cast tallies per crate.
    pub cast_counts: BTreeMap<String, CastCounts>,
    /// Measured non-test sync-primitive tallies per crate.
    pub sync_counts: BTreeMap<String, SyncCounts>,
    /// The measured ratchet table: the three crate tallies plus the
    /// per-scale `routing_bytes_per_terminal` of the committed
    /// `BENCH_sim.json` (no scales when the tree has no benchmark file,
    /// as in fixture workspaces). Compared against, or written as,
    /// `xtask-ratchet.toml`.
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
/// determinism and panic rules, the cast and sync tallies, and the
/// atomic-ordering and lockstep checks. The manifests read for the
/// lint gates feed the layering check; the measured ratchet table is
/// compared against `xtask-ratchet.toml`.
///
/// With `write_ratchet`, the measured table replaces
/// `xtask-ratchet.toml` instead of being compared against it.
pub fn run_lint(root: &Path, write_ratchet: bool) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let crates = discover(root)?;
    let allowlist = conc::read_allowlist(root).unwrap_or_else(|v| {
        report.violations.push(v);
        Vec::new()
    });
    let mut matched = vec![false; allowlist.len()];
    let mut layer_crates = Vec::new();
    let mut ws_paths = BTreeMap::new();
    let mut sites = Sites::new();
    for krate in &crates {
        // Lint-gate header block.
        let lib_src = fs::read_to_string(&krate.lib_path)
            .map_err(|e| format!("{}: {e}", krate.lib_path.display()))?;
        let lib_display = rel_display(root, &krate.lib_path);
        for miss in check_lib_header(&lib_src) {
            report
                .violations
                .push((lib_display.clone(), gate_violation(miss)));
        }

        // Workspace lint inheritance, and the dependency edges the
        // layering check reads.
        let manifest_path = krate.root.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        if !check_manifest_lints(&manifest) {
            report.violations.push((
                rel_display(root, &manifest_path),
                gate_violation(
                    "manifest does not inherit [workspace.lints] \
                     (add `[lints]\\nworkspace = true`)"
                        .to_string(),
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
        let mut crate_counts = PanicCounts::default();
        let mut crate_casts = CastCounts::default();
        let mut crate_sync = SyncCounts::default();
        let mut lossy_sites = Vec::new();
        for path in source_files(krate)? {
            let src = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let lines = scan(&src);
            let display = rel_display(root, &path);
            let analysis = analyze_lines(&lines, krate.deterministic);
            crate_counts.add(analysis.counts);
            let casts = analyze_casts(&lines);
            crate_casts.add(casts.counts);
            for site in casts.lossy_sites {
                lossy_sites.push(format!("{display}:{}: as {}", site.line, site.target));
            }
            crate_sync.add(conc::sync_counts(&lines));
            let mut file_violations = analysis.violations;
            if !compat {
                file_violations.extend(conc::conc_violations(
                    &lines,
                    &display,
                    &allowlist,
                    &mut matched,
                ));
            }
            for v in file_violations {
                report.violations.push((display.clone(), v));
            }
        }
        sites.insert(
            (format!("crate.{}", krate.name), "lossy-cast".to_string()),
            lossy_sites,
        );
        report.counts.insert(krate.name.clone(), crate_counts);
        report.cast_counts.insert(krate.name.clone(), crate_casts);
        report.sync_counts.insert(krate.name.clone(), crate_sync);
    }

    match layers::read_layers(root) {
        Ok(config) => report
            .violations
            .extend(layers::check(&config, &layer_crates, &ws_paths)),
        Err(v) => report.violations.push(v),
    }
    report
        .violations
        .extend(conc::stale_entries(&allowlist, &matched));

    report.ratchet = ratchet::measure(
        &report.counts,
        &report.cast_counts,
        &report.sync_counts,
        &bench_scale_bytes(root)?,
    );
    let ratchet_path = root.join(RATCHET_FILE);
    if write_ratchet {
        fs::write(&ratchet_path, ratchet::render(&report.ratchet))
            .map_err(|e| format!("{}: {e}", ratchet_path.display()))?;
    } else {
        let failures = match fs::read_to_string(&ratchet_path) {
            Ok(text) => {
                let baseline = ratchet::parse(&text)?;
                let (failures, improvements) = ratchet::compare(&baseline, &report.ratchet, &sites);
                report.improvements = improvements;
                failures
            }
            Err(e) => vec![format!(
                "cannot read the ratchet baseline: {e}; \
                 create it with `cargo xtask lint --write-ratchet`"
            )],
        };
        for message in failures {
            report.violations.push((
                RATCHET_FILE.to_string(),
                Violation {
                    rule: "ratchet".to_string(),
                    line: 1,
                    message,
                },
            ));
        }
    }

    report
        .violations
        .sort_by(|a, b| (&a.0, a.1.line).cmp(&(&b.0, b.1.line)));
    Ok(report)
}

/// A `lint-gates` violation on line 1 of a library root or manifest.
fn gate_violation(message: String) -> Violation {
    Violation {
        rule: "lint-gates".to_string(),
        line: 1,
        message,
    }
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
fn bench_scale_bytes(root: &Path) -> Result<BTreeMap<String, usize>, String> {
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
