//! The `cargo xtask audit` driver: workspace-level passes that the
//! line-local lint cannot express.
//!
//! Two passes (DESIGN.md §12), sharing the walker and ratchet
//! infrastructure with `cargo xtask lint`:
//!
//! 1. **Layering** ([`crate::layers`]) — the inter-crate dependency
//!    DAG must match the committed `xtask-layers.toml`; upward or
//!    contract-skipping edges and undeclared crates fail closed.
//! 2. **Numeric-cast ratchet** ([`crate::casts`]) — per-crate
//!    potentially-lossy `as` cast counts may only decrease relative to
//!    the `lossy-cast` keys in `xtask-ratchet.toml`.
//!
//! No pass looks for `unsafe`: every crate root carries
//! `#![forbid(unsafe_code)]` and inherits the workspace lints, both
//! enforced by the lint-gate rule, so the compiler rejects it first.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::casts::{analyze_casts, CastCounts, LossySite};
use crate::layers::{self, LayerCrate, LAYERS_FILE};
use crate::ratchet;
use crate::rules::{Violation, RULE_LAYERING};
use crate::workspace::{discover, rust_files, RATCHET_FILE};

/// Everything `cargo xtask audit` found.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Hard failures: `(display path, violation)`.
    pub violations: Vec<(String, Violation)>,
    /// Measured non-test cast tallies per crate.
    pub cast_counts: BTreeMap<String, CastCounts>,
    /// Unsuppressed lossy cast sites as `(display path, site)`, for
    /// the `cargo xtask casts` burn-down listing.
    pub lossy_sites: Vec<(String, LossySite)>,
    /// Counts now below the committed baseline (nudges, not failures).
    pub improvements: Vec<String>,
}

impl AuditReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the two audit passes over the workspace at `root`.
pub fn run_audit(root: &Path) -> Result<AuditReport, String> {
    let mut report = AuditReport::default();
    let crates = discover(root)?;

    // Pass 1: layering.
    match fs::read_to_string(root.join(LAYERS_FILE)) {
        Ok(text) => match layers::parse_layers(&text) {
            Ok(config) => {
                let root_manifest = fs::read_to_string(root.join("Cargo.toml"))
                    .map_err(|e| format!("{}: {e}", root.join("Cargo.toml").display()))?;
                let ws_paths = layers::workspace_dep_paths(&root_manifest);
                let mut layer_crates = Vec::new();
                for krate in &crates {
                    let manifest_path = krate.root.join("Cargo.toml");
                    let manifest = fs::read_to_string(&manifest_path)
                        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
                    layer_crates.push(LayerCrate {
                        name: krate.name.clone(),
                        dir: krate
                            .root
                            .strip_prefix(root)
                            .unwrap_or(&krate.root)
                            .to_path_buf(),
                        deps: layers::manifest_deps(&manifest),
                    });
                }
                report
                    .violations
                    .extend(layers::check(&config, &layer_crates, &ws_paths));
            }
            Err(e) => report.violations.push((
                LAYERS_FILE.to_string(),
                Violation {
                    rule: RULE_LAYERING.to_string(),
                    line: 1,
                    message: format!("malformed layer declarations: {e}"),
                },
            )),
        },
        Err(e) => report.violations.push((
            LAYERS_FILE.to_string(),
            Violation {
                rule: RULE_LAYERING.to_string(),
                line: 1,
                message: format!(
                    "cannot read the layer declarations: {e}; every workspace crate must be \
                     assigned to a layer in {LAYERS_FILE}"
                ),
            },
        )),
    }

    // Pass 2: per-file cast tallies.
    for krate in &crates {
        let mut crate_casts = CastCounts::default();
        for (path, test_file) in rust_files(krate)? {
            let src = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let display = rel_display(root, &path);
            let analysis = analyze_casts(&src, test_file);
            crate_casts.add(analysis.counts);
            for site in analysis.lossy_sites {
                report.lossy_sites.push((display.clone(), site));
            }
        }
        report.cast_counts.insert(krate.name.clone(), crate_casts);
    }

    // Cast ratchet.
    match fs::read_to_string(root.join(RATCHET_FILE)) {
        Ok(text) => {
            let baseline = ratchet::parse(&text)?;
            let (failures, improvements) = ratchet::compare_lossy(&baseline, &report.cast_counts);
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
        Err(e) => report.violations.push((
            RATCHET_FILE.to_string(),
            Violation {
                rule: "ratchet".to_string(),
                line: 1,
                message: format!(
                    "cannot read the ratchet baseline: {e}; \
                     create it with `cargo xtask lint --all --write-ratchet`"
                ),
            },
        )),
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
