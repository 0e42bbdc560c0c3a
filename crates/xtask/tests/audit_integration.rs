//! Integration tests for `cargo xtask audit`.
//!
//! Two halves, mirroring `lint_integration.rs`: (1) the real workspace
//! must audit clean, and the committed ratchet file must be exactly
//! what `--write-ratchet` would produce; (2) a committed fixture
//! workspace (`tests/fixtures/upward-edge/`) seeded with one layering
//! violation must fail with a `path: dependency` diagnostic, and
//! mutations of a copy of that fixture must trip the other audit
//! passes (undeclared crates, the lossy-cast ratchet) with path:line
//! diagnostics.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::rules::Violation;
use xtask::run_audit;

/// The real repository root (two levels above this crate).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

#[test]
fn the_real_tree_audits_clean() {
    let report = run_audit(&repo_root()).expect("audit must run on the real tree");
    assert!(
        report.is_clean(),
        "the committed tree must pass its own audit; violations: {:#?}",
        report.violations
    );
    // The burned-down crates hold their gains: rfc-graph carries no
    // unsuppressed lossy cast (everything funnels through `vid`).
    let graph = &report.cast_counts["graph"];
    assert_eq!(graph.lossy, 0, "rfc-graph regressed: {graph:?}");
    assert!(graph.allowed >= 1, "the vid() allow should be counted");
}

#[test]
fn committed_ratchet_matches_write_ratchet_output() {
    let root = repo_root();
    let lint = xtask::run_lint(&root, false).expect("lint must run on the real tree");
    let audit = run_audit(&root).expect("audit must run on the real tree");
    let rendered = xtask::ratchet::render(
        &lint.counts,
        &audit.cast_counts,
        &lint.sync_counts,
        &lint.scale_bytes,
    );
    let committed = fs::read_to_string(root.join("xtask-ratchet.toml"))
        .expect("the ratchet baseline is committed");
    assert_eq!(
        committed, rendered,
        "xtask-ratchet.toml is stale; refresh it with `cargo xtask lint --all --write-ratchet`"
    );
}

/// Copies the committed `upward-edge` fixture into a fresh tmpdir so a
/// test can mutate it without touching the source tree.
fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/upward-edge");
    let dst = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("audit-fixture-{tag}"));
    if dst.exists() {
        fs::remove_dir_all(&dst).expect("stale fixture must be removable");
    }
    copy_tree(&src, &dst);
    dst
}

fn copy_tree(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("fixture mkdir");
    for entry in fs::read_dir(src).expect("fixture read_dir") {
        let entry = entry.expect("fixture dir entry");
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).expect("fixture copy");
        }
    }
}

/// Violations for one rule as `(display path, violation)` pairs.
fn of_rule<'a>(report: &'a xtask::AuditReport, rule: &str) -> Vec<(&'a String, &'a Violation)> {
    report
        .violations
        .iter()
        .filter(|(_, v)| v.rule == rule)
        .map(|(p, v)| (p, v))
        .collect()
}

#[test]
fn an_upward_dependency_edge_fails_layering_with_its_manifest_line() {
    let root = fixture_copy("upward");
    let report = run_audit(&root).expect("fixture audit must run");
    let hits = of_rule(&report, "layering");
    assert_eq!(hits.len(), 1, "violations: {:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "crates/graph/Cargo.toml");
    // The diagnostic points at the `rfc-sim = ...` dependency line.
    let manifest = fs::read_to_string(root.join("crates/graph/Cargo.toml")).expect("manifest");
    let dep_line = manifest
        .lines()
        .position(|l| l.starts_with("rfc-sim"))
        .expect("fixture declares rfc-sim")
        + 1;
    assert_eq!(v.line, dep_line);
    assert!(
        v.message.contains("rfc-sim") && v.message.contains("points above"),
        "diagnostic should name the edge and direction: {}",
        v.message
    );
    // The layering failure is the only problem with the fixture.
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
}

#[test]
fn removing_the_upward_edge_makes_the_fixture_audit_clean() {
    let root = fixture_copy("clean");
    let manifest = root.join("crates/graph/Cargo.toml");
    let text = fs::read_to_string(&manifest).expect("manifest");
    fs::write(
        &manifest,
        text.replace("rfc-sim = { workspace = true }\n", ""),
    )
    .expect("fixture write");
    let report = run_audit(&root).expect("fixture audit must run");
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn a_crate_missing_from_the_layer_map_fails_closed() {
    let root = fixture_copy("undeclared");
    let layers = root.join("xtask-layers.toml");
    let text = fs::read_to_string(&layers).expect("layers file");
    fs::write(&layers, text.replace("sim = \"sim\"\n", "")).expect("fixture write");
    let report = run_audit(&root).expect("fixture audit must run");
    assert!(
        of_rule(&report, "layering")
            .iter()
            .any(|(_, v)| v.message.contains("`sim`") && v.message.contains("not declared")),
        "undeclared crates must fail closed: {:#?}",
        report.violations
    );
}

#[test]
fn a_lossy_cast_above_the_ratchet_fails_and_an_allow_suppresses_it() {
    let root = fixture_copy("cast");
    // Drop the fixture's intentional upward edge so the cast is the
    // only finding.
    let manifest = root.join("crates/graph/Cargo.toml");
    let text = fs::read_to_string(&manifest).expect("manifest");
    fs::write(
        &manifest,
        text.replace("rfc-sim = { workspace = true }\n", ""),
    )
    .expect("fixture write");
    let lib = root.join("crates/sim/src/lib.rs");
    fs::write(
        &lib,
        "//! Fixture crate.\npub fn f(n: usize) -> u32 {\n    n as u32\n}\n",
    )
    .expect("fixture write");
    let report = run_audit(&root).expect("fixture audit must run");
    let hits = of_rule(&report, "ratchet");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    assert!(
        hits[0].1.message.contains("`sim`") && hits[0].1.message.contains("rose to 1"),
        "{}",
        hits[0].1.message
    );
    assert_eq!(report.cast_counts["sim"].lossy, 1);
    // The burn-down listing names the site.
    assert!(
        report
            .lossy_sites
            .iter()
            .any(|(p, s)| p == "crates/sim/src/lib.rs" && s.line == 3 && s.target == "u32"),
        "{:#?}",
        report.lossy_sites
    );

    // An allow directive with a reason moves the site out of the count.
    fs::write(
        &lib,
        "//! Fixture crate.\npub fn f(n: usize) -> u32 {\n    // xtask: allow(lossy-cast) — fixture invariant\n    n as u32\n}\n",
    )
    .expect("fixture write");
    let report = run_audit(&root).expect("fixture audit must run");
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.cast_counts["sim"].lossy, 0);
    assert_eq!(report.cast_counts["sim"].allowed, 1);
}
