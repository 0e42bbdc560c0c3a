//! Integration tests for `cargo xtask lint`.
//!
//! Two halves: (1) the real workspace must lint clean — this is the
//! same invariant CI enforces, so a change that introduces a violation
//! fails here first; (2) a synthetic fixture workspace seeded with one
//! violation per rule must fail with exactly that rule.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::rules::PanicCounts;
use xtask::workspace::run_lint;

/// The real repository root (two levels above this crate).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

#[test]
fn the_real_tree_lints_clean() {
    let report = run_lint(&repo_root(), false).expect("lint must run on the real tree");
    assert!(
        report.is_clean(),
        "the committed tree must pass its own lint; violations: {:#?}",
        report.violations
    );
    // The deterministic crates are all present in the measured table.
    for name in xtask::workspace::DETERMINISTIC_CRATES {
        assert!(
            report.counts.contains_key(*name),
            "crate {name} missing from the panic-surface table"
        );
    }
}

/// Builds a minimal fixture workspace under `CARGO_TARGET_TMPDIR`. The
/// single member is named `sim` so the determinism rules apply to it.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-fixture-{tag}"));
        if root.exists() {
            fs::remove_dir_all(&root).expect("stale fixture must be removable");
        }
        let clean_header = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        let manifest = "[package]\nname = \"fixture\"\n\n[lints]\nworkspace = true\n";
        fs::create_dir_all(root.join("src")).expect("fixture mkdir");
        fs::create_dir_all(root.join("crates/sim/src")).expect("fixture mkdir");
        fs::write(root.join("Cargo.toml"), manifest).expect("fixture write");
        fs::write(
            root.join("src/lib.rs"),
            format!("//! Fixture root.\n{clean_header}"),
        )
        .expect("fixture write");
        fs::write(root.join("crates/sim/Cargo.toml"), manifest).expect("fixture write");
        Self { root }.with_sim_source("//! Fixture crate.\n")
    }

    /// Replaces the `sim` member's lib.rs body (header block prepended).
    fn with_sim_source(self, body: &str) -> Self {
        let src = format!(
            "//! Fixture crate.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\n{body}"
        );
        fs::write(self.root.join("crates/sim/src/lib.rs"), src).expect("fixture write");
        self
    }

    /// Runs the lint with a ratchet baseline matching `counts` for both
    /// crates (fixture root is always clean).
    fn lint_with_baseline(&self, sim: PanicCounts) -> xtask::LintReport {
        let ratchet = format!(
            "[crate.sim]\nunwrap = {}\nexpect = {}\npanic = {}\n\
             [crate.suite]\nunwrap = 0\nexpect = 0\npanic = 0\n",
            sim.unwrap, sim.expect, sim.panic
        );
        fs::write(self.root.join("xtask-ratchet.toml"), ratchet).expect("fixture write");
        run_lint(&self.root, false).expect("fixture lint must run")
    }

    fn rules_hit(&self, sim_baseline: PanicCounts) -> Vec<String> {
        let report = self.lint_with_baseline(sim_baseline);
        let mut rules: Vec<String> = report.violations.into_iter().map(|(_, v)| v.rule).collect();
        rules.sort();
        rules.dedup();
        rules
    }
}

fn zero() -> PanicCounts {
    PanicCounts::default()
}

#[test]
fn clean_fixture_passes() {
    let fx = Fixture::new("clean");
    assert!(fx.lint_with_baseline(zero()).is_clean());
}

#[test]
fn hash_collection_violation_fails() {
    let fx = Fixture::new("hash").with_sim_source(
        "/// Doc.\npub fn f() { let _m = std::collections::HashMap::<u32, u32>::new(); }\n",
    );
    assert_eq!(fx.rules_hit(zero()), vec!["hash-collections"]);
}

#[test]
fn wall_clock_violation_fails() {
    let fx = Fixture::new("clock").with_sim_source(
        "/// Doc.\npub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    assert_eq!(fx.rules_hit(zero()), vec!["wall-clock"]);
}

#[test]
fn ambient_rng_violation_fails() {
    let fx =
        Fixture::new("rng").with_sim_source("/// Doc.\npub fn f() { let _r = thread_rng(); }\n");
    assert_eq!(fx.rules_hit(zero()), vec!["ambient-rng"]);
}

#[test]
fn allow_comment_with_reason_suppresses_the_rule() {
    let fx = Fixture::new("allow").with_sim_source(
        "/// Doc.\npub fn f() { let _m = std::collections::HashMap::<u32, u32>::new(); } \
         // xtask: allow(hash-collections) — fixture demonstrating the escape hatch\n",
    );
    assert!(fx.lint_with_baseline(zero()).is_clean());
}

#[test]
fn test_module_code_is_exempt() {
    let fx = Fixture::new("testmod").with_sim_source(
        "/// Doc.\npub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    \
         fn t() { let _m = std::collections::HashMap::<u32, u32>::new(); }\n}\n",
    );
    assert!(fx.lint_with_baseline(zero()).is_clean());
}

#[test]
fn ratchet_regression_fails_and_improvement_notes() {
    let fx = Fixture::new("ratchet")
        .with_sim_source("/// Doc.\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    // Baseline says zero unwraps: the new site is a regression.
    let report = fx.lint_with_baseline(zero());
    assert!(!report.is_clean());
    assert!(report.violations.iter().any(|(_, v)| v.rule == "ratchet"));
    // Baseline of 2 unwraps: one measured is an improvement, not a failure.
    let report = fx.lint_with_baseline(PanicCounts {
        unwrap: 2,
        expect: 0,
        panic: 0,
    });
    assert!(report.is_clean());
    assert_eq!(report.improvements.len(), 1);
}

#[test]
fn unmessaged_expect_fails() {
    let fx = Fixture::new("expectmsg")
        .with_sim_source("/// Doc.\npub fn f(x: Option<u32>) -> u32 { x.expect(\"\") }\n");
    let report = fx.lint_with_baseline(PanicCounts {
        unwrap: 0,
        expect: 1,
        panic: 0,
    });
    assert!(report
        .violations
        .iter()
        .any(|(_, v)| v.rule == "expect-message"));
}

#[test]
fn hot_loop_allocation_fails() {
    let fx = Fixture::new("hotloop").with_sim_source(
        "/// Doc.\npub fn f() -> Vec<u32> {\n    // xtask: hot-loop-begin\n    \
         let v = Vec::new();\n    // xtask: hot-loop-end\n    v\n}\n",
    );
    assert_eq!(fx.rules_hit(zero()), vec!["hot-loop-alloc"]);
}

#[test]
fn hot_loop_allow_comment_suppresses() {
    let fx = Fixture::new("hotloop-allow").with_sim_source(
        "/// Doc.\npub fn f() -> Vec<u32> {\n    // xtask: hot-loop-begin\n    \
         // xtask: allow(hot-loop-alloc) — fixture demonstrating the escape hatch\n    \
         let v = Vec::new();\n    // xtask: hot-loop-end\n    v\n}\n",
    );
    assert!(fx.lint_with_baseline(zero()).is_clean());
}

#[test]
fn missing_lint_gates_fail() {
    let fx = Fixture::new("gates");
    // Overwrite the sim lib with one that lacks the header block.
    fs::write(
        fx.root.join("crates/sim/src/lib.rs"),
        "//! Fixture crate.\npub fn f() {}\n",
    )
    .expect("fixture write");
    assert_eq!(fx.rules_hit(zero()), vec!["lint-gates"]);
}

#[test]
fn manifest_without_lints_inheritance_fails() {
    let fx = Fixture::new("manifest");
    fs::write(
        fx.root.join("crates/sim/Cargo.toml"),
        "[package]\nname = \"fixture\"\n",
    )
    .expect("fixture write");
    assert_eq!(fx.rules_hit(zero()), vec!["lint-gates"]);
}
