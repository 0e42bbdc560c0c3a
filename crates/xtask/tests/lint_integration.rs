//! Integration tests for `cargo xtask lint`.
//!
//! Every test drives the one analyzer pass, [`run_lint`]. Three groups:
//! (1) the real workspace must lint clean, and the committed ratchet
//! file must be exactly what `--write-ratchet` would produce — the same
//! invariant CI enforces, so a change that introduces a violation fails
//! here first; (2) fixture workspaces — one built in code, two committed
//! under `tests/fixtures/` — seeded with one violation per rule must
//! fail with exactly that rule, at its `path:line`; (3) one fixture
//! holding a violation of every kind must report all of them from a
//! single run.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::rules::{PanicCounts, Violation};
use xtask::{run_lint, LintReport};

/// The real repository root (two levels above this crate).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

/// Copies the committed fixture `name` into a fresh tmpdir so a test
/// can mutate it without touching the source tree.
fn fixture_copy(name: &str, tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let dst = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{tag}"));
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
fn of_rule<'a>(report: &'a LintReport, rule: &str) -> Vec<(&'a String, &'a Violation)> {
    report
        .violations
        .iter()
        .filter(|(_, v)| v.rule == rule)
        .map(|(p, v)| (p, v))
        .collect()
}

fn lint(root: &Path) -> LintReport {
    run_lint(root, false).expect("lint must run")
}

// ---------------------------------------------------------------------
// The real tree.
// ---------------------------------------------------------------------

#[test]
fn the_real_tree_lints_clean() {
    let report = lint(&repo_root());
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

#[test]
fn the_real_tree_audits_clean() {
    let report = lint(&repo_root());
    assert!(
        report.is_clean(),
        "the committed tree must pass its own lint; violations: {:#?}",
        report.violations
    );
    // The burned-down crates hold their gains: rfc-graph carries no
    // unsuppressed lossy cast (everything funnels through `vid`).
    let graph = &report.cast_counts["graph"];
    assert_eq!(graph.lossy, 0, "rfc-graph regressed: {graph:?}");
    assert!(graph.allowed >= 1, "the vid() allow should be counted");
}

#[test]
fn the_real_tree_passes_conc_clean() {
    let report = lint(&repo_root());
    assert!(
        report.is_clean(),
        "the committed tree must pass its own lint; violations: {:#?}",
        report.violations
    );
    // The barrier/override machinery keeps rfc-parallel the workspace's
    // atomic hot spot; if this count hits zero the tally went blind.
    let parallel = &report.sync_counts["parallel"];
    assert!(
        parallel.atomic >= 4,
        "rfc-parallel's atomics vanished from the tally: {parallel:?}"
    );
}

#[test]
fn committed_ratchet_matches_write_ratchet_output() {
    let root = repo_root();
    let report = lint(&root);
    let committed = fs::read_to_string(root.join("xtask-ratchet.toml"))
        .expect("the ratchet baseline is committed");
    assert_eq!(
        committed,
        xtask::ratchet::render(&report.ratchet),
        "xtask-ratchet.toml is stale; refresh it with `cargo xtask lint --write-ratchet`"
    );
}

// ---------------------------------------------------------------------
// Line-level rules, on a fixture built in code.
// ---------------------------------------------------------------------

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
        fs::write(
            root.join("xtask-layers.toml"),
            "[layer.sim]\nrank = 50\n\n[layer.app]\nrank = 70\n\n\
             [crates]\nsim = \"sim\"\nsuite = \"app\"\n",
        )
        .expect("fixture write");
        fs::write(root.join("xtask-conc.toml"), "# No Relaxed sites.\n").expect("fixture write");
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
    fn lint_with_baseline(&self, sim: PanicCounts) -> LintReport {
        let ratchet = format!(
            "[crate.sim]\nunwrap = {}\nexpect = {}\npanic = {}\n\
             [crate.suite]\nunwrap = 0\nexpect = 0\npanic = 0\n",
            sim.unwrap, sim.expect, sim.panic
        );
        fs::write(self.root.join("xtask-ratchet.toml"), ratchet).expect("fixture write");
        lint(&self.root)
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

// ---------------------------------------------------------------------
// Layering and the lossy-cast ratchet, on `tests/fixtures/upward-edge`.
// ---------------------------------------------------------------------

/// The `upward-edge` fixture with its intentional upward edge removed.
fn upward_edge_without_the_edge(tag: &str) -> PathBuf {
    let root = fixture_copy("upward-edge", tag);
    let manifest = root.join("crates/graph/Cargo.toml");
    let text = fs::read_to_string(&manifest).expect("manifest");
    fs::write(
        &manifest,
        text.replace("rfc-sim = { workspace = true }\n", ""),
    )
    .expect("fixture write");
    root
}

/// The 1-based number of the first line of `text` containing `needle`.
fn line_of(text: &str, needle: &str) -> usize {
    text.lines()
        .position(|l| l.contains(needle))
        .expect("needle present")
        + 1
}

#[test]
fn an_upward_dependency_edge_fails_layering_with_its_manifest_line() {
    let root = fixture_copy("upward-edge", "upward");
    let report = lint(&root);
    let hits = of_rule(&report, "layering");
    assert_eq!(hits.len(), 1, "violations: {:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "crates/graph/Cargo.toml");
    // The diagnostic points at the `rfc-sim = ...` dependency line.
    let manifest = fs::read_to_string(root.join("crates/graph/Cargo.toml")).expect("manifest");
    assert_eq!(v.line, line_of(&manifest, "rfc-sim ="));
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
    let root = upward_edge_without_the_edge("clean");
    let report = lint(&root);
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn a_crate_missing_from_the_layer_map_fails_closed() {
    let root = fixture_copy("upward-edge", "undeclared");
    let layers = root.join("xtask-layers.toml");
    let text = fs::read_to_string(&layers).expect("layers file");
    fs::write(&layers, text.replace("sim = \"sim\"\n", "")).expect("fixture write");
    let report = lint(&root);
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
    // Without the fixture's upward edge the cast is the only finding.
    let root = upward_edge_without_the_edge("cast");
    let lib = root.join("crates/sim/src/lib.rs");
    let header = "//! Fixture crate.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\n";
    let src = format!("{header}/// Doc.\npub fn f(n: usize) -> u32 {{\n    n as u32\n}}\n");
    fs::write(&lib, &src).expect("fixture write");
    let report = lint(&root);
    let hits = of_rule(&report, "ratchet");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let message = &hits[0].1.message;
    assert!(
        message.contains("`sim`") && message.contains("rose to 1"),
        "{message}"
    );
    assert_eq!(report.cast_counts["sim"].lossy, 1);
    // The failure names the site.
    let site = format!(
        "crates/sim/src/lib.rs:{}: as u32",
        line_of(&src, "n as u32")
    );
    assert!(message.contains(&site), "{message}");

    // An allow directive with a reason moves the site out of the count.
    fs::write(
        &lib,
        format!(
            "{header}/// Doc.\npub fn f(n: usize) -> u32 {{\n    \
             // xtask: allow(lossy-cast) — fixture invariant\n    n as u32\n}}\n"
        ),
    )
    .expect("fixture write");
    let report = lint(&root);
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.cast_counts["sim"].lossy, 0);
    assert_eq!(report.cast_counts["sim"].allowed, 1);
}

// ---------------------------------------------------------------------
// Concurrency rules and the sync ratchet, on `tests/fixtures/conc-clean`.
// ---------------------------------------------------------------------

/// Appends `extra` to the fixture engine's lib.rs and returns the
/// 1-based line number of the first appended line.
fn append_to_engine(root: &Path, extra: &str) -> usize {
    let lib = root.join("crates/engine/src/lib.rs");
    let text = fs::read_to_string(&lib).expect("fixture lib.rs");
    let first_new_line = text.lines().count() + 1;
    fs::write(&lib, format!("{text}{extra}")).expect("fixture write");
    first_new_line
}

#[test]
fn the_committed_fixture_is_conc_clean() {
    let root = fixture_copy("conc-clean", "clean");
    let report = lint(&root);
    assert!(report.is_clean(), "{:#?}", report.violations);
    let engine = &report.sync_counts["engine"];
    assert_eq!((engine.lock, engine.atomic), (2, 3), "tally drifted");
}

#[test]
fn relaxed_outside_the_allowlist_fails_with_its_line() {
    let root = fixture_copy("conc-clean", "relaxed");
    let at = append_to_engine(
        &root,
        "\n/// Extra: an unenumerated Relaxed site.\npub fn reset() {\n    CYCLE.store(0, Ordering::Relaxed);\n}\n",
    ) + 3;
    let report = lint(&root);
    let hits = of_rule(&report, "relaxed-ordering");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "crates/engine/src/lib.rs");
    assert_eq!(v.line, at);
    assert!(
        v.message.contains("xtask-conc.toml") && v.message.contains("allow(relaxed-ordering)"),
        "the diagnostic must name both escape hatches: {}",
        v.message
    );

    // An inline allow directive with a reason covers the site.
    let lib = root.join("crates/engine/src/lib.rs");
    let text = fs::read_to_string(&lib).expect("fixture lib.rs");
    fs::write(
        &lib,
        text.replace(
            "CYCLE.store(0, Ordering::Relaxed);",
            "// xtask: allow(relaxed-ordering) — fixture: reset is single-threaded\n    CYCLE.store(0, Ordering::Relaxed);",
        ),
    )
    .expect("fixture write");
    let report = lint(&root);
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn an_atomic_call_without_an_ordering_fails_with_its_line() {
    let root = fixture_copy("conc-clean", "ordering");
    // No atomic-type or `Relaxed` tokens: only the ordering rule fires.
    let at = append_to_engine(
        &root,
        "\n/// Extra: hides its ordering behind a helper.\npub fn bump() {\n    counter().fetch_add(1, implicit());\n}\n",
    ) + 3;
    let report = lint(&root);
    let hits = of_rule(&report, "atomic-ordering");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "crates/engine/src/lib.rs");
    assert_eq!(v.line, at);
    assert!(
        v.message.contains(".fetch_add(") && v.message.contains("Ordering::"),
        "{}",
        v.message
    );
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
}

#[test]
fn a_lock_type_inside_the_lockstep_region_fails_with_its_line() {
    let root = fixture_copy("conc-clean", "lockstep");
    let lib = root.join("crates/engine/src/lib.rs");
    let text = fs::read_to_string(&lib).expect("fixture lib.rs");
    let marker = "    CYCLE.fetch_add(1, Ordering::AcqRel);\n";
    let at = line_of(&text, "CYCLE.fetch_add") + 1;
    fs::write(
        &lib,
        text.replace(
            marker,
            "    CYCLE.fetch_add(1, Ordering::AcqRel);\n    let gate = Mutex::new(0u32);\n",
        ),
    )
    .expect("fixture write");
    let report = lint(&root);
    let hits = of_rule(&report, "lockstep-region");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "crates/engine/src/lib.rs");
    assert_eq!(v.line, at);
    assert!(
        v.message.contains("`Mutex`") && v.message.contains("lockstep region"),
        "{}",
        v.message
    );
    // The new Mutex mention also trips the sync ratchet — both layers
    // of defense fire on the same regression.
    assert!(
        of_rule(&report, "ratchet")
            .iter()
            .any(|(_, v)| v.message.contains("sync-lock count rose to 3")),
        "{:#?}",
        report.violations
    );
}

#[test]
fn new_sync_primitives_above_the_baseline_fail_the_ratchet() {
    let root = fixture_copy("conc-clean", "ratchet");
    // A lock type outside any lockstep region: legal placement, but
    // concurrency surface may only grow deliberately.
    append_to_engine(
        &root,
        "\n/// Extra: new shared state behind a reader-writer lock.\npub static TABLE: RwLock<Vec<u64>> = RwLock::new(Vec::new());\n",
    );
    let report = lint(&root);
    let hits = of_rule(&report, "ratchet");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "xtask-ratchet.toml");
    assert!(
        v.message.contains("`engine`")
            && v.message.contains("sync-lock count rose to 4")
            && v.message.contains("--write-ratchet"),
        "{}",
        v.message
    );
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
}

#[test]
fn a_stale_allowlist_entry_fails_the_drift_check() {
    let root = fixture_copy("conc-clean", "drift");
    let conc = root.join("xtask-conc.toml");
    let text = fs::read_to_string(&conc).expect("fixture allowlist");
    let entry_line = text.lines().count() + 2;
    fs::write(
        &conc,
        format!(
            "{text}\n[[relaxed]]\nfile = \"crates/engine/src/lib.rs\"\n\
             contains = \"NO_SUCH_SITE.load(Ordering::Relaxed)\"\nreason = \"stale\"\n"
        ),
    )
    .expect("fixture write");
    let report = lint(&root);
    let hits = of_rule(&report, "relaxed-ordering");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "xtask-conc.toml");
    assert_eq!(v.line, entry_line);
    assert!(
        v.message.contains("stale allowlist entry") && v.message.contains("NO_SUCH_SITE"),
        "{}",
        v.message
    );
}

#[test]
fn a_missing_allowlist_fails_closed() {
    let root = fixture_copy("conc-clean", "missing");
    fs::remove_file(root.join("xtask-conc.toml")).expect("fixture rm");
    let report = lint(&root);
    // The file's absence is a violation in itself, and the fixture's
    // Relaxed site loses its only cover.
    let hits = of_rule(&report, "relaxed-ordering");
    assert!(
        hits.iter()
            .any(|(p, v)| p.as_str() == "xtask-conc.toml" && v.message.contains("cannot read")),
        "{:#?}",
        report.violations
    );
    assert!(
        hits.iter()
            .any(|(p, _)| p.as_str() == "crates/engine/src/lib.rs"),
        "{:#?}",
        report.violations
    );
}

// ---------------------------------------------------------------------
// Every check in one run.
// ---------------------------------------------------------------------

#[test]
fn one_run_reports_a_violation_of_every_check() {
    // `upward-edge` keeps its upward edge; its `sim` crate gains a
    // HashMap (determinism rule), a lossy cast over the zero baseline
    // and an unlisted Relaxed ordering, and a benchmark report shows
    // routing memory above its ratchet.
    let root = fixture_copy("upward-edge", "every-check");
    let lib = "//! Fixture crate.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\n\
               /// Doc.\npub fn f(n: usize) -> u32 {\n    \
               let _m = std::collections::HashMap::<u32, u32>::new();\n    n as u32\n}\n\n\
               /// Doc.\npub fn g(c: &Counter) -> usize {\n    c.load(Ordering::Relaxed)\n}\n";
    fs::write(root.join("crates/sim/src/lib.rs"), lib).expect("fixture write");
    fs::write(
        root.join("BENCH_sim.json"),
        "{\n  \"small\": {\n    \"routing_bytes_per_terminal\": 140\n  }\n}\n",
    )
    .expect("fixture write");
    let ratchet = root.join("xtask-ratchet.toml");
    let text = fs::read_to_string(&ratchet).expect("fixture ratchet");
    fs::write(
        &ratchet,
        format!("{text}\n[scale.small]\nrouting-bytes-per-terminal = 135\n"),
    )
    .expect("fixture write");

    let report = run_lint(&root, false).expect("lint must run");
    let mut found: Vec<(&str, &str, &str)> = report
        .violations
        .iter()
        .map(|(path, v)| {
            let what = if v.message.contains("lossy-cast count rose to 1") {
                "lossy-cast"
            } else if v.message.contains("routing-bytes-per-terminal rose to 140") {
                "routing-bytes"
            } else {
                ""
            };
            (v.rule.as_str(), path.as_str(), what)
        })
        .collect();
    found.sort();
    assert_eq!(
        found,
        vec![
            ("hash-collections", "crates/sim/src/lib.rs", ""),
            ("layering", "crates/graph/Cargo.toml", ""),
            ("ratchet", "xtask-ratchet.toml", "lossy-cast"),
            ("ratchet", "xtask-ratchet.toml", "routing-bytes"),
            ("relaxed-ordering", "crates/sim/src/lib.rs", ""),
        ],
        "{:#?}",
        report.violations
    );
}
