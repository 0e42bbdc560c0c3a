//! Integration tests for `cargo xtask lint`.
//!
//! Four groups: (1) the real workspace must lint clean, and the
//! committed ratchet file must be exactly what `--write-ratchet` would
//! produce — the same invariant CI enforces, so a change that
//! introduces a violation fails here first; (2) fixture workspaces —
//! one built in code, two committed under `tests/fixtures/` — seeded
//! with one violation per rule must fail with exactly that rule, at its
//! `path:line`; (3) one fixture holding a violation of every kind must
//! report all of them from a single run; (4) clippy, run on a fixture
//! crate under the workspace's own lint configuration, must report
//! every rule moved to it at its line.

#![expect(
    clippy::expect_used,
    reason = "fixture files are written by the test itself; an I/O failure is a failed test"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::rules::Violation;
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
    // rfc-graph's one lossy cast is `vid`'s own: every other id cast in
    // the workspace funnels through it.
    let graph = &report.ratchet["graph"];
    assert_eq!(graph["lossy-cast"], 1, "rfc-graph regressed: {graph:?}");
    // The barrier/override machinery keeps rfc-parallel the workspace's
    // atomic hot spot; if this count hits zero the tally went blind.
    let parallel = &report.ratchet["parallel"];
    assert!(
        parallel["sync-atomic"] >= 4,
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
// Layering, the `#[expect]` ledger and the line-level rules, on
// `tests/fixtures/upward-edge`.
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

/// The clean `upward-edge` fixture whose `sim` member's lib.rs is a
/// crate doc followed by `body`, linted with the `sim` ratchet baseline
/// `sim_baseline` (`key = count` lines; unlisted keys count as 0).
fn lint_sim(tag: &str, body: &str, sim_baseline: &str) -> LintReport {
    let root = upward_edge_without_the_edge(tag);
    fs::write(
        root.join("crates/sim/src/lib.rs"),
        format!("//! Fixture crate.\n\n{body}"),
    )
    .expect("fixture write");
    fs::write(
        root.join("xtask-ratchet.toml"),
        format!("[crate.graph]\n[crate.sim]\n{sim_baseline}\n[crate.suite]\n"),
    )
    .expect("fixture write");
    lint(&root)
}

/// The distinct rules a report hit, sorted.
fn rules_hit(report: &LintReport) -> Vec<&str> {
    let mut rules: Vec<&str> = report
        .violations
        .iter()
        .map(|(_, v)| v.rule.as_str())
        .collect();
    rules.sort_unstable();
    rules.dedup();
    rules
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
fn a_cast_expect_above_the_ratchet_fails_and_names_its_site() {
    let body = "/// Doc.\npub fn f(n: usize) -> u32 {\n    \
                #[expect(clippy::cast_possible_truncation, reason = \"fixture\")]\n    \
                let id = n as u32;\n    id\n}\n";
    let report = lint_sim("cast", body, "");
    let hits = of_rule(&report, "ratchet");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let message = &hits[0].1.message;
    assert!(
        message.contains("`sim`") && message.contains("lossy-cast count rose to 1"),
        "{message}"
    );
    assert_eq!(report.ratchet["sim"]["lossy-cast"], 1);
    // The failure names the site (two lines of crate doc precede `body`).
    let site = format!(
        "crates/sim/src/lib.rs:{}: #[expect(clippy::cast_possible_truncation)]",
        line_of(body, "#[expect(") + 2
    );
    assert!(message.contains(&site), "{message}");
    // At a baseline of 2 the count is an improvement, not a failure.
    let report = lint_sim("cast-2", body, "lossy-cast = 2");
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.improvements.len(), 1);
}

#[test]
fn test_module_expects_are_not_counted() {
    let body = "/// Doc.\npub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    \
                #[expect(clippy::unwrap_used, reason = \"fixture\")]\n    \
                fn t(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
    let report = lint_sim("testmod", body, "");
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn a_crate_wide_expect_of_a_ratcheted_lint_fails() {
    let body = "#![expect(clippy::cast_possible_truncation, reason = \"wholesale\")]\n";
    let report = lint_sim("scope", body, "");
    let hits = of_rule(&report, "expect-scope");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    assert_eq!(hits[0].0.as_str(), "crates/sim/src/lib.rs");
    assert_eq!(hits[0].1.line, 3);
    // It is rejected, not counted: nothing else fires.
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
}

#[test]
fn unmessaged_expect_fails() {
    let body = "/// Doc.\npub fn f(x: Option<u32>) -> u32 { x.expect(\"\") }\n";
    assert_eq!(
        rules_hit(&lint_sim("expectmsg", body, "")),
        vec!["expect-message"]
    );
}

#[test]
fn hot_loop_allocation_fails_unless_allowed() {
    let body = "/// Doc.\npub fn f() -> Vec<u32> {\n    // xtask: hot-loop-begin\n    \
                let v = Vec::new();\n    // xtask: hot-loop-end\n    v\n}\n";
    assert_eq!(
        rules_hit(&lint_sim("hotloop", body, "")),
        vec!["hot-loop-alloc"]
    );
    let allowed = body.replace(
        "    let v",
        "    // xtask: allow(hot-loop-alloc) — fixture demonstrating the escape hatch\n    let v",
    );
    assert!(lint_sim("hotloop-allow", &allowed, "").is_clean());
}

#[test]
fn manifest_without_lints_inheritance_fails() {
    let root = upward_edge_without_the_edge("manifest");
    fs::write(
        root.join("crates/sim/Cargo.toml"),
        "[package]\nname = \"rfc-sim\"\n",
    )
    .expect("fixture write");
    assert_eq!(rules_hit(&lint(&root)), vec!["lint-gates"]);
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
    let engine = &report.ratchet["engine"];
    assert_eq!(
        (engine["sync-lock"], engine["sync-atomic"]),
        (2, 3),
        "tally drifted"
    );
}

#[test]
fn relaxed_without_an_allow_fails_with_its_line() {
    let root = fixture_copy("conc-clean", "relaxed");
    let at = append_to_engine(
        &root,
        "\n/// Extra: an unreasoned Relaxed site.\npub fn reset() {\n    CYCLE.store(0, Ordering::Relaxed);\n}\n",
    ) + 3;
    let report = lint(&root);
    let hits = of_rule(&report, "relaxed-ordering");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "crates/engine/src/lib.rs");
    assert_eq!(v.line, at);
    assert!(
        v.message.contains("allow(relaxed-ordering)"),
        "the diagnostic must name the escape hatch: {}",
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
fn a_relaxed_allow_covering_no_relaxed_fails_at_its_line() {
    let root = fixture_copy("conc-clean", "drift");
    let lib = root.join("crates/engine/src/lib.rs");
    let text = fs::read_to_string(&lib).expect("fixture lib.rs");
    let allow_line = line_of(&text, "allow(relaxed-ordering)");
    // The read turns Acquire; its allow stays behind, covering nothing.
    fs::write(
        &lib,
        text.replace(
            "CYCLE.load(Ordering::Relaxed)",
            "CYCLE.load(Ordering::Acquire)",
        ),
    )
    .expect("fixture write");
    let report = lint(&root);
    let hits = of_rule(&report, "relaxed-ordering");
    assert_eq!(hits.len(), 1, "{:#?}", report.violations);
    let (path, v) = hits[0];
    assert_eq!(path.as_str(), "crates/engine/src/lib.rs");
    assert_eq!(v.line, allow_line);
    assert!(v.message.contains("stale"), "{}", v.message);
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
}

// ---------------------------------------------------------------------
// The committed TOML files fail closed, at their malformed line.
// ---------------------------------------------------------------------

#[test]
fn missing_layers_or_ratchet_files_fail_closed() {
    for (file, rule) in [
        ("xtask-layers.toml", "layering"),
        ("xtask-ratchet.toml", "ratchet"),
    ] {
        let root = upward_edge_without_the_edge(&format!("missing-{rule}"));
        fs::remove_file(root.join(file)).expect("fixture rm");
        let report = lint(&root);
        let hits = of_rule(&report, rule);
        assert_eq!(hits.len(), 1, "{file}: {:#?}", report.violations);
        let (path, v) = hits[0];
        assert_eq!((path.as_str(), v.line), (file, 1));
        assert!(v.message.contains("cannot read"), "{}", v.message);
        assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
    }
}

#[test]
fn malformed_layers_or_ratchet_files_fail_at_their_line() {
    for (file, rule, good, bad) in [
        ("xtask-layers.toml", "layering", "rank = 50", "rank = fifty"),
        ("xtask-ratchet.toml", "ratchet", "[crate.sim]", "[sim]"),
    ] {
        let root = upward_edge_without_the_edge(&format!("malformed-{rule}"));
        let path = root.join(file);
        let text = fs::read_to_string(&path).expect("fixture file");
        let at = line_of(&text, good);
        fs::write(&path, text.replace(good, bad)).expect("fixture write");
        let report = lint(&root);
        let hits = of_rule(&report, rule);
        assert_eq!(hits.len(), 1, "{file}: {:#?}", report.violations);
        let (shown, v) = hits[0];
        assert_eq!((shown.as_str(), v.line), (file, at));
        assert!(v.message.starts_with("malformed"), "{}", v.message);
    }
}

// ---------------------------------------------------------------------
// Every check in one run.
// ---------------------------------------------------------------------

#[test]
fn one_run_reports_a_violation_of_every_check() {
    // `upward-edge` keeps its upward edge; its `sim` crate gains an
    // unreasoned Relaxed ordering.
    let root = fixture_copy("upward-edge", "every-check");
    let lib = "//! Fixture crate.\n\n\
               /// Doc.\npub fn g(c: &Counter) -> usize {\n    c.load(Ordering::Relaxed)\n}\n";
    fs::write(root.join("crates/sim/src/lib.rs"), lib).expect("fixture write");

    let report = lint(&root);
    let mut found: Vec<(&str, &str)> = report
        .violations
        .iter()
        .map(|(path, v)| (v.rule.as_str(), path.as_str()))
        .collect();
    found.sort();
    assert_eq!(
        found,
        vec![
            ("layering", "crates/graph/Cargo.toml"),
            ("relaxed-ordering", "crates/sim/src/lib.rs"),
        ],
        "{:#?}",
        report.violations
    );
}

// ---------------------------------------------------------------------
// The rules clippy enforces, on a fixture crate under the real
// workspace's lint configuration.
// ---------------------------------------------------------------------

/// One planted violation of every rule clippy enforces, one item per
/// line: a `HashMap` behind an alias, a `HashSet`, a wall-clock read,
/// usize → u32, u64 → usize and f64 → usize casts, `unwrap`, `expect`,
/// `panic!`, `unreachable!`, a reason-less `#[expect]`, an `#[allow]`
/// and an unfulfilled `#[expect]`.
const PLANTED: &str = "\
pub fn a() -> usize { use std::collections::HashMap as M; M::<u8, u8>::new().len() }
pub fn b() -> usize { std::collections::HashSet::<u8>::new().len() }
pub fn c() -> std::time::Instant { std::time::Instant::now() }
pub fn d(n: usize) -> u32 { n as u32 }
pub fn e(n: u64) -> usize { n as usize }
pub fn f(x: f64) -> usize { x as usize }
pub fn g(x: Option<u8>) -> u8 { x.unwrap() }
pub fn h(x: Option<u8>) -> u8 { x.expect(\"m\") }
pub fn i() { panic!(\"p\") }
pub fn j() { unreachable!() }
#[expect(clippy::cast_possible_truncation)] pub fn k(n: u64) -> u32 { n as u32 }
#[allow(clippy::cast_possible_truncation, reason = \"r\")] pub fn l(n: u64) -> u32 { n as u32 }
#[expect(clippy::cast_possible_truncation, reason = \"r\")] pub fn m(n: u32) -> u64 { u64::from(n) }";

/// A fragment of clippy's diagnostic for each line of [`PLANTED`].
const DIAGNOSTICS: [&str; 13] = [
    "disallowed type `std::collections::HashMap`",
    "disallowed type `std::collections::HashSet`",
    "disallowed method `std::time::Instant::now`",
    "casting `usize` to `u32` may truncate",
    "casting `u64` to `usize` may truncate",
    "casting `f64` to `usize` may lose the sign",
    "used `unwrap()`",
    "used `expect()`",
    "`panic` should not be present",
    "usage of the `unreachable!` macro",
    "`expect` attribute without specifying a reason",
    "#[allow] attribute found",
    "this lint expectation is unfulfilled",
];

/// [`PLANTED`] with every site under a reasoned `#[expect]`.
const REASONED: &str = "\
#[expect(clippy::disallowed_types, reason = \"r\")] pub fn a() -> usize { use std::collections::HashMap as M; M::<u8, u8>::new().len() }
#[expect(clippy::disallowed_types, reason = \"r\")] pub fn b() -> usize { std::collections::HashSet::<u8>::new().len() }
#[expect(clippy::disallowed_methods, reason = \"r\")] pub fn c() -> std::time::Instant { std::time::Instant::now() }
#[expect(clippy::cast_possible_truncation, reason = \"r\")] pub fn d(n: usize) -> u32 { n as u32 }
#[expect(clippy::cast_possible_truncation, reason = \"r\")] pub fn e(n: u64) -> usize { n as usize }
#[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = \"r\")] pub fn f(x: f64) -> usize { x as usize }
#[expect(clippy::unwrap_used, reason = \"r\")] pub fn g(x: Option<u8>) -> u8 { x.unwrap() }
#[expect(clippy::expect_used, reason = \"r\")] pub fn h(x: Option<u8>) -> u8 { x.expect(\"m\") }
#[expect(clippy::panic, reason = \"r\")] pub fn i() { panic!(\"p\") }
#[expect(clippy::unreachable, reason = \"r\")] pub fn j() { unreachable!() }
#[expect(clippy::cast_possible_truncation, reason = \"r\")] pub fn k(n: u64) -> u32 { n as u32 }
#[expect(clippy::cast_possible_truncation, reason = \"r\")] pub fn l(n: u64) -> u32 { n as u32 }
pub fn m(n: u32) -> u64 { u64::from(n) }";

/// The workspace lint tables of the root manifest, verbatim.
fn workspace_lint_tables() -> String {
    let manifest = fs::read_to_string(repo_root().join("Cargo.toml")).expect("root manifest");
    let mut tables = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        }
        if inside {
            tables.push_str(line);
            tables.push('\n');
        }
    }
    assert!(
        tables.contains("[workspace.lints.clippy]"),
        "the root manifest lost its clippy lint table"
    );
    tables
}

/// Runs `cargo clippy -- -D warnings` on a one-file crate, each line of
/// `items` under its own doc line, whose lint table and `clippy.toml`
/// are the real workspace's. Returns whether it passed and each
/// `(line, message)` clippy reported in `src/lib.rs`.
fn clippy_on(tag: &str, items: &str) -> (bool, Vec<(usize, String)>) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("clippy-fixture-{tag}"));
    fs::create_dir_all(root.join("src")).expect("fixture mkdir");
    fs::write(
        root.join("Cargo.toml"),
        format!(
            "[package]\nname = \"clippy-fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[lints]\nworkspace = true\n\n[workspace]\n\n{}",
            workspace_lint_tables()
        ),
    )
    .expect("fixture write");
    fs::copy(repo_root().join("clippy.toml"), root.join("clippy.toml")).expect("clippy.toml");
    let mut lib = String::from("//! Clippy fixture.\n");
    for item in items.lines() {
        lib.push_str("/// Plant.\n");
        lib.push_str(item);
        lib.push('\n');
    }
    fs::write(root.join("src/lib.rs"), lib).expect("fixture write");
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--message-format=short"])
        .arg("--target-dir")
        .arg(root.join("target"))
        .args(["--", "-D", "warnings"])
        .current_dir(&root)
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command"),
        "clippy is not installed; this test needs it:\n{stderr}"
    );
    let reported = stderr
        .lines()
        .filter_map(|l| {
            let (line, message) = l.strip_prefix("src/lib.rs:")?.split_once(':')?;
            Some((line.parse().ok()?, message.to_string()))
        })
        .collect();
    (out.status.success(), reported)
}

#[test]
fn clippy_reports_every_moved_rule_at_its_line() {
    let (passed, reported) = clippy_on("planted", PLANTED);
    assert!(!passed, "the planted fixture must fail clippy");
    for (i, diagnostic) in DIAGNOSTICS.iter().enumerate() {
        // Line 1 is the crate doc; each plant follows its own doc line.
        let line = 3 + 2 * i;
        assert!(
            reported
                .iter()
                .any(|(l, m)| *l == line && m.contains(diagnostic)),
            "`{diagnostic}` not reported at line {line}; clippy said: {reported:#?}"
        );
    }
    assert!(
        reported.iter().all(|(l, _)| *l >= 3 && (*l - 3) % 2 == 0),
        "clippy flagged a line outside the plants: {reported:#?}"
    );

    let (passed, reported) = clippy_on("reasoned", REASONED);
    assert!(
        passed,
        "the reasoned fixture must pass clippy: {reported:#?}"
    );
}
