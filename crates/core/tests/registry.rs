//! Integration tests for the experiment registry and the `repro`
//! runner: registry completeness against EXPERIMENTS.md, scenario-cache
//! sharing, artifact determinism, and skip-on-rerun.

#![expect(
    clippy::expect_used,
    reason = "artifact paths and files come from the run just made; a failure is a failed test"
)]

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use rfc_net::experiments::context::fnv64;
use rfc_net::experiments::runner::{self, Outcome, RunOptions};
use rfc_net::experiments::{registry, ExperimentContext, ScenarioKind};
use rfc_net::scenarios::Scale;
use rfc_net::sim::SimConfig;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/core sits two levels below the repo root")
        .to_path_buf()
}

#[test]
fn registry_matches_experiments_md() {
    let names: BTreeSet<&str> = registry::all().iter().map(|e| e.name()).collect();
    assert_eq!(names.len(), 16, "registry must hold 16 unique experiments");

    let doc = fs::read_to_string(repo_root().join("EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md must exist at the repo root");

    // Every registered experiment has a `(`name`)` anchor in the doc.
    for name in &names {
        assert!(
            doc.contains(&format!("`{name}`")),
            "EXPERIMENTS.md has no section anchor for experiment `{name}`"
        );
    }

    // The reproduce-everything loop lists exactly the registry names.
    let loop_start = doc
        .find("for b in ")
        .expect("EXPERIMENTS.md must keep the reproduce-everything loop");
    let loop_body = &doc[loop_start + "for b in ".len()..];
    let loop_end = loop_body
        .find("; do")
        .expect("reproduce loop must end with `; do`");
    let listed: BTreeSet<&str> = loop_body[..loop_end]
        .split_whitespace()
        .filter(|tok| *tok != "\\")
        .collect();
    assert_eq!(
        listed, names,
        "the EXPERIMENTS.md reproduce loop and the registry disagree"
    );
}

#[test]
fn shared_scenario_is_not_rebuilt_by_a_second_experiment() {
    let mut ctx = ExperimentContext::new(Scale::Small, 2017, SimConfig::quick());
    let first = ctx
        .scenario(ScenarioKind::EqualResources)
        .expect("scenario must build");
    // The expensive part — routing tables — exists exactly once and the
    // second request returns the same allocation.
    let again = ctx
        .scenario(ScenarioKind::EqualResources)
        .expect("cache hit must not fail");
    assert!(Rc::ptr_eq(&first, &again));
    let stats = ctx.stats();
    assert_eq!(stats.scenario_builds, 1, "routing was reconstructed");
    assert_eq!(stats.scenario_hits, 1);
}

/// A tiny configuration that still exercises a simulation experiment.
fn tiny_options(root: PathBuf) -> RunOptions {
    let mut sim = SimConfig::quick();
    sim.warmup_cycles = 100;
    sim.measure_cycles = 200;
    let mut opts = RunOptions::new(Scale::Small, 2017, sim);
    opts.root = root;
    opts.trials = Some(2);
    opts.only = Some(vec![
        "costs".to_string(),
        "fig5".to_string(),
        "fig8".to_string(),
    ]);
    opts
}

/// Collects `(relative path, bytes)` of every report artifact (the
/// deterministic outputs; completion records and the manifest carry
/// wall times and are provenance, not results).
fn artifact_bytes(run_dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut dirs = vec![run_dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)
            .expect("run dir must be readable")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                dirs.push(path);
            } else {
                let name = path.file_name().expect("file name").to_string_lossy();
                if name == "experiment.json" || name == "manifest.json" {
                    continue;
                }
                let rel = path
                    .strip_prefix(run_dir)
                    .expect("under run dir")
                    .display()
                    .to_string();
                out.push((rel, fs::read(&path).expect("artifact must be readable")));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn repro_runs_are_byte_identical_and_reruns_skip() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-determinism");
    if base.exists() {
        fs::remove_dir_all(&base).expect("stale test dir must be removable");
    }

    let first = runner::run(&tiny_options(base.join("a")), &mut io::sink())
        .expect("first run must succeed");
    assert!(first.failures().is_empty(), "{:?}", first.outcomes);
    assert!(first.run_dir.join("manifest.json").is_file());
    assert!(first.run_dir.join("fig8").join("experiment.json").is_file());

    // An independent run with identical parameters into a fresh root
    // produces byte-identical report artifacts (JSON and CSV).
    let second = runner::run(&tiny_options(base.join("b")), &mut io::sink())
        .expect("second run must succeed");
    assert_eq!(first.run_id, second.run_id, "run identity must be stable");
    let a = artifact_bytes(&first.run_dir);
    let b = artifact_bytes(&second.run_dir);
    assert!(!a.is_empty(), "no artifacts were written");
    assert_eq!(
        a.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        b.iter().map(|(p, _)| p).collect::<Vec<_>>(),
    );
    for ((path_a, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(
            bytes_a, bytes_b,
            "artifact {path_a} differs between identical runs"
        );
    }

    // Rerunning into an existing run directory skips everything.
    let rerun =
        runner::run(&tiny_options(base.join("a")), &mut io::sink()).expect("rerun must succeed");
    assert!(
        rerun.outcomes.iter().all(|(_, o)| *o == Outcome::Skipped),
        "verified artifacts must be skipped: {:?}",
        rerun.outcomes
    );

    // --force reruns and still produces the same bytes.
    let mut forced = tiny_options(base.join("a"));
    forced.force = true;
    forced.only = Some(vec!["costs".to_string()]);
    let forced_run = runner::run(&forced, &mut io::sink()).expect("forced rerun must succeed");
    assert_eq!(
        forced_run.outcomes,
        vec![("costs".to_string(), Outcome::Ran)]
    );
    assert_eq!(
        artifact_bytes(&first.run_dir),
        a,
        "forced rerun changed artifacts"
    );
}

#[test]
fn unknown_only_name_fails_before_running_anything() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-unknown");
    let mut opts = tiny_options(base.clone());
    opts.only = Some(vec!["fig99".to_string()]);
    let err = match runner::run(&opts, &mut io::sink()) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("unknown experiment name must be rejected"),
    };
    assert!(err.contains("fig99"), "unhelpful error: {err}");
}

#[test]
fn bisection_and_diversity_reproduce_their_recorded_hashes() {
    // Recorded values at each entry's default trial count (4 random
    // starts, 60 leaf pairs): any change to the cut search or to the
    // up/down path queries moves a hash.
    let mut got = Vec::new();
    for name in ["bisection", "diversity"] {
        let mut ctx = ExperimentContext::new(Scale::Small, 2017, SimConfig::quick());
        let reports = registry::find(name)
            .expect("registered experiment")
            .run(&mut ctx)
            .expect("experiment must run");
        for rep in reports {
            got.push((name, fnv64(rep.to_json().as_bytes())));
        }
    }
    assert_eq!(
        got,
        [
            ("bisection", 0xdb10_ed28_d5e0_e33b),
            ("diversity", 0xa956_2603_9740_380c),
        ]
    );
}
