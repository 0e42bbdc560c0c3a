//! The provenance-stamped experiment runner behind `rfcgen repro`.
//!
//! A run is identified by the hash of everything that determines its
//! outputs — scale, seed, trial override and the full simulator
//! configuration; **not** the thread count, which never changes results
//! (the seed-determinism contract of `rfc-parallel`). All artifacts of a
//! run live under `<root>/<run-id>/`:
//!
//! ```text
//! target/experiments/run-0123456789abcdef/
//!   manifest.json            # run parameters + per-experiment records
//!   fig8/
//!     experiment.json        # completion record: status + artifact hashes
//!     fig8-equal-resources-small.json
//!     fig8-equal-resources-small.csv
//!   ...
//! ```
//!
//! Rerunning with the same parameters skips every experiment whose
//! completion record and artifact hashes check out (`--force`
//! overrides); `--only` subsets accumulate into the same run directory,
//! and the manifest always aggregates every completed experiment of the
//! run. One failing (or panicking) experiment is recorded as `failed`
//! and the runner moves on.
//!
//! Determinism contract: for fixed `(scale, seed, trials, sim config)`
//! the report artifacts (`*.json`, `*.csv`) are byte-identical across
//! reruns and thread counts — enforced by `tests/registry.rs`. Wall
//! times live only in the completion records and the manifest, which
//! are provenance, not results.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use rfc_sim::SimConfig;

use crate::json::Json;
use crate::report::Report;
use crate::scenarios::Scale;

use super::context::{fnv64, ExperimentContext, ExperimentError};
use super::registry::{self, Experiment};

/// Parameters of one `repro` invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Artifact root; runs are written to `<root>/<run-id>/`.
    pub root: PathBuf,
    /// Experiment scale.
    pub scale: Scale,
    /// Base seed.
    pub seed: u64,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Monte-Carlo trial override (None = each experiment's default).
    pub trials: Option<usize>,
    /// Subset of registry names to run (None = all).
    pub only: Option<Vec<String>>,
    /// Re-run experiments whose artifacts already check out.
    pub force: bool,
}

impl RunOptions {
    /// Options running every experiment into [`default_root`].
    pub fn new(scale: Scale, seed: u64, sim: SimConfig) -> Self {
        Self {
            root: default_root(),
            scale,
            seed,
            sim,
            trials: None,
            only: None,
            force: false,
        }
    }
}

/// The default artifact root, `target/experiments`.
pub fn default_root() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// The evaluation's simulation window per scale: quick at small scale,
/// a trimmed window (3k warmup + 6k measured) at medium so a full
/// figure sweep stays in the tens of minutes, and the paper's exact
/// Table 2 window (5k + 10k) at paper scale.
pub fn sim_for_scale(scale: Scale) -> SimConfig {
    let mut cfg = SimConfig::paper_defaults();
    match scale {
        Scale::Small => cfg = SimConfig::quick(),
        Scale::Medium => {
            cfg.warmup_cycles = 3_000;
            cfg.measure_cycles = 6_000;
        }
        Scale::Paper => {}
    }
    cfg
}

/// The outcome of one experiment within a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Ran and wrote artifacts.
    Ran,
    /// Artifacts already present and hash-verified; not re-run.
    Skipped,
    /// Failed (error or panic) with this message.
    Failed(String),
}

/// What one [`run`] invocation did.
#[derive(Debug)]
pub struct RunSummary {
    /// The run's identity hash (directory name).
    pub run_id: String,
    /// The run directory.
    pub run_dir: PathBuf,
    /// `(experiment name, outcome)` in execution order.
    pub outcomes: Vec<(String, Outcome)>,
}

impl RunSummary {
    /// Names of experiments that failed this invocation.
    pub fn failures(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Failed(_)))
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// The run identity: a stable hash of every parameter that can change
/// the artifacts. Thread count is deliberately excluded — outputs are
/// thread-invariant.
pub fn run_id(scale: Scale, seed: u64, trials: Option<usize>, sim: &SimConfig) -> String {
    let key = format!(
        "scale={scale} seed={seed} trials={trials:?} vc={} buf={} plen={} link={} router={} \
         warmup={} measure={} reservoir={} mode={:?} valiant={}",
        sim.virtual_channels,
        sim.buffer_packets,
        sim.packet_length,
        sim.link_latency,
        sim.router_latency,
        sim.warmup_cycles,
        sim.measure_cycles,
        sim.latency_reservoir,
        sim.request_mode,
        sim.valiant_routing,
    );
    format!("run-{:016x}", fnv64(key.as_bytes()))
}

fn sim_to_json(sim: &SimConfig) -> Json {
    Json::Obj(vec![
        (
            "virtual_channels".into(),
            Json::Uint(sim.virtual_channels as u64),
        ),
        (
            "buffer_packets".into(),
            Json::Uint(sim.buffer_packets as u64),
        ),
        ("packet_length".into(), Json::Uint(sim.packet_length)),
        ("link_latency".into(), Json::Uint(sim.link_latency)),
        ("router_latency".into(), Json::Uint(sim.router_latency)),
        ("warmup_cycles".into(), Json::Uint(sim.warmup_cycles)),
        ("measure_cycles".into(), Json::Uint(sim.measure_cycles)),
        (
            "latency_reservoir".into(),
            Json::Uint(sim.latency_reservoir as u64),
        ),
        (
            "request_mode".into(),
            Json::Str(format!("{:?}", sim.request_mode)),
        ),
        ("valiant_routing".into(), Json::Bool(sim.valiant_routing)),
    ])
}

/// One artifact reference inside a completion record.
#[derive(Debug, Clone)]
struct ArtifactRef {
    file: String,
    hash: u64,
}

/// A per-experiment completion record (`experiment.json`).
#[derive(Debug, Clone)]
struct Record {
    name: String,
    paper_anchor: String,
    status: String,
    error: Option<String>,
    wall_seconds: f64,
    artifacts: Vec<ArtifactRef>,
}

impl Record {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("paper_anchor".into(), Json::Str(self.paper_anchor.clone())),
            ("status".into(), Json::Str(self.status.clone())),
            (
                "error".into(),
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            ("wall_seconds".into(), Json::Num(self.wall_seconds)),
            (
                "artifacts".into(),
                Json::Arr(
                    self.artifacts
                        .iter()
                        .map(|a| {
                            Json::Obj(vec![
                                ("file".into(), Json::Str(a.file.clone())),
                                ("hash".into(), Json::Uint(a.hash)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Record> {
        let artifacts = j
            .get("artifacts")?
            .as_arr()?
            .iter()
            .map(|a| {
                Some(ArtifactRef {
                    file: a.get("file")?.as_str()?.to_string(),
                    hash: a.get("hash")?.as_uint()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Record {
            name: j.get("name")?.as_str()?.to_string(),
            paper_anchor: j.get("paper_anchor")?.as_str()?.to_string(),
            status: j.get("status")?.as_str()?.to_string(),
            error: j.get("error").and_then(Json::as_str).map(str::to_string),
            wall_seconds: j.get("wall_seconds").and_then(Json::as_num).unwrap_or(0.0),
            artifacts,
        })
    }
}

/// Loads the completion record of `dir` if it parses.
fn load_record(dir: &Path) -> Option<Record> {
    let text = fs::read_to_string(dir.join("experiment.json")).ok()?;
    Record::from_json(&Json::parse(&text).ok()?)
}

/// True when `dir` holds a successful record whose artifacts all exist
/// with matching content hashes.
fn is_complete(dir: &Path, record: &Record) -> bool {
    record.status == "ok"
        && !record.artifacts.is_empty()
        && record.artifacts.iter().all(|a| {
            fs::read(dir.join(&a.file))
                .map(|bytes| fnv64(&bytes) == a.hash)
                .unwrap_or(false)
        })
}

/// Resolves `--only` names against the registry, preserving registry
/// order.
///
/// # Errors
///
/// Returns [`ExperimentError::UnknownExperiment`] for an unregistered
/// name.
pub fn select(only: Option<&[String]>) -> Result<Vec<&'static dyn Experiment>, ExperimentError> {
    match only {
        None => Ok(registry::all()),
        Some(names) => {
            for name in names {
                if registry::find(name).is_none() {
                    return Err(ExperimentError::UnknownExperiment(name.clone()));
                }
            }
            Ok(registry::all()
                .into_iter()
                .filter(|e| names.iter().any(|n| n == e.name()))
                .collect())
        }
    }
}

/// Runs one experiment, converting a panic into an error so a buggy
/// driver cannot abort the whole `repro` run.
fn run_caught(
    exp: &dyn Experiment,
    ctx: &mut ExperimentContext,
) -> Result<Vec<Report>, ExperimentError> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run(ctx)));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            Err(ExperimentError::Panicked(msg.to_string()))
        }
    }
}

/// Executes the selected experiments, writes artifacts and the
/// manifest, and returns what happened.
///
/// Progress lines (`[run ]`, `[skip]`, `[manifest]`) and every report's
/// text table go to `out`; failures are also reported on stderr.
///
/// Failures are captured per experiment (see [`Outcome::Failed`]); the
/// error return is reserved for conditions that invalidate the whole
/// run (unknown `--only` names, unwritable artifact root).
///
/// # Errors
///
/// Returns [`ExperimentError`] on unknown experiment names or run-level
/// I/O failures.
pub fn run(opts: &RunOptions, out: &mut dyn Write) -> Result<RunSummary, ExperimentError> {
    let selected = select(opts.only.as_deref())?;
    let id = run_id(opts.scale, opts.seed, opts.trials, &opts.sim);
    let run_dir = opts.root.join(&id);
    fs::create_dir_all(&run_dir)?;

    let mut ctx = ExperimentContext::new(opts.scale, opts.seed, opts.sim);
    ctx.set_trials(opts.trials);

    #[expect(
        clippy::disallowed_methods,
        reason = "provenance metadata only, never in artifacts"
    )]
    let run_started = std::time::Instant::now();

    let mut outcomes = Vec::new();
    for exp in &selected {
        let dir = run_dir.join(exp.name());
        if !opts.force {
            if let Some(record) = load_record(&dir) {
                if is_complete(&dir, &record) {
                    writeln!(out, "[skip] {} (complete, artifacts verified)", exp.name())?;
                    outcomes.push((exp.name().to_string(), Outcome::Skipped));
                    continue;
                }
            }
        }

        writeln!(out, "[run ] {} — {}", exp.name(), exp.description())?;
        #[expect(
            clippy::disallowed_methods,
            reason = "provenance metadata only, never in artifacts"
        )]
        let started = std::time::Instant::now();
        let result = run_caught(*exp, &mut ctx);
        let wall_seconds = started.elapsed().as_secs_f64();

        fs::create_dir_all(&dir)?;
        let record = match result {
            Ok(reports) => {
                let mut artifacts = Vec::new();
                for rep in &reports {
                    write!(out, "{}", rep.to_text())?;
                    let json_path = rep.write_json(&dir)?;
                    rep.write_csv(&dir)?;
                    for path in [json_path, dir.join(format!("{}.csv", rep.title))] {
                        let bytes = fs::read(&path)?;
                        artifacts.push(ArtifactRef {
                            file: path
                                .file_name()
                                .map(|n| n.to_string_lossy().into_owned())
                                .unwrap_or_default(),
                            hash: fnv64(&bytes),
                        });
                    }
                }
                outcomes.push((exp.name().to_string(), Outcome::Ran));
                Record {
                    name: exp.name().to_string(),
                    paper_anchor: exp.paper_anchor().to_string(),
                    status: "ok".to_string(),
                    error: None,
                    wall_seconds,
                    artifacts,
                }
            }
            Err(e) => {
                let msg = e.to_string();
                eprintln!("[fail] {}: {msg}", exp.name());
                outcomes.push((exp.name().to_string(), Outcome::Failed(msg.clone())));
                Record {
                    name: exp.name().to_string(),
                    paper_anchor: exp.paper_anchor().to_string(),
                    status: "failed".to_string(),
                    error: Some(msg),
                    wall_seconds,
                    artifacts: Vec::new(),
                }
            }
        };
        fs::write(dir.join("experiment.json"), record.to_json().render())?;
    }

    write_manifest(&run_dir, &id, opts, run_started.elapsed().as_secs_f64())?;
    writeln!(
        out,
        "[manifest] {}",
        run_dir.join("manifest.json").display()
    )?;

    Ok(RunSummary {
        run_id: id,
        run_dir,
        outcomes,
    })
}

/// Aggregates every completion record present in the run directory
/// (registry order) into `manifest.json`, together with the run
/// parameters.
fn write_manifest(
    run_dir: &Path,
    id: &str,
    opts: &RunOptions,
    wall_seconds: f64,
) -> std::io::Result<()> {
    let mut records = Vec::new();
    for exp in registry::all() {
        if let Some(record) = load_record(&run_dir.join(exp.name())) {
            records.push(record.to_json());
        }
    }
    let manifest = Json::Obj(vec![
        ("run_id".into(), Json::Str(id.to_string())),
        ("scale".into(), Json::Str(opts.scale.to_string())),
        ("seed".into(), Json::Uint(opts.seed)),
        (
            "trials".into(),
            match opts.trials {
                Some(t) => Json::Uint(t as u64),
                None => Json::Null,
            },
        ),
        (
            "threads".into(),
            Json::Uint(crate::parallel::current_threads() as u64),
        ),
        // Provenance only: like `threads`, the shard count cannot change
        // any result, so it is recorded here but kept out of `run_id`.
        (
            "shards".into(),
            Json::Uint(crate::parallel::current_shards() as u64),
        ),
        ("sim".into(), sim_to_json(&opts.sim)),
        ("wall_seconds".into(), Json::Num(wall_seconds)),
        ("experiments".into(), Json::Arr(records)),
    ]);
    fs::write(run_dir.join("manifest.json"), manifest.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_id_ignores_threads_but_not_seed_or_scale() {
        let sim = SimConfig::quick();
        let a = run_id(Scale::Small, 1, None, &sim);
        assert_eq!(a, run_id(Scale::Small, 1, None, &sim));
        assert_ne!(a, run_id(Scale::Small, 2, None, &sim));
        assert_ne!(a, run_id(Scale::Medium, 1, None, &sim));
        assert_ne!(a, run_id(Scale::Small, 1, Some(5), &sim));
        let mut slower = sim;
        slower.measure_cycles += 1;
        assert_ne!(a, run_id(Scale::Small, 1, None, &slower));
    }

    #[test]
    fn record_round_trips_through_json() {
        let record = Record {
            name: "fig8".into(),
            paper_anchor: "Figure 8".into(),
            status: "ok".into(),
            error: None,
            wall_seconds: 1.5,
            artifacts: vec![ArtifactRef {
                file: "fig8.json".into(),
                hash: u64::MAX,
            }],
        };
        let parsed = Record::from_json(&Json::parse(&record.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed.name, "fig8");
        assert_eq!(parsed.status, "ok");
        assert_eq!(parsed.error, None);
        assert_eq!(parsed.artifacts.len(), 1);
        assert_eq!(parsed.artifacts[0].hash, u64::MAX);
    }

    #[test]
    fn select_rejects_unknown_names_and_keeps_registry_order() {
        let Err(err) = select(Some(&["fig13".to_string()])) else {
            panic!("unknown name must be rejected");
        };
        assert!(matches!(err, ExperimentError::UnknownExperiment(_)));
        let picked = select(Some(&["fig8".to_string(), "costs".to_string()])).unwrap();
        let names: Vec<_> = picked.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["costs", "fig8"], "registry order, not CLI order");
        assert_eq!(select(None).unwrap().len(), 16);
    }

    #[test]
    fn panicking_experiment_is_captured_not_propagated() {
        struct Bomb;
        impl Experiment for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn description(&self) -> &'static str {
                "always panics"
            }
            fn paper_anchor(&self) -> &'static str {
                "none"
            }
            fn run(&self, _ctx: &mut ExperimentContext) -> Result<Vec<Report>, ExperimentError> {
                panic!("boom");
            }
        }
        let mut ctx = ExperimentContext::new(Scale::Small, 1, SimConfig::quick());
        let err = run_caught(&Bomb, &mut ctx).unwrap_err();
        assert!(matches!(err, ExperimentError::Panicked(ref m) if m.contains("boom")));
    }
}
