//! The four workloads, their jobs, and the metrics a run reports.
//!
//! A run is a closed loop: one job at a time, the next starting only
//! after the previous one finished, until the run's time is used up (at
//! least one job; no job is started that would, at the mean job length
//! so far, end past the deadline). Every call into a layer is wrapped in
//! a [`Tracer`] span, which also times it; untraced runs keep no spans.
//! A [`Clock`] splits each job into parts (set-up, then each simulation
//! run or experiment) and gives the end-to-end times in reference
//! seconds, corrected for the host's speed. After the jobs, lone set-ups
//! bring `setup_s` up to [`SETUPS`] samples.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::experiments::{registry, ExperimentContext, ScenarioKind};
use rfc_net::graph::HeapBytes;
use rfc_net::parallel::child_seed;
use rfc_net::routing::UpDownRouting;
use rfc_net::scenarios::Scale;
use rfc_net::sim::{
    ChurnResult, FaultSchedule, RunScratch, SimConfig, SimNetwork, SimResult, Simulation,
    TrafficPattern,
};
use rfc_net::topology::{FoldedClos, LiveClos};

use crate::clock::{Clock, Times, REFERENCE_S};
use crate::golden::{self, GoldenFile, Outputs};
use crate::probe;
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Draws allowed before an RFC without up/down routing is an error (the
/// bound `ExperimentContext` uses).
const MAX_DRAWS: u64 = 50;

/// Set-ups per run: when fewer jobs than this fit in a run (`repro-small`
/// fits 2–3, `rfc-saturated` 3–4), lone set-ups, each built and dropped,
/// make up the rest, so that `setup_s` is a median over this many samples.
const SETUPS: usize = 8;

/// The workloads, in the order the full benchmark runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturated uniform traffic on the 1,024-terminal RFC.
    RfcSaturated,
    /// Light uniform traffic on the 209,952-terminal CFT.
    LargeLight,
    /// Poisson link churn on the 1,024-terminal RFC.
    RfcChurn,
    /// Every registered experiment at small scale (`rfcgen repro`).
    ReproSmall,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::RfcSaturated,
        Workload::LargeLight,
        Workload::RfcChurn,
        Workload::ReproSmall,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RfcSaturated => "rfc-saturated",
            Workload::LargeLight => "large-light",
            Workload::RfcChurn => "rfc-churn",
            Workload::ReproSmall => "repro-small",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the workload's process; the benchmark box has 2
    /// cores. `repro-small` runs on one: with two, each worker's
    /// allocator arena keeps what its trials freed, and the process peak
    /// jumps between ~15 and ~19 MB from run to run.
    pub fn threads(self) -> usize {
        match self {
            Workload::ReproSmall => 1,
            _ => 2,
        }
    }

    fn spec(self, smoke: bool) -> Spec {
        // Smoke sizes cut terminals × cycles by roughly 50–100x.
        let rfc = if smoke {
            Net::Rfc {
                radix: 8,
                n1: 32,
                levels: 3,
            }
        } else {
            Net::Rfc {
                radix: 16,
                n1: 128,
                levels: 3,
            }
        };
        let cycles = |full: (u64, u64)| if smoke { (200, 800) } else { full };
        match self {
            Workload::RfcSaturated => Spec::Sim(SimSpec {
                net: rfc,
                load: 1.0,
                cycles: cycles((2_000, 8_000)),
                warm_runs: 2,
                churn: None,
            }),
            Workload::LargeLight => Spec::Sim(SimSpec {
                net: if smoke {
                    Net::Cft {
                        radix: 24,
                        levels: 3,
                    }
                } else {
                    Net::Cft {
                        radix: 36,
                        levels: 4,
                    }
                },
                load: 0.02,
                cycles: cycles((200, 800)),
                warm_runs: 0,
                churn: None,
            }),
            Workload::RfcChurn => Spec::Sim(SimSpec {
                net: rfc,
                load: 0.4,
                cycles: cycles((1_000, 4_000)),
                warm_runs: 2,
                churn: Some(if smoke {
                    Churn {
                        rate: 0.008,
                        mean_downtime: 125.0,
                        epochs: 8,
                    }
                } else {
                    Churn {
                        rate: 0.08,
                        mean_downtime: 625.0,
                        epochs: 8,
                    }
                }),
            }),
            Workload::ReproSmall => {
                let mut sim = rfc_net::experiments::runner::sim_for_scale(Scale::Small);
                if smoke {
                    sim.warmup_cycles = 100;
                    sim.measure_cycles = 300;
                }
                Spec::Repro(ReproSpec {
                    sim,
                    // fig11's binary search alone outlasts the whole smoke
                    // budget even at one trial.
                    skip: if smoke { &["fig11"] } else { &[] },
                })
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Net {
    Rfc {
        radix: usize,
        n1: usize,
        levels: usize,
    },
    Cft {
        radix: usize,
        levels: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Churn {
    rate: f64,
    mean_downtime: f64,
    epochs: usize,
}

#[derive(Debug, Clone, Copy)]
struct SimSpec {
    net: Net,
    load: f64,
    cycles: (u64, u64),
    warm_runs: usize,
    churn: Option<Churn>,
}

impl SimSpec {
    fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_defaults();
        (cfg.warmup_cycles, cfg.measure_cycles) = self.cycles;
        cfg
    }
}

#[derive(Debug, Clone, Copy)]
struct ReproSpec {
    sim: SimConfig,
    skip: &'static [&'static str],
}

#[derive(Debug, Clone, Copy)]
enum Spec {
    Sim(SimSpec),
    Repro(ReproSpec),
}

/// How one workload process runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement time; at least one job runs.
    pub seconds: f64,
    /// Keep spans, write the trace and report the per-layer metrics
    /// instead of the end-to-end ones.
    pub trace: bool,
    /// Run at about 1/50 of the full size.
    pub smoke: bool,
    /// Shards per simulation run (1 or 2).
    pub shards: usize,
    /// Where the golden files live.
    pub golden_dir: PathBuf,
    /// Rewrite this workload's golden outputs instead of checking them.
    pub bless: bool,
    /// Traces go to `<out_dir>/<workload>/trace.json`.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Median, quartiles, maximum and sample count; `None` when the host
    /// cannot measure it. A layer the workload never enters reports 0
    /// from 0 samples.
    pub summary: Option<Summary>,
}

impl Metric {
    fn of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            summary: Some(Summary::of(samples).unwrap_or(Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                max: 0.0,
                n: 0,
            })),
        }
    }

    /// The reported value: the median (0 when unmeasured).
    pub fn value(&self) -> f64 {
        self.summary.map_or(0.0, |s| s.median)
    }
}

/// What one workload run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Jobs started.
    pub attempted: u64,
    /// Jobs that errored or whose outputs differ from the golden or from
    /// the run's first job.
    pub failed: u64,
    /// The end-to-end metrics, or the per-layer ones when traced.
    pub metrics: Vec<Metric>,
    /// Remarks for the report: golden status, failures, bless diffs.
    pub notes: Vec<String>,
}

/// End-to-end metrics: what a user waits for and pays, the times in
/// reference seconds (see [`crate::clock`]).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in report order. The per-experiment timings
/// `core.<experiment>_s` follow `core.` entries; see [`per_layer_names`].
const PER_LAYER: [(&str, &str); 36] = [
    ("topology.build_s", "s"),
    ("topology.draws", "count"),
    ("routing.build_s", "s"),
    ("routing.bytes_per_terminal", "B/terminal"),
    ("routing.repair_s", "s"),
    ("routing.repair_us_per_event", "us/event"),
    ("routing.dirty_switches_per_event", "switch/event"),
    ("routing.dst_delta_per_event", "leaf/event"),
    ("sim.table_build_s", "s"),
    ("sim.table_bytes_per_terminal", "B/terminal"),
    ("sim.warm_run_s", "s"),
    ("sim.ns_per_cycle", "ns/cycle"),
    ("sim.ns_per_packet", "ns/packet"),
    ("sim.cold_run_s", "s"),
    ("sim.first_touch_s", "s"),
    ("sim.delivered_packets", "count"),
    ("sim.refused_packets", "count"),
    ("sim.in_flight_at_end", "count"),
    ("sim.acceptance_ratio", "ratio"),
    ("sim.accepted_load", "phit/node/cycle"),
    ("sim.latency_p50_cycles", "cycles"),
    ("sim.latency_p99_cycles", "cycles"),
    ("sim.churn_overhead_s", "s"),
    ("sim.events_applied", "count"),
    ("sim.availability", "ratio"),
    ("parallel.shard_speedup", "ratio"),
    ("parallel.cpu_per_wall", "ratio"),
    ("core.report_hash_mismatches", "count"),
    ("bench.trace_overhead_s", "s"),
    ("bench.calibration_s", "s"),
    ("bench.self_s", "s"),
    ("topology.self_s", "s"),
    ("routing.self_s", "s"),
    ("sim.self_s", "s"),
    ("core.self_s", "s"),
    ("failure_rate", "ratio"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    for (name, unit) in PER_LAYER {
        if name == "core.report_hash_mismatches" {
            for exp in registry::all() {
                names.push((format!("core.{}_s", exp.name()), "s"));
            }
        }
        names.push((name.to_string(), unit));
    }
    names
}

/// Samples of every measured quantity, by metric name.
#[derive(Debug, Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, key: &str, value: f64) {
        self.0.entry(key.to_string()).or_default().push(value);
    }

    fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    fn median(&self, key: &str) -> f64 {
        median(self.get(key))
    }

    /// One set-up's time, corrected and raw.
    fn push_setup(&mut self, t: Times) {
        self.push("setup_s", t.ref_wall_s);
        self.push("wall.setup_s", t.wall_s);
    }
}

/// Runs one workload for `opts.seconds` and reports its metrics.
///
/// # Errors
///
/// Returns a description of a failure that prevents any measurement: an
/// unreadable golden file, a set-up that fails outside a job, or an
/// unwritable trace or golden file. Failed jobs are counted instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    rfc_net::parallel::set_threads(Some(opts.workload.threads()));
    // Experiments run their simulations unsharded, as `rfcgen repro`
    // does by default; the simulation workloads pass `opts.shards`.
    rfc_net::parallel::set_shards(Some(1));
    let spec = opts.workload.spec(opts.smoke);
    let name = opts.workload.name();
    let golden_path = golden::path(&opts.golden_dir, opts.smoke, opts.seed);
    let golden_file = GoldenFile::load(&golden_path)?;
    let golden = golden_file.as_ref().and_then(|g| g.outputs(name)).cloned();
    let mut notes = Vec::new();
    match (&golden, opts.bless) {
        (_, true) => {}
        (Some(_), false) => notes.push(format!(
            "checking outputs against {}",
            golden_path.display()
        )),
        (None, false) => notes.push(format!(
            "no golden for {name} at seed {}: checking only that every job equals the first{}",
            opts.seed,
            if opts.trace && matches!(spec, Spec::Sim(_)) {
                " and that 1 and 2 shards agree"
            } else {
                ""
            }
        )),
    }

    let mut tr = Tracer::new(opts.trace);
    let mut s = Samples::default();
    let started = crate::trace::now();
    let mut clock = Clock::new(opts.workload.threads());
    let mut reference: Option<Outputs> = None;
    let (mut jobs, mut failed) = (0u64, 0u64);
    loop {
        tr.set_job(jobs);
        clock.begin_job();
        let (result, _) = tr.span("job", |tr| {
            let result = match &spec {
                Spec::Sim(sim) => sim_job(sim, opts, tr, &mut clock, &mut s),
                Spec::Repro(repro) => repro_job(repro, opts.seed, tr, &mut clock, &mut s),
            };
            clock.mark(tr);
            result
        });
        let job = clock.job();
        s.push("job_s", job.ref_wall_s);
        s.push("wall.job_s", job.wall_s);
        if let (Some(cpu), Some(ref_cpu)) = (job.cpu_s, job.ref_cpu_s) {
            s.push("cpu_s", ref_cpu);
            s.push("wall.cpu_s", cpu);
            s.push("parallel.cpu_per_wall", cpu / job.wall_s);
        }
        let problems = match result {
            Err(e) => vec![e],
            Ok(outputs) => {
                let mut problems = Vec::new();
                let mut differing = 0;
                if let (Some(want), false) = (&golden, opts.bless) {
                    let keys = golden::mismatches(want, &outputs);
                    differing = keys.len();
                    if !keys.is_empty() {
                        problems.push(format!(
                            "outputs differ from the golden: {}",
                            keys.join(", ")
                        ));
                    }
                }
                match &reference {
                    None => reference = Some(outputs),
                    Some(first) => {
                        let keys = golden::mismatches(first, &outputs);
                        differing = differing.max(keys.len());
                        if !keys.is_empty() {
                            problems
                                .push(format!("outputs differ from job 0: {}", keys.join(", ")));
                        }
                    }
                }
                if matches!(spec, Spec::Repro(_)) {
                    s.push("core.report_hash_mismatches", differing as f64);
                }
                problems
            }
        };
        if !problems.is_empty() {
            failed += 1;
            notes.extend(
                problems
                    .into_iter()
                    .map(|p| format!("job {jobs} failed: {p}")),
            );
        }
        if jobs == 0 {
            // The first job's peak: later jobs in the same process reuse
            // (and fragment) freed memory in ways that vary run to run.
            if let Some(peak) = probe::peak_rss_mb() {
                s.push("peak_rss_mb", peak);
            }
        }
        jobs += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / jobs as f64 > opts.seconds {
            break;
        }
    }
    // After the jobs, so that they change neither the jobs nor the first
    // job's peak. A set-up that failed failed its job too.
    while s.get("setup_s").len() < SETUPS {
        if lone_setup(&spec, opts.seed, &mut clock, &mut s).is_err() {
            break;
        }
    }

    if let (true, Some(outputs)) = (opts.bless, &reference) {
        let mut file = golden_file.unwrap_or_default();
        let diff = file.replace(name, outputs);
        file.save(&golden_path, opts.seed)?;
        notes.push(format!(
            "blessed {name} in {}: {} changed line(s)",
            golden_path.display(),
            diff.len()
        ));
        notes.extend(diff);
    }

    let metrics = if opts.trace {
        for job in 0..jobs {
            for layer in ["bench", "topology", "routing", "sim", "core"] {
                let own = tr
                    .layer_self_seconds(job)
                    .get(layer)
                    .copied()
                    .unwrap_or(0.0);
                s.push(&format!("{layer}.self_s"), own);
            }
        }
        s.push(
            "bench.trace_overhead_s",
            tr.overhead_seconds() / jobs as f64,
        );
        for &k in clock.kernel_samples() {
            s.push("bench.calibration_s", k);
        }
        s.push("failure_rate", failed as f64 / jobs as f64);
        let dir = opts.out_dir.join(name);
        let file = dir.join("trace.json");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&file, tr.to_json(name, opts.seed, jobs))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        notes.push(format!("wrote {}", file.display()));
        per_layer_metrics(&s, &spec)
    } else {
        notes.push(format!(
            "wall clock, not corrected for the host's speed: setup_s {:.6}, job_s {:.6}, \
             cpu_s {:.6}; calibration kernel {:.6} s (reference {REFERENCE_S} s)",
            s.median("wall.setup_s"),
            s.median("wall.job_s"),
            s.median("wall.cpu_s"),
            median(clock.kernel_samples()),
        ));
        end_to_end_metrics(&s)
    };
    Ok(Outcome {
        attempted: jobs,
        failed,
        metrics,
        notes,
    })
}

fn end_to_end_metrics(s: &Samples) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            unit,
            summary: Summary::of(s.get(name)),
        })
        .collect()
}

fn per_layer_metrics(s: &Samples, spec: &Spec) -> Vec<Metric> {
    let warm = s.get("sim.warm_run_s");
    let (cycles, delivered) = match spec {
        Spec::Sim(sim) => (
            (sim.cycles.0 + sim.cycles.1) as f64,
            s.median("sim.delivered_packets"),
        ),
        Spec::Repro(_) => (0.0, 0.0),
    };
    let per = |total: f64, count: f64| -> Vec<f64> {
        if count > 0.0 {
            warm.iter().map(|t| t * total / count).collect()
        } else {
            Vec::new()
        }
    };
    let difference = |a: &str, b: &str| -> Vec<f64> {
        if s.get(a).is_empty() || s.get(b).is_empty() {
            Vec::new()
        } else {
            vec![s.median(a) - s.median(b)]
        }
    };
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let samples = match name.as_str() {
                "sim.ns_per_cycle" => per(1e9, cycles),
                "sim.ns_per_packet" => per(1e9, delivered),
                "sim.first_touch_s" => difference("sim.cold_run_s", "sim.warm_run_s"),
                "sim.churn_overhead_s" => difference("sim.warm_run_s", "empty_schedule_run_s"),
                "parallel.shard_speedup"
                    if !s.get("warm@1").is_empty() && !s.get("warm@2").is_empty() =>
                {
                    vec![s.median("warm@1") / s.median("warm@2")]
                }
                _ => s.get(&name).to_vec(),
            };
            Metric::of(&name, unit, &samples)
        })
        .collect()
}

/// A simulation workload's topology, routing and network.
struct Built {
    clos: FoldedClos,
    routing: UpDownRouting,
    net: SimNetwork,
}

/// Topology generation (with up/down retries for an RFC), the routing
/// build and the simulator network.
fn build(spec: &SimSpec, seed: u64, tr: &mut Tracer, s: &mut Samples) -> Result<Built, String> {
    let (clos, t_topology) = tr.span("topology.build", |tr| topology(spec.net, seed, tr));
    let (clos, draws) = clos?;
    s.push("topology.build_s", t_topology);
    s.push("topology.draws", draws as f64);
    let terminals = clos.num_terminals().max(1) as f64;
    let (routing, t_routing) = tr.span("routing.build", |tr| {
        let routing = UpDownRouting::new(&clos);
        tr.count("heap_bytes", routing.heap_bytes() as f64);
        routing
    });
    s.push("routing.build_s", t_routing);
    s.push(
        "routing.bytes_per_terminal",
        routing.heap_bytes() as f64 / terminals,
    );
    let (net, _) = tr.span("sim.network_build", |_| SimNetwork::from_folded_clos(&clos));
    Ok(Built { clos, routing, net })
}

/// Draws the workload's topology; for an RFC, draws until one has the
/// up/down property, exactly as `scenarios::rfc_with_updown` does, and
/// also returns the number of draws.
fn topology(net: Net, seed: u64, tr: &mut Tracer) -> Result<(FoldedClos, u64), String> {
    match net {
        Net::Cft { radix, levels } => {
            let clos = FoldedClos::cft(radix, levels).map_err(|e| e.to_string())?;
            tr.count("draws", 1.0);
            Ok((clos, 1))
        }
        Net::Rfc { radix, n1, levels } => {
            let mut rng = StdRng::seed_from_u64(child_seed(seed, 0));
            for draw in 1..=MAX_DRAWS {
                let candidate =
                    FoldedClos::random(radix, n1, levels, &mut rng).map_err(|e| e.to_string())?;
                let (routable, _) = tr.span("routing.updown_check", |_| {
                    UpDownRouting::new(&candidate).has_updown_property()
                });
                if routable {
                    tr.count("draws", draw as f64);
                    return Ok((candidate, draw));
                }
            }
            Err(format!(
                "no RFC({radix}, {n1}, {levels}) with up/down routing in {MAX_DRAWS} draws"
            ))
        }
    }
}

/// The candidate-table build inside `Simulation::new`.
fn table_build<'a>(
    spec: &SimSpec,
    built: &'a Built,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Simulation<'a, UpDownRouting> {
    let (sim, seconds) = tr.span("sim.table_build", |tr| {
        let sim = Simulation::new(&built.net, &built.routing, spec.config());
        tr.count(
            "table_bytes",
            sim.candidate_table_bytes().unwrap_or(0) as f64,
        );
        sim
    });
    s.push("sim.table_build_s", seconds);
    let terminals = built.net.num_terminals().max(1) as f64;
    s.push(
        "sim.table_bytes_per_terminal",
        sim.candidate_table_bytes().unwrap_or(0) as f64 / terminals,
    );
    sim
}

/// One set-up outside any job, timed into `setup_s` and dropped. Its
/// spans and layer samples are not kept: the per-layer metrics describe
/// the jobs.
fn lone_setup(spec: &Spec, seed: u64, clock: &mut Clock, s: &mut Samples) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let mut layers = Samples::default();
    clock.begin_job();
    match spec {
        Spec::Sim(sim) => {
            let built = build(sim, seed, &mut tr, &mut layers)?;
            let _simulation = table_build(sim, &built, &mut tr, &mut layers);
            s.push_setup(clock.mark(&mut tr));
        }
        Spec::Repro(repro) => {
            let _ctx = repro_context(repro, seed, &mut tr)?;
            s.push_setup(clock.mark(&mut tr));
        }
    }
    Ok(())
}

/// One engine run's result.
struct RunOut {
    result: SimResult,
    churn: Option<(usize, f64)>,
    outputs: Outputs,
}

/// Everything fixed across the engine runs of one job.
struct Engine<'a> {
    sim: &'a Simulation<'a, UpDownRouting>,
    clos: &'a FoldedClos,
    spec: &'a SimSpec,
    traffic_seed: u64,
}

impl Engine<'_> {
    /// One run; under `schedule` when the workload has churn.
    fn run(
        &self,
        schedule: Option<&FaultSchedule>,
        shards: usize,
        scratch: &mut RunScratch,
        tr: &mut Tracer,
    ) -> (RunOut, f64) {
        let name = if schedule.is_some() {
            "sim.run_churn"
        } else {
            "sim.run"
        };
        tr.span(name, |tr| {
            let (result, churn) = match (schedule, self.spec.churn) {
                (Some(schedule), Some(churn)) => {
                    let ChurnResult {
                        result,
                        epoch_accepted,
                        availability,
                        events_applied,
                    } = self.sim.run_churn_sharded_scratch(
                        self.clos,
                        schedule,
                        TrafficPattern::Uniform,
                        self.spec.load,
                        self.traffic_seed,
                        churn.epochs,
                        shards,
                        scratch,
                    );
                    (result, Some((events_applied, availability, epoch_accepted)))
                }
                _ => {
                    let result = self.sim.run_sharded_scratch(
                        TrafficPattern::Uniform,
                        self.spec.load,
                        self.traffic_seed,
                        shards,
                        scratch,
                    );
                    (result, None)
                }
            };
            tr.count("shards", shards as f64);
            tr.count("cycles", (self.spec.cycles.0 + self.spec.cycles.1) as f64);
            tr.count("delivered_packets", result.delivered_packets as f64);
            let mut outputs = result_outputs(&result);
            if let Some((events, availability, epochs)) = &churn {
                outputs.push(("events_applied".into(), events.to_string()));
                outputs.push(("availability".into(), format!("{availability:?}")));
                let epochs: Vec<String> = epochs.iter().map(|x| format!("{x:?}")).collect();
                outputs.push(("epoch_accepted".into(), epochs.join(",")));
            }
            RunOut {
                result,
                churn: churn.map(|(events, availability, _)| (events, availability)),
                outputs,
            }
        })
    }
}

/// The exact fields of a `SimResult`, floats in shortest round-trip form.
fn result_outputs(r: &SimResult) -> Outputs {
    let mut out: Outputs = [
        ("accepted_load", r.accepted_load),
        ("avg_latency", r.avg_latency),
        ("latency_p50", r.latency_p50),
        ("latency_p95", r.latency_p95),
        ("latency_p99", r.latency_p99),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), format!("{v:?}")))
    .collect();
    for (k, v) in [
        ("delivered_packets", r.delivered_packets),
        ("generated_packets", r.generated_packets),
        ("refused_packets", r.refused_packets),
        ("in_flight_at_end", r.in_flight_at_end),
    ] {
        out.push((k.to_string(), v.to_string()));
    }
    out
}

/// Set-up, then one cold run on a fresh `RunScratch` and the workload's
/// warm runs on the same scratch, each its own part of the job. Traced
/// jobs add one run at the other shard count (and, without warm runs, one
/// warm run), plus for churn a run with an empty schedule and a replay of
/// the repairs.
fn sim_job(
    spec: &SimSpec,
    opts: &Options,
    tr: &mut Tracer,
    clock: &mut Clock,
    s: &mut Samples,
) -> Result<Outputs, String> {
    let built = build(spec, opts.seed, tr, s)?;
    let sim = table_build(spec, &built, tr, s);
    s.push_setup(clock.mark(tr));
    let schedule = spec.churn.map(|churn| {
        tr.span("sim.fault_schedule", |_| {
            FaultSchedule::poisson(
                &built.clos,
                churn.rate,
                churn.mean_downtime,
                spec.config().total_cycles(),
                child_seed(opts.seed, 2),
            )
        })
        .0
    });
    let engine = Engine {
        sim: &sim,
        clos: &built.clos,
        spec,
        traffic_seed: child_seed(opts.seed, 1),
    };
    let mut scratch = RunScratch::new();
    let main = format!("warm@{}", opts.shards);

    let (cold, t) = engine.run(schedule.as_ref(), opts.shards, &mut scratch, tr);
    s.push("sim.cold_run_s", t);
    record_result(s, &cold);
    let warm_runs = if opts.trace {
        spec.warm_runs.max(1)
    } else {
        spec.warm_runs
    };
    for _ in 0..warm_runs {
        clock.mark(tr);
        let (warm, t) = engine.run(schedule.as_ref(), opts.shards, &mut scratch, tr);
        s.push("sim.warm_run_s", t);
        s.push(&main, t);
        if warm.outputs != cold.outputs {
            return Err("a warm run differs from the cold run".into());
        }
    }
    if opts.trace {
        let other = if opts.shards == 1 { 2 } else { 1 };
        let (run, t) = engine.run(schedule.as_ref(), other, &mut scratch, tr);
        s.push(&format!("warm@{other}"), t);
        if run.outputs != cold.outputs {
            return Err("results differ at 1 and 2 shards".into());
        }
        if let Some(schedule) = &schedule {
            let empty = FaultSchedule::empty();
            let (_, t) = engine.run(Some(&empty), opts.shards, &mut scratch, tr);
            s.push("empty_schedule_run_s", t);
            replay_repairs(&built, schedule, tr, s);
        }
    }
    Ok(cold.outputs)
}

fn record_result(s: &mut Samples, run: &RunOut) {
    let r = &run.result;
    s.push("sim.delivered_packets", r.delivered_packets as f64);
    s.push("sim.refused_packets", r.refused_packets as f64);
    s.push("sim.in_flight_at_end", r.in_flight_at_end as f64);
    s.push("sim.acceptance_ratio", r.acceptance_ratio());
    s.push("sim.accepted_load", r.accepted_load);
    s.push("sim.latency_p50_cycles", r.latency_p50);
    s.push("sim.latency_p99_cycles", r.latency_p99);
    if let Some((events, availability)) = run.churn {
        s.push("sim.events_applied", events as f64);
        s.push("sim.availability", availability);
    }
}

/// Replays `schedule` through `LiveClos::apply` and
/// `UpDownRouting::apply_event`, reading each repair's `RepairScope`.
fn replay_repairs(built: &Built, schedule: &FaultSchedule, tr: &mut Tracer, s: &mut Samples) {
    let mut live = LiveClos::new(&built.clos);
    let mut routing = built.routing.clone();
    let (mut applied, mut repair_s, mut dirty, mut delta) = (0usize, 0.0, 0usize, 0usize);
    tr.span("routing.repair_replay", |tr| {
        for (_, event) in schedule.events() {
            let (changed, _) = tr.span("topology.live_apply", |_| live.apply(event));
            if !changed {
                continue;
            }
            let (scope, t) = tr.span("routing.apply_event", |tr| {
                let scope = routing.apply_event(live.current(), event);
                tr.count("dirty_switches", scope.table_dirty.len() as f64);
                tr.count("dst_delta", scope.dst_delta.len() as f64);
                scope
            });
            applied += 1;
            repair_s += t;
            dirty += scope.table_dirty.len();
            delta += scope.dst_delta.len();
        }
    });
    let events = applied.max(1) as f64;
    s.push("routing.repair_s", repair_s);
    s.push("routing.repair_us_per_event", repair_s * 1e6 / events);
    s.push("routing.dirty_switches_per_event", dirty as f64 / events);
    s.push("routing.dst_delta_per_event", delta as f64 / events);
}

/// A fresh experiment context with the shared scenarios built, as the
/// first figures that use them would build them.
fn repro_context(
    spec: &ReproSpec,
    seed: u64,
    tr: &mut Tracer,
) -> Result<ExperimentContext, String> {
    tr.span("core.context", |_| {
        let mut ctx = ExperimentContext::new(Scale::Small, seed, spec.sim);
        // `rfcgen repro --trials 1`: with the default trials one job
        // (~20–40 s) outlasts a whole run.
        ctx.set_trials(Some(1));
        for kind in [
            ScenarioKind::EqualResources,
            ScenarioKind::IntermediateExpansion,
            ScenarioKind::MaximumExpansion,
        ] {
            ctx.scenario(kind).map_err(|e| e.to_string())?;
        }
        Ok(ctx)
    })
    .0
}

/// Every registered experiment in registry order on one context, as
/// `runner::run` does, each its own part of the job; outputs are the
/// FNV-1a hashes of each report's JSON.
fn repro_job(
    spec: &ReproSpec,
    seed: u64,
    tr: &mut Tracer,
    clock: &mut Clock,
    s: &mut Samples,
) -> Result<Outputs, String> {
    let mut ctx = repro_context(spec, seed, tr)?;
    s.push_setup(clock.mark(tr));
    let mut outputs = Outputs::new();
    let experiments = registry::all()
        .into_iter()
        .filter(|exp| !spec.skip.contains(&exp.name()));
    for (i, exp) in experiments.enumerate() {
        if i > 0 {
            clock.mark(tr);
        }
        let (reports, t) = tr.span(&format!("core.experiment:{}", exp.name()), |tr| {
            let reports = exp.run(&mut ctx);
            tr.count("reports", reports.as_ref().map_or(0, Vec::len) as f64);
            reports
        });
        s.push(&format!("core.{}_s", exp.name()), t);
        let reports = reports.map_err(|e| format!("{}: {e}", exp.name()))?;
        let hashes: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "{:016x}",
                    rfc_net::experiments::context::fnv64(r.to_json().as_bytes())
                )
            })
            .collect();
        outputs.push((exp.name().to_string(), hashes.join(",")));
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_draws_match_rfc_with_updown() {
        let mut tr = Tracer::new(false);
        for seed in [2017, 7, 1] {
            let (clos, draws) = topology(
                Net::Rfc {
                    radix: 8,
                    n1: 32,
                    levels: 3,
                },
                seed,
                &mut tr,
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(child_seed(seed, 0));
            let want = rfc_net::scenarios::rfc_with_updown(8, 32, 3, 50, &mut rng).unwrap();
            assert_eq!(clos.links(), want.links(), "seed {seed}");
            assert!(draws >= 1);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("rfc"), None);
    }

    #[test]
    fn per_layer_names_are_unique_and_cover_every_experiment() {
        let names = per_layer_names();
        let mut unique: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for exp in registry::all() {
            let name = format!("core.{}_s", exp.name());
            assert!(names.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
