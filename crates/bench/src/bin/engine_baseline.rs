//! The tracked engine performance baseline (`BENCH_sim.json`).
//!
//! Runs a fixed, fully deterministic saturation workload per scale and
//! reports the cycle engine's throughput (simulated cycles per wall
//! second) plus the one-time setup costs (routing-table and ECMP
//! candidate-table build times). Each scale is measured at several
//! shard counts (`--shards`); sharding is a pure speed knob — results
//! are byte-identical, which this binary asserts on every run. The
//! numbers land in `BENCH_sim.json` at the repo root — the committed
//! perf trajectory every engine PR must move (or at least not regress);
//! see DESIGN.md §10 and §13.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rfc-bench --bin engine_baseline            # all scales -> BENCH_sim.json
//! cargo run --release -p rfc-bench --bin engine_baseline -- --scale small
//! cargo run --release -p rfc-bench --bin engine_baseline -- --scale small \
//!     --shards 1,2 --check BENCH_sim.json --out target/BENCH_sim.json
//!                                                                   # CI smoke: >2x regression or
//!                                                                   # moved accepted_load fails
//! cargo run --release -p rfc-bench --bin engine_baseline -- --scale large --table-only
//!                                                                   # build-only: table kind + bytes
//! cargo run --release -p rfc-bench --bin engine_baseline -- --scale medium --repair
//!                                                                   # incremental repair vs rebuild
//! ```
//!
//! The workload itself is scale-keyed (CFT topology, uniform traffic at
//! saturation) and never changes between runs, so cycles/sec numbers
//! are comparable across commits on the same hardware class. An
//! existing `"trajectory"` array in the output file is preserved
//! verbatim, so the before/after history survives regeneration.
//!
//! The `--check` regression gate applies to `small` and `medium` only
//! (the `large` scale — 100K+ terminals — is report-only: big enough
//! that a loaded CI host would flake the 2x budget). It fails when the
//! deterministic `accepted_load` differs from the committed value at
//! its 4 written decimals — the engine's results moved. For each measured
//! shard count the gate compares against the committed
//! `sharded_cycles_per_sec` entry, falling back to the scale's
//! top-level (serial) `cycles_per_sec` for 1 shard; shard counts with
//! no committed value are noted and skipped rather than failed, so new
//! shard counts can be introduced without a chicken-and-egg problem.

use std::process::ExitCode;

use rfc_net::graph::HeapBytes;
use rfc_net::routing::UpDownRouting;
use rfc_net::sim::churn::DynState;
use rfc_net::sim::{SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_net::topology::{FoldedClos, LinkEvent};

/// One scale's fixed workload definition.
struct Workload {
    name: &'static str,
    /// CFT radix and levels (deterministic topology: no RNG in setup).
    radix: usize,
    levels: usize,
    warmup: u64,
    measure: u64,
    /// Timed engine runs per shard count; the fastest is reported.
    runs: usize,
    /// Shard counts measured by default (overridable with `--shards`).
    shard_counts: &'static [usize],
    /// Whether `--check` gates this scale against the committed file.
    gate: bool,
}

const SMALL: Workload = Workload {
    name: "small",
    radix: 8,
    levels: 3,
    warmup: 300,
    measure: 1_000,
    runs: 5,
    shard_counts: &[1, 2],
    gate: true,
};

const MEDIUM: Workload = Workload {
    name: "medium",
    radix: 16,
    levels: 3,
    warmup: 1_000,
    measure: 4_000,
    runs: 3,
    shard_counts: &[1, 4, 8],
    gate: true,
};

/// The "large" scale: cft(36, 4) = 209,952 terminals on 40,824
/// radix-36 switches. The deduplicated candidate table (DESIGN.md §15)
/// keeps even this scale inside the byte budget, so it runs the
/// materialized path like the others. Short window: one cycle here
/// touches ~200x the state of a medium cycle.
const LARGE: Workload = Workload {
    name: "large",
    radix: 36,
    levels: 4,
    warmup: 100,
    measure: 300,
    runs: 1,
    shard_counts: &[1, 4, 8],
    gate: false,
};

/// Fixed seed: the baseline is a benchmark, not an experiment; one
/// representative stream is enough and keeps runs comparable.
const SEED: u64 = 2017;

/// Measured numbers for one scale.
struct Measurement {
    name: &'static str,
    gate: bool,
    terminals: usize,
    switches: usize,
    cycles: u64,
    /// Serial (1-shard) throughput — the historical headline number.
    cycles_per_sec: f64,
    /// (shard count, cycles/sec), in measured order.
    sharded: Vec<(usize, f64)>,
    routing_build_ms: f64,
    table_build_ms: f64,
    /// "deduped" when the candidate table materialized, "live" when the
    /// simulation fell back to per-request oracle queries.
    table: &'static str,
    /// Logical bytes of routing state (reach sets + CSR adjacency +
    /// candidate table) per terminal, rounded up — the per-scale memory
    /// figure ratcheted in `xtask-ratchet.toml`.
    routing_bytes_per_terminal: usize,
    accepted_load: f64,
}

// Wall-clock is the entire point of this binary; results never feed
// back into any experiment output.
#[allow(clippy::disallowed_methods)]
fn now() -> std::time::Instant {
    std::time::Instant::now()
}

/// Builds a workload's network, routing, and candidate table without
/// simulating — the cheap half of [`measure`], enough to answer "does
/// this scale materialize the table, and at what memory cost?".
/// `--table-only` uses it so CI can assert the `large` table
/// materializes without paying minutes of saturated simulation.
fn build_report(w: &Workload) {
    let clos = match FoldedClos::cft(w.radix, w.levels) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: workload topology: {e}");
            std::process::exit(1);
        }
    };
    let net = SimNetwork::from_folded_clos(&clos);

    let t0 = now();
    let routing = UpDownRouting::new(&clos);
    let routing_build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut cfg = SimConfig::paper_defaults();
    cfg.warmup_cycles = w.warmup;
    cfg.measure_cycles = w.measure;

    let t1 = now();
    let sim = Simulation::new(&net, &routing, cfg);
    let table_build_ms = t1.elapsed().as_secs_f64() * 1e3;

    let table_bytes = sim.candidate_table_bytes();
    let routing_bytes = routing.heap_bytes() + table_bytes.unwrap_or(0);
    eprintln!(
        "# {}: {} terminals, {} table, {} routing bytes/terminal \
         (routing build {:.1} ms, table build {:.1} ms)",
        w.name,
        net.num_terminals(),
        if table_bytes.is_some() {
            "deduped"
        } else {
            "live"
        },
        routing_bytes.div_ceil(net.num_terminals().max(1)),
        routing_build_ms,
        table_build_ms,
    );
}

/// Times single-event incremental routing repair — the churn runner's
/// own apply step, [`DynState::apply`] (topology overlay +
/// `UpDownRouting::apply_event` + candidate-table patch) — against a
/// from-scratch rebuild on the same faulted topology (DESIGN.md §16).
/// `--repair` uses it; the measured ratio is the Figure 11 driver's
/// speed lever, so a collapse here is a perf regression even while all
/// byte-identity tests stay green.
fn repair_report(w: &Workload) {
    let clos = match FoldedClos::cft(w.radix, w.levels) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: workload topology: {e}");
            std::process::exit(1);
        }
    };
    let net = SimNetwork::from_folded_clos(&clos);
    let routing = UpDownRouting::new(&clos);
    let mut cfg = SimConfig::paper_defaults();
    cfg.warmup_cycles = w.warmup;
    cfg.measure_cycles = w.measure;
    let sim = Simulation::new(&net, &routing, cfg);
    let mut links = clos.links();
    links.sort_unstable();
    links.dedup();
    let trials = 12.min(links.len());
    let mut state = DynState::new(&sim, &clos);
    let (mut incremental_s, mut rebuild_s) = (0.0f64, 0.0f64);
    let (mut applied, mut rebuilds) = (0usize, 0usize);
    for i in 0..trials {
        // Evenly spaced links: a fixed sample, no RNG needed.
        let fail = LinkEvent::fail(links[i * links.len() / trials]);
        // Fail, then recover back to the pristine state for the next
        // trial; a churn cycle pays both directions, so both count.
        for ev in [fail, fail.inverse()] {
            let t = now();
            let changed = state.apply(&ev);
            incremental_s += t.elapsed().as_secs_f64();
            applied += usize::from(changed);
        }
        let faulty = clos.with_links_removed(&[fail.link]);
        let t = now();
        let rebuilt = UpDownRouting::new(&faulty);
        let rebuilt_sim = Simulation::new(&net, &rebuilt, cfg);
        rebuild_s += t.elapsed().as_secs_f64();
        std::hint::black_box(&rebuilt_sim);
        rebuilds += 1;
    }
    let per_event = incremental_s / applied.max(1) as f64;
    let per_rebuild = rebuild_s / rebuilds.max(1) as f64;
    eprintln!(
        "# {}: {applied} single-link events ({rebuilds} links failed and recovered): \
         incremental repair {:.2} ms/event vs full rebuild {:.2} ms/event — {:.1}x speedup",
        w.name,
        per_event * 1e3,
        per_rebuild * 1e3,
        per_rebuild / per_event,
    );
}

fn measure(w: &Workload, shard_counts: &[usize]) -> Measurement {
    let clos = match FoldedClos::cft(w.radix, w.levels) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: workload topology: {e}");
            std::process::exit(1);
        }
    };
    let net = SimNetwork::from_folded_clos(&clos);

    let t0 = now();
    let routing = UpDownRouting::new(&clos);
    let routing_build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut cfg = SimConfig::paper_defaults();
    cfg.warmup_cycles = w.warmup;
    cfg.measure_cycles = w.measure;

    let t1 = now();
    let sim = Simulation::new(&net, &routing, cfg);
    let table_build_ms = t1.elapsed().as_secs_f64() * 1e3;

    let table_bytes = sim.candidate_table_bytes();
    let routing_bytes = routing.heap_bytes() + table_bytes.unwrap_or(0);
    let routing_bytes_per_terminal = routing_bytes.div_ceil(net.num_terminals().max(1));

    let cycles = cfg.total_cycles();
    let mut scratch = rfc_net::sim::RunScratch::new();
    let mut sharded = Vec::new();
    let mut serial = f64::NAN;
    let mut accepted: Option<f64> = None;
    for &shards in shard_counts {
        let mut best = f64::INFINITY;
        for _ in 0..w.runs {
            let t = now();
            let r =
                sim.run_sharded_scratch(TrafficPattern::Uniform, 1.0, SEED, shards, &mut scratch);
            best = best.min(t.elapsed().as_secs_f64());
            // The sharding contract, enforced on every benchmark run:
            // the shard count must not move the physics.
            match accepted {
                None => accepted = Some(r.accepted_load),
                Some(a) => assert!(
                    (a - r.accepted_load).abs() < f64::EPSILON,
                    "{}: accepted_load moved with the shard count: {a} vs {} at {shards} shards",
                    w.name,
                    r.accepted_load,
                ),
            }
        }
        let cps = cycles as f64 / best;
        if shards == 1 {
            serial = cps;
        }
        sharded.push((shards, cps));
    }
    if serial.is_nan() {
        // `--shards` without 1: keep the headline slot meaningful by
        // using the slowest measured count.
        serial = sharded
            .iter()
            .map(|&(_, c)| c)
            .fold(f64::INFINITY, f64::min);
    }
    Measurement {
        name: w.name,
        gate: w.gate,
        terminals: net.num_terminals(),
        switches: net.num_switches(),
        cycles,
        cycles_per_sec: serial,
        sharded,
        routing_build_ms,
        table_build_ms,
        table: if table_bytes.is_some() {
            "deduped"
        } else {
            "live"
        },
        routing_bytes_per_terminal,
        accepted_load: accepted.unwrap_or(f64::NAN),
    }
}

fn render_scale(m: &Measurement) -> String {
    let sharded = m
        .sharded
        .iter()
        .map(|(s, c)| format!("\"{s}\": {c:.0}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "    \"{}\": {{\n      \"topology\": \"cft\",\n      \"terminals\": {},\n      \"switches\": {},\n      \"cycles\": {},\n      \"offered_load\": 1.0,\n      \"cycles_per_sec\": {:.0},\n      \"sharded_cycles_per_sec\": {{ {} }},\n      \"routing_build_ms\": {:.3},\n      \"table_build_ms\": {:.3},\n      \"table\": \"{}\",\n      \"routing_bytes_per_terminal\": {},\n      \"accepted_load\": {:.4}\n    }}",
        m.name,
        m.terminals,
        m.switches,
        m.cycles,
        m.cycles_per_sec,
        sharded,
        m.routing_build_ms,
        m.table_build_ms,
        m.table,
        m.routing_bytes_per_terminal,
        m.accepted_load,
    )
}

/// Extracts a preserved `"trajectory": [...]` array from a previous
/// baseline file, if any (entries are flat objects, so the first `]`
/// closes the array).
fn preserved_trajectory(previous: &str) -> Option<String> {
    let at = previous.find("\"trajectory\"")?;
    let open = previous[at..].find('[')? + at;
    let close = previous[open..].find(']')? + open;
    Some(previous[open..=close].to_string())
}

/// Reads the number following `"key":` starting at byte `from` of
/// `text`.
fn number_after(text: &str, from: usize, key: &str) -> Option<f64> {
    let at = text[from..].find(key)? + from;
    let colon = text[at..].find(':')? + at;
    let rest = text[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads `"cycles_per_sec"` out of the named scale object of a baseline
/// file.
fn committed_cycles_per_sec(text: &str, scale: &str) -> Option<f64> {
    let at = text.find(&format!("\"{scale}\""))?;
    number_after(text, at, "\"cycles_per_sec\"")
}

/// Reads `"accepted_load"` out of the named scale object of a baseline
/// file.
fn committed_accepted_load(text: &str, scale: &str) -> Option<f64> {
    let at = text.find(&format!("\"{scale}\""))?;
    number_after(text, at, "\"accepted_load\"")
}

/// Reads the committed throughput for one shard count of one scale:
/// the `"N": value` entry of the scale's `sharded_cycles_per_sec` map,
/// falling back to the scale's serial `cycles_per_sec` for 1 shard
/// (pre-sharding baseline files only carry the latter).
fn committed_sharded(text: &str, scale: &str, shards: usize) -> Option<f64> {
    let at = text.find(&format!("\"{scale}\""))?;
    let sharded = text[at..]
        .find("\"sharded_cycles_per_sec\"")
        .map(|o| o + at);
    let from_map = sharded.and_then(|s| {
        let open = text[s..].find('{')? + s;
        let close = text[open..].find('}')? + open;
        number_after(&text[..close], open, &format!("\"{shards}\""))
    });
    match from_map {
        Some(v) => Some(v),
        None if shards == 1 => committed_cycles_per_sec(text, scale),
        None => None,
    }
}

fn repo_root() -> std::path::PathBuf {
    // crates/bench -> crates -> repo root.
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(std::path::Path::parent) {
        Some(root) => root.to_path_buf(),
        None => {
            eprintln!("error: cannot locate the repo root above crates/bench");
            std::process::exit(1);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Option<String> = None;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut shards_override: Option<Vec<usize>> = None;
    let mut table_only = false;
    let mut repair = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--scale" => scale = Some(value("--scale")),
            "--out" => out = Some(value("--out")),
            "--check" => check = Some(value("--check")),
            "--threads" => threads = value("--threads").parse().ok(),
            "--shards" => {
                let list = value("--shards");
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                match parsed {
                    Ok(v) if !v.is_empty() && v.iter().all(|&s| s >= 1) => {
                        shards_override = Some(v);
                    }
                    _ => {
                        eprintln!(
                            "error: --shards wants a comma list of counts >= 1, got `{list}`"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--table-only" => table_only = true,
            "--repair" => repair = true,
            _ => {
                eprintln!(
                    "usage: engine_baseline [--scale small|medium|large] [--out PATH] \
                     [--check BASELINE] [--threads N] [--shards N,N,...] [--table-only] \
                     [--repair]"
                );
                return ExitCode::from(2);
            }
        }
    }
    if threads.is_some() {
        rfc_net::parallel::set_threads(threads);
    }

    let workloads: Vec<&Workload> = match scale.as_deref() {
        None => vec![&SMALL, &MEDIUM, &LARGE],
        Some("small") => vec![&SMALL],
        Some("medium") => vec![&MEDIUM],
        Some("large") => vec![&LARGE],
        Some(other) => {
            eprintln!("error: unknown scale `{other}` (small|medium|large)");
            return ExitCode::from(2);
        }
    };

    if table_only {
        for w in &workloads {
            build_report(w);
        }
        return ExitCode::SUCCESS;
    }

    if repair {
        for w in &workloads {
            repair_report(w);
        }
        return ExitCode::SUCCESS;
    }

    let mut rendered = Vec::new();
    let mut failed = false;
    for w in &workloads {
        let shard_counts: &[usize] = shards_override.as_deref().unwrap_or(w.shard_counts);
        let m = measure(w, shard_counts);
        let sharded_report = m
            .sharded
            .iter()
            .map(|(s, c)| format!("{s} shard{}: {c:.0} c/s", if *s == 1 { "" } else { "s" }))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "# {}: {} terminals, {} cycles: {sharded_report} \
             (routing build {:.1} ms, table build {:.1} ms, {} table, \
             {} routing bytes/terminal, accepted {:.3})",
            m.name,
            m.terminals,
            m.cycles,
            m.routing_build_ms,
            m.table_build_ms,
            m.table,
            m.routing_bytes_per_terminal,
            m.accepted_load,
        );
        if let Some(path) = &check {
            if !m.gate {
                eprintln!("# {}: report-only scale, --check skipped", m.name);
            } else {
                match std::fs::read_to_string(path) {
                    Ok(text) => {
                        for &(shards, cps) in &m.sharded {
                            match committed_sharded(&text, m.name, shards) {
                                Some(committed) => {
                                    let floor = committed / 2.0;
                                    if cps < floor {
                                        eprintln!(
                                            "error: {} at {shards} shard(s): {cps:.0} cycles/sec \
                                             is a >2x regression vs the committed {committed:.0} \
                                             (floor {floor:.0})",
                                            m.name
                                        );
                                        failed = true;
                                    } else {
                                        eprintln!(
                                            "# {} at {shards} shard(s) within budget: {cps:.0} vs \
                                             committed {committed:.0} (floor {floor:.0})",
                                            m.name
                                        );
                                    }
                                }
                                None => {
                                    eprintln!(
                                        "# {} has no committed number for {shards} shard(s) in \
                                         {path}; gate skipped for this count",
                                        m.name
                                    );
                                }
                            }
                        }
                        // The workload is deterministic, so its accepted
                        // load must reproduce the committed value at the
                        // 4 decimals it is written with.
                        let measured = format!("{:.4}", m.accepted_load);
                        match committed_accepted_load(&text, m.name) {
                            Some(committed) if format!("{committed:.4}") == measured => {
                                eprintln!("# {} accepted_load {measured} matches", m.name);
                            }
                            Some(committed) => {
                                eprintln!(
                                    "error: {} accepted_load {measured} differs from the \
                                     committed {committed:.4}: the engine's results moved",
                                    m.name
                                );
                                failed = true;
                            }
                            None => {
                                eprintln!(
                                    "# {} has no committed accepted_load in {path}; \
                                     check skipped",
                                    m.name
                                );
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("error: cannot read baseline {path}: {e}");
                        failed = true;
                    }
                }
            }
        }
        rendered.push(render_scale(&m));
    }

    let out_path = out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| repo_root().join("BENCH_sim.json"));
    let trajectory = std::fs::read_to_string(&out_path)
        .ok()
        .as_deref()
        .and_then(preserved_trajectory)
        .unwrap_or_else(|| "[]".to_string());
    let json = format!(
        "{{\n  \"schema\": \"rfc-net/engine-baseline/v1\",\n  \"seed\": {SEED},\n  \"threads\": {},\n  \"scales\": {{\n{}\n  }},\n  \"trajectory\": {}\n}}\n",
        rfc_net::parallel::current_threads(),
        rendered.join(",\n"),
        trajectory,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {}", out_path.display());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
