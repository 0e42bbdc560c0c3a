//! The rfcgen subcommands.

use std::io::Write;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::graph::{self, traversal};
use rfc_net::parallel;
use rfc_net::sim::{RunScratch, SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_net::theory;
use rfc_net::topology::{expansion, FoldedClos, Rrn};
use rfc_net::UpDownRouting;

use crate::args::Parsed;
use crate::{io_err, CliError};

/// Flags read by [`build`].
const TOPOLOGY_FLAGS: &[&str] = &[
    "kind", "radix", "leaves", "levels", "order", "arity", "switches", "degree", "hosts", "seed",
];

/// Flags read by [`sim_config`].
const SIM_FLAGS: &[&str] = &["cycles", "warmup", "router-latency", "valiant"];

/// A subcommand's entry point.
pub(crate) type Handler = fn(&Parsed, &mut dyn Write) -> Result<(), CliError>;

/// A subcommand's handler and the flags it accepts besides the common
/// `--threads`/`--shards`.
pub(crate) struct Command {
    /// Runs the command.
    pub run: Handler,
    /// Groups of `--key value` flags the command reads.
    pub flags: &'static [&'static [&'static str]],
    /// Valueless switch flags.
    pub switches: &'static [&'static str],
}

/// The subcommand called `name`, if there is one.
pub(crate) fn lookup(name: &str) -> Option<Command> {
    let (run, flags, switches): (Handler, &[&[&str]], &[&str]) = match name {
        "generate" => (generate, &[TOPOLOGY_FLAGS, &["format"]], &[]),
        "analyze" => (analyze, &[TOPOLOGY_FLAGS], &[]),
        "simulate" => (
            simulate,
            &[TOPOLOGY_FLAGS, SIM_FLAGS, &["traffic", "load"]],
            &[],
        ),
        "sweep" => (
            sweep,
            &[TOPOLOGY_FLAGS, SIM_FLAGS, &["traffic", "loads"]],
            &[],
        ),
        "expand" => (expand, &[TOPOLOGY_FLAGS, &["steps"]], &[]),
        "threshold" => (threshold, &[&["radix", "levels"]], &[]),
        "repro" => (
            repro,
            &[&[
                "only", "scale", "seed", "trials", "cycles", "warmup", "out-dir",
            ]],
            &["list", "force"],
        ),
        "help" | "--help" | "-h" => (help, &[], &[]),
        _ => return None,
    };
    Some(Command {
        run,
        flags,
        switches,
    })
}

fn help(_: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "{}", crate::USAGE.trim()).map_err(io_err)
}

/// The topology a command operates on: an indirect folded Clos or the
/// direct RRN.
pub enum BuiltNetwork {
    /// Any folded Clos family member.
    Clos(FoldedClos),
    /// The Jellyfish baseline.
    Rrn(Rrn),
}

/// Builds the topology described by the common flags.
///
/// # Errors
///
/// [`CliError`] on unknown kinds or infeasible parameters.
pub fn build(parsed: &Parsed) -> Result<BuiltNetwork, CliError> {
    let kind = parsed.str("kind", "rfc");
    let radix: usize = parsed.num("radix", 12)?;
    let levels: usize = parsed.num("levels", 3)?;
    let seed: u64 = parsed.num("seed", 2017)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let net = match kind.as_str() {
        "rfc" => {
            let leaves = match parsed.opt_num::<usize>("leaves")? {
                Some(n) => n,
                None => theory::max_leaves_at_threshold(radix, levels).ok_or_else(|| {
                    CliError::Operation(format!(
                        "radix {radix} cannot support any {levels}-level RFC"
                    ))
                })?,
            };
            BuiltNetwork::Clos(FoldedClos::random(radix, leaves, levels, &mut rng)?)
        }
        "cft" => BuiltNetwork::Clos(FoldedClos::cft(radix, levels)?),
        "oft" => {
            let order: u32 = parsed.num("order", graph::vid((radix / 2).saturating_sub(1)))?;
            BuiltNetwork::Clos(FoldedClos::oft(order, levels)?)
        }
        "kary" => {
            let arity: usize = parsed.num("arity", radix / 2)?;
            BuiltNetwork::Clos(FoldedClos::kary_tree(arity, levels)?)
        }
        "rrn" => {
            let switches: usize = parsed.num("switches", 64)?;
            let degree: usize = parsed.num("degree", radix - radix / 4)?;
            let hosts: usize = parsed.num("hosts", (radix / 4).max(1))?;
            BuiltNetwork::Rrn(Rrn::new(switches, degree, hosts, &mut rng)?)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --kind `{other}` (rfc|cft|oft|kary|rrn)"
            )))
        }
    };
    Ok(net)
}

fn require_clos(net: BuiltNetwork, command: &str) -> Result<FoldedClos, CliError> {
    match net {
        BuiltNetwork::Clos(c) => Ok(c),
        BuiltNetwork::Rrn(_) => Err(CliError::Usage(format!(
            "`{command}` needs an indirect topology (rfc/cft/oft/kary)"
        ))),
    }
}

/// `rfcgen generate`: builds the topology and prints it in the chosen
/// format.
///
/// # Errors
///
/// [`CliError`] on build or output failure.
pub fn generate(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let format = parsed.str("format", "summary");
    match build(parsed)? {
        BuiltNetwork::Clos(clos) => match format.as_str() {
            "summary" => {
                writeln!(
                    out,
                    "{} levels={} switches={} wires={} terminals={} radix={}",
                    clos.kind(),
                    clos.num_levels(),
                    clos.num_switches(),
                    clos.num_links(),
                    clos.num_terminals(),
                    clos.radix()
                )
                .map_err(io_err)?;
                for level in 0..clos.num_levels() {
                    writeln!(out, "  level {level}: {} switches", clos.level_size(level))
                        .map_err(io_err)?;
                }
                Ok(())
            }
            "dot" => {
                writeln!(out, "graph {} {{", clos.kind()).map_err(io_err)?;
                writeln!(out, "  rankdir=BT; node [shape=box];").map_err(io_err)?;
                for level in 0..clos.num_levels() {
                    let ids: Vec<String> = (0..clos.level_size(level))
                        .map(|i| format!("s{}", clos.switch_id(level, i)))
                        .collect();
                    writeln!(out, "  {{ rank=same; {} }}", ids.join("; ")).map_err(io_err)?;
                }
                for link in clos.links() {
                    writeln!(out, "  s{} -- s{};", link.lower, link.upper).map_err(io_err)?;
                }
                writeln!(out, "}}").map_err(io_err)?;
                Ok(())
            }
            "edges" => {
                for link in clos.links() {
                    writeln!(out, "{} {}", link.lower, link.upper).map_err(io_err)?;
                }
                Ok(())
            }
            other => Err(CliError::Usage(format!(
                "unknown --format `{other}` (summary|dot|edges)"
            ))),
        },
        BuiltNetwork::Rrn(rrn) => match format.as_str() {
            "summary" => {
                writeln!(
                    out,
                    "rrn switches={} degree={} hosts={} terminals={}",
                    rrn.num_switches(),
                    rrn.degree(),
                    rrn.hosts_per_switch(),
                    rrn.num_terminals()
                )
                .map_err(io_err)?;
                Ok(())
            }
            "edges" | "dot" => {
                if format == "dot" {
                    writeln!(out, "graph rrn {{").map_err(io_err)?;
                }
                for (u, v) in rrn.links() {
                    if format == "dot" {
                        writeln!(out, "  s{u} -- s{v};").map_err(io_err)?;
                    } else {
                        writeln!(out, "{u} {v}").map_err(io_err)?;
                    }
                }
                if format == "dot" {
                    writeln!(out, "}}").map_err(io_err)?;
                }
                Ok(())
            }
            other => Err(CliError::Usage(format!("unknown --format `{other}`"))),
        },
    }
}

/// `rfcgen analyze`: structural scorecard.
///
/// # Errors
///
/// [`CliError`] on build or output failure.
pub fn analyze(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    match build(parsed)? {
        BuiltNetwork::Clos(clos) => {
            let routing = UpDownRouting::new(&clos);
            let updown = routing.has_updown_property();
            writeln!(out, "kind           : {}", clos.kind()).map_err(io_err)?;
            writeln!(out, "levels         : {}", clos.num_levels()).map_err(io_err)?;
            writeln!(out, "radix          : {}", clos.radix()).map_err(io_err)?;
            writeln!(out, "switches       : {}", clos.num_switches()).map_err(io_err)?;
            writeln!(out, "wires          : {}", clos.num_links()).map_err(io_err)?;
            writeln!(out, "terminals      : {}", clos.num_terminals()).map_err(io_err)?;
            writeln!(out, "radix-regular  : {}", clos.is_radix_regular()).map_err(io_err)?;
            writeln!(out, "up/down routing: {updown}").map_err(io_err)?;
            if !updown {
                writeln!(
                    out,
                    "  connected leaf pairs: {:.4}",
                    routing.connected_pair_fraction()
                )
                .map_err(io_err)?;
                writeln!(
                    out,
                    "  unconnected leaf pairs: {}",
                    routing.unconnected_leaf_pairs()
                )
                .map_err(io_err)?;
            }
            if let Some(d) = clos.leaf_diameter() {
                writeln!(out, "leaf diameter  : {d}").map_err(io_err)?;
            }
            let slack = theory::threshold_slack(clos.radix(), clos.num_leaves(), clos.num_levels());
            writeln!(
                out,
                "threshold slack: {slack:.3} (P_asym = {:.3})",
                theory::updown_probability(slack)
            )
            .map_err(io_err)?;
            writeln!(
                out,
                "norm. bisection: >= {:.3} (lower bound)",
                theory::rfc_normalized_bisection(
                    clos.num_leaves(),
                    clos.num_levels(),
                    clos.radix()
                )
            )
            .map_err(io_err)?;
            Ok(())
        }
        BuiltNetwork::Rrn(rrn) => {
            let g = rrn.graph();
            writeln!(out, "kind     : rrn").map_err(io_err)?;
            writeln!(out, "switches : {}", rrn.num_switches()).map_err(io_err)?;
            writeln!(out, "degree   : {}", rrn.degree()).map_err(io_err)?;
            writeln!(out, "terminals: {}", rrn.num_terminals()).map_err(io_err)?;
            match traversal::diameter(&g) {
                Some(d) => writeln!(out, "diameter : {d}").map_err(io_err)?,
                None => writeln!(out, "diameter : disconnected").map_err(io_err)?,
            }
            writeln!(
                out,
                "norm. bisection: >= {:.3}",
                theory::rrn_normalized_bisection(rrn.degree(), rrn.hosts_per_switch())
            )
            .map_err(io_err)?;
            Ok(())
        }
    }
}

/// The pattern whose [`TrafficPattern::as_str`] name is `name`.
fn parse_traffic(name: &str) -> Result<TrafficPattern, CliError> {
    TrafficPattern::EVERY
        .into_iter()
        .find(|p| p.as_str() == name)
        .ok_or_else(|| CliError::Usage(format!("unknown --traffic `{name}`")))
}

/// Applies `--cycles`, `--warmup`, `--router-latency` and `--valiant`
/// on top of `base`, the one parser for the simulator flags of
/// `simulate`, `sweep` and `repro` (which accepts only the first two).
///
/// # Errors
///
/// [`CliError::Usage`] on an unparsable number, a `--valiant` other
/// than `on|off`, or a configuration [`SimConfig::validate`] rejects.
pub(crate) fn sim_config(parsed: &Parsed, base: SimConfig) -> Result<SimConfig, CliError> {
    let mut config = base;
    config.measure_cycles = parsed.num("cycles", config.measure_cycles)?;
    config.warmup_cycles = parsed.num("warmup", config.warmup_cycles)?;
    config.router_latency = parsed.num("router-latency", config.router_latency)?;
    config.valiant_routing = match parsed.opt_str("valiant") {
        None => config.valiant_routing,
        Some("on") => true,
        Some("off") => false,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--valiant: expected on|off, got `{other}`"
            )))
        }
    };
    config
        .validate()
        .map_err(|e| CliError::Usage(format!("invalid simulator flags: {e}")))?;
    Ok(config)
}

/// `load` from `--{flag}` when it is a usable offered load: finite and
/// not negative.
///
/// # Errors
///
/// [`CliError::Usage`] naming the flag otherwise.
fn offered_load(flag: &str, load: f64) -> Result<f64, CliError> {
    if load.is_finite() && load >= 0.0 {
        Ok(load)
    } else {
        Err(CliError::Usage(format!(
            "--{flag}: an offered load must be finite and not negative, got `{load}`"
        )))
    }
}

/// `clos` when the simulator can take it ([`SimNetwork::validate`]).
///
/// # Errors
///
/// [`CliError::Usage`] naming the switch with too many links.
fn simulable(clos: FoldedClos) -> Result<FoldedClos, CliError> {
    SimNetwork::validate(&clos)
        .map_err(|e| CliError::Usage(format!("cannot simulate this topology: {e}")))?;
    Ok(clos)
}

/// Writes a warning line, after `prefix`, when `routing` lacks the full
/// up/down property: the simulator then refuses unroutable packets.
fn warn_if_not_updown(
    routing: &UpDownRouting,
    prefix: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if routing.has_updown_property() {
        return Ok(());
    }
    writeln!(
        out,
        "{prefix}warning: topology lacks the full up/down property \
         ({} leaf pairs unconnected, {:.4} of pairs connected); \
         unroutable packets are refused",
        routing.unconnected_leaf_pairs(),
        routing.connected_pair_fraction()
    )
    .map_err(io_err)
}

/// `rfcgen simulate`: one simulator run on the topology.
///
/// # Errors
///
/// [`CliError`] on build, routing or output failure.
pub fn simulate(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let pattern = parse_traffic(&parsed.str("traffic", "uniform"))?;
    let load = offered_load("load", parsed.num("load", 0.5)?)?;
    let seed: u64 = parsed.num("seed", 2017)?;
    let config = sim_config(parsed, SimConfig::paper_defaults())?;

    let clos = simulable(require_clos(build(parsed)?, "simulate")?)?;
    let routing = UpDownRouting::new(&clos);
    warn_if_not_updown(&routing, "", out)?;
    let sim_net = SimNetwork::from_folded_clos(&clos);
    let sim = Simulation::new(&sim_net, &routing, config);
    let r = sim.run(pattern, load, seed);
    writeln!(out, "traffic          : {pattern}").map_err(io_err)?;
    writeln!(out, "offered load     : {:.3}", r.offered_load).map_err(io_err)?;
    writeln!(out, "accepted load    : {:.3}", r.accepted_load).map_err(io_err)?;
    if r.delivered_packets == 0 {
        // Latency is a mean over deliveries: with none it is NaN.
        writeln!(out, "mean latency     : no packet delivered").map_err(io_err)?;
    } else {
        writeln!(out, "mean latency     : {:.1} cycles", r.avg_latency).map_err(io_err)?;
        writeln!(
            out,
            "latency p50/95/99: {:.0} / {:.0} / {:.0}",
            r.latency_p50, r.latency_p95, r.latency_p99
        )
        .map_err(io_err)?;
    }
    writeln!(out, "delivered packets: {}", r.delivered_packets).map_err(io_err)?;
    writeln!(out, "refused packets  : {}", r.refused_packets).map_err(io_err)?;
    Ok(())
}

/// `rfcgen sweep`: a load sweep over one or more traffic patterns, one
/// simulator run per `(traffic, load)` point, fanned out over the
/// worker pool. Output is identical at any `--threads` value.
///
/// # Errors
///
/// [`CliError`] on build, routing or output failure.
pub fn sweep(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let patterns: Vec<TrafficPattern> = parsed
        .str("traffic", "uniform")
        .split(',')
        .map(|name| parse_traffic(name.trim()))
        .collect::<Result<_, _>>()?;
    let loads: Vec<f64> = match parsed.opt_str("loads") {
        Some(raw) => raw
            .split(',')
            .map(|tok| {
                let load = tok
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| CliError::Usage(format!("--loads: cannot parse `{tok}`")))?;
                offered_load("loads", load)
            })
            .collect::<Result<_, _>>()?,
        None => (1..=10).map(|i| f64::from(i) / 10.0).collect(),
    };
    if loads.is_empty() || patterns.is_empty() {
        return Err(CliError::Usage(
            "sweep needs at least one traffic pattern and one load".into(),
        ));
    }
    let seed: u64 = parsed.num("seed", 2017)?;
    let config = sim_config(parsed, SimConfig::paper_defaults())?;

    let clos = simulable(require_clos(build(parsed)?, "sweep")?)?;
    let routing = UpDownRouting::new(&clos);
    warn_if_not_updown(&routing, "# ", out)?;
    let sim_net = SimNetwork::from_folded_clos(&clos);
    let sim = Simulation::new(&sim_net, &routing, config);

    let mut jobs = Vec::with_capacity(patterns.len() * loads.len());
    for &pattern in &patterns {
        for &load in &loads {
            jobs.push((jobs.len() as u64, pattern, load));
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "times the sweep for the progress footer only; never feeds a result"
    )]
    let start = std::time::Instant::now();
    let results = parallel::map_init(jobs, RunScratch::new, |scratch, (index, pattern, load)| {
        (
            pattern,
            sim.run_sharded_scratch(
                pattern,
                load,
                parallel::child_seed(seed, index),
                parallel::current_shards(),
                scratch,
            ),
        )
    });
    let elapsed = start.elapsed();

    writeln!(out, "traffic offered accepted latency_cycles latency_p99").map_err(io_err)?;
    for (pattern, r) in results {
        writeln!(
            out,
            "{pattern} {:.3} {:.3} {:.1} {:.0}",
            r.offered_load, r.accepted_load, r.avg_latency, r.latency_p99
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "# {} runs in {:.2}s on {} thread(s)",
        patterns.len() * loads.len(),
        elapsed.as_secs_f64(),
        parallel::current_threads()
    )
    .map_err(io_err)?;
    Ok(())
}

/// `rfcgen expand`: grows an RFC and reports the rewiring bill.
///
/// # Errors
///
/// [`CliError`] on build, expansion or output failure.
pub fn expand(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let steps: usize = parsed.num("steps", 1)?;
    let seed: u64 = parsed.num("seed", 2017)?;
    let mut clos = require_clos(build(parsed)?, "expand")?;
    let links_before = clos.num_links();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xEC5A_11D0);
    let report = expansion::expand_rfc(&mut clos, steps, &mut rng)?;
    writeln!(out, "steps            : {steps}").map_err(io_err)?;
    writeln!(out, "added switches   : {}", report.added_switches).map_err(io_err)?;
    writeln!(out, "added terminals  : {}", report.added_terminals).map_err(io_err)?;
    writeln!(
        out,
        "rewired links    : {} ({:.2}% of the pre-growth {links_before})",
        report.rewired_links,
        100.0 * report.rewired_links as f64 / links_before as f64
    )
    .map_err(io_err)?;
    writeln!(out, "new wires        : {}", report.new_links).map_err(io_err)?;
    let updown = UpDownRouting::new(&clos).has_updown_property();
    writeln!(out, "up/down after    : {updown}").map_err(io_err)?;
    Ok(())
}

/// `rfcgen threshold`: Theorem 4.2 sizing summary.
///
/// # Errors
///
/// [`CliError`] on bad flags or output failure.
pub fn threshold(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let radix: usize = parsed.num("radix", 12)?;
    let levels: usize = parsed.num("levels", 3)?;
    let Some(n1) = theory::max_leaves_at_threshold(radix, levels) else {
        return Err(CliError::Operation(format!(
            "radix {radix} cannot support any {levels}-level RFC"
        )));
    };
    writeln!(
        out,
        "radix {radix}, {levels} levels (diameter {})",
        2 * (levels - 1)
    )
    .map_err(io_err)?;
    writeln!(out, "max N1 leaves at threshold : {n1}").map_err(io_err)?;
    writeln!(out, "max terminals              : {}", n1 * radix / 2).map_err(io_err)?;
    writeln!(
        out,
        "switches / wires           : {} / {}",
        (levels - 1) * n1 + n1 / 2,
        (levels - 1) * n1 * radix / 2
    )
    .map_err(io_err)?;
    let slack = theory::threshold_slack(radix, n1, levels);
    writeln!(
        out,
        "slack at that size         : x = {slack:.3}, asymptotic P = {:.3}",
        theory::updown_probability(slack)
    )
    .map_err(io_err)?;
    if levels == 2 {
        writeln!(
            out,
            "finite-size P              : {:.3}",
            theory::two_level_updown_probability(radix, n1)
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "CFT comparison             : {} terminals at the same radix/levels",
        theory::cft_terminals(radix, levels)
    )
    .map_err(io_err)?;
    Ok(())
}

/// `rfcgen repro`: run the registered evaluation experiments into a
/// provenance-stamped run directory (see
/// [`rfc_net::experiments::runner`]).
///
/// `--list` enumerates the registry; `--only a,b` subsets it; `--force`
/// re-runs experiments whose artifacts already verify. Failures are
/// reported per experiment and the remaining experiments still run; the
/// command errors only after everything finished.
///
/// # Errors
///
/// [`CliError`] on bad flags, unknown experiment names, or when any
/// experiment failed.
pub fn repro(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    use rfc_net::experiments::registry;
    use rfc_net::experiments::runner::{self, Outcome, RunOptions};
    use rfc_net::scenarios::Scale;

    if parsed.switch("list") {
        writeln!(out, "{:<10}  {:<16}  description", "name", "paper").map_err(io_err)?;
        for exp in registry::all() {
            writeln!(
                out,
                "{:<10}  {:<16}  {}",
                exp.name(),
                exp.paper_anchor(),
                exp.description()
            )
            .map_err(io_err)?;
        }
        return Ok(());
    }

    let scale = match parsed.str("scale", "medium").as_str() {
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        "paper" => Scale::Paper,
        other => {
            return Err(CliError::Usage(format!(
                "--scale: expected small|medium|paper, got `{other}`"
            )))
        }
    };
    let seed: u64 = parsed.num("seed", 2017)?;
    let sim = sim_config(parsed, runner::sim_for_scale(scale))?;

    let mut opts = RunOptions::new(scale, seed, sim);
    opts.trials = parsed.opt_num("trials")?;
    if opts.trials == Some(0) {
        return Err(CliError::Usage("--trials: must be at least 1".into()));
    }
    opts.force = parsed.switch("force");
    opts.only = parsed.opt_str("only").map(|raw| {
        raw.split(',')
            .map(|tok| tok.trim().to_string())
            .filter(|tok| !tok.is_empty())
            .collect()
    });
    if let Some(dir) = parsed.opt_str("out-dir") {
        opts.root = dir.into();
    }

    let summary = runner::run(&opts, out).map_err(|e| CliError::Operation(e.to_string()))?;
    let (mut ran, mut skipped) = (0usize, 0usize);
    for (_, outcome) in &summary.outcomes {
        match outcome {
            Outcome::Ran => ran += 1,
            Outcome::Skipped => skipped += 1,
            Outcome::Failed(_) => {}
        }
    }
    writeln!(
        out,
        "run {}: {} ran, {} skipped, {} failed -> {}",
        summary.run_id,
        ran,
        skipped,
        summary.failures().len(),
        summary.run_dir.display()
    )
    .map_err(io_err)?;
    let failures = summary.failures();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Operation(format!(
            "{} experiment(s) failed: {}",
            failures.len(),
            failures.join(", ")
        )))
    }
}
