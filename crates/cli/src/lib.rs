//! Implementation of the `rfcgen` command-line tool.
//!
//! `rfcgen` exposes the workspace's topology generators, analyses, and
//! the cycle-level simulator as a single binary, so a datacenter
//! architect can size, generate, inspect, export, and stress a random
//! folded Clos without writing Rust:
//!
//! ```text
//! rfcgen threshold --radix 36 --levels 3
//! rfcgen generate  --kind rfc --radix 12 --leaves 72 --levels 3 --format dot
//! rfcgen analyze   --kind cft --radix 12 --levels 3
//! rfcgen simulate  --kind rfc --radix 12 --leaves 72 --levels 3 \
//!                  --traffic random-pairing --load 0.8
//! rfcgen expand    --kind rfc --radix 12 --leaves 48 --levels 3 --steps 4
//! ```
//!
//! The library half exists so the argument parsing and command logic
//! are unit-testable; `main.rs` is a thin wrapper.

mod args;
mod commands;

use std::fmt;

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (message already explains the problem).
    Usage(String),
    /// A topology/simulation operation failed.
    Operation(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Operation(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<rfc_net::topology::TopologyError> for CliError {
    fn from(e: rfc_net::topology::TopologyError) -> Self {
        CliError::Operation(e.to_string())
    }
}

/// Runs the CLI against an argument vector (excluding the program
/// name), writing human-readable output through `out`.
///
/// # Errors
///
/// Returns [`CliError`] on bad arguments or failed operations.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage(USAGE.trim().to_string()));
    };
    let Some(cmd) = commands::lookup(command) else {
        return Err(CliError::Usage(format!(
            "unknown command `{command}`\n{USAGE}"
        )));
    };
    let known: Vec<&str> = ["threads", "shards"]
        .into_iter()
        .chain(cmd.flags.iter().flat_map(|group| group.iter().copied()))
        .collect();
    let parsed = args::Parsed::parse(rest, &known, cmd.switches)?;
    // Common flag: worker threads for parallel stages (overrides the
    // RFC_THREADS environment variable; default: all cores).
    rfc_net::parallel::set_threads(parsed.opt_num::<usize>("threads")?);
    // Common flag: shards per simulation run (overrides the RFC_SHARDS
    // environment variable; default: 1). Results are byte-identical at
    // any shard count, so this is purely a speed knob.
    rfc_net::parallel::set_shards(parsed.opt_num::<usize>("shards")?);
    (cmd.run)(&parsed, out)
}

pub(crate) fn io_err(e: std::io::Error) -> CliError {
    CliError::Operation(format!("write failed: {e}"))
}

/// The help text.
pub const USAGE: &str = r#"
rfcgen — random folded Clos topology toolkit

USAGE:
    rfcgen <COMMAND> [--flag value]...

COMMANDS:
    generate    build a topology and print it (--format summary|dot|edges)
    analyze     structural scorecard: cost, diameter, up/down property, bounds
    simulate    run the cycle-level simulator on the topology
    sweep       parallel load sweep: one simulator run per (traffic, load) point
    expand      grow an RFC incrementally and report rewiring
    threshold   Theorem 4.2 sizing for a radix/levels pair
    repro       reproduce the paper's evaluation (`repro --list` names
                every registered experiment)
    help        show this text

COMMON FLAGS:
    --threads   worker threads for parallel stages    (default: RFC_THREADS
                environment variable, else all cores; results are identical
                at any thread count)
    --shards    shards per simulation run: the switches are partitioned
                into N contiguous shards advanced by N workers in lockstep
                (default: RFC_SHARDS environment variable, else 1; results
                are byte-identical at any shard count)

TOPOLOGY FLAGS (generate/analyze/simulate/expand):
    --kind      rfc | cft | oft | kary | rrn        (default rfc)
    --radix     switch radix                        (default 12)
    --leaves    N1 leaf switches (rfc)              (default: threshold max)
    --levels    levels l                            (default 3)
    --order     OFT order q                         (default radix/2 - 1)
    --arity     k for k-ary trees                   (default radix/2)
    --switches  N for rrn                           (default 64)
    --degree    network degree for rrn              (default radix - radix/4)
    --hosts     hosts per switch for rrn            (default radix/4)
    --seed      RNG seed                            (default 2017)

SIMULATION FLAGS (simulate/sweep):
    --traffic   uniform | random-pairing | fixed-random | shuffle |
                all-to-one | bursty | hotspot       (default uniform;
                sweep: comma-separated list accepted)
    --load      offered phits/node/cycle            (default 0.5; simulate only)
    --loads     comma-separated offered loads       (default 0.1,0.2,…,1.0;
                sweep only)
    --cycles    measured cycles                     (default 10000)
    --warmup    warmup cycles                       (default 5000)
    --router-latency  extra pipeline cycles per hop (default 0)
    --valiant   on | off                            (default off)

EXPANSION FLAGS (expand):
    --steps     minimal upgrade steps               (default 1)

REPRO FLAGS (repro):
    --list      enumerate the registered experiments and exit
    --only      comma-separated experiment names    (default: all; see --list)
    --force     re-run experiments whose artifacts already verify
    --scale     small | medium | paper              (default medium)
    --seed      run seed                            (default 2017)
    --trials    Monte-Carlo trial override          (default: per experiment)
    --cycles    measured cycles override            (default: per scale)
    --warmup    warmup cycles override              (default: per scale)
    --out-dir   artifact root                       (default target/experiments)
                artifacts land in <out-dir>/<run-id>/ with a manifest.json;
                reruns with identical parameters skip verified experiments
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&argv, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let text = run_capture(&["help"]).unwrap();
        assert!(text.contains("COMMANDS"));
    }

    #[test]
    fn empty_argv_is_a_usage_error() {
        assert!(matches!(run(&[], &mut Vec::new()), Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run_capture(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn threshold_command_reports_sizing() {
        let text = run_capture(&["threshold", "--radix", "36", "--levels", "3"]).unwrap();
        assert!(text.contains("11254") || text.contains("11,254") || text.contains("N1"));
        assert!(text.contains("202"));
    }

    #[test]
    fn generate_summary_and_dot() {
        let text = run_capture(&[
            "generate", "--kind", "rfc", "--radix", "8", "--leaves", "16", "--levels", "2",
        ])
        .unwrap();
        assert!(text.contains("switches"));
        let dot = run_capture(&[
            "generate", "--kind", "cft", "--radix", "4", "--levels", "2", "--format", "dot",
        ])
        .unwrap();
        assert!(dot.contains("graph") && dot.contains("--"));
        let edges = run_capture(&[
            "generate", "--kind", "cft", "--radix", "4", "--levels", "2", "--format", "edges",
        ])
        .unwrap();
        assert!(edges.lines().count() >= 8);
    }

    #[test]
    fn analyze_reports_updown_property() {
        let text =
            run_capture(&["analyze", "--kind", "cft", "--radix", "8", "--levels", "3"]).unwrap();
        assert!(text.contains("up/down"));
        assert!(text.contains("true"));
    }

    #[test]
    fn simulate_runs_quickly_at_small_size() {
        let text = run_capture(&[
            "simulate", "--kind", "cft", "--radix", "4", "--levels", "2", "--load", "0.3",
            "--cycles", "500", "--warmup", "100",
        ])
        .unwrap();
        assert!(text.contains("accepted"));
    }

    #[test]
    fn sweep_prints_one_row_per_point_and_elapsed() {
        let text = run_capture(&[
            "sweep",
            "--kind",
            "cft",
            "--radix",
            "4",
            "--levels",
            "2",
            "--traffic",
            "uniform,shuffle",
            "--loads",
            "0.2,0.4",
            "--cycles",
            "300",
            "--warmup",
            "100",
        ])
        .unwrap();
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("traffic"))
            .collect();
        assert_eq!(rows.len(), 4, "2 patterns x 2 loads: {text}");
        assert!(text.contains("thread(s)"), "elapsed line missing: {text}");
    }

    #[test]
    fn sweep_output_is_identical_at_any_thread_count() {
        let base = &[
            "sweep", "--kind", "cft", "--radix", "4", "--levels", "2", "--loads", "0.3,0.6",
            "--cycles", "300", "--warmup", "100",
        ];
        let strip_elapsed = |text: String| -> String {
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(&["--threads", "1"]);
            strip_elapsed(run_capture(&argv).unwrap())
        };
        let four = {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(&["--threads", "4"]);
            strip_elapsed(run_capture(&argv).unwrap())
        };
        rfc_net::parallel::set_threads(None);
        assert_eq!(one, four);
    }

    #[test]
    fn simulate_output_is_identical_at_any_shard_count() {
        let base = &[
            "simulate", "--kind", "cft", "--radix", "6", "--levels", "3", "--load", "0.5",
            "--cycles", "500", "--warmup", "100",
        ];
        let at = |shards: &str| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(&["--shards", shards]);
            run_capture(&argv).unwrap()
        };
        let one = at("1");
        let four = at("4");
        rfc_net::parallel::set_shards(None);
        assert_eq!(one, four, "simulate output moved with the shard count");
    }

    #[test]
    fn expand_reports_rewiring() {
        let text = run_capture(&[
            "expand", "--kind", "rfc", "--radix", "8", "--leaves", "32", "--levels", "3",
            "--steps", "2",
        ])
        .unwrap();
        assert!(text.contains("rewired"));
    }

    #[test]
    fn bad_flag_value_is_a_usage_error() {
        let err = run_capture(&["generate", "--radix", "not-a-number"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn repro_list_enumerates_the_full_registry() {
        let text = run_capture(&["repro", "--list"]).unwrap();
        for exp in rfc_net::experiments::registry::all() {
            assert!(
                text.lines()
                    .any(|l| l.split_whitespace().next() == Some(exp.name())),
                "`repro --list` is missing experiment `{}`:\n{text}",
                exp.name()
            );
        }
        assert_eq!(
            text.lines().filter(|l| !l.trim().is_empty()).count(),
            rfc_net::experiments::registry::all().len() + 1,
            "header plus one line per experiment expected:\n{text}"
        );
    }

    #[test]
    fn repro_rejects_bad_scale_and_unknown_experiment() {
        let err = run_capture(&["repro", "--scale", "galactic"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = run_capture(&["repro", "--only", "fig99", "--scale", "small"]).unwrap_err();
        assert!(err.to_string().contains("fig99"), "{err}");
    }
}
