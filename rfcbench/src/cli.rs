//! Command line: one workload in this process, every workload in child
//! processes, or a comparison of two result files.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use rfc_net::json::Json;

use crate::compare;
use crate::suite::{self, Metric, Options, Outcome, Workload};

const USAGE: &str = "\
usage: rfcbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                [--shards 1|2] [--golden-dir DIR] [--bless] [--out-dir DIR]
                [--out FILE] [--repeat N]
       rfcbench compare BASE.json CHANGE.json

Without --workload, runs every workload in its own child process, each
untraced and then traced unless --trace picks one, and writes all results
to --out (default <out-dir>/results.json). --repeat N runs seeds
S, S+1, ..., S+N-1. Workloads: rfc-saturated, large-light, rfc-churn,
repro-small.";

/// Seconds per run when the command line does not say; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;

/// The directory holding this package's sources, goldens and README.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Parsed command line of a benchmark run.
struct Args {
    opts: Options,
    workload: Option<Workload>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    repeat: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        opts: Options {
            workload: Workload::RfcSaturated,
            seed: 2017,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            shards: 2,
            golden_dir: package_dir().join("golden"),
            bless: false,
            out_dir: PathBuf::from("target").join("bench"),
        },
        workload: None,
        trace: None,
        out: None,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        let o = &mut parsed.opts;
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload =
                    Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!(
                        "--seconds wants a number of seconds >= 0, got `{v}`"
                    ))?;
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got `{v}`")),
                });
            }
            "--smoke" => o.smoke = true,
            "--shards" => {
                o.shards = match value()?.as_str() {
                    "1" => 1,
                    "2" => 2,
                    v => {
                        return Err(format!(
                            "--shards wants 1 or 2 (the box has 2 cores), got `{v}`"
                        ))
                    }
                };
            }
            "--golden-dir" => o.golden_dir = PathBuf::from(value()?),
            "--bless" => o.bless = true,
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--repeat" => parsed.repeat = number(value()?)?.max(1),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

/// Runs the command line `args` (without the program name).
pub fn main(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse(args).and_then(|a| match a.workload {
            Some(workload) => run_one(&Options {
                workload,
                trace: a.trace.unwrap_or(false),
                ..a.opts
            }),
            None => run_all(&a),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rfcbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process: the report, then the result line.
fn run_one(opts: &Options) -> Result<bool, String> {
    let outcome = suite::run(opts)?;
    print!("{}", report(opts, &outcome));
    println!("{}", result_line(&outcome));
    Ok(outcome.failed == 0)
}

/// The human-readable report of one run: notes, then one row per metric.
fn report(opts: &Options, o: &Outcome) -> String {
    let mut out = format!(
        "# {} seed {}{}{}: {} job(s), {} failed, failure_rate {}\n",
        opts.workload.name(),
        opts.seed,
        if opts.smoke { " smoke" } else { "" },
        if opts.trace { " traced" } else { "" },
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
    );
    for note in &o.notes {
        out.push_str(&format!("# {note}\n"));
    }
    out.push_str(&format!(
        "# {:<36} {:<16} {:>14} {:>14} {:>14} {:>14} {:>4}\n",
        "metric", "unit", "median", "q1", "q3", "max", "n"
    ));
    for m in &o.metrics {
        match m.summary {
            Some(s) => out.push_str(&format!(
                "  {:<36} {:<16} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}\n",
                m.name, m.unit, s.median, s.q1, s.q3, s.max, s.n
            )),
            None => out.push_str(&format!("  {:<36} {:<16} unavailable\n", m.name, m.unit)),
        }
    }
    out
}

/// The one-line result: `correct`, `attempted`, `failed` and each
/// metric's median with its unit, every digit kept.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| m.summary.is_some())
        .map(|m: &Metric| {
            let v = m.value();
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Every workload, each in a child process so memory peaks stay apart.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let modes: Vec<bool> = a.trace.map_or(vec![false, true], |t| vec![t]);
    let o = &a.opts;
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        for seed in (0..a.repeat).map(|r| o.seed.wrapping_add(r)) {
            for &trace in &modes {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &o.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .args(["--shards", &o.shards.to_string()])
                    .arg("--golden-dir")
                    .arg(&o.golden_dir)
                    .arg("--out-dir")
                    .arg(&o.out_dir);
                if o.smoke {
                    cmd.arg("--smoke");
                }
                if o.bless {
                    cmd.arg("--bless");
                }
                let child = cmd
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                print!("{stdout}");
                let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
                let correct =
                    result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
                if !child.status.success() || !correct {
                    ok = false;
                    eprintln!(
                        "rfcbench: {} seed {seed} failed ({})",
                        workload.name(),
                        child.status
                    );
                }
                runs.push(Json::Obj(vec![
                    ("workload".into(), Json::Str(workload.name().into())),
                    ("seed".into(), Json::Uint(seed)),
                    ("trace".into(), Json::Bool(trace)),
                    ("result".into(), result.unwrap_or(Json::Null)),
                ]));
            }
        }
    }
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| o.out_dir.join("results.json"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = Json::Obj(vec![
        ("shards".into(), Json::Uint(o.shards as u64)),
        ("seconds".into(), Json::Num(o.seconds)),
        ("smoke".into(), Json::Bool(o.smoke)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    std::fs::write(&out, doc.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    Ok(ok)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare BASE CHANGE`, with the bounds of the repository's
/// `BENCHMARK.json`.
fn run_compare(args: &[String]) -> Result<bool, String> {
    let [base, change] = args else {
        return Err("compare wants BASE.json CHANGE.json".into());
    };
    let benchmark = package_dir().join("..").join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let rules = compare::rules(&text)?;
    let base = read_json(Path::new(base))?;
    let change = read_json(Path::new(change))?;
    println!(
        "{:<14} {:<12} {:>8} {:>34} {:>34}  verdict",
        "workload", "metric", "bound", "base median [q1, q3]", "change median [q1, q3]"
    );
    let mut worse = false;
    for workload in Workload::ALL.map(Workload::name) {
        for rule in &rules {
            let b = compare::samples(&base, workload, &rule.name);
            let c = compare::samples(&change, workload, &rule.name);
            let Some(verdict) = compare::verdict(&b, &c, rule) else {
                continue;
            };
            worse |= verdict == compare::Verdict::Worse;
            let side = |v: &[(u64, f64)]| {
                let values: Vec<f64> = v.iter().map(|p| p.1).collect();
                crate::stats::Summary::of(&values).map_or(String::new(), |s| {
                    format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n)
                })
            };
            println!(
                "{:<14} {:<12} {:>8} {:>34} {:>34}  {}",
                workload,
                rule.name,
                rule.bound,
                side(&b),
                side(&c),
                verdict.as_str()
            );
        }
    }
    Ok(!worse)
}
