//! `cargo xtask` — workspace maintenance commands (see `lib.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::workspace::{run_lint, RATCHET_FILE};

const USAGE: &str = "\
Usage: cargo xtask <command>

Commands:
  lint                   run the determinism, ratchet, and lint-gate checks
  lint --all             run lint plus the audit passes (layering,
                         cast ratchet) and the conc passes (atomic
                         orderings, lockstep regions, sync ratchet)
  audit                  run only the audit passes
  conc                   run only the concurrency-soundness passes
  counts                 print the per-crate panic-surface table
  casts                  print the per-crate cast table and every
                         unsuppressed lossy cast site
  ratchet                print the per-scale routing-bytes-per-terminal
                         table (BENCH_sim.json vs the committed
                         [scale.*] baselines) and fail on regressions

Flags:
  --write-ratchet        rewrite xtask-ratchet.toml (panic-surface,
                         lossy-cast, and sync-primitive baselines) with
                         the current counts
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match workspace_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let write_ratchet = args.iter().any(|a| a == "--write-ratchet");
    let all = args.iter().any(|a| a == "--all");
    let flags_only: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--write-ratchet" && *a != "--all")
        .collect();
    match (flags_only.as_slice(), all) {
        (["lint"], false) => lint(&root, write_ratchet, false),
        (["lint"], true) => lint(&root, write_ratchet, true),
        (["audit"], false) => audit(&root, write_ratchet),
        (["conc"], false) => conc(&root),
        (["counts"], false) => counts(&root),
        (["casts"], false) => casts(&root),
        (["ratchet"], false) => ratchet(&root),
        _ => {
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: the manifest dir's grandparent
/// (`crates/xtask` → repo root).
fn workspace_root() -> Result<PathBuf, String> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| "cannot locate workspace root above crates/xtask".to_string())
}

fn lint(root: &std::path::Path, write_ratchet: bool, all: bool) -> ExitCode {
    let report = match run_lint(root, write_ratchet) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if write_ratchet {
        println!(
            "wrote {RATCHET_FILE}: {} crates, {} panic sites, {} lossy casts total",
            report.counts.len(),
            report.counts.values().map(|c| c.total()).sum::<usize>(),
            report.cast_counts.values().map(|c| c.lossy).sum::<usize>()
        );
    }
    let mut violations = report.violations;
    let mut improvements = report.improvements;
    if all {
        match xtask::run_audit(root) {
            Ok(audit_report) => {
                violations.extend(audit_report.violations);
                improvements.extend(audit_report.improvements);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        match xtask::run_conc(root) {
            Ok(conc_report) => {
                violations.extend(conc_report.violations);
                improvements.extend(conc_report.improvements);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for note in &improvements {
        println!("note: {note}");
    }
    for (path, v) in &violations {
        eprintln!("error[{}]: {}:{}: {}", v.rule, path, v.line, v.message);
    }
    let label = if all { "lint --all" } else { "lint" };
    if violations.is_empty() {
        println!(
            "xtask {label}: clean ({} crates checked, {} non-test panic sites)",
            report.counts.len(),
            report.counts.values().map(|c| c.total()).sum::<usize>()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {label}: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn audit(root: &std::path::Path, write_ratchet: bool) -> ExitCode {
    if write_ratchet {
        // The ratchet file holds the panic-surface and cast baselines
        // together; the lint walker measures both in one pass.
        if let Err(e) = run_lint(root, true) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let report = match xtask::run_audit(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.improvements {
        println!("note: {note}");
    }
    for (path, v) in &report.violations {
        eprintln!("error[{}]: {}:{}: {}", v.rule, path, v.line, v.message);
    }
    if report.is_clean() {
        println!(
            "xtask audit: clean ({} crates checked, {} unsuppressed lossy casts)",
            report.cast_counts.len(),
            report.cast_counts.values().map(|c| c.lossy).sum::<usize>()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask audit: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}

fn conc(root: &std::path::Path) -> ExitCode {
    let report = match xtask::run_conc(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.improvements {
        println!("note: {note}");
    }
    for (path, v) in &report.violations {
        eprintln!("error[{}]: {}:{}: {}", v.rule, path, v.line, v.message);
    }
    if report.is_clean() {
        println!(
            "xtask conc: clean ({} crates checked, {} lock / {} atomic sites)",
            report.sync_counts.len(),
            report.sync_counts.values().map(|c| c.lock).sum::<usize>(),
            report.sync_counts.values().map(|c| c.atomic).sum::<usize>()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask conc: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}

fn counts(root: &std::path::Path) -> ExitCode {
    let report = match run_lint(root, false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<18} {:>7} {:>7} {:>7} {:>7}",
        "crate", "unwrap", "expect", "panic", "total"
    );
    for (name, c) in &report.counts {
        println!(
            "{name:<18} {:>7} {:>7} {:>7} {:>7}",
            c.unwrap,
            c.expect,
            c.panic,
            c.total()
        );
    }
    ExitCode::SUCCESS
}

fn ratchet(root: &std::path::Path) -> ExitCode {
    let measured = match xtask::workspace::bench_scale_bytes(root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match std::fs::read_to_string(root.join(RATCHET_FILE))
        .map_err(|e| format!("{}: {e}", RATCHET_FILE))
        .and_then(|text| xtask::ratchet::parse_scales(&text))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<10} {:>14} {:>14}",
        "scale", "baseline B/t", "measured B/t"
    );
    for (name, base) in &baseline {
        match measured.get(name) {
            Some(now) => println!("{name:<10} {base:>14} {now:>14}"),
            None => println!("{name:<10} {base:>14} {:>14}", "-"),
        }
    }
    for (name, now) in &measured {
        if !baseline.contains_key(name) {
            println!("{name:<10} {:>14} {now:>14}", "-");
        }
    }
    let (failures, improvements) = xtask::ratchet::compare_scales(&baseline, &measured);
    for note in &improvements {
        println!("note: {note}");
    }
    for f in &failures {
        eprintln!("error[ratchet]: {RATCHET_FILE}:1: {f}");
    }
    if failures.is_empty() {
        println!("xtask ratchet: clean ({} scale(s) checked)", baseline.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask ratchet: {} violation(s)", failures.len());
        ExitCode::FAILURE
    }
}

fn casts(root: &std::path::Path) -> ExitCode {
    let report = match xtask::run_audit(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<18} {:>9} {:>9} {:>8} {:>8}",
        "crate", "lossless", "widening", "lossy", "allowed"
    );
    for (name, c) in &report.cast_counts {
        println!(
            "{name:<18} {:>9} {:>9} {:>8} {:>8}",
            c.lossless, c.widening, c.lossy, c.allowed
        );
    }
    for (path, site) in &report.lossy_sites {
        println!("lossy: {}:{}: as {}", path, site.line, site.target);
    }
    ExitCode::SUCCESS
}
