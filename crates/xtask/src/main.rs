//! `cargo xtask` — the workspace analyzer (see `lib.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::workspace::{run_lint, RATCHET_FILE};

const USAGE: &str = "\
Usage: cargo xtask lint [--write-ratchet]

  lint                   run every check: determinism and panic rules,
                         lint gates, layering, atomic orderings,
                         lockstep regions, and the ratchets
  --write-ratchet        rewrite xtask-ratchet.toml with the measured
                         counts instead of comparing against it
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_ratchet = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["lint"] => false,
        ["lint", "--write-ratchet"] | ["--write-ratchet", "lint"] => true,
        _ => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match workspace_root().and_then(|root| lint(&root, write_ratchet)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
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
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| "cannot locate workspace root above crates/xtask".to_string())
}

fn lint(root: &Path, write_ratchet: bool) -> Result<ExitCode, String> {
    let report = run_lint(root, write_ratchet)?;
    let panic_sites: usize = report.counts.values().map(|c| c.total()).sum();
    if write_ratchet {
        println!(
            "wrote {RATCHET_FILE}: {} crates, {panic_sites} panic sites, {} lossy casts total",
            report.counts.len(),
            report.cast_counts.values().map(|c| c.lossy).sum::<usize>()
        );
    }
    for note in &report.improvements {
        println!("note: {note}");
    }
    for (path, v) in &report.violations {
        eprintln!("error[{}]: {}:{}: {}", v.rule, path, v.line, v.message);
    }
    if report.is_clean() {
        println!(
            "xtask lint: clean ({} crates checked, {panic_sites} non-test panic sites)",
            report.counts.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("xtask lint: {} violation(s)", report.violations.len());
        Ok(ExitCode::FAILURE)
    }
}
