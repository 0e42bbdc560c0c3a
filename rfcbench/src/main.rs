//! `rfcbench`: the repository benchmark; see README.md.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    rfcbench::cli::main(&args)
}
