//! End-to-end tests of the `rfcgen` command-line tool through its
//! library interface.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "a failed expectation about the CLI is a failed test"
)]

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    rfcgen::run(&argv, &mut buf).map_err(|e| e.to_string())?;
    Ok(String::from_utf8(buf).expect("utf8"))
}

#[test]
fn threshold_matches_theory_module() {
    let text = run(&["threshold", "--radix", "36", "--levels", "3"]).unwrap();
    let n1 = rfc_net::theory::max_leaves_at_threshold(36, 3).unwrap();
    assert!(text.contains(&n1.to_string()), "{text}");
    assert!(text.contains(&(n1 * 18).to_string()));
}

#[test]
fn generate_dot_is_parseable_shape() {
    let dot = run(&[
        "generate", "--kind", "rfc", "--radix", "6", "--leaves", "12", "--levels", "2", "--format",
        "dot", "--seed", "5",
    ])
    .unwrap();
    assert!(dot.starts_with("graph"));
    assert!(dot.trim_end().ends_with('}'));
    // 12 leaves * 3 up-links = 36 edges.
    assert_eq!(dot.matches(" -- ").count(), 36);
}

#[test]
fn generate_edges_count_matches_wires() {
    let edges = run(&[
        "generate", "--kind", "cft", "--radix", "6", "--levels", "3", "--format", "edges",
    ])
    .unwrap();
    let cft = rfc_net::FoldedClos::cft(6, 3).unwrap();
    assert_eq!(edges.lines().count(), cft.num_links());
}

#[test]
fn analyze_flags_sub_threshold_networks() {
    let text = run(&[
        "analyze", "--kind", "rfc", "--radix", "4", "--leaves", "64", "--levels", "2", "--seed",
        "3",
    ])
    .unwrap();
    assert!(text.contains("up/down routing: false"), "{text}");
    assert!(text.contains("connected leaf pairs"));
}

#[test]
fn simulate_all_to_one_saturates_the_hotspot() {
    let text = run(&[
        "simulate",
        "--kind",
        "cft",
        "--radix",
        "8",
        "--levels",
        "2",
        "--traffic",
        "all-to-one",
        "--load",
        "1.0",
        "--cycles",
        "800",
        "--warmup",
        "200",
    ])
    .unwrap();
    // With T-1 senders and one 1-phit/cycle ejector, accepted load per
    // node is about 1/(T-1) ~ 0.032.
    let accepted: f64 = text
        .lines()
        .find(|l| l.starts_with("accepted"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("accepted line");
    assert!(accepted < 0.1, "incast must cap throughput, got {accepted}");
}

#[test]
fn every_traffic_pattern_is_a_cli_name() {
    use rfc_net::sim::TrafficPattern;
    let names = TrafficPattern::EVERY.map(TrafficPattern::as_str);
    for name in &names {
        assert!(rfcgen::USAGE.contains(name), "USAGE omits `{name}`");
    }
    // One sweep over every pattern, `bursty` and `hotspot` included:
    // each name parses and runs.
    let text = run(&[
        "sweep",
        "--kind",
        "cft",
        "--radix",
        "4",
        "--levels",
        "2",
        "--traffic",
        &names.join(","),
        "--loads",
        "0.3",
        "--cycles",
        "200",
        "--warmup",
        "50",
    ])
    .unwrap();
    for name in &names {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{name} "))),
            "no `{name}` row: {text}"
        );
    }
    assert!(run(&["simulate", "--traffic", "banana"]).is_err());
}

#[test]
fn simulate_counts_unconnected_pairs_and_reports_an_empty_run() {
    use rand::SeedableRng;
    // The sub-threshold RFC below: `simulate`'s warning and `analyze`
    // name the exact number of leaf pairs without a common ancestor,
    // which agrees with the connected fraction.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let clos = rfc_net::FoldedClos::random(4, 64, 2, &mut rng).unwrap();
    let routing = rfc_net::UpDownRouting::new(&clos);
    let unconnected = routing.unconnected_leaf_pairs();
    let pairs = 64 * 63 / 2;
    assert!(unconnected > 0 && unconnected < pairs);
    assert_eq!(
        (pairs - unconnected) as f64 / pairs as f64,
        routing.connected_pair_fraction()
    );
    let text = run(&[
        "simulate", "--kind", "rfc", "--radix", "4", "--leaves", "64", "--levels", "2", "--seed",
        "3", "--cycles", "200", "--warmup", "50",
    ])
    .unwrap();
    assert!(
        text.contains(&format!("({unconnected} leaf pairs unconnected, ")),
        "{text}"
    );
    let text = run(&[
        "analyze", "--kind", "rfc", "--radix", "4", "--leaves", "64", "--levels", "2", "--seed",
        "3",
    ])
    .unwrap();
    assert!(
        text.contains(&format!("  unconnected leaf pairs: {unconnected}\n")),
        "{text}"
    );
    // A run too short to deliver anything says so instead of printing
    // a NaN latency.
    let text = run(&[
        "simulate", "--kind", "cft", "--radix", "4", "--levels", "2", "--cycles", "1", "--warmup",
        "0",
    ])
    .unwrap();
    assert!(text.contains("delivered packets: 0"), "{text}");
    assert!(
        text.contains("mean latency     : no packet delivered"),
        "{text}"
    );
    assert!(!text.contains("NaN"), "{text}");
}

#[test]
fn sub_threshold_warning_is_printed_by_simulate_and_sweep() {
    // The analyzed network above: an RFC well past its up/down threshold.
    let topology = [
        "--kind", "rfc", "--radix", "4", "--leaves", "64", "--levels", "2", "--seed", "3",
        "--cycles", "200", "--warmup", "50",
    ];
    let warning = "warning: topology lacks the full up/down property";
    let mut simulate = vec!["simulate", "--load", "0.3"];
    simulate.extend_from_slice(&topology);
    let text = run(&simulate).unwrap();
    assert!(
        text.lines().next().is_some_and(|l| l.starts_with(warning)),
        "{text}"
    );
    let mut sweep = vec![
        "sweep",
        "--traffic",
        "uniform,shuffle",
        "--loads",
        "0.2,0.4",
    ];
    sweep.extend_from_slice(&topology);
    let text = run(&sweep).unwrap();
    assert!(
        text.lines().any(|l| l.starts_with(&format!("# {warning}"))),
        "{text}"
    );
    // The warning is a comment: the data rows parse as before.
    let rows: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("traffic"))
        .collect();
    assert_eq!(rows.len(), 4, "2 patterns x 2 loads: {text}");
    for row in rows {
        assert_eq!(row.split_whitespace().count(), 5, "{row}");
    }
    // Networks with the property print no warning.
    let text = run(&[
        "sweep", "--kind", "cft", "--radix", "4", "--levels", "2", "--loads", "0.2", "--cycles",
        "200", "--warmup", "50",
    ])
    .unwrap();
    assert!(!text.contains("warning"), "{text}");
}

#[test]
fn expand_then_analyze_round_trip() {
    let text = run(&[
        "expand", "--kind", "rfc", "--radix", "8", "--leaves", "24", "--levels", "2", "--steps",
        "3", "--seed", "11",
    ])
    .unwrap();
    assert!(text.contains("added terminals  : 24"), "{text}");
    assert!(text.contains("up/down after"));
}

#[test]
fn rrn_generation_and_analysis() {
    let text = run(&[
        "analyze",
        "--kind",
        "rrn",
        "--switches",
        "30",
        "--degree",
        "4",
        "--hosts",
        "2",
    ])
    .unwrap();
    assert!(text.contains("switches : 30"));
    assert!(text.contains("diameter"));
}

#[test]
fn usage_errors_are_reported() {
    assert!(run(&["generate", "--kind", "banana"]).is_err());
    assert!(
        run(&["simulate", "--kind", "rrn"]).is_err(),
        "the simulator routes folded Clos networks only"
    );
    // Zero trials would leave every sampled statistic empty.
    assert!(usage_error(&["repro", "--trials", "0"]).contains("--trials"));
}

/// Runs the CLI and returns its error, which must be a usage error.
fn usage_error(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    match rfcgen::run(&argv, &mut Vec::new()) {
        Err(e @ rfcgen::CliError::Usage(_)) => e.to_string(),
        Err(e) => panic!("{args:?}: expected a usage error, got {e}"),
        Ok(()) => panic!("{args:?}: expected a usage error, but the command ran"),
    }
}

#[test]
fn invalid_simulator_flags_are_usage_errors() {
    let with = |command: &'static str, extra: &[&'static str]| {
        let mut argv = vec![command, "--kind", "cft", "--radix", "4", "--levels", "2"];
        argv.extend(extra);
        usage_error(&argv)
    };
    assert!(with("simulate", &["--cycles", "0"]).contains("nothing to measure"));
    assert!(with("simulate", &["--router-latency", "60"]).contains("event wheel"));
    assert!(with("simulate", &["--valiant", "yes"]).contains("on|off"));
    // A run length that overflows u64 names both fields.
    let err = with(
        "simulate",
        &["--warmup", "18446744073709551615", "--cycles", "1"],
    );
    assert!(
        err.contains("warmup_cycles") && err.contains("measure_cycles"),
        "{err}"
    );
    // Generation times are u32, so a run must end before cycle 2^32.
    let err = with("simulate", &["--cycles", "4294967296"]);
    assert!(err.contains("u32 generation times"), "{err}");
    // An offered load must be finite and not negative.
    for load in ["nan", "-1", "inf"] {
        let err = with("simulate", &["--load", load]);
        assert!(err.contains("--load") && err.contains("finite"), "{err}");
    }
    for loads in ["nan,-1", "0.3,-1", "0.3,NaN"] {
        let err = with("sweep", &["--loads", loads]);
        assert!(err.contains("--loads") && err.contains("finite"), "{err}");
    }
}

#[test]
fn switches_with_more_than_64_links_are_usage_errors() {
    // Candidate rows are 64-bit link masks. cft(66,2) is cheap to build,
    // and each of its 33 top switches has 66 links.
    for command in ["simulate", "sweep"] {
        let err = usage_error(&[command, "--kind", "cft", "--radix", "66", "--levels", "2"]);
        assert!(
            err.contains("66 links") && err.contains("at most 64"),
            "{err}"
        );
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    let err = usage_error(&[
        "simulate",
        "--topology",
        "cft",
        "--radix",
        "4",
        "--levels",
        "2",
    ]);
    assert!(err.contains("--topology"), "{err}");
    // `repro` reads only the window flags of the simulator set.
    assert!(usage_error(&["repro", "--valiant", "on"]).contains("--valiant"));
}

#[test]
fn repro_prints_reports_and_writes_artifacts() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-repro-costs");
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("stale test dir must be removable");
    }
    let text = run(&[
        "repro",
        "--only",
        "costs",
        "--scale",
        "small",
        "--out-dir",
        root.to_str().expect("utf8 tmp path"),
    ])
    .unwrap();
    assert!(
        text.lines().any(|l| l.split_whitespace().eq([
            "case",
            "cft_switches",
            "cft_wires",
            "rfc_switches",
            "rfc_wires",
            "switch_savings",
            "wire_savings"
        ])),
        "report header row missing:\n{text}"
    );
    assert!(text.lines().any(|l| l.starts_with("[manifest]")), "{text}");
    let run_dir = std::fs::read_dir(&root)
        .expect("out-dir must exist")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.is_dir())
        .expect("one run directory");
    let csvs = std::fs::read_dir(run_dir.join("costs"))
        .expect("costs artifacts")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "csv"))
        .count();
    assert_eq!(csvs, 1, "costs writes one CSV");
}
