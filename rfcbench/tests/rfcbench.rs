//! Drives the `rfcbench` binary in `--smoke` mode.

use std::path::{Path, PathBuf};
use std::process::Command;

use rfc_net::json::Json;

const WORKLOADS: [&str; 4] = ["rfc-saturated", "large-light", "rfc-churn", "repro-small"];

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one smoke workload; returns the exit status, the whole stdout
/// and the parsed result line.
fn smoke(workload: &str, extra: &[&str], out_dir: &Path) -> (bool, String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_rfcbench"))
        .args(["--workload", workload, "--smoke", "--seconds", "0"])
        .arg("--out-dir")
        .arg(out_dir)
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let result =
        Json::parse(&last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"));
    (out.status.success(), stdout, result)
}

fn metric(result: &Json, name: &str) -> (f64, String) {
    let m = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"));
    (
        m.get("value").and_then(Json::as_num).unwrap(),
        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
    )
}

fn benchmark() -> Json {
    let text = std::fs::read_to_string(package_dir().join("..").join("BENCHMARK.json")).unwrap();
    Json::parse(&text).unwrap()
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    let doc = benchmark();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let out = scratch("listed");
    for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let metrics = listed(&doc, key);
        for workload in WORKLOADS {
            let (ok, stdout, result) = smoke(workload, &["--trace", trace], &out);
            assert!(ok, "{workload} failed:\n{stdout}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            let printed = result.get("metrics").unwrap();
            let Json::Obj(fields) = printed else {
                panic!("metrics is not an object")
            };
            assert_eq!(fields.len(), metrics.len(), "{workload}: {key} set differs");
            for (name, unit) in &metrics {
                assert!(is_metric_name(name), "bad metric name {name}");
                assert_eq!(&metric(&result, name).1, unit, "{workload}: unit of {name}");
                assert!(
                    stdout.lines().any(|l| l
                        .split_whitespace()
                        .take(2)
                        .eq([name.as_str(), unit.as_str()])),
                    "{workload}: no report row for {name}"
                );
            }
        }
    }
}

#[test]
fn trace_spans_nest_and_self_time_is_non_negative() {
    let out = scratch("trace");
    let (ok, stdout, _) = smoke("rfc-churn", &["--trace", "1"], &out);
    assert!(ok, "{stdout}");
    let text = std::fs::read_to_string(out.join("rfc-churn").join("trace.json")).unwrap();
    let trace = Json::parse(&text).unwrap();
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_uint);
    let mut names = Vec::new();
    for span in spans {
        let (start, end) = (
            field(span, "start_ns").unwrap(),
            field(span, "end_ns").unwrap(),
        );
        assert!(start <= end);
        names.push(span.get("name").and_then(Json::as_str).unwrap().to_string());
        if let Some(parent) = field(span, "parent") {
            let p = spans
                .iter()
                .find(|s| field(s, "id") == Some(parent))
                .unwrap();
            assert!(field(p, "start_ns").unwrap() <= start && end <= field(p, "end_ns").unwrap());
            assert_eq!(field(p, "job"), field(span, "job"));
        }
    }
    for name in [
        "job",
        "topology.build",
        "routing.build",
        "sim.table_build",
        "sim.run_churn",
        "routing.apply_event",
    ] {
        assert!(names.iter().any(|n| n == name), "no {name} span");
    }
    let summary = trace.get("summary").and_then(Json::as_arr).unwrap();
    assert!(!summary.is_empty());
    for job in summary {
        let Some(Json::Obj(layers)) = job.get("self_s") else {
            panic!("summary without self_s")
        };
        for (layer, seconds) in layers {
            assert!(
                seconds.as_num().unwrap() >= 0.0,
                "{layer} self time negative"
            );
        }
    }
}

#[test]
fn a_perturbed_golden_fails_the_run() {
    let golden = scratch("perturbed");
    let text =
        std::fs::read_to_string(package_dir().join("golden").join("smoke-2017.txt")).unwrap();
    let perturbed: String = text
        .lines()
        .map(
            |l| match l.strip_prefix("rfc-saturated delivered_packets ") {
                Some(v) => format!(
                    "rfc-saturated delivered_packets {}\n",
                    v.parse::<u64>().unwrap() + 1
                ),
                None => format!("{l}\n"),
            },
        )
        .collect();
    assert_ne!(perturbed, text);
    std::fs::write(golden.join("smoke-2017.txt"), perturbed).unwrap();
    let dir = golden.to_str().unwrap();
    let (ok, stdout, result) = smoke(
        "rfc-saturated",
        &["--trace", "1", "--golden-dir", dir],
        &golden,
    );
    assert!(!ok, "a golden mismatch must fail the run:\n{stdout}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(result.get("failed"), result.get("attempted"));
    assert_eq!(metric(&result, "failure_rate").0, 1.0);
    assert!(stdout.contains("delivered_packets"), "{stdout}");
}

#[test]
fn traced_results_agree_at_one_and_two_shards() {
    let out = scratch("shards");
    let counts = |shards: &str| {
        let (ok, stdout, result) =
            smoke("rfc-saturated", &["--trace", "1", "--shards", shards], &out);
        assert!(ok, "{stdout}");
        [
            "sim.delivered_packets",
            "sim.refused_packets",
            "sim.in_flight_at_end",
            "sim.accepted_load",
            "sim.latency_p50_cycles",
            "sim.latency_p99_cycles",
        ]
        .map(|name| metric(&result, name).0)
    };
    let one = counts("1");
    assert!(one[0] > 0.0);
    assert_eq!(one, counts("2"));
}

#[test]
fn the_hold_out_seed_matches_its_golden() {
    let out = scratch("seed7");
    let (ok, stdout, _) = smoke("rfc-churn", &["--seed", "7"], &out);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("checking outputs against"), "{stdout}");
}

#[test]
fn bless_writes_a_golden_that_the_next_run_passes() {
    let golden = scratch("bless");
    let dir = golden.to_str().unwrap();
    let (ok, stdout, _) = smoke(
        "large-light",
        &["--seed", "3", "--golden-dir", dir, "--bless"],
        &golden,
    );
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("# + large-light delivered_packets "),
        "{stdout}"
    );
    let written = std::fs::read_to_string(golden.join("smoke-3.txt")).unwrap();
    assert!(written
        .lines()
        .any(|l| l.starts_with("large-light accepted_load ")));
    let (ok, stdout, _) = smoke(
        "large-light",
        &["--seed", "3", "--golden-dir", dir],
        &golden,
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("checking outputs against"), "{stdout}");
    let (_, stdout, _) = smoke(
        "large-light",
        &["--seed", "4", "--golden-dir", dir],
        &golden,
    );
    assert!(
        stdout.contains("no golden for large-light at seed 4"),
        "{stdout}"
    );
}
