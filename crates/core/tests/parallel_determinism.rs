//! The parallel execution layer's core guarantee: every driver produces
//! byte-identical output with 1 worker thread and with many, for the
//! same seed.
//!
//! Each driver derives per-job RNG seeds with
//! [`rfc_net::parallel::child_seed`] and writes results into
//! index-addressed slots, so neither the random streams nor the output
//! order can depend on the schedule. These tests would catch any driver
//! that regresses to slicing a shared RNG stream across jobs.

#![expect(
    clippy::unwrap_used,
    reason = "a poisoned override lock means an earlier test already failed"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::experiments::{bisection, fig11, fig12, simfig, table3, threshold};
use rfc_net::parallel;
use rfc_net::scenarios::{equal_resources, PreparedScenario, Scale};
use rfc_net::sim::{SimConfig, TrafficPattern};

/// The thread-count override is process-wide; serialize the tests that
/// toggle it so they don't fight over it.
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` once forced to 1 thread and once forced to `threads`,
/// asserting equal results. Restores the default thread setting.
fn assert_schedule_invariant<T: PartialEq + std::fmt::Debug>(
    threads: usize,
    f: impl Fn() -> T,
) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    parallel::set_threads(Some(1));
    let serial = f();
    parallel::set_threads(Some(threads));
    let parallel_result = f();
    parallel::set_threads(None);
    assert_eq!(
        serial, parallel_result,
        "results changed between 1 and {threads} threads"
    );
    serial
}

#[test]
fn simfig_points_are_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(88);
    let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
    let mut cfg = SimConfig::quick();
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 400;
    let points = assert_schedule_invariant(4, || {
        simfig::run(
            &scenario,
            &[TrafficPattern::Uniform, TrafficPattern::Shuffle],
            &[0.2, 0.5, 0.9],
            cfg,
            2017,
        )
    });
    assert_eq!(points.len(), scenario.nets.len() * 2 * 3);
}

#[test]
fn table3_rows_are_thread_count_invariant() {
    let rows = assert_schedule_invariant(4, || {
        let mut rng = StdRng::seed_from_u64(33);
        table3::run(&[512], 4, &mut rng)
    });
    assert!(!rows.is_empty());
}

#[test]
fn threshold_points_are_thread_count_invariant() {
    let points = assert_schedule_invariant(4, || {
        let mut rng = StdRng::seed_from_u64(7);
        threshold::run(&[64], 2, &[0.0, 3.0], 8, &mut rng)
    });
    assert_eq!(points.len(), 2);
}

#[test]
fn fig11_points_are_thread_count_invariant() {
    let points = assert_schedule_invariant(3, || {
        let mut rng = StdRng::seed_from_u64(11);
        fig11::run(8, &[2], 4, &mut rng)
    });
    assert!(!points.is_empty());
}

#[test]
fn fig12_points_are_thread_count_invariant() {
    let mut cfg = SimConfig::quick();
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 300;
    let points = assert_schedule_invariant(4, || {
        let mut rng = StdRng::seed_from_u64(12);
        let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
        fig12::run(
            &scenario,
            &[TrafficPattern::Uniform],
            2,
            0.05,
            cfg,
            &mut rng,
        )
    });
    assert_eq!(points.len(), 6);
}

#[test]
fn bisection_points_are_thread_count_invariant() {
    let points = assert_schedule_invariant(4, || {
        let mut rng = StdRng::seed_from_u64(42);
        bisection::run(8, 16, 3, &mut rng)
    });
    assert_eq!(points.len(), 4);
}

/// Runs `f` once at 1 shard and once at `shards`, asserting equal
/// results. Shares [`OVERRIDE_LOCK`] with the thread tests because the
/// shard override is equally process-wide.
fn assert_shard_invariant<T: PartialEq + std::fmt::Debug>(shards: usize, f: impl Fn() -> T) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    parallel::set_shards(Some(1));
    let serial = f();
    parallel::set_shards(Some(shards));
    let sharded = f();
    parallel::set_shards(None);
    assert_eq!(
        serial, sharded,
        "results changed between 1 and {shards} shards"
    );
    serial
}

#[test]
fn simfig_points_are_shard_count_invariant() {
    // The in-run parallelism analogue of the thread test above: every
    // simulator call inside the driver splits its network across
    // shards, and nothing downstream may move.
    let mut rng = StdRng::seed_from_u64(88);
    let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
    let mut cfg = SimConfig::quick();
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 400;
    let points = assert_shard_invariant(4, || {
        simfig::run(
            &scenario,
            &[TrafficPattern::Uniform, TrafficPattern::Shuffle],
            &[0.2, 0.9],
            cfg,
            2017,
        )
    });
    assert_eq!(points.len(), scenario.nets.len() * 2 * 2);
}

#[test]
fn report_text_is_byte_identical_across_shard_counts() {
    let mut rng = StdRng::seed_from_u64(9);
    let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
    let prepared = PreparedScenario::prepare(scenario);
    let mut cfg = SimConfig::quick();
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 300;
    let render = || {
        simfig::report(
            &prepared,
            &[TrafficPattern::Uniform],
            &[0.3, 0.7],
            cfg,
            5,
            "determinism-check",
        )
        .unwrap()
        .to_text()
    };
    assert_shard_invariant(8, render);
}

#[test]
fn report_text_is_byte_identical_at_a_non_divisor_shard_count() {
    // 3 does not divide the Small-scale switch counts, so the partition
    // is uneven: the greedy balancer hands some shards one more switch
    // than others, and every remainder-handling path must still yield
    // the serial report byte for byte.
    let mut rng = StdRng::seed_from_u64(9);
    let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
    for snet in &scenario.nets {
        let switches = rfc_net::sim::SimNetwork::from_folded_clos(&snet.clos).num_switches();
        assert!(
            !switches.is_multiple_of(3),
            "{}: {switches} switches is divisible by 3; the fixture no \
             longer exercises the non-divisor path",
            snet.label
        );
    }
    let prepared = PreparedScenario::prepare(scenario);
    let mut cfg = SimConfig::quick();
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 300;
    let render = || {
        simfig::report(
            &prepared,
            &[TrafficPattern::Uniform],
            &[0.3, 0.7],
            cfg,
            5,
            "determinism-check",
        )
        .unwrap()
        .to_text()
    };
    assert_shard_invariant(3, render);
}

#[test]
fn report_text_is_byte_identical_across_thread_counts() {
    // End to end: the rendered report (what `write_csv` serializes) must
    // match byte for byte, not just the floating-point values.
    let mut rng = StdRng::seed_from_u64(9);
    let scenario = equal_resources(Scale::Small, &mut rng).unwrap();
    let prepared = PreparedScenario::prepare(scenario);
    let mut cfg = SimConfig::quick();
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 300;
    let render = || {
        simfig::report(
            &prepared,
            &[TrafficPattern::Uniform],
            &[0.3, 0.7],
            cfg,
            5,
            "determinism-check",
        )
        .unwrap()
        .to_text()
    };
    assert_schedule_invariant(8, render);
}
