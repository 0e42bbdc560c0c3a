//! Release-only gates on three CFT scales: small cft(8,3), medium
//! cft(16,3) and large cft(36,4).
//!
//! - Routing bytes per terminal (up/down routing plus candidate table)
//!   stay at or below 124/82/87. These bounds may only fall, and the
//!   large scale must still materialize its table.
//! - Engine bytes per terminal (every per-run buffer of a
//!   `RunScratch` after a short light-load run on cft(36,4) at 2
//!   shards) stay at or below 1,606. The bound may only fall.
//! - A saturated uniform run on the small and medium scales reproduces
//!   its recorded `accepted_load` and `delivered_packets` exactly, at 1
//!   and 2 shards.

#![expect(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test fixtures use small, known-valid parameters; a failure is a failed test"
)]

use rfc_graph::HeapBytes;
use rfc_routing::UpDownRouting;
use rfc_sim::{RunScratch, SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_topology::FoldedClos;

/// Engine bytes per terminal on cft(36,4); only ever lowered. 8-byte
/// packets took it from 3,570 to 1,634; credit parking's wait lists,
/// paid for by `u32` busy times and a derived slot switch, to 1,606.
const ENGINE_BOUND: usize = 1_606;

/// `⌈(routing + table bytes) / terminals⌉` for `cft(radix, levels)`.
fn routing_bytes_per_terminal(radix: usize, levels: usize) -> usize {
    let clos = FoldedClos::cft(radix, levels).unwrap();
    let routing = UpDownRouting::new(&clos);
    let net = SimNetwork::from_folded_clos(&clos);
    let sim = Simulation::new(&net, &routing, SimConfig::paper_defaults());
    let table = sim
        .candidate_table_bytes()
        .unwrap_or_else(|| panic!("cft({radix},{levels}) must materialize its table"));
    (routing.heap_bytes() + table).div_ceil(net.num_terminals())
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "builds cft(36,4) routing state for 209,952 terminals; CI runs the workspace tests with --release"
)]
fn routing_bytes_per_terminal_stay_within_the_ratchet() {
    for (radix, levels, bound) in [(8, 3, 124), (16, 3, 82), (36, 4, 87)] {
        let bytes = routing_bytes_per_terminal(radix, levels);
        assert!(
            bytes <= bound,
            "cft({radix},{levels}): {bytes} routing bytes per terminal exceed {bound}"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs cft(36,4) with 209,952 terminals; CI runs the workspace tests with --release"
)]
fn engine_bytes_per_terminal_stay_within_the_ratchet() {
    let clos = FoldedClos::cft(36, 4).unwrap();
    let routing = UpDownRouting::new(&clos);
    let net = SimNetwork::from_folded_clos(&clos);
    let mut cfg = SimConfig::paper_defaults();
    cfg.warmup_cycles = 20;
    cfg.measure_cycles = 80;
    let sim = Simulation::new(&net, &routing, cfg);
    let mut scratch = RunScratch::new();
    let run = sim.run_sharded_scratch(TrafficPattern::Uniform, 0.02, 2017, 2, &mut scratch);
    assert!(run.generated_packets > 0, "the run must carry traffic");
    let bytes = scratch.heap_bytes().div_ceil(net.num_terminals());
    assert!(
        bytes <= ENGINE_BOUND,
        "cft(36,4): {bytes} engine bytes per terminal exceed {ENGINE_BOUND}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "5,000 saturated cycles on 1,024 terminals, twice; CI runs the workspace tests with --release"
)]
fn saturated_cft_runs_reproduce_their_recorded_results() {
    // (radix, warmup, measure, accepted_load, delivered_packets) for
    // cft(radix, 3) at load 1.0, seed 2017.
    for (radix, warmup, measure, accepted, delivered) in [
        (8, 300, 1_000, 0.83425, 6_674),
        (16, 1_000, 4_000, 0.8628203125, 220_882),
    ] {
        let clos = FoldedClos::cft(radix, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = SimConfig::paper_defaults();
        cfg.warmup_cycles = warmup;
        cfg.measure_cycles = measure;
        let sim = Simulation::new(&net, &routing, cfg);
        let run = |shards| {
            sim.run_sharded_scratch(
                TrafficPattern::Uniform,
                1.0,
                2017,
                shards,
                &mut RunScratch::new(),
            )
        };
        let serial = run(1);
        assert_eq!(run(2), serial, "cft({radix},3): 2 shards moved the result");
        assert_eq!(
            (serial.accepted_load, serial.delivered_packets),
            (accepted, delivered),
            "cft({radix},3): the saturated result moved"
        );
    }
}
