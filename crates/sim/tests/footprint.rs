//! Routing bytes per terminal (up/down routing plus candidate table)
//! on the three CFT scales of `BENCH_sim.json`: at or below the ratchet
//! values recorded there, which may only fall, with `large` still
//! materializing its table.

use rfc_graph::HeapBytes;
use rfc_routing::UpDownRouting;
use rfc_sim::{SimConfig, SimNetwork, Simulation};
use rfc_topology::FoldedClos;

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
    for (radix, levels, bound) in [(8, 3, 135), (16, 3, 96), (36, 4, 109)] {
        let bytes = routing_bytes_per_terminal(radix, levels);
        assert!(
            bytes <= bound,
            "cft({radix},{levels}): {bytes} routing bytes per terminal exceed {bound}"
        );
    }
}
