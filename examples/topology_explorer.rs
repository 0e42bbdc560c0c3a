//! Topology explorer: builds one instance of every topology family in
//! the paper, prints its structural scorecard (size, cost, diameter,
//! bisection bound, mean distance), and exports a small RFC as Graphviz
//! DOT.
//!
//! ```text
//! cargo run --release --example topology_explorer > /tmp/rfc.dot
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "the example's fixed radix and level count are feasible"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::graph::{traversal, vid};
use rfc_net::theory;
use rfc_net::topology::{FoldedClos, Network, Rrn};

fn scorecard(label: &str, net: &dyn Network, leaf_diameter: Option<u32>) {
    let graph = net.switch_graph();
    let sources: Vec<u32> = (0..vid(graph.num_vertices())).step_by(7).take(16).collect();
    let mean = traversal::mean_distance_sampled(&graph, &sources)
        .map_or_else(|| "-".into(), |d| format!("{d:.2}"));
    println!(
        "{label:<18} radix {:>2}  switches {:>5}  wires {:>6}  terminals {:>5}  \
         diameter {:>3}  mean-dist {}",
        net.max_radix(),
        net.num_switches(),
        net.num_switch_links(),
        net.num_terminals(),
        leaf_diameter.map_or_else(|| "-".into(), |d| d.to_string()),
        mean
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2017);

    println!("== structural scorecards (radix-12 class, 3 levels / diameter 4) ==");
    let cft = FoldedClos::cft(12, 3)?;
    scorecard("cft(12,3)", &cft, cft.leaf_diameter());
    let kary = FoldedClos::kary_tree(6, 3)?;
    scorecard("6-ary 3-tree", &kary, kary.leaf_diameter());
    let oft = FoldedClos::oft(5, 2)?;
    scorecard("oft(q=5,l=2)", &oft, oft.leaf_diameter());
    let rfc = FoldedClos::random(12, 150, 3, &mut rng)?;
    scorecard("rfc(12,150,3)", &rfc, rfc.leaf_diameter());
    let rrn = Rrn::new(100, 9, 3, &mut rng)?;
    let rrn_diam = traversal::diameter(&rrn.graph());
    scorecard("rrn(100,9,3)", &rrn, rrn_diam);

    println!("\n== analytic bounds at radix 36 (paper Section 4.2) ==");
    println!(
        "normalized bisection: rfc 2-level {:.2}, rfc 3-level {:.2}, rrn(26,10) {:.2}, cft 1.00",
        theory::rfc_normalized_bisection(1_000, 2, 36),
        theory::rfc_normalized_bisection(1_000, 3, 36),
        theory::rrn_normalized_bisection(26, 10),
    );
    println!(
        "max terminals at diameter 4: cft {}, rfc {}, oft {}",
        theory::cft_terminals(36, 3),
        theory::rfc_max_terminals(36, 3).unwrap(),
        theory::oft_terminals(17, 3),
    );

    // DOT export of a pocket-size RFC (the paper's Figure 4 shape).
    let pocket = FoldedClos::random(4, 8, 3, &mut rng)?;
    println!("\n== graphviz dot of rfc(4,8,3) ==");
    println!("graph rfc {{");
    println!("  rankdir=BT; node [shape=box];");
    for level in 0..pocket.num_levels() {
        let ids: Vec<String> = (0..pocket.level_size(level))
            .map(|i| format!("s{}", pocket.switch_id(level, i)))
            .collect();
        println!("  {{ rank=same; {} }}", ids.join("; "));
    }
    for link in pocket.links() {
        println!("  s{} -- s{};", link.lower, link.upper);
    }
    println!("}}");
    Ok(())
}
