//! Graceful expansion (Section 5): grow a random folded Clos in minimal
//! steps — two switches per level, one root, R new compute nodes — while
//! tracking rewiring cost and checking that up/down routing survives
//! until the Theorem 4.2 threshold is reached.
//!
//! ```text
//! cargo run --release --example incremental_expansion
//! ```

#![expect(
    clippy::expect_used,
    reason = "the example's fixed radix and level count are feasible"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::theory;
use rfc_net::topology::expansion::expand_rfc;
use rfc_net::topology::FoldedClos;
use rfc_net::UpDownRouting;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2017);
    let radix = 12;
    let levels = 3;
    let max_n1 = theory::max_leaves_at_threshold(radix, levels).expect("radix large enough");

    // Start well below the threshold and grow toward it.
    let mut net = FoldedClos::random(radix, max_n1 / 2, levels, &mut rng)?;
    println!(
        "start: N1 = {} leaves, {} terminals (threshold max N1 = {max_n1})",
        net.num_leaves(),
        net.num_terminals()
    );
    println!(
        "{:>6} {:>10} {:>9} {:>10} {:>12} {:>8}",
        "step", "terminals", "N1", "rewired", "rewired/link", "up/down"
    );

    let mut total_rewired = 0usize;
    for step in 1..=8 {
        let links_before = net.num_links();
        let report = expand_rfc(&mut net, 4, &mut rng)?;
        total_rewired += report.rewired_links;
        let updown = UpDownRouting::new(&net).has_updown_property();
        println!(
            "{step:>6} {:>10} {:>9} {:>10} {:>11.2}% {:>8}",
            net.num_terminals(),
            net.num_leaves(),
            report.rewired_links,
            100.0 * report.rewired_links as f64 / links_before as f64,
            updown
        );
        if net.num_leaves() >= max_n1 {
            println!("reached the Theorem 4.2 threshold; further growth would need a new level");
            break;
        }
    }
    println!(
        "total: {} links rewired over the whole growth ({} wires now live)",
        total_rewired,
        net.num_links()
    );

    // Contrast with the fat-tree: the only way to grow a maxed 3-level
    // CFT is a whole new level.
    let cft3 = FoldedClos::cft(radix, 3)?;
    let cft4 = FoldedClos::cft(radix, 4)?;
    println!(
        "CFT contrast: 3 levels top out at {} nodes; the next step is a 4-level fabric \
         with {} switches ({}x)",
        cft3.num_terminals(),
        cft4.num_switches(),
        cft4.num_switches() / cft3.num_switches()
    );
    Ok(())
}
