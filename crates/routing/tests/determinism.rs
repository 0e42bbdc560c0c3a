//! Regression tests for routing-table determinism.
//!
//! The experiment pipeline's core guarantee is that a seed fully
//! determines every result. The routing layer used to compute ECMP path
//! counts through a `HashMap`, whose iteration order is randomized per
//! process — exactly the kind of nondeterminism that stays invisible
//! until a result table changes between two runs. These tests pin the
//! fixed behavior: two independently built tables over the same seed
//! must agree on *every* query, not just on aggregate statistics.

#![expect(
    clippy::expect_used,
    reason = "test fixtures use small, known-valid parameters; a failure is a failed test"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_graph::vid;
use rfc_routing::UpDownRouting;
use rfc_topology::{FoldedClos, Network};

/// Builds the paper's random folded Clos plus its routing table from a
/// bare seed, the way every experiment driver does.
fn build(seed: u64) -> (FoldedClos, UpDownRouting) {
    let mut rng = StdRng::seed_from_u64(seed);
    let clos = FoldedClos::random(12, 36, 3, &mut rng).expect("feasible RFC parameters");
    let routing = UpDownRouting::new(&clos);
    (clos, routing)
}

#[test]
fn routing_tables_are_identical_across_two_builds_of_the_same_seed() {
    let (clos_a, a) = build(2017);
    let (_clos_b, b) = build(2017);

    let leaves = vid(a.num_leaves());
    assert_eq!(leaves, vid(b.num_leaves()));
    let switches = vid(clos_a.num_switches());

    for dst in 0..leaves {
        for sw in 0..switches {
            // Greedy oracle candidates, exact minimal candidates, and
            // reachability bitsets must agree element-for-element (order
            // included — the simulator indexes into these lists with
            // seeded RNG draws, so even a reordering changes results).
            assert_eq!(
                a.next_hops(sw, dst),
                b.next_hops(sw, dst),
                "greedy candidates diverged at switch {sw} -> leaf {dst}"
            );
            assert_eq!(
                a.minimal_next_hops(sw, dst),
                b.minimal_next_hops(sw, dst),
                "minimal candidates diverged at switch {sw} -> leaf {dst}"
            );
        }
        for src in 0..leaves {
            assert_eq!(
                a.updown_distance(src, dst),
                b.updown_distance(src, dst),
                "distance diverged for {src} -> {dst}"
            );
            assert_eq!(
                a.updown_path_count(src, dst),
                b.updown_path_count(src, dst),
                "ECMP path count diverged for {src} -> {dst}"
            );
        }
    }
}

#[test]
fn sampled_paths_replay_identically_for_the_same_seed() {
    let (_clos, routing) = build(7);
    let leaves = vid(routing.num_leaves());
    let mut walk_a = StdRng::seed_from_u64(99);
    let mut walk_b = StdRng::seed_from_u64(99);
    for src in 0..leaves.min(8) {
        for dst in 0..leaves.min(8) {
            assert_eq!(
                routing.sample_path(src, dst, &mut walk_a),
                routing.sample_path(src, dst, &mut walk_b),
                "path sampling must be a pure function of (table, rng state)"
            );
        }
    }
}

#[test]
fn path_counts_are_stable_across_repeated_queries() {
    // BTreeMap accumulation: the same query must return the same count
    // no matter how many times (or in what order) it is asked.
    let (_clos, routing) = build(3);
    let leaves = vid(routing.num_leaves());
    let mut forward = Vec::new();
    for a in 0..leaves.min(12) {
        for b in 0..leaves.min(12) {
            forward.push(routing.updown_path_count(a, b));
        }
    }
    let mut backward = Vec::new();
    for a in (0..leaves.min(12)).rev() {
        for b in (0..leaves.min(12)).rev() {
            backward.push(routing.updown_path_count(a, b));
        }
    }
    backward.reverse();
    assert_eq!(forward, backward);
}

/// FNV-1a over a stream of `u64` words (little-endian bytes), so a
/// recorded hash pins every answer of a query sweep, order included.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn option(&mut self, x: Option<u64>) {
        match x {
            None => self.word(u64::MAX),
            Some(v) => {
                self.word(1);
                self.word(v);
            }
        }
    }

    fn list(&mut self, xs: &[u32]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(u64::from(x));
        }
    }
}

/// Hashes every `minimal_next_hops`, `updown_distance` and
/// `updown_path_count` answer of `clos`, then a seeded `sample_path`
/// sweep over every leaf pair.
fn query_hashes(clos: &FoldedClos) -> (u64, u64) {
    let routing = UpDownRouting::new(clos);
    let leaves = vid(routing.num_leaves());
    let mut answers = Fnv::new();
    for sw in 0..vid(clos.num_switches()) {
        for dst in 0..leaves {
            answers.list(&routing.minimal_next_hops(sw, dst));
        }
    }
    for a in 0..leaves {
        for b in 0..leaves {
            answers.option(routing.updown_distance(a, b).map(u64::from));
            answers.option(routing.updown_path_count(a, b));
        }
    }
    let mut paths = Fnv::new();
    let mut walk = StdRng::seed_from_u64(99);
    for a in 0..leaves {
        for b in 0..leaves {
            match routing.sample_path(a, b, &mut walk) {
                None => paths.word(u64::MAX),
                Some(path) => paths.list(&path),
            }
        }
    }
    (answers.0, paths.0)
}

#[test]
fn routing_queries_reproduce_their_recorded_hashes() {
    // Recorded values: any change to the exact-minimal queries or to
    // the candidate order `sample_path` draws from moves a hash.
    let mut rng = StdRng::seed_from_u64(5);
    let rfc3 = FoldedClos::random(8, 32, 3, &mut rng).expect("feasible RFC parameters");
    let rfc4 = FoldedClos::random(6, 16, 4, &mut rng).expect("feasible RFC parameters");
    let cft = FoldedClos::cft(8, 3).expect("valid CFT");
    let oft = FoldedClos::oft(3, 3).expect("valid OFT");
    let got: Vec<(String, u64, u64)> = [&rfc3, &rfc4, &cft, &oft]
        .iter()
        .map(|c| {
            let (answers, paths) = query_hashes(c);
            (c.label(), answers, paths)
        })
        .collect();
    let expected = [
        (
            "rfc(R=8, l=3)",
            0x34de_ab16_d725_d25d,
            0xa7ea_0877_b889_5e20,
        ),
        (
            "rfc(R=6, l=4)",
            0xb872_9149_784f_6ddf,
            0x9960_be65_8899_55e4,
        ),
        (
            "cft(R=8, l=3)",
            0x528e_4874_cd37_bb25,
            0xee93_67d5_bd44_2f8c,
        ),
        (
            "oft(R=8, l=3)",
            0xb205_bf56_83fd_0419,
            0xed06_8d82_1c3d_7448,
        ),
    ]
    .map(|(label, answers, paths)| (label.to_string(), answers, paths));
    assert_eq!(got, expected);
}
