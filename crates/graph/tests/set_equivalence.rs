//! Property-based equivalence: the compressed leaf-set representations
//! must be indistinguishable from the dense [`BitSet`] they replaced.
//!
//! `UpDownRouting` stores reach sets as [`IntervalSet`]s (with a
//! [`ReachSet`] dense fallback), chosen purely for memory; every
//! observable query — `contains`, `count_ones`, iteration order, union
//! change-flags, superset tests — must agree with the bit-per-leaf
//! baseline on arbitrary mixes of point inserts and range unions,
//! including the adjacent/overlapping runs that exercise interval
//! coalescing.

use proptest::prelude::*;

use rfc_graph::{BitSet, IntervalSet, ReachSet};

/// A universe size plus an op sequence over it: point inserts and
/// half-open range inserts, skewed so adjacent and overlapping ranges
/// (the coalescing paths) appear often.
#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Range(usize, usize),
}

fn arb_ops() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (1usize..200).prop_flat_map(|len| {
        let op = (0usize..2, 0..len, 1usize..16).prop_map(move |(kind, s, w)| {
            if kind == 0 {
                Op::Insert(s)
            } else {
                Op::Range(s, (s + w).min(len))
            }
        });
        proptest::collection::vec(op, 0..40).prop_map(move |ops| (len, ops))
    })
}

/// Applies one op sequence to all three representations.
fn build(len: usize, ops: &[Op]) -> (IntervalSet, ReachSet, BitSet) {
    let mut iv = IntervalSet::new(len);
    let mut rs = ReachSet::new(len);
    let mut bs = BitSet::new(len);
    for op in ops {
        match *op {
            Op::Insert(i) => {
                iv.insert(i);
                rs.insert(i);
                bs.insert(i);
            }
            Op::Range(s, e) => {
                iv.insert_range(s, e);
                for i in s..e {
                    rs.insert(i);
                    bs.insert(i);
                }
            }
        }
    }
    (iv, rs, bs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn queries_agree_with_the_dense_baseline((len, ops) in arb_ops()) {
        let (iv, rs, bs) = build(len, &ops);
        prop_assert_eq!(iv.len(), len);
        prop_assert_eq!(rs.len(), len);
        prop_assert_eq!(iv.count_ones(), bs.count_ones());
        prop_assert_eq!(rs.count_ones(), bs.count_ones());
        prop_assert_eq!(iv.is_empty(), bs.count_ones() == 0);
        for i in 0..len {
            prop_assert_eq!(iv.contains(i), bs.contains(i), "interval contains({i})");
            prop_assert_eq!(rs.contains(i), bs.contains(i), "reach contains({i})");
        }
        let dense: Vec<usize> = bs.iter_ones().collect();
        prop_assert_eq!(iv.iter_ones().collect::<Vec<_>>(), dense.clone());
        prop_assert_eq!(rs.iter_ones().collect::<Vec<_>>(), dense);
    }

    #[test]
    fn ranges_stay_canonical((len, ops) in arb_ops()) {
        // Sorted, non-empty, non-overlapping, and never merely adjacent:
        // the memory claim rests on runs coalescing eagerly.
        let (iv, _, _) = build(len, &ops);
        let ranges = iv.ranges();
        prop_assert_eq!(ranges.len(), iv.num_ranges());
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "ranges {:?} must coalesce", w);
        }
        for &(s, e) in ranges {
            prop_assert!(s < e, "empty range ({s}, {e})");
            prop_assert!(e as usize <= len);
        }
    }

    #[test]
    fn unions_agree_with_the_dense_baseline(
        (len, ops_a) in arb_ops(),
        more in proptest::collection::vec(0usize..200, 0..40),
    ) {
        // Same universe, second op stream reduced modulo `len`.
        let ops_b: Vec<Op> = more.into_iter().map(|i| Op::Insert(i % len)).collect();
        let (mut iv_a, mut rs_a, mut bs_a) = build(len, &ops_a);
        let (iv_b, rs_b, bs_b) = build(len, &ops_b);

        prop_assert_eq!(iv_a.is_superset(&iv_b), bs_a.is_superset(&bs_b));
        prop_assert_eq!(rs_a.is_superset(&rs_b), bs_a.is_superset(&bs_b));

        // The change flag drives fixed-point iteration in the reach
        // passes, so it must match exactly, not just the contents.
        let changed = bs_a.union_with(&bs_b);
        prop_assert_eq!(iv_a.union_with(&iv_b), changed);
        prop_assert_eq!(rs_a.union_with(&rs_b), changed);

        let dense: Vec<usize> = bs_a.iter_ones().collect();
        prop_assert_eq!(iv_a.iter_ones().collect::<Vec<_>>(), dense.clone());
        prop_assert_eq!(rs_a.iter_ones().collect::<Vec<_>>(), dense);
        prop_assert!(bs_a.is_superset(&bs_b), "a union is a superset of both operands");
        prop_assert!(iv_a.is_superset(&iv_b));
        prop_assert!(rs_a.is_superset(&rs_b));
    }

    #[test]
    fn for_each_range_reconstructs_iteration((len, ops) in arb_ops()) {
        // The run-length consumer (`dst_run_starts`, feeding the RLE
        // candidate table) and element iteration must describe the same
        // set regardless of which representation ReachSet settled on.
        let (_, rs, bs) = build(len, &ops);
        let mut expanded = Vec::new();
        rs.for_each_range(|s, e| {
            assert!(s < e, "empty run ({s}, {e})");
            assert!(expanded.last().is_none_or(|&last| last + 1 < s as usize), "runs must coalesce");
            expanded.extend((s as usize)..(e as usize));
        });
        prop_assert_eq!(expanded, bs.iter_ones().collect::<Vec<_>>());
    }
}
