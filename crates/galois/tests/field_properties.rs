//! Property-based tests for GF(p^k) and PG(2, q).

#![expect(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    reason = "orders are small prime powers, and element draws are reduced modulo q first"
)]

use proptest::prelude::*;

use rfc_galois::{GaloisField, ProjectivePlane};

/// Prime powers small enough to exhaustively sample elements from.
const ORDERS: [u32; 8] = [2, 3, 4, 5, 7, 8, 9, 16];

fn arb_field() -> impl Strategy<Value = GaloisField> {
    proptest::sample::select(ORDERS.to_vec())
        .prop_map(|q| GaloisField::new(q).expect("prime power"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_and_multiplication_group_laws(f in arb_field(), seed in 0u64..10_000) {
        let q = f.order();
        let a = (seed % u64::from(q)) as u32;
        let b = (seed / 7 % u64::from(q)) as u32;
        let c = (seed / 49 % u64::from(q)) as u32;
        prop_assert_eq!(f.add(a, b), f.add(b, a));
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        prop_assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
        prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        prop_assert_eq!(f.sub(f.add(a, b), b), a);
        if b != 0 {
            prop_assert_eq!(f.div(f.mul(a, b), b), a);
        }
    }

    #[test]
    fn frobenius_is_additive(f in arb_field(), seed in 0u64..10_000) {
        // (a + b)^p == a^p + b^p in characteristic p.
        let q = f.order();
        let p = f.characteristic();
        let a = (seed % u64::from(q)) as u32;
        let b = (seed / 11 % u64::from(q)) as u32;
        prop_assert_eq!(
            f.pow(f.add(a, b), p),
            f.add(f.pow(a, p), f.pow(b, p))
        );
    }

    #[test]
    fn fermat_little_theorem(f in arb_field(), seed in 0u64..10_000) {
        let q = f.order();
        let a = (seed % u64::from(q)) as u32;
        prop_assert_eq!(f.pow(a, q), a, "a^q == a in GF(q)");
    }

    #[test]
    fn plane_duality_counts(q in proptest::sample::select(vec![2u32, 3, 4, 5])) {
        let plane = ProjectivePlane::new(q).unwrap();
        // Sum over points of lines-through equals sum over lines of
        // points-on (double counting incidences).
        let by_points: usize =
            (0..plane.num_points() as u32).map(|p| plane.lines_of_point(p).len()).sum();
        let by_lines: usize =
            (0..plane.num_lines() as u32).map(|l| plane.points_of_line(l).len()).sum();
        prop_assert_eq!(by_points, by_lines);
        prop_assert_eq!(by_points, plane.num_points() * (q as usize + 1));
    }

    #[test]
    fn any_two_points_determine_one_line(
        q in proptest::sample::select(vec![2u32, 3, 4]),
        seed in 0u64..10_000,
    ) {
        let plane = ProjectivePlane::new(q).unwrap();
        let m = plane.num_points() as u64;
        let a = (seed % m) as u32;
        let b = (seed / m % m) as u32;
        if a != b {
            prop_assert_eq!(plane.common_lines(a, b).len(), 1);
        } else {
            prop_assert_eq!(plane.common_lines(a, b).len(), q as usize + 1);
        }
    }
}
