//! The projective plane PG(2, q) as explicit incidence lists.

use std::fmt;

use crate::{FieldError, GaloisField};

/// The projective plane of order `q`.
///
/// Points and lines are both indexed `0..q²+q+1` using the standard
/// normalized homogeneous coordinates over GF(q):
///
/// * `(1, a, b)` for `a, b ∈ F` — `q²` of them,
/// * `(0, 1, a)` for `a ∈ F` — `q` of them,
/// * `(0, 0, 1)` — one.
///
/// A point `P` lies on line `L` iff the dot product of their coordinate
/// triples is zero. Every line holds `q + 1` points, every point lies on
/// `q + 1` lines, and two distinct points (lines) determine exactly one
/// common line (point) — the properties the OFT construction relies on.
#[derive(Clone)]
pub struct ProjectivePlane {
    q: u32,
    lines_of_point: Vec<Vec<u32>>,
    points_of_line: Vec<Vec<u32>>,
}

impl fmt::Debug for ProjectivePlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProjectivePlane")
            .field("order", &self.q)
            .field("points", &self.num_points())
            .finish()
    }
}

impl ProjectivePlane {
    /// Constructs PG(2, q).
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError`] when `q` is not a prime power or exceeds
    /// [`crate::MAX_ORDER`].
    pub fn new(q: u32) -> Result<Self, FieldError> {
        let f = GaloisField::new(q)?;
        let reps = normalized_triples(q);
        let m = reps.len();
        debug_assert_eq!(m, (q * q + q + 1) as usize);
        let mut lines_of_point = vec![Vec::with_capacity(q as usize + 1); m];
        let mut points_of_line = vec![Vec::with_capacity(q as usize + 1); m];
        for (line, lc) in reps.iter().enumerate() {
            for (point, pc) in reps.iter().enumerate() {
                let dot = f.add(
                    f.add(f.mul(lc[0], pc[0]), f.mul(lc[1], pc[1])),
                    f.mul(lc[2], pc[2]),
                );
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a plane has q² + q + 1 ≤ 16,781,313 points and lines"
                )]
                if dot == 0 {
                    lines_of_point[point].push(line as u32);
                    points_of_line[line].push(point as u32);
                }
            }
        }
        Ok(Self {
            q,
            lines_of_point,
            points_of_line,
        })
    }

    /// The plane order `q`.
    #[inline]
    pub fn order(&self) -> u32 {
        self.q
    }

    /// Number of points, `q² + q + 1` (equal to the number of lines).
    #[inline]
    pub fn num_points(&self) -> usize {
        self.lines_of_point.len()
    }

    /// Number of lines, `q² + q + 1`.
    #[inline]
    pub fn num_lines(&self) -> usize {
        self.points_of_line.len()
    }

    /// The `q + 1` lines through `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point` is out of range.
    pub fn lines_of_point(&self, point: u32) -> &[u32] {
        &self.lines_of_point[point as usize]
    }

    /// The `q + 1` points on `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn points_of_line(&self, line: u32) -> &[u32] {
        &self.points_of_line[line as usize]
    }

    /// Lines through both points (exactly one when the points differ).
    pub fn common_lines(&self, a: u32, b: u32) -> Vec<u32> {
        let la = &self.lines_of_point[a as usize];
        let lb = &self.lines_of_point[b as usize];
        la.iter().filter(|l| lb.contains(l)).copied().collect()
    }
}

/// The canonical projective representatives: `(1, a, b)`, `(0, 1, a)`,
/// `(0, 0, 1)`.
fn normalized_triples(q: u32) -> Vec<[u32; 3]> {
    let mut reps = Vec::with_capacity((q * q + q + 1) as usize);
    for a in 0..q {
        for b in 0..q {
            reps.push([1, a, b]);
        }
    }
    for a in 0..q {
        reps.push([0, 1, a]);
    }
    reps.push([0, 0, 1]);
    reps
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test planes have at most a few hundred points"
)]
mod tests {
    use super::*;

    /// Fano plane and a few larger orders, including extension fields.
    const ORDERS: [u32; 5] = [2, 3, 4, 5, 8];

    #[test]
    fn counts_match_q2_q_1() {
        for q in ORDERS {
            let plane = ProjectivePlane::new(q).unwrap();
            let m = (q * q + q + 1) as usize;
            assert_eq!(plane.num_points(), m);
            assert_eq!(plane.num_lines(), m);
        }
    }

    #[test]
    fn every_line_has_q_plus_1_points_and_dually() {
        for q in ORDERS {
            let plane = ProjectivePlane::new(q).unwrap();
            for l in 0..plane.num_lines() as u32 {
                assert_eq!(
                    plane.points_of_line(l).len(),
                    q as usize + 1,
                    "line {l} in order {q}"
                );
            }
            for p in 0..plane.num_points() as u32 {
                assert_eq!(
                    plane.lines_of_point(p).len(),
                    q as usize + 1,
                    "point {p} in order {q}"
                );
            }
        }
    }

    #[test]
    fn two_distinct_points_share_exactly_one_line() {
        for q in [2, 3, 4] {
            let plane = ProjectivePlane::new(q).unwrap();
            let n = plane.num_points() as u32;
            for a in 0..n {
                for b in (a + 1)..n {
                    assert_eq!(
                        plane.common_lines(a, b).len(),
                        1,
                        "points {a},{b} in order {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_distinct_lines_meet_in_exactly_one_point() {
        for q in [2, 3] {
            let plane = ProjectivePlane::new(q).unwrap();
            let n = plane.num_lines() as u32;
            for a in 0..n {
                for b in (a + 1)..n {
                    let pa = plane.points_of_line(a);
                    let shared = pa
                        .iter()
                        .filter(|p| plane.points_of_line(b).contains(p))
                        .count();
                    assert_eq!(shared, 1, "lines {a},{b} in order {q}");
                }
            }
        }
    }

    #[test]
    fn incidence_is_consistent_both_ways() {
        let plane = ProjectivePlane::new(4).unwrap();
        for l in 0..plane.num_lines() as u32 {
            for &p in plane.points_of_line(l) {
                assert!(plane.lines_of_point(p).contains(&l));
            }
        }
    }

    #[test]
    fn rejects_non_prime_power_order() {
        assert!(ProjectivePlane::new(6).is_err());
        assert!(ProjectivePlane::new(10).is_err());
    }

    #[test]
    fn fano_plane_shape() {
        let plane = ProjectivePlane::new(2).unwrap();
        assert_eq!(plane.num_points(), 7);
        // Every point pair appears on exactly one of the 7 lines; total
        // incidences: 7 lines x 3 points.
        let incidences: usize = (0..7).map(|l| plane.points_of_line(l).len()).sum();
        assert_eq!(incidences, 21);
        assert!(format!("{plane:?}").contains("order"));
    }
}
