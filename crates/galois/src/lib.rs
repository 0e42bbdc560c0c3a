//! Finite fields GF(p^k) and projective planes PG(2, q).
//!
//! The orthogonal fat-tree (OFT) baseline of the paper is defined by the
//! point–line incidence of the projective plane of order `q` (a prime
//! power). This crate provides:
//!
//! * [`GaloisField`] — table-driven arithmetic in GF(p^k) for any prime
//!   power up to [`MAX_ORDER`].
//! * [`ProjectivePlane`] — PG(2, q) as explicit point/line incidence lists
//!   (`q² + q + 1` points and lines, `q + 1` points per line).
//!
//! # Examples
//!
//! ```
//! use rfc_galois::ProjectivePlane;
//!
//! let plane = ProjectivePlane::new(3)?;
//! assert_eq!(plane.num_points(), 13);
//! assert_eq!(plane.points_of_line(0).len(), 4);
//! // Any two distinct points lie on exactly one common line.
//! assert_eq!(plane.common_lines(0, 5).len(), 1);
//! # Ok::<(), rfc_galois::FieldError>(())
//! ```

mod field;
mod plane;

pub use field::{is_prime_power, prime_power_decomposition, FieldError, GaloisField, MAX_ORDER};
pub use plane::ProjectivePlane;
