//! Table-driven arithmetic in GF(p^k).

use std::error::Error as StdError;
use std::fmt;

/// Largest supported field order. The multiplication and inverse tables use
/// `O(q²)` memory, which at this cap is ~32 MiB; the paper's OFT instances
/// never exceed order 37.
pub const MAX_ORDER: u32 = 4096;

/// Error constructing a [`GaloisField`] or [`crate::ProjectivePlane`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FieldError {
    /// The requested order is not a prime power (no field of that order
    /// exists).
    NotPrimePower {
        /// The rejected order.
        order: u32,
    },
    /// The requested order exceeds [`MAX_ORDER`].
    OrderTooLarge {
        /// The rejected order.
        order: u32,
    },
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::NotPrimePower { order } => {
                write!(f, "no finite field of order {order}: not a prime power")
            }
            FieldError::OrderTooLarge { order } => {
                write!(
                    f,
                    "field order {order} exceeds the supported maximum {MAX_ORDER}"
                )
            }
        }
    }
}

impl StdError for FieldError {}

/// Decomposes `q` as `p^k` with `p` prime, if possible.
///
/// # Examples
///
/// ```
/// use rfc_galois::prime_power_decomposition;
///
/// assert_eq!(prime_power_decomposition(27), Some((3, 3)));
/// assert_eq!(prime_power_decomposition(12), None);
/// ```
pub fn prime_power_decomposition(q: u32) -> Option<(u32, u32)> {
    if q < 2 {
        return None;
    }
    let mut p = 0;
    for cand in 2..=q {
        if q.is_multiple_of(cand) {
            p = cand;
            break;
        }
    }
    let mut rest = q;
    let mut k = 0;
    while rest.is_multiple_of(p) {
        rest /= p;
        k += 1;
    }
    (rest == 1).then_some((p, k))
}

/// Whether `q` is a prime power (and hence a field of order `q` exists).
pub fn is_prime_power(q: u32) -> bool {
    prime_power_decomposition(q).is_some()
}

/// The finite field GF(p^k) with explicit multiplication/inverse tables.
///
/// Elements are dense indices `0..q`. For extension fields (`k > 1`) an
/// element's base-`p` digits are the coefficients of its polynomial
/// representative modulo a monic irreducible polynomial found at
/// construction time; `0` is the additive and `1` the multiplicative
/// identity under this encoding.
///
/// # Examples
///
/// ```
/// use rfc_galois::GaloisField;
///
/// let f = GaloisField::new(8)?;
/// let x = 2; // the polynomial "x"
/// let x7 = f.pow(x, 7);
/// assert_eq!(x7, 1, "the multiplicative group of GF(8) has order 7");
/// # Ok::<(), rfc_galois::FieldError>(())
/// ```
#[derive(Clone)]
pub struct GaloisField {
    p: u32,
    k: u32,
    q: u32,
    mul_table: Vec<u16>,
    inv_table: Vec<u16>,
}

impl fmt::Debug for GaloisField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GaloisField")
            .field("p", &self.p)
            .field("k", &self.k)
            .field("order", &self.q)
            .finish()
    }
}

impl GaloisField {
    /// Constructs GF(q).
    ///
    /// # Errors
    ///
    /// [`FieldError::NotPrimePower`] when `q` is not a prime power;
    /// [`FieldError::OrderTooLarge`] when `q > MAX_ORDER`.
    pub fn new(q: u32) -> Result<Self, FieldError> {
        let (p, k) = prime_power_decomposition(q).ok_or(FieldError::NotPrimePower { order: q })?;
        if q > MAX_ORDER {
            return Err(FieldError::OrderTooLarge { order: q });
        }
        let modulus = if k == 1 {
            vec![0, 1]
        } else {
            find_irreducible(p, k)
        };
        let mut mul_table = vec![0u16; (q * q) as usize];
        for a in 0..q {
            for b in a..q {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a field element is below q ≤ MAX_ORDER = 4096"
                )]
                let prod = poly_mul_mod(a, b, p, k, &modulus) as u16;
                mul_table[(a * q + b) as usize] = prod;
                mul_table[(b * q + a) as usize] = prod;
            }
        }
        let mut inv_table = vec![0u16; q as usize];
        for a in 1..q {
            for b in 1..q {
                if mul_table[(a * q + b) as usize] == 1 {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "b is below q ≤ MAX_ORDER = 4096"
                    )]
                    let inv = b as u16;
                    inv_table[a as usize] = inv;
                    break;
                }
            }
            debug_assert_ne!(inv_table[a as usize], 0, "element {a} has no inverse");
        }
        Ok(Self {
            p,
            k,
            q,
            mul_table,
            inv_table,
        })
    }

    /// Field order `q = p^k`.
    #[inline]
    pub fn order(&self) -> u32 {
        self.q
    }

    /// Field characteristic `p`.
    #[inline]
    pub fn characteristic(&self) -> u32 {
        self.p
    }

    /// Extension degree `k`.
    #[inline]
    pub fn degree(&self) -> u32 {
        self.k
    }

    #[inline]
    fn check(&self, a: u32) {
        assert!(a < self.q, "element {a} out of range for GF({})", self.q);
    }

    /// Addition: digit-wise mod `p` on the base-`p` encodings.
    ///
    /// # Panics
    ///
    /// Panics if an operand is `>= q` (same for the other operations).
    pub fn add(&self, a: u32, b: u32) -> u32 {
        self.check(a);
        self.check(b);
        let (mut a, mut b) = (a, b);
        let mut out = 0;
        let mut scale = 1;
        for _ in 0..self.k {
            out += (a % self.p + b % self.p) % self.p * scale;
            a /= self.p;
            b /= self.p;
            scale *= self.p;
        }
        out
    }

    /// Additive inverse.
    pub fn neg(&self, a: u32) -> u32 {
        self.check(a);
        let mut a = a;
        let mut out = 0;
        let mut scale = 1;
        for _ in 0..self.k {
            out += (self.p - a % self.p) % self.p * scale;
            a /= self.p;
            scale *= self.p;
        }
        out
    }

    /// Subtraction `a - b`.
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        self.add(a, self.neg(b))
    }

    /// Multiplication.
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        self.check(a);
        self.check(b);
        u32::from(self.mul_table[(a * self.q + b) as usize])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    pub fn inv(&self, a: u32) -> u32 {
        self.check(a);
        assert_ne!(a, 0, "zero has no multiplicative inverse");
        u32::from(self.inv_table[a as usize])
    }

    /// Division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn div(&self, a: u32, b: u32) -> u32 {
        self.mul(a, self.inv(b))
    }

    /// Exponentiation by squaring; `pow(0, 0) == 1` by convention.
    pub fn pow(&self, a: u32, e: u32) -> u32 {
        self.check(a);
        let mut base = a;
        let mut e = e;
        let mut acc = 1;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }
}

/// Multiplies the polynomial encodings `a * b` modulo the monic `modulus`
/// (coefficient vector, lowest degree first) over Z_p.
fn poly_mul_mod(a: u32, b: u32, p: u32, k: u32, modulus: &[u32]) -> u32 {
    let da = digits(a, p, k);
    let db = digits(b, p, k);
    let mut prod = vec![0u32; (2 * k - 1) as usize];
    for (i, &ca) in da.iter().enumerate() {
        if ca == 0 {
            continue;
        }
        for (j, &cb) in db.iter().enumerate() {
            prod[i + j] = (prod[i + j] + ca * cb) % p;
        }
    }
    // Reduce modulo the monic polynomial of degree k.
    for deg in (k as usize..prod.len()).rev() {
        let coef = prod[deg];
        if coef == 0 {
            continue;
        }
        prod[deg] = 0;
        for (i, &m) in modulus.iter().enumerate().take(k as usize) {
            let idx = deg - k as usize + i;
            prod[idx] = (prod[idx] + coef * (p - m % p)) % p;
        }
    }
    let mut out = 0;
    let mut scale = 1;
    for &c in prod.iter().take(k as usize) {
        out += c * scale;
        scale *= p;
    }
    out
}

fn digits(mut a: u32, p: u32, k: u32) -> Vec<u32> {
    let mut out = Vec::with_capacity(k as usize);
    for _ in 0..k {
        out.push(a % p);
        a /= p;
    }
    out
}

/// Finds a monic irreducible polynomial of degree `k` over Z_p by
/// exhaustive search with trial division (coefficients lowest-first, the
/// leading 1 omitted from the encoding but included in the returned
/// vector).
#[expect(
    clippy::unreachable,
    reason = "irreducible polynomials of every degree exist over Z_p"
)]
fn find_irreducible(p: u32, k: u32) -> Vec<u32> {
    let total = p.pow(k);
    for enc in 0..total {
        let mut poly = digits(enc, p, k);
        poly.push(1); // monic leading coefficient
        if is_irreducible(&poly, p) {
            return poly;
        }
    }
    unreachable!("irreducible polynomials of every degree exist over Z_p")
}

/// Trial division irreducibility test over Z_p for small degrees.
fn is_irreducible(poly: &[u32], p: u32) -> bool {
    let k = poly.len() - 1;
    if k == 1 {
        return true;
    }
    if poly[0] == 0 {
        return false; // divisible by x
    }
    // Trial-divide by every monic polynomial of degree 1 ..= k/2.
    for d in 1..=k / 2 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a polynomial degree below log2(MAX_ORDER) = 12"
        )]
        let d = d as u32;
        let count = p.pow(d);
        for enc in 0..count {
            let mut div = digits(enc, p, d);
            div.push(1);
            if poly_divides(&div, poly, p) {
                return false;
            }
        }
    }
    true
}

/// Whether monic `div` divides `poly` over Z_p (remainder of long division
/// is zero).
fn poly_divides(div: &[u32], poly: &[u32], p: u32) -> bool {
    let mut rem: Vec<u32> = poly.to_vec();
    let d = div.len() - 1;
    while rem.len() > d {
        #[expect(
            clippy::expect_used,
            reason = "the loop runs while rem is longer than the divisor's degree"
        )]
        let lead = *rem.last().expect("nonempty remainder");
        let deg = rem.len() - 1;
        if lead != 0 {
            for (i, &c) in div.iter().enumerate() {
                let idx = deg - d + i;
                rem[idx] = (rem[idx] + lead * (p - c % p)) % p;
            }
        }
        rem.pop();
    }
    rem.iter().all(|&c| c == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_power_decompositions() {
        assert_eq!(prime_power_decomposition(2), Some((2, 1)));
        assert_eq!(prime_power_decomposition(9), Some((3, 2)));
        assert_eq!(prime_power_decomposition(32), Some((2, 5)));
        assert_eq!(prime_power_decomposition(1), None);
        assert_eq!(prime_power_decomposition(6), None);
        assert_eq!(prime_power_decomposition(100), None);
        assert!(is_prime_power(49));
        assert!(!is_prime_power(0));
    }

    #[test]
    fn rejects_non_prime_power_order() {
        assert_eq!(
            GaloisField::new(6).unwrap_err(),
            FieldError::NotPrimePower { order: 6 }
        );
    }

    #[test]
    fn rejects_oversized_order() {
        assert!(matches!(
            GaloisField::new(8192),
            Err(FieldError::OrderTooLarge { .. })
        ));
    }

    fn check_field_axioms(q: u32) {
        let f = GaloisField::new(q).unwrap();
        for a in 0..q {
            assert_eq!(f.add(a, 0), a);
            assert_eq!(f.mul(a, 1), a);
            assert_eq!(f.mul(a, 0), 0);
            assert_eq!(f.add(a, f.neg(a)), 0);
            if a != 0 {
                assert_eq!(f.mul(a, f.inv(a)), 1, "inverse of {a} in GF({q})");
            }
            for b in 0..q {
                assert_eq!(f.add(a, b), f.add(b, a));
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for c in 0..q {
                    assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                    assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn field_axioms_hold_for_small_prime_fields() {
        for q in [2, 3, 5, 7] {
            check_field_axioms(q);
        }
    }

    #[test]
    fn field_axioms_hold_for_extension_fields() {
        for q in [4, 8, 9] {
            check_field_axioms(q);
        }
    }

    #[test]
    fn multiplicative_group_order() {
        for q in [4, 5, 8, 9, 16, 25, 27] {
            let f = GaloisField::new(q).unwrap();
            for a in 1..q {
                assert_eq!(f.pow(a, q - 1), 1, "a^(q-1) == 1 in GF({q})");
            }
        }
    }

    #[test]
    fn no_zero_divisors() {
        for q in [4, 9, 16] {
            let f = GaloisField::new(q).unwrap();
            for a in 1..q {
                for b in 1..q {
                    assert_ne!(f.mul(a, b), 0, "{a} * {b} == 0 in GF({q})");
                }
            }
        }
    }

    #[test]
    fn sub_and_div_round_trip() {
        let f = GaloisField::new(27).unwrap();
        for a in 0..27 {
            for b in 0..27 {
                assert_eq!(f.add(f.sub(a, b), b), a);
                if b != 0 {
                    assert_eq!(f.mul(f.div(a, b), b), a);
                }
            }
        }
    }

    #[test]
    fn characteristic_and_degree_accessors() {
        let f = GaloisField::new(49).unwrap();
        assert_eq!(f.order(), 49);
        assert_eq!(f.characteristic(), 7);
        assert_eq!(f.degree(), 2);
        assert!(format!("{f:?}").contains("49"));
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        let f = GaloisField::new(5).unwrap();
        let _ = f.inv(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_element_panics() {
        let f = GaloisField::new(5).unwrap();
        let _ = f.add(5, 0);
    }
}
