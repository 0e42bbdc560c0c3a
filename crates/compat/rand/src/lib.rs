//! Offline stand-in for the [`rand`](https://crates.io/crates/rand)
//! crate (0.8 API subset).
//!
//! This workspace builds in hermetic environments with no crates.io
//! access, so the external `rand` dependency is replaced by this path
//! crate. It implements exactly the surface the workspace uses:
//!
//! * [`Rng`] — `gen`, `gen_range`, `gen_bool`, `fill` (integers, floats,
//!   bools);
//! * [`SeedableRng`] — `from_seed`, `seed_from_u64`;
//! * [`rngs::StdRng`] and [`rngs::SmallRng`] — both xoshiro256++,
//!   seeded through SplitMix64 (seed-deterministic, high quality, and
//!   fast — the engine draws several values per virtual channel per
//!   cycle);
//! * [`rngs::mock::StepRng`] — the arithmetic-progression mock;
//! * [`seq::SliceRandom`] — `shuffle` and `choose`.
//!
//! The streams do **not** match the real crate's ChaCha/xoshiro output
//! for the same seeds; everything downstream treats seeds as opaque
//! reproducibility handles, so only determinism matters, not the exact
//! byte stream.

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source. Matches the method set of
/// `rand_core::RngCore` minus the fallible fill.
pub trait RngCore {
    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// User-facing random value generation, auto-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly random value of a [`StandardDistributed`] type.
    fn gen<T: StandardDistributed>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range` (half-open `a..b` or inclusive
    /// `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        f64::sample(self) < p
    }

    /// Fills an integer slice with random values.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types producible by [`Rng::gen`] (the real crate's `Standard`
/// distribution).
pub trait StandardDistributed: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_uint {
    ($($t:ty),*) => {$(
        impl StandardDistributed for $t {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a uniform draw keeps the low bits of the 64-bit output"
            )]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_uint!(u8, u16, u32, usize);

impl StandardDistributed for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Signed draws reinterpret the unsigned draw of the same width.
macro_rules! standard_int {
    ($($t:ty : $u:ty),*) => {$(
        impl StandardDistributed for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                <$u>::sample(rng).cast_signed()
            }
        }
    )*};
}
standard_int!(i8: u8, i16: u16, i32: u32, i64: u64, isize: usize);

impl StandardDistributed for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl StandardDistributed for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardDistributed for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardDistributed for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Range argument forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformSampled> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self)
    }
}

impl<T: UniformSampled> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_range_inclusive(rng, start, end)
    }
}

/// Types usable with [`Rng::gen_range`].
pub trait UniformSampled: Sized {
    /// Draws a uniform value from the half-open `range`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;

    /// Draws a uniform value from the closed interval `[start, end]`.
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self;
}

macro_rules! uniform_uint {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty gen_range");
                let span = (range.end - range.start) as u64;
                // Lemire's multiply-shift without the rejection step:
                // the bias is < 2^-64 · span, far below anything a
                // simulation statistic can resolve.
                let hi = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
                range.start + hi as $t
            }

            fn sample_range_inclusive<R: RngCore + ?Sized>(
                rng: &mut R,
                start: Self,
                end: Self,
            ) -> Self {
                assert!(start <= end, "empty gen_range");
                // span fits in u128 even for the full u64 domain.
                let span = u128::from((end - start) as u64) + 1;
                let hi = ((u128::from(rng.next_u64()) * span) >> 64) as u64;
                start + hi as $t
            }
        }
    )*};
}
uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! uniform_int {
    ($($t:ty : $u:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty gen_range");
                let span = range.end.cast_unsigned().wrapping_sub(range.start.cast_unsigned()) as u64;
                let hi = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
                range.start.wrapping_add((hi as $u).cast_signed())
            }

            fn sample_range_inclusive<R: RngCore + ?Sized>(
                rng: &mut R,
                start: Self,
                end: Self,
            ) -> Self {
                assert!(start <= end, "empty gen_range");
                let span = u128::from(end.cast_unsigned().wrapping_sub(start.cast_unsigned()) as u64) + 1;
                let hi = ((u128::from(rng.next_u64()) * span) >> 64) as u64;
                start.wrapping_add((hi as $u).cast_signed())
            }
        }
    )*};
}
uniform_int!(i8: u8, i16: u16, i32: u32, i64: u64, isize: usize);

impl UniformSampled for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty gen_range");
        range.start + f64::sample(rng) * (range.end - range.start)
    }

    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
        assert!(start <= end, "empty gen_range");
        start + f64::sample(rng) * (end - start)
    }
}

impl UniformSampled for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty gen_range");
        range.start + f32::sample(rng) * (range.end - range.start)
    }

    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
        assert!(start <= end, "empty gen_range");
        start + f32::sample(rng) * (end - start)
    }
}

/// Construction of RNGs from seeds.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        let bytes = seed.as_mut();
        let mut i = 0;
        while i < bytes.len() {
            let chunk = sm.next().to_le_bytes();
            let n = chunk.len().min(bytes.len() - i);
            bytes[i..i + n].copy_from_slice(&chunk[..n]);
            i += n;
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64 — the canonical seed expander.
#[derive(Debug, Clone, Copy)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ core shared by [`StdRng`] and [`SmallRng`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Xoshiro256pp {
        s: [u64; 4],
    }

    impl Xoshiro256pp {
        fn from_seed_bytes(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (w, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                #[expect(clippy::expect_used, reason = "chunks_exact(8) yields 8-byte chunks")]
                let bytes: [u8; 8] = chunk.try_into().expect("8-byte chunk");
                *w = u64::from_le_bytes(bytes);
            }
            // An all-zero state is a fixed point; nudge it.
            if s == [0; 4] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0x6A09_E667_F3BC_C909,
                    0xB7E1_5162_8AED_2A6B,
                    0x243F_6A88_85A3_08D3,
                ];
            }
            Self { s }
        }

        #[inline]
        fn next(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }

    macro_rules! xoshiro_rng {
        ($(#[$doc:meta])* $name:ident) => {
            $(#[$doc])*
            #[derive(Debug, Clone, PartialEq, Eq)]
            pub struct $name(Xoshiro256pp);

            impl RngCore for $name {
                #[inline]
                fn next_u32(&mut self) -> u32 {
                    (self.0.next() >> 32) as u32
                }
                #[inline]
                fn next_u64(&mut self) -> u64 {
                    self.0.next()
                }
            }

            impl SeedableRng for $name {
                type Seed = [u8; 32];
                fn from_seed(seed: Self::Seed) -> Self {
                    Self(Xoshiro256pp::from_seed_bytes(seed))
                }
            }
        };
    }

    xoshiro_rng!(
        /// The workspace's "standard" generator (xoshiro256++ here; the
        /// real crate uses ChaCha12 — streams differ, determinism does
        /// not).
        StdRng
    );
    xoshiro_rng!(
        /// The fast small generator (xoshiro256++, like the real crate's
        /// 64-bit `SmallRng`).
        SmallRng
    );

    /// Deterministic mocks for tests.
    pub mod mock {
        use super::RngCore;

        /// Arithmetic-progression generator: yields `initial`,
        /// `initial + increment`, … — useful to force specific branches.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct StepRng {
            v: u64,
            increment: u64,
        }

        impl StepRng {
            /// Creates the mock at `initial` with the given step.
            pub fn new(initial: u64, increment: u64) -> Self {
                Self {
                    v: initial,
                    increment,
                }
            }
        }

        impl RngCore for StepRng {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the low 32 bits of the step sequence"
            )]
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                let out = self.v;
                self.v = self.v.wrapping_add(self.increment);
                out
            }
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::RngCore;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = crate::UniformSampled::sample_range(rng, 0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[crate::UniformSampled::sample_range(rng, 0..self.len())])
            }
        }
    }
}

/// Re-exports mirroring the real crate's prelude.
pub mod prelude {
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::{mock::StepRng, SmallRng, StdRng};
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        let mut s = SmallRng::seed_from_u64(7);
        // Same algorithm, same SplitMix expansion: SmallRng and StdRng
        // agree by construction here; they only need to be deterministic.
        assert_eq!(s.next_u64(), xa);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn unit_floats_are_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..4000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 4000.0;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean} far from 1/2");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements almost surely move");
        assert!(v.choose(&mut rng).is_some());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn step_rng_is_an_arithmetic_progression() {
        let mut r = StepRng::new(7, 11);
        assert_eq!(r.next_u64(), 7);
        assert_eq!(r.next_u64(), 18);
        assert_eq!(r.next_u64(), 29);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..4000).filter(|_| rng.gen_bool(0.25)).count();
        let p = hits as f64 / 4000.0;
        assert!((p - 0.25).abs() < 0.04, "p {p}");
    }

    #[test]
    fn fill_bytes_covers_tails() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
