//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate (1.x API subset).
//!
//! The workspace builds in hermetic environments with no crates.io
//! access, so the external dev-dependency is replaced by this path
//! crate. It keeps the same testing model — strategies generate random
//! inputs, `proptest!` runs each test body over many cases, failures
//! report the offending input — but does **not** shrink counterexamples;
//! the failing case's seed and `Debug` rendering are printed instead.
//!
//! Supported surface (what the workspace's property tests use):
//! `proptest!` with `#![proptest_config(...)]`, range strategies over
//! integers and floats, tuple strategies, [`Strategy::prop_map`],
//! [`Strategy::prop_flat_map`], [`Strategy::prop_filter`],
//! [`collection::vec`], [`sample::select`], `prop_assert!`,
//! `prop_assert_eq!`, `prop_assume!`.

use std::fmt;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};

/// The RNG driving input generation.
pub type TestRng = SmallRng;

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case was vetoed by `prop_assume!` or a filter; it does not
    /// count toward the case budget.
    Reject(String),
    /// A `prop_assert*!` failed.
    Fail(String),
}

impl TestCaseError {
    /// Builds the failure variant (used by the assertion macros).
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Builds the rejection variant.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Runner configuration (the fields the workspace touches).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per test.
    pub cases: u32,
    /// Upper bound on rejected cases before the runner gives up.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// A config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

/// A generator of random values of type `Value`.
///
/// `generate` returns `None` when a filter vetoed the draw; the runner
/// treats that as a local rejection and redraws.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draws one value, or `None` if filtered out.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<U: fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then draws from the strategy
    /// `f` builds from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (bounded retries per draw).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> Option<U> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S2::Value> {
        let mid = self.inner.generate(rng)?;
        (self.f)(mid).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug)]
pub struct Filter<S, F> {
    inner: S,
    #[expect(
        dead_code,
        reason = "read only by the Debug output, as in the real crate"
    )]
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        // Bounded local retry keeps high-rejection filters cheap without
        // risking an infinite loop on unsatisfiable predicates.
        for _ in 0..64 {
            let v = self.inner.generate(rng)?;
            if (self.pred)(&v) {
                return Some(v);
            }
        }
        None
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.gen_range(self.clone()))
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[expect(
                non_snake_case,
                reason = "the tuple's type parameters double as its element bindings"
            )]
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($name,)+) = self;
                Some(($($name.generate(rng)?,)+))
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;
    use std::fmt;
    use std::ops::Range;

    /// A `Vec` whose length is drawn from `len` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    #[derive(Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let n = if self.len.is_empty() {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng as _;
    use std::fmt;

    /// Uniformly selects one of the given values.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn select<T: Clone + fmt::Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    /// See [`select`].
    #[derive(Debug)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone + fmt::Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> Option<T> {
            Some(self.options[rng.gen_range(0..self.options.len())].clone())
        }
    }
}

/// Drives one property test: repeatedly generates inputs via `case`
/// until `config.cases` bodies have passed.
///
/// `case` returns `Err(Reject)` for vetoed draws and `Err(Fail)` for
/// assertion failures; failures panic with the generating seed so the
/// case can be replayed.
///
/// # Panics
///
/// Panics when a case fails or the rejection budget is exhausted.
pub fn run_property(
    name: &str,
    config: &ProptestConfig,
    case: impl Fn(&mut TestRng, &mut String) -> Result<(), TestCaseError>,
) {
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut attempt = 0u64;
    while passed < config.cases {
        // One deterministic stream per attempt: a failure report's seed
        // replays exactly, independent of earlier cases.
        let seed = 0x5EED_0000_0000_0000 ^ attempt;
        let mut rng = TestRng::seed_from_u64(seed);
        let mut described = String::new();
        attempt += 1;
        match case(&mut rng, &mut described) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected < config.max_global_rejects,
                    "property `{name}`: too many rejected cases \
                     ({rejected} rejects for {passed} passes)"
                );
            }
            #[expect(
                clippy::panic,
                reason = "a failed property fails its test, as in the real crate"
            )]
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "property `{name}` failed at case seed {seed:#x}\n\
                     inputs: {described}\n{msg}"
                );
            }
        }
    }
}

/// Declares property tests. See the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (@with_config($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_property(stringify!($name), &config, |rng, described| {
                    $(
                        let generated = match $crate::Strategy::generate(&($strat), rng) {
                            Some(v) => v,
                            None => {
                                return Err($crate::TestCaseError::reject("filtered"))
                            }
                        };
                        described.push_str(&format!(
                            "{} = {:?}; ",
                            stringify!($pat),
                            generated
                        ));
                        let $pat = generated;
                    )+
                    let body = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    body()
                });
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*), l, r
        );
    }};
}

/// Vetoes the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Re-exports mirroring the real crate's prelude.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in 0u64..5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn tuples_and_maps_compose(
            (a, b) in (0u32..10, 0u32..10).prop_map(|(a, b)| (a.min(b), a.max(b))),
        ) {
            prop_assert!(a <= b);
        }

        #[test]
        fn filters_hold(v in (0i32..100).prop_filter("even", |v| v % 2 == 0)) {
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn vec_and_select_work(
            v in crate::collection::vec(0usize..50, 2..6),
            pick in crate::sample::select(vec![1u32, 3, 5]),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(pick % 2 == 1);
            prop_assume!(!v.is_empty());
        }

        #[test]
        fn flat_map_depends_on_outer(
            (n, k) in (2usize..20).prop_flat_map(|n| (0..n).prop_map(move |k| (n, k))),
        ) {
            prop_assert!(k < n);
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failures_panic_with_seed() {
        proptest! {
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x is {x}");
            }
        }
        always_fails();
    }
}
