//! Offline stand-in for `proptest`, implementing the subset of its API
//! this workspace's property tests use.
//!
//! The build environment has no crates.io access, so the real `proptest`
//! cannot be fetched. This shim keeps the `proptest!` test files compiling
//! and genuinely property-testing:
//!
//! * [`Strategy`] with `prop_map`, `prop_flat_map`, `prop_filter`;
//! * integer range strategies (`lo..hi`, `lo..=hi`), [`bool::ANY`],
//!   [`Just`], and tuple composition up to arity 10;
//! * the [`proptest!`] macro with `#![proptest_config(..)]`, plus
//!   [`prop_assert!`], [`prop_assert_eq!`], and [`prop_assume!`].
//!
//! Differences from the real crate: generation is driven by a fixed-seed
//! xorshift PRNG (deterministic per test name, so failures reproduce), and
//! there is **no shrinking** — a failing case is reported at the size it
//! was generated.

/// Deterministic xorshift64* PRNG seeded from the test name.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// A generator with a seed derived from `name` (FNV-1a), so each test
    /// gets a distinct but reproducible stream.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h | 1)
    }

    /// A generator seeded directly from a user-supplied integer (splitmix64
    /// finalizer, so nearby seeds yield unrelated streams). Seed 0 is valid.
    pub fn from_seed(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        TestRng(z | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `0..n` (`n > 0`; modulo bias is irrelevant at
    /// the range sizes property tests use).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "TestRng::below(0)");
        self.next_u64() % n
    }
}

/// Generation parameters for one `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` accepted samples.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A value generator. `generate` returns `None` when a filter rejected the
/// sample (the harness retries with fresh randomness).
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draw one value, or `None` on filter rejection.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Transform generated values.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from a strategy built from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Reject values failing `f` (the `reason` is informational only).
    fn prop_filter<R, F: Fn(&Self::Value) -> bool>(self, reason: R, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        R: Into<String>,
    {
        let _ = reason.into();
        Filter { inner: self, f }
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S2::Value> {
        let outer = self.inner.generate(rng)?;
        (self.f)(outer).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        let v = self.inner.generate(rng)?;
        if (self.f)(&v) {
            Some(v)
        } else {
            None
        }
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                Some(self.start + rng.below(span) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64 + 1;
                Some(lo + rng.below(span) as $t)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniform random boolean.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> Option<bool> {
            Some(rng.next_u64() & 1 == 1)
        }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    /// `Vec`s of `elem`-generated values with a length drawn uniformly
    /// from `len` (half-open, like the real crate's `SizeRange`).
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(
            len.start < len.end,
            "empty length range for collection::vec"
        );
        VecStrategy {
            elem,
            lo: len.start,
            hi: len.end,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let span = (self.hi - self.lo) as u64;
            let n = self.lo + rng.below(span.max(1)) as usize;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(self.elem.generate(rng)?);
            }
            Some(out)
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($name,)+) = self;
                Some(($($name.generate(rng)?,)+))
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
    (A, B, C, D, E, F, G, H, I)
    (A, B, C, D, E, F, G, H, I, J)
}

/// Everything the property-test files import.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Assert inside a property test (no shrinking, so this is `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Skip the current sample without failing (continues the case loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

/// Define property tests:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn holds(x in 0u64..10, (a, b) in my_strategy()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            let __strategy = ($($strat,)+);
            let mut __accepted: u32 = 0;
            let mut __attempts: u64 = 0;
            while __accepted < __config.cases {
                __attempts += 1;
                assert!(
                    __attempts < u64::from(__config.cases) * 200 + 10_000,
                    "proptest shim: strategy for `{}` rejected too many samples",
                    stringify!($name),
                );
                let __value = match $crate::Strategy::generate(&__strategy, &mut __rng) {
                    Some(v) => v,
                    None => continue,
                };
                __accepted += 1;
                let ($($pat,)+) = __value;
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng).unwrap();
            assert!((3..17).contains(&v));
            let w = (5usize..=5).generate(&mut rng).unwrap();
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn from_seed_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = crate::TestRng::from_seed(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::TestRng::from_seed(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = crate::TestRng::from_seed(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
        // Seed 0 must not wedge the xorshift state.
        let mut z = crate::TestRng::from_seed(0);
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn filter_rejects() {
        let mut rng = crate::TestRng::from_name("filter");
        let evens = (0u64..100).prop_filter("even", |v| v % 2 == 0);
        let mut seen = 0;
        for _ in 0..200 {
            if let Some(v) = evens.generate(&mut rng) {
                assert_eq!(v % 2, 0);
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_wires_strategies(x in 1u64..5, (a, b) in (0u64..3).prop_flat_map(|a| (Just(a), a..a + 3))) {
            prop_assert!((1..5).contains(&x));
            prop_assume!(b >= a);
            prop_assert!(b >= a);
            prop_assert_eq!(a, a);
        }
    }
}
