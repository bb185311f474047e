//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a generate-only property-testing core with the same spelling
//! as the real crate for everything the test suite uses: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), `prop_assert*`
//! macros, [`strategy::Strategy`] with `prop_map` / `prop_flat_map` /
//! `prop_recursive` / `boxed`, `prop_oneof!`, [`strategy::Just`],
//! [`arbitrary::any`], integer range strategies, tuple strategies,
//! `prop::sample::select`, `prop::collection::vec`,
//! `prop::bits::u8::between`, `prop::option::of` and `prop::bool::ANY`.
//!
//! Differences from the real crate: cases are drawn from a deterministic
//! generator seeded from the test name and failures are reported through
//! ordinary `assert!` panics without shrinking. That keeps every existing
//! property test compiling and meaningful offline.
//!
//! Two environment variables widen the search without editing a test:
//! `PROPTEST_SEED` (a `u64`) mixes into every test's name-derived seed,
//! and `PROPTEST_CASES` overrides every test's case count. With both
//! unset each test draws exactly its fixed default cases. A failing case
//! names its test, its case index and the seed that replays it.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Per-test configuration (only `cases` is meaningful here).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
        /// Accepted for API compatibility; shrinking is not implemented.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// Deterministic generator used to drive sampling (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name, deterministically, with
        /// `seed` mixed in when given.
        #[must_use]
        pub fn seeded(name: &str, seed: Option<u64>) -> Self {
            let mut state = 0xcbf2_9ce4_8422_2325u64;
            let salt = seed.map(u64::to_le_bytes);
            for b in name.bytes().chain(salt.into_iter().flatten()) {
                state ^= u64::from(b);
                state = state.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: usize) -> usize {
            assert!(bound > 0, "empty sampling domain");
            (self.next_u64() % bound as u64) as usize
        }
    }

    /// Reads a numeric environment override; unset means `None`.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but does not parse, so a typo
    /// never silently replays the default cases.
    fn env_override<T: std::str::FromStr>(var: &str) -> Option<T> {
        let value = std::env::var(var).ok()?;
        match value.trim().parse() {
            Ok(v) => Some(v),
            Err(_) => panic!("{var}={value:?} is not a non-negative integer"),
        }
    }

    /// The `PROPTEST_SEED` override, mixed into every test's seed.
    #[must_use]
    pub fn env_seed() -> Option<u64> {
        env_override("PROPTEST_SEED")
    }

    /// The `PROPTEST_CASES` override of every test's case count.
    #[must_use]
    pub fn env_cases() -> Option<u32> {
        env_override("PROPTEST_CASES")
    }

    /// Names a failing case while its test unwinds: dropped during a
    /// panic, it prints the test, the case index and how to replay it.
    #[derive(Debug)]
    pub struct CaseReport {
        /// The property test's name.
        pub test: &'static str,
        /// The `PROPTEST_SEED` the run used, if any.
        pub seed: Option<u64>,
        /// Zero-based index of the case being run.
        pub case: u32,
    }

    impl Drop for CaseReport {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let seed = match self.seed {
                    Some(seed) => format!("PROPTEST_SEED={seed}"),
                    None => "PROPTEST_SEED unset".to_owned(),
                };
                eprintln!(
                    "proptest: {} failed at case {} ({seed}); the same seed replays it",
                    self.test, self.case
                );
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    ///
    /// Unlike the real crate this is generate-only: `sample` draws a
    /// value directly and there is no shrinking.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f`
        /// builds out of it.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        /// Builds a recursive strategy: `self` is the leaf case and `f`
        /// wraps an inner strategy into a composite one. `_desired` and
        /// `_branch` are accepted for API compatibility; recursion depth
        /// is bounded by `depth`.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired: u32,
            _branch: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + Clone + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut current = self.clone().boxed();
            for _ in 0..depth {
                let composite = f(current).boxed();
                current = Union::new(vec![self.clone().boxed(), composite]).boxed();
            }
            current
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Rc::new(self),
            }
        }
    }

    trait DynStrategy<T> {
        fn sample_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.sample(rng)
        }
    }

    /// A type-erased strategy (cheaply clonable).
    pub struct BoxedStrategy<T> {
        inner: Rc<dyn DynStrategy<T>>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                inner: Rc::clone(&self.inner),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.inner.sample_dyn(rng)
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between alternatives (`prop_oneof!` backing type).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                options: self.options.clone(),
            }
        }
    }

    impl<T> Union<T> {
        /// Builds a union over the given alternatives (must be non-empty).
        #[must_use]
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let pick = rng.below(self.options.len());
            self.options[pick].sample(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = u128::from(rng.next_u64()) % span;
                    (self.start as i128 + draw as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let draw = u128::from(rng.next_u64()) % span;
                    (lo as i128 + draw as i128) as $t
                }
            }
        )*};
    }
    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K, L);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value uniformly over the domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation)]
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` (`any::<bool>()` etc.).
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy choosing uniformly among a fixed set of values.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len())].clone()
        }
    }

    /// Uniform choice from `items` (must be non-empty).
    #[must_use]
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select needs at least one item");
        Select { items }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Acceptable length specifications for [`vec`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy generating vectors of values from an element strategy.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi_inclusive - self.size.lo + 1;
            let len = self.size.lo + rng.below(span);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec` strategy with the given element strategy and length spec.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod bits {
    /// Bit-set strategies over `u8`.
    pub mod u8 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy producing a `u8` whose set bits all lie in a range.
        #[derive(Debug, Clone)]
        pub struct Between {
            mask: u8,
        }

        impl Strategy for Between {
            type Value = u8;
            #[allow(clippy::cast_possible_truncation)]
            fn sample(&self, rng: &mut TestRng) -> u8 {
                (rng.next_u64() as u8) & self.mask
            }
        }

        /// Bits at positions `[lo, hi)` may be set; all others are clear.
        #[must_use]
        pub fn between(lo: usize, hi: usize) -> Between {
            assert!(lo < hi && hi <= 8, "invalid u8 bit range");
            let width = hi - lo;
            let mask = if width >= 8 {
                0xff
            } else {
                ((1u16 << width) - 1) as u8
            };
            Between { mask: mask << lo }
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `Option<T>` (roughly half `Some`).
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 1 {
                Some(self.inner.sample(rng))
            } else {
                None
            }
        }
    }

    /// Wraps a strategy to generate optional values.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

#[allow(clippy::module_inception)]
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy generating either boolean.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The uniform boolean strategy.
    pub const ANY: BoolAny = BoolAny;
}

/// The API most tests import wholesale (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced strategy constructors (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::bits;
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::option;
        pub use crate::sample;
    }
}

/// Defines property tests. Supports an optional leading
/// `#![proptest_config(..)]` and any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let seed = $crate::test_runner::env_seed();
                let cases = $crate::test_runner::env_cases().unwrap_or(cfg.cases);
                let mut rng = $crate::test_runner::TestRng::seeded(stringify!($name), seed);
                for __case in 0..cases {
                    let _report = $crate::test_runner::CaseReport {
                        test: stringify!($name),
                        seed,
                        case: __case,
                    };
                    let ( $($arg,)+ ) = (
                        $( $crate::strategy::Strategy::sample(&($strat), &mut rng), )+
                    );
                    $body
                }
            }
        )*
    };
}

/// Uniform choice among several strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tok:tt)*) => { assert!($($tok)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tok:tt)*) => { assert_eq!($($tok)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tok:tt)*) => { assert_ne!($($tok)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_hold(x in 3u32..10, y in -4i64..=4, flag in any::<bool>()) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            let _ = flag;
        }

        #[test]
        fn combinators_compose(
            v in prop::collection::vec(0u8..4, 1..6),
            o in prop::option::of(1usize..3),
            s in prop::sample::select(vec!["a", "b"]),
            b in prop::bits::u8::between(0, 5),
            t in prop::bool::ANY,
        ) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 4));
            if let Some(x) = o { prop_assert!((1..3).contains(&x)); }
            prop_assert!(s == "a" || s == "b");
            prop_assert_eq!(b & 0xe0, 0);
            let _ = t;
        }

        #[test]
        fn oneof_and_maps(x in prop_oneof![Just(1u32), (5u32..8).prop_map(|v| v * 10)]) {
            prop_assert!(x == 1 || (50..80).contains(&x));
        }
    }

    #[test]
    fn an_unset_seed_replays_the_name_derived_stream() {
        use crate::test_runner::TestRng;
        let draws = |seed| -> Vec<u64> {
            let mut rng = TestRng::seeded("ranges_hold", seed);
            (0..3).map(|_| rng.next_u64()).collect()
        };
        // The stream `ranges_hold` drew before seeds could be mixed in.
        let fixed = [
            0x1b46_89a5_dfb2_d185,
            0xa127_7341_689f_0939,
            0xbbe3_0dba_14d8_ad9e,
        ];
        assert_eq!(draws(None), fixed);
        assert_eq!(draws(Some(7)), draws(Some(7)));
        assert_ne!(draws(Some(7)), fixed);
        assert_ne!(draws(Some(7)), draws(Some(8)));
    }
}
