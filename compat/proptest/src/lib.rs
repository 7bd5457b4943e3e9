//! Offline vendored shim for `proptest`.
//!
//! Supports the macro surface this workspace's property tests use:
//! `proptest! { #![proptest_config(...)] fn f(x in strategy, y: Type) {...} }`,
//! `prop_assert!`/`prop_assert_eq!`, integer-range / tuple / `collection::vec`
//! / `bool::ANY` strategies, and `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, by design (see `compat/README.md`):
//! inputs are generated from a deterministic splitmix64 stream seeded by the
//! test's module path (every run exercises the same cases, like a seeded
//! fuzzer), and shrinking is minimal: a failing input is shrunk greedily,
//! halving `collection::vec` values and moving range integers toward the
//! range's low end, and the failure reports the case number, the
//! assertion message of the smallest failing input, and that input. The
//! shrink order is fixed, so a failure shrinks the same way every run.
//! `name: Type` parameters and booleans are not shrunk.

/// Run-count configuration, honoring `ProptestConfig::with_cases(n)`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Runs each property `cases` times.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; the shim halves twice since the
        // stream is deterministic anyway (no coverage from re-running).
        Self { cases: 64 }
    }
}

pub mod test_runner {
    //! Deterministic input stream and the error type threaded out of
    //! `prop_assert!`.

    use std::fmt;

    /// Failure raised by `prop_assert!`/`prop_assert_eq!`.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Wraps an assertion message.
        pub fn fail(msg: String) -> Self {
            Self(msg)
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// splitmix64 stream seeded from a test identifier: deterministic
    /// across runs and machines so CI failures reproduce locally.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a stable string (the shim passes
        /// `module_path!()::test_name`).
        pub fn deterministic(id: &str) -> Self {
            // FNV-1a over the id bytes.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in id.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
            Self { state: h }
        }

        /// Next value of the stream.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, width)`.
        pub fn below(&mut self, width: u128) -> u128 {
            assert!(width > 0, "empty range");
            (self.next_u64() as u128) % width
        }
    }
}

pub mod strategy {
    //! Value-generation strategies and their shrinking.

    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value: Clone + Debug;
        /// Draws one value from `rng`'s deterministic stream.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
        /// Simpler values to try in place of a failing `value`, simplest
        /// first (none by default).
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }
    }

    /// The low end of a range, then points ever closer to `value`:
    /// `value - d/2, value - d/4, ..., value - 1` for `d = value - low`.
    fn toward(low: i128, value: i128) -> Vec<i128> {
        let mut out = Vec::new();
        let mut step = value - low;
        while step > 0 {
            out.push(value - step);
            step /= 2;
        }
        out
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let width = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                    ((self.start as i128) + rng.below(width) as i128) as $t
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    toward(self.start as i128, *value as i128).into_iter().map(|v| v as $t).collect()
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// No parameters: the macro's end of the parameter list.
    impl Strategy for () {
        type Value = ();
        fn generate(&self, _rng: &mut TestRng) {}
    }

    macro_rules! impl_tuple_strategy {
        ($(($($n:tt $s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.generate(rng),)+)
                }
                /// One component at a time, the others kept.
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for c in self.$n.shrink(&value.$n) {
                            let mut v = value.clone();
                            v.$n = c;
                            out.push(v);
                        }
                    )+
                    out
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s of another strategy's values with a length drawn
    /// from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let width = (self.size.end - self.size.start) as u128;
            let len = self.size.start + rng.below(width) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
        /// Either half, if the length allows it, then one element shrunk.
        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let half = value.len() / 2;
            let mut out: Vec<Self::Value> = [&value[..half], &value[half..]]
                .into_iter()
                .filter(|h| h.len() < value.len() && h.len() >= self.size.start)
                .map(<[S::Value]>::to_vec)
                .collect();
            for (i, e) in value.iter().enumerate() {
                for c in self.element.shrink(e) {
                    let mut v = value.clone();
                    v[i] = c;
                    out.push(v);
                }
            }
            out
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy type of [`ANY`].
    pub struct Any;

    /// Generates `true`/`false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod arbitrary {
    //! Type-driven generation for `name: Type` parameters.

    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain generator.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
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

    /// The strategy behind a `name: Type` parameter.
    pub struct Any<T>(std::marker::PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary + Clone + std::fmt::Debug> crate::strategy::Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod runner {
    //! Runs one property over its cases and shrinks a failing input.

    use crate::strategy::Strategy;
    use crate::test_runner::{TestCaseError, TestRng};
    use crate::ProptestConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Shrink attempts after a failure, at most.
    const SHRINK_RUNS: u32 = 4096;

    /// A failing case: its number, the smallest failing input found and
    /// that input's failure.
    pub struct Failure<V> {
        pub case: u32,
        pub input: V,
        pub error: TestCaseError,
    }

    fn attempt<V>(
        test: &impl Fn(V) -> Result<(), TestCaseError>,
        v: V,
    ) -> Result<(), TestCaseError> {
        catch_unwind(AssertUnwindSafe(|| test(v))).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked".into());
            Err(TestCaseError::fail(msg))
        })
    }

    /// Runs `test` on `config.cases` inputs drawn from `strategy`; the
    /// first failure is shrunk greedily (the first simpler candidate that
    /// still fails replaces it) until no candidate fails.
    pub fn run<S: Strategy>(
        id: &str,
        config: &ProptestConfig,
        strategy: &S,
        test: impl Fn(S::Value) -> Result<(), TestCaseError>,
    ) -> Option<Failure<S::Value>> {
        let mut rng = TestRng::deterministic(id);
        for case in 0..config.cases {
            let input = strategy.generate(&mut rng);
            let Err(error) = attempt(&test, input.clone()) else {
                continue;
            };
            let mut best = Failure {
                case: case + 1,
                input,
                error,
            };
            let mut runs = 0;
            'shrink: while runs < SHRINK_RUNS {
                for candidate in strategy.shrink(&best.input) {
                    runs += 1;
                    if let Err(error) = attempt(&test, candidate.clone()) {
                        best.input = candidate;
                        best.error = error;
                        continue 'shrink;
                    }
                    if runs >= SHRINK_RUNS {
                        break;
                    }
                }
                break;
            }
            return Some(best);
        }
        None
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests. Each `fn name(param in strategy, other: Type)`
/// becomes a `#[test]` that generates inputs for `config.cases` iterations
/// and, on a failure, shrinks the input and reports the smallest one.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    (@fns ($cfg:expr)) => {};
    (@fns ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($params:tt)* ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __failure = $crate::runner::run(
                concat!(module_path!(), "::", stringify!($name)),
                &__config,
                &$crate::proptest!(@strategy $($params)*),
                |__input| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    let $crate::proptest!(@pattern $($params)*) = __input;
                    { $body }
                    ::std::result::Result::Ok(())
                },
            );
            if let ::std::option::Option::Some(__f) = __failure {
                let $crate::proptest!(@pattern $($params)*) = __f.input;
                let mut __input = ::std::vec::Vec::<::std::string::String>::new();
                $crate::proptest!(@describe __input, $($params)*);
                ::std::panic!(
                    "proptest {} failed at case {}/{}: {}\n  minimal input: {}",
                    stringify!($name), __f.case, __config.cases, __f.error, __input.join(", "),
                );
            }
        }
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    (@strategy $(,)?) => { () };
    (@strategy $var:ident in $strat:expr $(, $($rest:tt)*)?) => {
        ($strat, $crate::proptest!(@strategy $($($rest)*)?))
    };
    (@strategy $var:ident : $ty:ty $(, $($rest:tt)*)?) => {
        ($crate::arbitrary::any::<$ty>(), $crate::proptest!(@strategy $($($rest)*)?))
    };
    (@pattern $(,)?) => { () };
    (@pattern $var:ident in $strat:expr $(, $($rest:tt)*)?) => {
        ($var, $crate::proptest!(@pattern $($($rest)*)?))
    };
    (@pattern $var:ident : $ty:ty $(, $($rest:tt)*)?) => {
        ($var, $crate::proptest!(@pattern $($($rest)*)?))
    };
    (@describe $out:ident $(,)?) => {};
    (@describe $out:ident, $var:ident in $strat:expr $(, $($rest:tt)*)?) => {
        $out.push(::std::format!("{} = {:?}", stringify!($var), $var));
        $crate::proptest!(@describe $out $(, $($rest)*)?);
    };
    (@describe $out:ident, $var:ident : $ty:ty $(, $($rest:tt)*)?) => {
        $out.push(::std::format!("{} = {:?}", stringify!($var), $var));
        $crate::proptest!(@describe $out $(, $($rest)*)?);
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@fns ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// aborting the process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)*)),
            );
        }
    };
}

/// `assert_eq!` inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r,
                );
            }
        }
    };
}

/// `assert_ne!` inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "assertion failed: {} != {}\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                );
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in 0usize..3, z: u64) {
            prop_assert!((10..20).contains(&x));
            prop_assert!(y < 3);
            let _ = z;
        }

        #[test]
        fn vec_strategy_obeys_len(v in crate::collection::vec((0u8..4, crate::bool::ANY), 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            for (n, _b) in v {
                prop_assert!(n < 4);
            }
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(flag in crate::bool::ANY) {
            prop_assert_eq!(flag as u8 <= 1, true);
        }
    }

    #[test]
    fn failure_reports_case_and_message() {
        let err = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(4))]
                #[allow(unused)]
                fn always_fails(x in 0u64..10) {
                    prop_assert_eq!(x, 12345u64);
                }
            }
            always_fails();
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("failed at case 1/4"), "got: {msg}");
        assert!(msg.contains("12345"), "got: {msg}");
        // Shrunk to the range's low end.
        assert!(msg.ends_with("minimal input: x = 0"), "got: {msg}");
    }

    #[test]
    fn failures_shrink_to_a_minimal_vec() {
        let err = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(16))]
                #[allow(unused)]
                fn no_element_reaches_300(v in crate::collection::vec(0u64..1000, 1..40), flag: bool) {
                    prop_assert!(v.iter().all(|&x| x < 300), "{:?} has an element >= 300", v);
                }
            }
            no_element_reaches_300();
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains(": [300] has an element >= 300"), "got: {msg}");
        assert!(
            msg.contains("minimal input: v = [300], flag = "),
            "got: {msg}"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = crate::test_runner::TestRng::deterministic("id");
        let mut b = crate::test_runner::TestRng::deterministic("id");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
