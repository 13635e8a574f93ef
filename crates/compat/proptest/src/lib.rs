//! Minimal, deterministic stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace vendors the subset of
//! the proptest API its property tests use: the [`proptest!`] macro (with an optional
//! `#![proptest_config(..)]` header), `prop_assert!` / `prop_assert_eq!`, integer-range
//! and tuple strategies, and [`collection::vec`]. Cases are generated from a fixed seed
//! (deterministic CI); there is no shrinking — a failing case reports its index and the
//! assertion message instead. A property without a `with_cases` header runs 64 cases, or
//! as many as the `PROPTEST_CASES` environment variable names; case `i` is the same
//! input whatever the count, so a longer run extends the default one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strategy abstraction: something that can generate values of `Value` from an RNG.
pub mod strategy {
    use crate::test_runner::CaseRng;

    /// A generator of test values. Mirrors `proptest::strategy::Strategy` far enough
    /// that `impl Strategy<Value = T>` signatures compile unchanged.
    pub trait Strategy {
        /// The type of generated values.
        type Value;
        /// Generate one value.
        fn generate(&self, rng: &mut CaseRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut CaseRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128) - (self.start as u128);
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut CaseRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    let span = (end as u128) - (start as u128) + 1;
                    start + rng.below(span) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, u128);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+)),+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut CaseRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D));
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::CaseRng;

    /// Strategy producing `Vec`s of values drawn from `element`, with a length drawn
    /// from `size` (half-open, as in real proptest's `1..60`).
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Build a [`VecStrategy`]. Mirrors `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy {
            element,
            min: size.start,
            max: size.end,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut CaseRng) -> Self::Value {
            let len = self.min + rng.below((self.max - self.min) as u128) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The runner machinery behind the [`proptest!`] macro.
pub mod test_runner {
    /// Per-case RNG: SplitMix64 seeded from (fixed base seed, case index).
    #[derive(Debug, Clone)]
    pub struct CaseRng {
        state: u64,
    }

    impl CaseRng {
        /// Seed for one test case.
        pub fn new(seed: u64) -> Self {
            CaseRng { state: seed }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, span)` (rejection sampling; `span` must be non-zero).
        pub fn below(&mut self, span: u128) -> u128 {
            debug_assert!(span > 0);
            let zone = u128::MAX - (u128::MAX % span);
            loop {
                let raw = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
                if raw < zone {
                    return raw % span;
                }
            }
        }
    }

    /// A failed property check (produced by `prop_assert!`).
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        /// Human-readable failure description.
        pub message: String,
    }

    impl TestCaseError {
        /// Build a failure from a message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    /// Runner configuration. Mirrors `proptest::test_runner::Config`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// Config with an explicit case count.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        /// 64 cases, or as many as `PROPTEST_CASES` names, as in real proptest.
        fn default() -> Self {
            Config {
                cases: default_cases(std::env::var("PROPTEST_CASES").ok().as_deref()),
            }
        }
    }

    /// The default case count given the value of `PROPTEST_CASES`, if set. Real proptest
    /// defaults to 256; 64 keeps the heavier datapath properties fast while still
    /// exploring a meaningful sample. A value that is not a count is ignored.
    pub(crate) fn default_cases(var: Option<&str>) -> u32 {
        var.and_then(|n| n.trim().parse().ok()).unwrap_or(64)
    }

    /// Runs a property over `config.cases` generated cases.
    pub struct TestRunner {
        config: Config,
    }

    impl TestRunner {
        /// Create a runner.
        pub fn new(config: Config) -> Self {
            TestRunner { config }
        }

        /// Run `case` once per generated input; panics (failing the `#[test]`) on the
        /// first case that returns an error.
        pub fn run(&mut self, mut case: impl FnMut(&mut CaseRng) -> Result<(), TestCaseError>) {
            for i in 0..self.config.cases {
                // Distinct, reproducible stream per case.
                let seed = 0x7365_6564u64 ^ (u64::from(i).wrapping_mul(0x2545_F491_4F6C_DD1D));
                let mut rng = CaseRng::new(seed);
                if let Err(e) = case(&mut rng) {
                    panic!(
                        "proptest case {}/{} failed: {} (deterministic seed {seed:#x})",
                        i + 1,
                        self.config.cases,
                        e.message
                    );
                }
            }
        }
    }
}

/// The glob-imported prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::Strategy;
    /// Runner configuration (re-exported under proptest's prelude name).
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declare property tests. Supports an optional `#![proptest_config(expr)]` header and
/// one or more `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { (<$crate::test_runner::Config as ::core::default::Default>::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut runner = $crate::test_runner::TestRunner::new($cfg);
                runner.run(|__proptest_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __proptest_rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Property assertion: fails the current case (not the whole process) on falsehood.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({l:?} vs {r:?})",
                stringify!($left),
                stringify!($right)
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {l:?})",
                stringify!($left),
                stringify!($right)
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (u128, u128)> {
        (0u128..32, 0u128..16)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds((a, b) in pair(), c in 3u16..9) {
            prop_assert!(a < 32);
            prop_assert!(b < 16);
            prop_assert!((3..9).contains(&c));
        }

        #[test]
        fn vec_strategy_respects_size(v in crate::collection::vec(0u32..100, 1..7)) {
            prop_assert!(!v.is_empty() && v.len() < 7);
            for x in &v {
                prop_assert!(*x < 100);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_header_accepted(x in 0u8..10) {
            prop_assert_eq!(x as u16 * 2, u16::from(x) * 2);
        }
    }

    #[test]
    fn proptest_cases_sets_the_default_count() {
        use crate::test_runner::default_cases;
        assert_eq!(default_cases(None), 64);
        assert_eq!(default_cases(Some("2048")), 2048);
        assert_eq!(default_cases(Some(" 7\n")), 7);
        assert_eq!(default_cases(Some("many")), 64);
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_panics_with_case_info() {
        let mut runner = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(3));
        runner.run(|_rng| Err(TestCaseError::fail("forced")));
    }
}
