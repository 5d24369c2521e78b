//! In-tree deterministic property-test harness.
//!
//! A minimal replacement for the slice of `proptest` this workspace used:
//! seeded case generation from [`rng::Xoshiro256pp`](crate::rng), a fixed
//! case count, and first-failure input reporting. Unlike `proptest` the
//! harness is fully deterministic — every case seed derives from the suite
//! seed, the property name, and the case index, so a failure reported on one
//! machine replays byte-identically on any other. There is no shrinking;
//! the reported input plus the per-case seed make failures reproducible,
//! which for this codebase's numeric properties has proven enough.
//!
//! Properties are declared with the [`props!`](crate::props) macro, whose
//! grammar mirrors the `proptest!` blocks it replaced:
//!
//! ```
//! use rrs_core::{check::vec_of, prop_assert, props};
//!
//! props! {
//!     #[test]
//!     fn mean_is_bounded(xs in vec_of(-10.0f64..10.0, 1..50)) {
//!         let mean = xs.iter().sum::<f64>() / xs.len() as f64;
//!         prop_assert!(xs.iter().cloned().fold(f64::INFINITY, f64::min) <= mean);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! The default of 256 cases per property can be overridden per block with
//! `#![cases(N)]` (the expensive end-to-end suites use this) or globally
//! with the `RRS_PROP_CASES` environment variable; `RRS_PROP_SEED` rotates
//! the suite seed.

#![expect(
    clippy::test_attr_in_doctest,
    reason = "the doctest's `#[test]` is the `props!` grammar itself, not a unit test \
              smuggled into documentation; the example compiles and runs"
)]

use crate::rng::{RrsRng, Xoshiro256pp};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 256;

/// Default suite seed; combined with the property name and case index to
/// derive each case's generator seed.
pub const DEFAULT_SEED: u64 = 0x5EED_CA5E_5EED_CA5E;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Number of cases to run, honouring the `RRS_PROP_CASES` override.
#[must_use]
pub fn case_count(explicit: Option<u32>) -> u32 {
    if let Some(n) = env_u64("RRS_PROP_CASES") {
        return n.min(u64::from(u32::MAX)) as u32;
    }
    explicit.unwrap_or(DEFAULT_CASES)
}

/// Suite seed, honouring the `RRS_PROP_SEED` override.
#[must_use]
pub fn suite_seed() -> u64 {
    env_u64("RRS_PROP_SEED").unwrap_or(DEFAULT_SEED)
}

/// FNV-1a, used to fold the property name into the case seed so distinct
/// properties explore distinct streams under the same suite seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic per-case generator seed.
#[must_use]
pub fn case_seed(suite: u64, name: &str, index: u32) -> u64 {
    suite ^ fnv1a(name.as_bytes()) ^ (u64::from(index)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `cases` seeded cases of a property: `generate` draws an input,
/// `body` asserts over it. On the first failing case the harness panics
/// with the property name, case index, per-case seed, and the `Debug`
/// rendering of the offending input.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when any case's body panics.
pub fn run_property<I, G, F>(name: &str, cases: Option<u32>, generate: G, body: F)
where
    I: Clone + Debug,
    G: Fn(&mut Xoshiro256pp) -> I,
    F: Fn(I),
{
    let cases = case_count(cases);
    let suite = suite_seed();
    for index in 0..cases {
        let seed = case_seed(suite, name, index);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let input = generate(&mut rng);
        let kept = input.clone();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(input))) {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!(
                "property `{name}` failed at case {index}/{cases} \
                 (case seed {seed:#018X}, suite seed {suite:#018X})\n\
                 input: {kept:?}\n\
                 cause: {message}\n\
                 replay: RRS_PROP_SEED={suite} RRS_PROP_CASES={cases} \
                 cargo test {name}"
            );
        }
    }
}

/// A deterministic input generator, implemented by ranges, tuples of
/// generators, and the combinators in this module.
pub trait Gen {
    /// The value type produced.
    type Value;
    /// Draws one value from `rng`.
    fn generate(&self, rng: &mut Xoshiro256pp) -> Self::Value;
}

macro_rules! range_gen {
    ($($t:ty),+) => {$(
        impl Gen for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Xoshiro256pp) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Gen for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Xoshiro256pp) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )+};
}

range_gen!(f64, usize, u64, u32, u16, u8);

macro_rules! tuple_gen {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Gen),+> Gen for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut Xoshiro256pp) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_gen!(A: 0);
tuple_gen!(A: 0, B: 1);
tuple_gen!(A: 0, B: 1, C: 2);
tuple_gen!(A: 0, B: 1, C: 2, D: 3);

/// Length specification for [`vec_of`]: an exact `usize`, `lo..hi`, or
/// `lo..=hi`.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    /// Inclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.end > r.start, "empty size range");
        Self {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.end() >= r.start(), "empty size range");
        Self {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Generator of `Vec`s whose elements come from `element` and whose length
/// is drawn from `size`.
#[derive(Clone, Debug)]
pub struct VecGen<G> {
    element: G,
    size: SizeRange,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut Xoshiro256pp) -> Vec<G::Value> {
        let len = if self.size.lo == self.size.hi {
            self.size.lo
        } else {
            rng.gen_range(self.size.lo..=self.size.hi)
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `vec_of(el, 1..50)` — the analogue of `proptest::collection::vec`.
pub fn vec_of<G: Gen>(element: G, size: impl Into<SizeRange>) -> VecGen<G> {
    VecGen {
        element,
        size: size.into(),
    }
}

/// Generator of arbitrary `f64` bit patterns — finite values of every
/// magnitude and sign plus infinities and NaNs, the analogue of
/// `proptest::num::f64::ANY`. One case in four is drawn from a benign
/// moderate range so properties also see "ordinary" inputs often.
#[derive(Clone, Copy, Debug)]
pub struct AnyF64;

impl Gen for AnyF64 {
    type Value = f64;
    fn generate(&self, rng: &mut Xoshiro256pp) -> f64 {
        if rng.gen_range(0u8..4) == 0 {
            rng.gen_range(-1.0e3..1.0e3)
        } else {
            f64::from_bits(rng.next_u64())
        }
    }
}

/// Any `f64` bit pattern, including `±inf` and NaN.
#[must_use]
pub fn any_f64() -> AnyF64 {
    AnyF64
}

/// Generator produced by [`map`]: applies a function to another
/// generator's output.
#[derive(Clone, Debug)]
pub struct MapGen<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, T, F: Fn(G::Value) -> T> Gen for MapGen<G, F> {
    type Value = T;
    fn generate(&self, rng: &mut Xoshiro256pp) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Transforms a generator's output, e.g. `map(0u32..10, |n| n * 2)`.
pub fn map<G: Gen, T, F: Fn(G::Value) -> T>(inner: G, f: F) -> MapGen<G, F> {
    MapGen { inner, f }
}

/// Declares deterministic property tests; see the [module docs](self) for
/// the grammar. `prop_assert!`/`prop_assert_eq!` are accepted in bodies for
/// continuity with the `proptest!` blocks this macro replaced.
#[macro_export]
macro_rules! props {
    (@each $cases:expr; $(
        #[test]
        fn $name:ident( $($arg:ident in $gen:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                $crate::check::run_property(
                    stringify!($name),
                    $cases,
                    |__rng| ( $( $crate::check::Gen::generate(&($gen), __rng), )+ ),
                    |( $($arg,)+ )| $body,
                );
            }
        )*
    };
    (#![cases($n:expr)] $($rest:tt)*) => {
        $crate::props!(@each Some($n); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::props!(@each None; $($rest)*);
    };
}

/// Body-level assertion for [`props!`] blocks; identical to `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Body-level equality assertion for [`props!`] blocks; identical to
/// `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_deterministic_and_name_sensitive() {
        assert_eq!(case_seed(1, "a", 0), case_seed(1, "a", 0));
        assert_ne!(case_seed(1, "a", 0), case_seed(1, "b", 0));
        assert_ne!(case_seed(1, "a", 0), case_seed(1, "a", 1));
    }

    #[test]
    fn generators_respect_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..500 {
            let x = (0.5f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&x));
            let n = (3usize..=7).generate(&mut rng);
            assert!((3..=7).contains(&n));
            let v = vec_of(0u32..5, 2..6).generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&e| e < 5));
            let (a, b) = ((0.0f64..1.0), (10u64..20)).generate(&mut rng);
            assert!((0.0..1.0).contains(&a) && (10..20).contains(&b));
        }
    }

    #[test]
    fn exact_size_vec() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        assert_eq!(vec_of(0.0f64..1.0, 9).generate(&mut rng).len(), 9);
    }

    #[test]
    fn any_f64_produces_specials_and_ordinary_values() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let xs: Vec<f64> = (0..4_000).map(|_| any_f64().generate(&mut rng)).collect();
        assert!(xs.iter().any(|x| x.is_nan()));
        assert!(xs.iter().any(|x| x.is_finite()));
    }

    #[test]
    fn failing_property_reports_input_and_seed() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_property(
                "always_fails",
                Some(8),
                |rng| rng.gen_range(0u32..100),
                |n| {
                    assert!(n > 1_000, "n was {n}");
                },
            );
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("property `always_fails` failed at case 0"),
            "{msg}"
        );
        assert!(msg.contains("input:"), "{msg}");
        assert!(msg.contains("replay:"), "{msg}");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the case counter is shared with the property closure"
    )]
    fn passing_property_runs_all_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let count = AtomicU32::new(0);
        run_property(
            "counts",
            Some(17),
            |rng| rng.gen::<f64>(),
            |x| {
                count.fetch_add(1, Ordering::Relaxed);
                assert!((0.0..1.0).contains(&x));
            },
        );
        // RRS_PROP_CASES deliberately overrides explicit counts, so compare
        // against the resolved count rather than the literal 17.
        assert_eq!(count.load(Ordering::Relaxed), case_count(Some(17)));
    }

    props! {
        #![cases(64)]

        #[test]
        fn macro_declares_runnable_properties(
            xs in vec_of(-5.0f64..5.0, 1..20),
            k in 1usize..4,
        ) {
            prop_assert!(k >= 1);
            prop_assert_eq!(xs.len(), xs.len());
            prop_assert!(xs.iter().all(|x| x.abs() <= 5.0));
        }
    }
}
