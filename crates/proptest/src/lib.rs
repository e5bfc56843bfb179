//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! This workspace builds in an offline container, so the real `proptest`
//! cannot be fetched. The test suites only use a narrow slice of its API —
//! the `proptest!` macro with `name in strategy` bindings over numeric
//! ranges, plus `prop_assert!`/`prop_assert_eq!` — so this crate provides
//! exactly that slice with compatible syntax:
//!
//! * strategies: `Range<T>` for the primitive numeric types (uniform
//!   sampling, end-exclusive) and `RangeInclusive<T>`;
//! * each property runs [`CASES`] times with a deterministic per-test seed
//!   (derived from the property's name), so failures reproduce exactly;
//! * no shrinking — the failing inputs are printed instead.
//!
//! The point is API compatibility for the existing tests, not feature
//! parity; if a future test needs combinators, extend [`Strategy`].

/// Number of cases each property is executed with.
pub const CASES: u32 = 192;

/// Deterministic splitmix64 generator; good enough for test-input
/// sampling and completely reproducible.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Seeds from a test name so every property gets a distinct but stable
    /// stream (FNV-1a over the name).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::new(h)
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift reduction; the tiny modulo bias is irrelevant for
        // test-case generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A source of test values (the subset of proptest's `Strategy` the suite
/// uses: pure sampling, no value tree / shrinking).
pub trait Strategy {
    /// The values produced.
    type Value: std::fmt::Debug;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty strategy range");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Float ranges. `start + u·(end − start)`, with `u` on the grid of
/// `next_f64`, puts every draw on a grid of spacing `(end − start)·2^−P`
/// (`P` the type's precision), so the mantissa bits of a value that lie
/// below that spacing would always be zero: every draw in `−2..2` is a
/// multiple of 2⁻⁵¹. Those bits are filled with random ones, which moves
/// the value by less than one grid step; a draw that lands outside the
/// range is drawn again.
macro_rules! float_range_strategy {
    ($($t:ty, $bits:ty, $mant:expr, $exp_mask:expr);*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                // The biased exponent field, as for the smallest normal
                // when the value is zero or subnormal (their ulp is its).
                let exponent = |x: $t| (((x.to_bits() >> $mant) & $exp_mask) as i32).max(1);
                let width = self.end - self.start;
                loop {
                    let v = self.start + (rng.next_f64() as $t) * width;
                    // Bits of `v` below the grid spacing: its ulp is
                    // 2^(e_v − mant), the spacing 2^(e_width − mant − 1).
                    let k = (exponent(width) - exponent(v) - 1).clamp(0, $mant) as u32;
                    let noise = (rng.next_u64() & ((1u64 << k) - 1)) as $bits;
                    let v = <$t>::from_bits(v.to_bits() ^ noise);
                    if self.contains(&v) {
                        return v;
                    }
                }
            }
        }
    )*};
}

float_range_strategy!(f32, u32, 23, 0xff; f64, u64, 52, 0x7ff);

/// Everything a `proptest!`-based test module needs in scope.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy, TestRng};
}

/// Drop-in subset of proptest's `proptest!` macro: any number of
/// `#[test] fn name(binding in strategy, ...) { body }` items, each run
/// [`CASES`](crate::CASES) times with deterministic sampling.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..$crate::CASES {
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)+
                    // Describe the inputs before the body can consume them.
                    let inputs = format!(concat!($(stringify!($arg), " = {:?}  "),+), $($arg),+);
                    let outcome = (move || -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        Ok(())
                    })();
                    if let Err(msg) = outcome {
                        panic!(
                            "property {} failed on case {case}\ninputs: {inputs}\n{msg}",
                            stringify!($name),
                        );
                    }
                }
            }
        )*
    };
}

/// proptest-compatible assertion: fails the current case (and test) with
/// the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// proptest-compatible equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return Err(format!("assertion failed: {} == {} ({left:?} vs {right:?})",
                stringify!($a), stringify!($b)));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return Err(format!($($fmt)*));
        }
    }};
}

/// proptest-compatible inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err(format!(
                "assertion failed: {} != {} (both {left:?})",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..2000 {
            let v = (3usize..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0f64..3.5).sample(&mut rng);
            assert!((-2.0..3.5).contains(&f));
            let i = (-5i64..=5).sample(&mut rng);
            assert!((-5..=5).contains(&i));
        }
    }

    /// Draws in `−2..2` fill the mantissa bits below the draw grid: the
    /// lowest mantissa bit, always clear on a grid of 2⁻⁵¹, is set in
    /// about half the draws, and values near zero carry low bytes of every
    /// kind. The same holds for `f32`.
    #[test]
    fn float_draws_set_their_low_mantissa_bits() {
        let mut rng = TestRng::new(11);
        let draws: Vec<f64> = (0..10_000)
            .map(|_| (-2.0f64..2.0).sample(&mut rng))
            .collect();
        assert!(draws.iter().all(|v| (-2.0..2.0).contains(v)));
        let odd = draws.iter().filter(|v| v.to_bits() & 1 == 1).count();
        assert!((4_000..6_000).contains(&odd), "{odd} of 10000 draws odd");
        let small: Vec<u64> = draws
            .iter()
            .filter(|v| v.abs() < 0.01)
            .map(|v| v.to_bits() & 0xff)
            .collect();
        assert!(small.len() > 20, "{} draws below 0.01", small.len());
        assert!(small.iter().filter(|&&b| b != 0).count() > small.len() * 9 / 10);
        let odd32 = (0..10_000)
            .filter(|_| (-2.0f32..2.0).sample(&mut rng).to_bits() & 1 == 1)
            .count();
        assert!(
            (4_000..6_000).contains(&odd32),
            "{odd32} of 10000 f32 draws odd"
        );
    }

    /// A range only a few ulps wide still yields values inside it.
    #[test]
    fn narrow_float_ranges_stay_in_bounds() {
        let mut rng = TestRng::new(3);
        let end = 1.0f64 + 4.0 * f64::EPSILON;
        for _ in 0..1000 {
            let v = (1.0f64..end).sample(&mut rng);
            assert!((1.0..end).contains(&v), "{v}");
        }
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(a in 0u64..100, b in 1usize..4) {
            prop_assert!(a < 100);
            prop_assert_eq!(b * 2 / 2, b);
            prop_assert_ne!(b, 0);
        }
    }
}
