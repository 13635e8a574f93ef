//! Minimal, deterministic stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace vendors the tiny
//! subset of the `rand 0.8` API the reproduction actually uses: the [`Rng`] extension
//! methods `gen` / `gen_range` / `next_u64`, [`SeedableRng::seed_from_u64`], and
//! [`rngs::StdRng`]. The generator is SplitMix64 — statistically fine for attack-trace
//! noise and property tests, and fully deterministic for a given seed (which the
//! experiment reproducibility relies on anyway).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A source of randomness plus the inference-driven helpers the `rand` prelude offers.
pub trait Rng {
    /// Produce the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Produce a uniformly random value of an integer type.
    fn gen<T: Standard>(&mut self) -> T {
        let mut feed = || self.next_u64();
        T::from_bits(&mut feed)
    }

    /// Produce a uniformly random value within `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        let mut feed = || self.next_u64();
        range.sample(&mut feed)
    }
}

/// As in `rand`: a mutable reference to a generator is a generator, so code that owns
/// its generator by value also accepts a borrowed one.
impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be drawn uniformly from raw random bits (the `Standard` distribution).
pub trait Standard: Sized {
    /// Build a value from a stream of random 64-bit words.
    fn from_bits(feed: &mut dyn FnMut() -> u64) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_bits(feed: &mut dyn FnMut() -> u64) -> Self {
                feed() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn from_bits(feed: &mut dyn FnMut() -> u64) -> Self {
        ((feed() as u128) << 64) | feed() as u128
    }
}

impl Standard for bool {
    fn from_bits(feed: &mut dyn FnMut() -> u64) -> Self {
        feed() & 1 == 1
    }
}

/// Ranges that can be sampled uniformly ([`Rng::gen_range`]). The element type is a
/// trait parameter (not an associated type) so inference can flow from the assignment
/// context into the range literals, exactly as in real `rand`.
pub trait SampleRange<T> {
    /// Draw one uniform sample from the range.
    fn sample(self, feed: &mut dyn FnMut() -> u64) -> T;
}

/// Draw a value in `[0, span)` without modulo bias (rejection sampling on the top
/// `span`-multiple).
fn below(span: u128, feed: &mut dyn FnMut() -> u64) -> u128 {
    debug_assert!(span > 0);
    let zone = u128::MAX - (u128::MAX % span);
    loop {
        let raw = ((feed() as u128) << 64) | feed() as u128;
        if raw < zone {
            return raw % span;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, feed: &mut dyn FnMut() -> u64) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u128) - (self.start as u128);
                self.start + below(span, feed) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, feed: &mut dyn FnMut() -> u64) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as u128) - (start as u128) + 1;
                start + below(span, feed) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, feed: &mut dyn FnMut() -> u64) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = (feed() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

/// Seedable generators (the `rand` trait, reduced to the one constructor in use).
pub trait SeedableRng: Sized {
    /// Create a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generator types.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The standard generator: SplitMix64 (deterministic, 64-bit state).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            StdRng { state }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: u8 = rng.gen_range(32..=255);
            assert!(v >= 32);
            let w: u32 = rng.gen_range(0..=0x000f_ffff);
            assert!(w <= 0x000f_ffff);
            let x: u16 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn gen_infers_integer_types() {
        let mut rng = StdRng::seed_from_u64(1);
        let _: u16 = rng.gen();
        let _: u32 = rng.gen();
        let _: u64 = rng.gen();
        let _: u128 = rng.gen();
    }

    #[test]
    fn works_through_unsized_generic() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen::<u64>() ^ rng.gen_range(0u64..10)
        }
        let mut rng = StdRng::seed_from_u64(3);
        draw(&mut rng);
    }

    #[test]
    fn range_sampling_not_constant() {
        let mut rng = StdRng::seed_from_u64(5);
        let draws: Vec<u16> = (0..50).map(|_| rng.gen_range(0u16..512)).collect();
        assert!(draws.iter().any(|&v| v != draws[0]));
    }
}
