//! Minimal `rand` 0.9 API shim: [`rngs::StdRng`], [`SeedableRng`] and the
//! [`Rng`] extension trait with `random_range` over integer ranges.
//!
//! The generator is xoshiro256** seeded via SplitMix64 — deterministic for a
//! given seed, which is all the workload generators and benchmarks rely on.

use std::ops::{Range, RangeInclusive};

/// Core random source: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `random_range` can sample.
pub trait SampleRange<T> {
    /// Sample uniformly from the range. Panics if the range is empty.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

macro_rules! impl_sample_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                // Multiply-shift bounded sampling (Lemire); bias is < 2^-64
                // per draw which is irrelevant for workload generation.
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as $wide).wrapping_add(v as $wide) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample empty range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (end as $wide).wrapping_sub(start as $wide) as u64 + 1;
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (start as $wide).wrapping_add(v as $wide) as $t
            }
        }
    )*};
}

impl_sample_int! {
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
}

/// Extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from an integer range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// A random boolean.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The default seedable generator: xoshiro256**.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 stream to fill the state (the xoshiro authors'
            // recommended seeding procedure).
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_are_bounded() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: u64 = r.random_range(10..20);
            assert!((10..20).contains(&v));
            let s: i64 = r.random_range(-5i64..5);
            assert!((-5..5).contains(&s));
            let i: u8 = r.random_range(0u8..=255);
            let _ = i;
        }
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(1);
        let _: u64 = r.random_range(5..5);
    }
}
