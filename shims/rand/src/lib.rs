//! Offline stand-in for the `rand` crate, providing the (small) subset of
//! the 0.9 API this workspace uses: `rngs::StdRng`, `SeedableRng`, and the
//! `Rng` extension methods `random`, `random_range`, and `random_bool`.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — deterministic
//! per seed, which is all the simulator requires (exact output values are
//! never asserted, only reproducibility).

/// Low-level source of randomness.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types producible by [`Rng::random`] (the `StandardUniform` subset).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

/// Ranges usable with [`Rng::random_range`].
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                let v = (u128::sample(rng)) % span;
                (self.start as u128).wrapping_add(v) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    // the full u128 domain
                    return u128::sample(rng) as $t;
                }
                let v = u128::sample(rng) % span;
                (lo as u128).wrapping_add(v) as $t
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, u128);

/// The user-facing extension methods (auto-implemented over any core RNG).
pub trait Rng: RngCore {
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// A generator seeded from the operating system, so every run draws a
/// different stream — as the real crate's `thread_rng` does. The workspace
/// bans it (`clippy.toml` disallowed-methods): sim code draws from the
/// kernel's seeded rng. It is here so that ban names a function that
/// exists, with or without the real crate.
pub fn thread_rng() -> rngs::StdRng {
    use std::hash::{BuildHasher, Hasher};
    let os_seeded = std::collections::hash_map::RandomState::new();
    rngs::StdRng::seed_from_u64(os_seeded.build_hasher().finish())
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (stand-in for rand's `StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: u64 = r.random_range(10..20);
            assert!((10..20).contains(&v));
            let w: i32 = r.random_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f: f64 = r.random();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_probability_extremes() {
        let mut r = StdRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| r.random_bool(0.0)));
        assert!((0..100).all(|_| r.random_bool(1.0)));
    }
}
