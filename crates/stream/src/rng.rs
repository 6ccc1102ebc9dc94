//! Repo-owned pseudo-random number generation.
//!
//! The workspace builds with zero external dependencies, so instead of the
//! `rand` crate it carries its own small PRNG surface:
//!
//! * [`RandomSource`] — the trait every consumer programs against. Only
//!   [`RandomSource::next_u64`] is required; uniform floats, integer ranges
//!   and Bernoulli draws are provided on top of it.
//! * [`Xoshiro256pp`] — xoshiro256++ (Blackman & Vigna, 2019), a fast
//!   general-purpose generator with a 256-bit state and excellent
//!   statistical quality, seeded through SplitMix64 so that any `u64` seed
//!   (including 0) yields a well-mixed state.
//!
//! All experiment code seeds generators explicitly: given the same seed, a
//! stream, classifier or experiment is bit-for-bit reproducible on every
//! platform (the implementation uses only integer arithmetic and exact IEEE
//! double conversions).

use std::ops::{Range, RangeInclusive};

/// A deterministic source of uniform random bits.
///
/// Implementors supply [`RandomSource::next_u64`]; every other draw is
/// derived from it. The provided methods mirror the call-site shapes used
/// throughout the workspace: `rng.random::<f64>()`, `rng.random_range(0..k)`,
/// `rng.random_range(-1.0..1.0)`, `rng.random_bool(0.1)`.
pub trait RandomSource {
    /// The next 64 uniformly-distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform draw of type `T` (see [`FromRandom`] for conventions).
    fn random<T: FromRandom>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_random(self)
    }

    /// A uniform draw from a half-open (`a..b`) or inclusive (`a..=b`)
    /// range. Integer ranges are sampled without modulo bias (Lemire's
    /// method); float ranges are affine maps of a uniform `[0, 1)` draw.
    fn random_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random::<f64>() < p
    }
}

impl<T: RandomSource + ?Sized> RandomSource for &mut T {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be drawn uniformly from a [`RandomSource`].
pub trait FromRandom {
    /// Draws one uniform value.
    fn from_random<R: RandomSource>(rng: &mut R) -> Self;
}

impl FromRandom for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn from_random<R: RandomSource>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRandom for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn from_random<R: RandomSource>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl FromRandom for u64 {
    fn from_random<R: RandomSource>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRandom for u32 {
    fn from_random<R: RandomSource>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRandom for usize {
    fn from_random<R: RandomSource>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl FromRandom for bool {
    /// A fair coin.
    fn from_random<R: RandomSource>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Ranges that can be sampled uniformly. Implemented for the integer and
/// float `Range`/`RangeInclusive` shapes the workspace uses.
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draws one uniform value from the range. Panics on empty ranges.
    fn sample_from<R: RandomSource>(self, rng: &mut R) -> Self::Output;
}

/// Uniform draw from `[0, span)` without modulo bias (Lemire's method with
/// rejection). `span` must be non-zero.
fn bounded_u64<R: RandomSource>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (span as u128);
    let mut low = m as u64;
    if low < span {
        let threshold = span.wrapping_neg() % span;
        while low < threshold {
            x = rng.next_u64();
            m = (x as u128) * (span as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RandomSource>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded_u64(rng, span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RandomSource>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // The full 64-bit domain: every u64 is in range.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + bounded_u64(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RandomSource>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit: $t = FromRandom::from_random(rng);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// SplitMix64 step — used to expand a single `u64` seed into a full
/// xoshiro256++ state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xoshiro256++ generator: 256 bits of state, period `2^256 - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the generator from a single `u64` via SplitMix64, the seeding
    /// procedure recommended by the xoshiro authors. Every seed (including
    /// 0) produces a valid, well-mixed, non-zero state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            // Unreachable in practice, but the all-zero state is the one
            // fixed point of the generator and must never be used.
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }
}

impl RandomSource for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// `k` distinct indices drawn uniformly from `0..n`, in random order
/// (partial Fisher–Yates). Replacement for `rand::seq::index::sample`.
pub fn sample_indices<R: RandomSource>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// Shuffles a slice in place (Fisher–Yates).
pub fn shuffle<T, R: RandomSource>(rng: &mut R, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values for xoshiro256++ seeded with the state
    /// `[1, 2, 3, 4]`, from the authors' C implementation.
    #[test]
    fn matches_reference_stream() {
        let mut rng = Xoshiro256pp { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        assert_ne!(rng.s, [0; 4]);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn unit_floats_are_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v: f64 = rng.random();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn integer_ranges_cover_uniformly() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.random_range(0..7usize)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 10_000.0 - 1.0).abs() < 0.05, "{counts:?}");
        }
        // Inclusive ranges include both endpoints.
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match rng.random_range(0..=2usize) {
                0 => saw_lo = true,
                2 => saw_hi = true,
                _ => {}
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn negative_and_float_ranges() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&v));
            let i = rng.random_range(-5i32..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn bernoulli_tracks_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let hits = (0..50_000).filter(|_| rng.random_bool(0.3)).count();
        let p = hits as f64 / 50_000.0;
        assert!((p - 0.3).abs() < 0.01, "p {p}");
    }

    #[test]
    fn sample_indices_are_distinct_and_in_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        for _ in 0..100 {
            let idx = sample_indices(&mut rng, 10, 4);
            assert_eq!(idx.len(), 4);
            let set: std::collections::HashSet<_> = idx.iter().collect();
            assert_eq!(set.len(), 4);
            assert!(idx.iter().all(|&i| i < 10));
        }
        assert_eq!(sample_indices(&mut rng, 5, 5).len(), 5);
        assert!(sample_indices(&mut rng, 5, 0).is_empty());
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Xoshiro256pp::seed_from_u64(19);
        let mut v: Vec<usize> = (0..20).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 20-element shuffle staying sorted is ~1e-18");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let _ = rng.random_range(5..5usize);
    }
}
