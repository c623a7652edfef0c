//! Deterministic pseudorandom number generation.
//!
//! A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) seeder expanding a
//! single `u64` into the 256-bit state of a
//! [xoshiro256++](https://prng.di.unimi.it/xoshiro256plusplus.c) core —
//! Blackman & Vigna's all-purpose generator (64-bit output, 2^256 − 1
//! period, passes BigCrush). The API mirrors the subset of the `rand`
//! crate's surface this workspace uses (`random_range`, `seed_from_u64`,
//! a [`SmallRng`] alias, a [`rng()`] convenience constructor) so workload
//! generators and tests read idiomatically without the external crate.
//!
//! # Non-cryptographic, bench/test-only
//!
//! These generators are **not cryptographically secure** and must never be
//! used for keys, tokens, or anything security-sensitive. They exist to
//! drive benchmark workloads and randomized tests deterministically: given
//! the same seed, every platform produces the same stream (pure integer
//! arithmetic, no platform entropy), which is what makes benchmark runs
//! and model-checker failures replayable.

use core::ops::Range;
use core::sync::atomic::{AtomicU64, Ordering};

/// A source of uniformly distributed 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The SplitMix64 generator: a tiny, fast, equidistributed PRNG whose main
/// job here is expanding one `u64` seed into xoshiro's 256-bit state (the
/// usage its authors recommend). Also usable on its own for cheap
/// low-stakes randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 generator from a raw state word.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The xoshiro256++ generator (Blackman & Vigna 2019).
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl SeedableRng for Xoshiro256pp {
    /// Expands `seed` through SplitMix64 into the four state words, per the
    /// reference implementation's seeding recommendation. The state cannot
    /// end up all-zero: SplitMix64 is a bijection composed with a
    /// equidistributed counter, so four consecutive outputs are never all 0.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }
}

impl RngCore for Xoshiro256pp {
    #[inline]
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

/// The workspace's default small generator (xoshiro256++), named after the
/// `rand` type it replaces so call sites read identically.
pub type SmallRng = Xoshiro256pp;

/// Returns a fresh generator with a process-unique seed — the in-tree
/// stand-in for `rand::rng()`. Streams differ between calls (and thus
/// between threads), which is what concurrent stress tests need; they are
/// *not* securely unpredictable.
pub fn rng() -> SmallRng {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    // Fold in the monotonic clock so separate test processes diverge too.
    let t = std::time::SystemTime::UNIX_EPOCH
        .elapsed()
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    SmallRng::seed_from_u64(n.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t)
}

/// Integer types drawable uniformly from a `Range` by [`RngExt::random_range`].
pub trait UniformInt: Copy {
    /// Draws uniformly from `range`. Panics if the range is empty.
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Draws uniformly from `[0, span)` using Lemire's multiply-shift method
/// with rejection (unbiased). `span` must be nonzero.
#[inline]
fn sample_span<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut m = (rng.next_u64() as u128) * (span as u128);
    let mut lo = m as u64;
    if lo < span {
        // Threshold = 2^64 mod span; rejecting below it removes the bias.
        let threshold = span.wrapping_neg() % span;
        while lo < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample from empty range");
                let span = (range.end as u64) - (range.start as u64);
                range.start + sample_span(rng, span) as $t
            }
        }
    )*};
}

macro_rules! uniform_signed {
    ($($t:ty as $u:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample from empty range");
                // Map to unsigned offsets so the span arithmetic cannot
                // overflow, then shift back.
                let span = (range.end as $u).wrapping_sub(range.start as $u) as u64;
                (range.start as $u).wrapping_add(sample_span(rng, span) as $u) as $t
            }
        }
    )*};
}

uniform_unsigned!(u8, u16, u32, u64, usize);
uniform_signed!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait RngExt: RngCore {
    /// Draws a uniform integer from `range` (half-open). Unbiased; panics
    /// on an empty range.
    #[inline]
    fn random_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        // 53 bits of mantissa → uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden streams: xoshiro256++ and SplitMix64 are pure integer
    /// arithmetic, so these values must be identical on every platform and
    /// toolchain. Guards the generators against accidental drift (which
    /// would silently invalidate recorded bench seeds and checker repros).
    #[test]
    fn splitmix64_golden_stream() {
        let mut sm = SplitMix64::seed_from_u64(0);
        // First outputs of splitmix64(seed=0), per the reference C code.
        assert_eq!(sm.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(sm.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(sm.next_u64(), 0x06c45d188009454f);
    }

    /// First outputs of xoshiro256++ seeded through SplitMix64 with 42, as
    /// literals: a change to the generator or its seeding fails here.
    #[test]
    fn xoshiro_deterministic_per_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs[..2], [0xd076_4d4f_4476_689f, 0x519e_4174_576f_3791]);
        assert_eq!(xs[2..], [0xfbe0_7cfb_0c24_ed8c, 0xb37d_9f60_0cd8_35b8]);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let w: i32 = r.random_range(-5..5);
            assert!((-5..5).contains(&w));
            let b: u8 = r.random_range(0..3);
            assert!(b < 3);
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(99);
        let mut counts = [0u32; 10];
        const N: u32 = 100_000;
        for _ in 0..N {
            counts[r.random_range(0usize..10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / N as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket {i}: {frac}");
        }
    }

    #[test]
    fn full_width_signed_range() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.random_range(i64::MIN..i64::MAX);
            // Just exercising the wrapping arithmetic: must not panic.
            let _ = v;
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SmallRng::seed_from_u64(1);
        let _ = r.random_range(5u32..5);
    }

    #[test]
    fn random_bool_probability() {
        let mut r = SmallRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.random_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn process_rng_streams_differ() {
        let mut a = rng();
        let mut b = rng();
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys, "counter-mixed seeds must differ between calls");
    }
}
