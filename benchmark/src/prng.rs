//! The benchmark's own PRNG. The library under test never sees a seed — only
//! the keys drawn here — so a library change cannot alter the inputs.
//!
//! SplitMix64 expands `(seed, stream labels)` into the 256-bit state of a
//! xoshiro256++ core (Blackman & Vigna). Pure integer arithmetic: the same
//! seed gives the same stream on every platform.

/// One SplitMix64 step: advances `state` and returns the mixed output.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A stream that is a pure function of `seed` and the `labels` naming it
    /// (workload, repetition, worker, …): distinct labels give independent
    /// streams under one seed.
    pub fn new(seed: u64, labels: &[u64]) -> Rng {
        let mut st = seed;
        for &l in labels {
            // Fold each label through the mixer so (1, 2) and (2, 1) differ.
            st = splitmix(&mut st) ^ l.wrapping_mul(0xd6e8_feb8_6659_fd93);
        }
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix(&mut st);
        }
        Rng { s }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform integer in `[0, n)` by multiply-shift (bias < n / 2^64).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// FNV-1a of a name, for use as a stream label.
pub fn label(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, labels: &[u64], n: usize) -> Vec<u64> {
        let mut r = Rng::new(seed, labels);
        (0..n).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        assert_eq!(take(42, &[1, 2], 256), take(42, &[1, 2], 256));
        assert_ne!(take(42, &[1, 2], 256), take(43, &[1, 2], 256));
        assert_ne!(take(42, &[1, 2], 256), take(42, &[2, 1], 256));
        assert_ne!(take(42, &[], 256), take(42, &[0], 256));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(7, &[]);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
