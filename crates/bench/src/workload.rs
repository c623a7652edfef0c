//! Workload mixes and key generation (§6 "Workloads").

use mp_util::{RngExt, SeedableRng, SmallRng};

/// An operation mix in percent. Probabilities must sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// `contains` percentage.
    pub contains: u8,
    /// `insert` percentage.
    pub insert: u8,
    /// `remove` percentage.
    pub remove: u8,
    /// Display name ("read-dominated", …).
    pub name: &'static str,
}

/// 90% contains / 5% insert / 5% remove.
pub const READ_DOMINATED: Mix =
    Mix { contains: 90, insert: 5, remove: 5, name: "read-dominated" };
/// 50% insert / 50% remove (keeps size roughly constant).
pub const WRITE_DOMINATED: Mix =
    Mix { contains: 0, insert: 50, remove: 50, name: "write-dominated" };
/// 100% contains.
pub const READ_ONLY: Mix = Mix { contains: 100, insert: 0, remove: 0, name: "read-only" };

/// A set operation: what a [`Mix`] draws, a [`churn`](crate::churn) plan
/// holds and a [`linearize`](crate::linearize) history records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Membership query.
    Contains,
    /// Insertion.
    Insert,
    /// Removal.
    Remove,
}

impl Mix {
    /// Validates the mix sums to 100%.
    pub fn check(&self) {
        assert_eq!(
            self.contains as u32 + self.insert as u32 + self.remove as u32,
            100,
            "mix must sum to 100%"
        );
    }

    /// Draws an operation according to the mix.
    #[inline]
    pub fn draw<R: RngExt>(&self, rng: &mut R) -> Op {
        let p: u8 = rng.random_range(0..100);
        if p < self.contains {
            Op::Contains
        } else if p < self.contains + self.insert {
            Op::Insert
        } else {
            Op::Remove
        }
    }
}

/// Deterministic per-thread RNG (reproducible runs given the same seed).
pub fn thread_rng(seed: u64, tid: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Draws a uniform key from `[0, range)`.
#[inline]
pub fn draw_key<R: RngExt>(rng: &mut R, range: u64) -> u64 {
    rng.random_range(0..range)
}

/// How keys are drawn from the key range: the figures keep §6's uniform
/// draw, the soak skews it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over the whole range (§6 default).
    Uniform,
    /// Zipfian with the given exponent (YCSB's skewed default is 0.99),
    /// ranks scrambled over the range so the hot keys scatter instead of
    /// clustering at the front of a sorted structure.
    Zipfian(f64),
}

/// A uniform double in `[0, 1)` from the generator's next 64 bits.
#[inline]
fn unit_f64<R: RngExt>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64 finalizer — scrambles Zipfian ranks across the key range.
#[inline]
fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A prepared key sampler for one `(KeyDist, range)` pair. Construction
/// precomputes the Zipfian constants; every draw is then O(1) expected
/// with no rank table (rejection inversion, Hörmann & Derflinger 1996).
#[derive(Debug, Clone)]
pub struct KeySampler {
    range: u64,
    kind: SamplerKind,
}

#[derive(Debug, Clone)]
enum SamplerKind {
    Uniform,
    Zipf {
        theta: f64,
        h_x1: f64,
        h_range: f64,
        s: f64,
    },
}

impl KeySampler {
    /// Prepares a sampler over `[0, range)`.
    pub fn new(dist: KeyDist, range: u64) -> KeySampler {
        let range = range.max(1);
        let kind = match dist {
            KeyDist::Uniform => SamplerKind::Uniform,
            KeyDist::Zipfian(theta) => {
                assert!(theta > 0.0, "Zipfian exponent must be positive");
                let h_x1 = h_integral(1.5, theta) - 1.0;
                let h_range = h_integral(range as f64 + 0.5, theta);
                let s = 2.0 - h_integral_inv(h_integral(2.5, theta) - 2f64.powf(-theta), theta);
                SamplerKind::Zipf { theta, h_x1, h_range, s }
            }
        };
        KeySampler { range, kind }
    }

    /// Draws one key from `[0, range)`.
    pub fn draw<R: RngExt>(&self, rng: &mut R) -> u64 {
        match self.kind {
            SamplerKind::Uniform => draw_key(rng, self.range),
            SamplerKind::Zipf { theta, h_x1, h_range, s } => {
                let rank = loop {
                    let u = h_range + unit_f64(rng) * (h_x1 - h_range);
                    let x = h_integral_inv(u, theta);
                    let k = x.round().clamp(1.0, self.range as f64);
                    if k - x <= s || u >= h_integral(k + 0.5, theta) - k.powf(-theta) {
                        break k as u64;
                    }
                };
                // Rank 1 is the hottest; scatter ranks over the range so
                // skew does not alias with structure order.
                scramble(rank) % self.range
            }
        }
    }
}

/// `H(x) = ∫ t^-θ dt`, the Zipf tail integral used by rejection inversion.
fn h_integral(x: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-9 {
        x.ln()
    } else {
        (x.powf(1.0 - theta) - 1.0) / (1.0 - theta)
    }
}

/// Inverse of [`h_integral`].
fn h_integral_inv(y: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-9 {
        y.exp()
    } else {
        (1.0 + (1.0 - theta) * y).max(0.0).powf(1.0 / (1.0 - theta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_sum_to_100() {
        READ_DOMINATED.check();
        WRITE_DOMINATED.check();
        READ_ONLY.check();
    }

    #[test]
    fn draw_respects_mix() {
        let mut rng = thread_rng(42, 0);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            match READ_DOMINATED.draw(&mut rng) {
                Op::Contains => counts[0] += 1,
                Op::Insert => counts[1] += 1,
                Op::Remove => counts[2] += 1,
            }
        }
        let contains_frac = counts[0] as f64 / 20_000.0;
        assert!((contains_frac - 0.9).abs() < 0.02, "got {contains_frac}");
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn read_only_never_mutates() {
        let mut rng = thread_rng(7, 3);
        for _ in 0..1000 {
            assert_eq!(READ_ONLY.draw(&mut rng), Op::Contains);
        }
    }

    #[test]
    fn zipfian_concentrates_mass_on_few_keys() {
        let sampler = KeySampler::new(KeyDist::Zipfian(0.99), 10_000);
        let mut rng = thread_rng(11, 0);
        let mut counts = std::collections::HashMap::new();
        const N: usize = 50_000;
        for _ in 0..N {
            *counts.entry(sampler.draw(&mut rng)).or_insert(0usize) += 1;
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = freq.iter().take(10).sum();
        // θ=0.99 over 10 K keys: the 10 hottest ranks carry ~30% of draws
        // (a uniform draw would give them 0.1%); assert well clear of
        // uniform but below the theoretical mass.
        assert!(
            top10 as f64 / N as f64 > 0.25,
            "top-10 mass {:.3} not Zipf-concentrated",
            top10 as f64 / N as f64
        );
        for &k in counts.keys() {
            assert!(k < 10_000, "key {k} outside range");
        }
    }

    #[test]
    fn samplers_stay_in_range_and_are_deterministic() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian(0.99),
            KeyDist::Zipfian(1.0), // θ=1 exercises the log branch
        ] {
            let sampler = KeySampler::new(dist, 777);
            let mut a = thread_rng(5, 2);
            let mut b = thread_rng(5, 2);
            for _ in 0..2_000 {
                let x = sampler.draw(&mut a);
                assert!(x < 777, "{dist:?} drew {x} out of range");
                assert_eq!(x, sampler.draw(&mut b), "{dist:?} not deterministic");
            }
        }
        // The uniform arm *is* `draw_key`: the figure benches' recorded
        // seeds name the same key streams they did before the driver took
        // a sampler.
        let sampler = KeySampler::new(KeyDist::Uniform, 777);
        let (mut a, mut b) = (thread_rng(5, 2), thread_rng(5, 2));
        for _ in 0..2_000 {
            assert_eq!(sampler.draw(&mut a), draw_key(&mut b, 777));
        }
    }

    #[test]
    fn rngs_are_deterministic_and_distinct() {
        let mut a1 = thread_rng(1, 0);
        let mut a2 = thread_rng(1, 0);
        let mut b = thread_rng(1, 1);
        let xs: Vec<u64> = (0..8).map(|_| draw_key(&mut a1, 1000)).collect();
        let ys: Vec<u64> = (0..8).map(|_| draw_key(&mut a2, 1000)).collect();
        let zs: Vec<u64> = (0..8).map(|_| draw_key(&mut b, 1000)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
