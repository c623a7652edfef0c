//! Log-bucketed (HDR-style) latency histogram.
//!
//! Sixty-four power-of-two buckets cover the full `u64` range: bucket 0
//! holds the value 0, and bucket `i ≥ 1` holds values in
//! `[2^(i-1), 2^i - 1]` — i.e. `bucket(v) = 64 - v.leading_zeros()`. That
//! gives ≤ 2× relative error per bucket, which is the right resolution for
//! latency distributions spanning nanoseconds to seconds, at a fixed
//! 64-word footprint with no heap allocation (the telemetry layer embeds
//! one per handle and the zero-allocation hot-path witness must keep
//! passing).
//!
//! Histograms are plain per-thread values, merged after threads join —
//! the same aggregation model as `mp-smr`'s `TelemetrySnapshot::merge`.
//! All accumulation saturates, so a soak run can never wrap a counter
//! into a nonsense distribution.

/// Number of buckets; covers all of `u64`.
pub const BUCKETS: usize = 64;

/// A mergeable power-of-two-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

/// Bucket index for a sample: 0 for 0, otherwise `floor(log2(v)) + 1`,
/// clamped so the top bucket absorbs `[2^62, u64::MAX]`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket,
/// which absorbs everything at and above `2^62`).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    debug_assert!(i < BUCKETS);
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] = self.buckets[bucket_of(v)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` into `self` (saturating).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Clears every bucket and counter.
    pub fn reset(&mut self) {
        *self = Histogram::default();
    }

    /// Total samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    #[inline]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), i.e. the value `v` such that at least
    /// `q · count` samples are ≤ `v`, rounded up to a bucket boundary.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Checker;
    use crate::rng::{RngCore, RngExt};

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1u64 << 62), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1, "top bucket clamps");
        // Every bucket's bound round-trips: bucket_of(bound(i)) == i.
        for i in 1..BUCKETS {
            assert_eq!(bucket_of(bucket_bound(i)), i, "bound of bucket {i}");
        }
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(63), u64::MAX);
    }

    #[test]
    fn record_accumulates_and_quantiles_bracket() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 5, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1107);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 184.5).abs() < 1e-9);
        // p50 of {0,1,1,5,100,1000}: third sample = 1; bucket bound is 1.
        assert_eq!(h.quantile(0.5), 1);
        // p100 is capped at the true max, not the bucket bound.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.9), 0);
    }

    #[test]
    fn merge_is_saturating() {
        let mut a = Histogram::new();
        a.record(u64::MAX);
        let mut b = a.clone();
        b.sum = u64::MAX; // pre-saturated sum
        a.merge(&b);
        assert_eq!(a.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), u64::MAX);
    }

    /// Property (Checker-seeded, replayable via MP_CHECK_SEED): splitting a
    /// sample stream arbitrarily across sub-histograms recorded on separate
    /// threads and merging concurrently is equivalent to recording the whole
    /// stream sequentially — merge is a faithful, order-independent
    /// aggregation. This is the soundness condition the telemetry layer
    /// relies on when it merges per-handle histograms after a run.
    #[test]
    fn concurrent_merge_matches_sequential_reference() {
        Checker::new().cases(64).run(
            "hist_concurrent_merge",
            |rng| {
                let n = rng.random_range(0..500usize);
                (0..n)
                    .map(|_| {
                        // Mix magnitudes so many distinct buckets are hit.
                        let shift = rng.random_range(0..64u32);
                        rng.next_u64() >> shift
                    })
                    .collect::<Vec<u64>>()
            },
            |samples| {
                let mut reference = Histogram::new();
                for &v in samples {
                    reference.record(v);
                }

                // Partition round-robin across 4 recorder threads.
                const THREADS: usize = 4;
                let parts: Vec<Vec<u64>> = (0..THREADS)
                    .map(|t| {
                        samples
                            .iter()
                            .copied()
                            .skip(t)
                            .step_by(THREADS)
                            .collect()
                    })
                    .collect();
                let merged = std::thread::scope(|s| {
                    let handles: Vec<_> = parts
                        .iter()
                        .map(|part| {
                            s.spawn(move || {
                                let mut h = Histogram::new();
                                for &v in part {
                                    h.record(v);
                                }
                                h
                            })
                        })
                        .collect();
                    let mut acc = Histogram::new();
                    for h in handles {
                        acc.merge(&h.join().unwrap());
                    }
                    acc
                });

                assert_eq!(merged, reference, "merge must equal sequential recording");
                assert_eq!(
                    merged.count() as usize,
                    samples.len(),
                    "no sample lost or duplicated"
                );
            },
        );
    }
}
