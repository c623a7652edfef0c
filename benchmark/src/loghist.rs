//! Log-linear latency histogram: 32 equal sub-buckets per octave, so a
//! percentile is located to within 1/32 of its value (and interpolated
//! inside the bucket). The library's `mp_util::Histogram` has one bucket per
//! power of two, which quantises a p99 to a factor of two and cannot repeat
//! within a tenth.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `2·SUB` get one bucket each; above, each octave gets `SUB`.
const BUCKETS: usize = ((65 - SUB_BITS) as u64 * SUB) as usize;

#[derive(Clone)]
pub struct LogHist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    (shift as u64 * SUB + (v >> shift)) as usize
}

/// `(lowest value, width)` of bucket `i`.
fn bucket_span(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    (((i & (SUB - 1)) + SUB) << shift, 1 << shift)
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl LogHist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value below which a share `q` of the samples fall, interpolated
    /// linearly inside the bucket that holds it; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = bucket_span(i);
                return lo as f64 + width as f64 * ((rank - below as f64) / c as f64);
            }
            below += c;
        }
        unreachable!("rank never exceeds the total count")
    }

    /// How many samples lie beyond quantile `q`: the evidence that the
    /// percentile is not the maximum in disguise.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        (self.total as f64 * (1.0 - q)).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Rng;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_span(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + (width - 1)), i);
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_error_is_within_a_sixteenth() {
        // Log-uniform samples over six decades, checked against the exact
        // order statistic.
        let mut rng = Rng::new(1, &[]);
        let mut h = LogHist::default();
        let mut exact = Vec::new();
        for _ in 0..200_000 {
            let v = 10f64.powf(1.0 + 6.0 * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
            let v = v as u64;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = exact[((q * exact.len() as f64) as usize).min(exact.len() - 1)] as f64;
            let got = h.quantile(q);
            assert!(
                ((got - want) / want).abs() <= 1.0 / 16.0,
                "q{q}: histogram {got} vs exact {want}"
            );
        }
        assert_eq!(h.count(), 200_000);
        assert_eq!(h.samples_beyond(0.99), 2_000);
    }

    #[test]
    fn small_values_are_exact_and_merge_adds() {
        let mut a = LogHist::default();
        let mut b = LogHist::default();
        for v in 0..50 {
            a.record(v);
            b.record(v + 50);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!((a.quantile(0.5) - 50.0).abs() <= 1.0);
        assert_eq!(LogHist::default().quantile(0.99), 0.0);
    }
}
