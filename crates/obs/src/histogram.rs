//! Log-linear latency histograms.

/// Sub-buckets per power of two, as a power of two: each octave
/// `[2^k, 2^(k+1))` is split into `2^SUB_BITS` equal-width buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Buckets covering every `u64`: values below `2 * SUB` get one bucket
/// each, then each of the `63 - SUB_BITS` octaves from `2^(SUB_BITS + 1)`
/// up to `2^63` adds `SUB`.
const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// A latency histogram with log-linear nanosecond buckets, as HDR
/// histograms use.
///
/// Durations below 32 ns get one bucket each; above that, every
/// power-of-two octave `[2^k, 2^(k+1))` is split into 16 equal-width
/// buckets, so a bucket is never wider than 1/16 of its lower bound. 976
/// buckets cover every representable `u64` duration, so recording never
/// saturates or drops, memory is a flat array regardless of how many spans
/// are recorded, and [`LatencyHistogram::merge`] is exact. Quantiles are
/// answered to within 1/16 (relative) of the exact sample quantile, while
/// count/sum/min/max are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Index of the bucket holding `nanos`.
    fn bucket_of(nanos: u64) -> usize {
        if nanos < 2 * SUB as u64 {
            return nanos as usize;
        }
        // `nanos >> shift` keeps the leading bit and the next SUB_BITS
        // bits: a value in [SUB, 2 * SUB) whose low bits pick the
        // sub-bucket within the octave; each octave up shifts one more bit
        // and starts SUB buckets later.
        let shift = 63 - nanos.leading_zeros() - SUB_BITS;
        shift as usize * SUB + (nanos >> shift) as usize
    }

    /// The inclusive range `[lo, hi]` of durations bucket `i` holds.
    fn bucket_range(i: usize) -> (u64, u64) {
        if i < 2 * SUB {
            return (i as u64, i as u64);
        }
        let shift = (i / SUB - 1) as u32;
        let lo = ((SUB + i % SUB) as u64) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }

    /// Records one duration.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded duration; 0 when empty.
    pub fn min_nanos(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded duration.
    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// Mean duration in nanoseconds; 0 when empty.
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the midpoint of the first
    /// bucket whose cumulative count reaches `q * count`. A bucket is at
    /// most 1/16 of its lower bound wide, so the answer is within 1/16
    /// (relative) of the exact sample quantile.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::bucket_range(i);
                // Clamp the representative into the observed range so tiny
                // histograms answer sensibly.
                return (lo + (hi - lo) / 2).clamp(self.min_nanos(), self.max_nanos());
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_split_each_octave_into_sixteen() {
        // Exact below 32 ns, then 16 buckets per power of two.
        for v in 0..32 {
            assert_eq!(LatencyHistogram::bucket_of(v), v as usize);
        }
        assert_eq!(LatencyHistogram::bucket_of(32), 32);
        assert_eq!(LatencyHistogram::bucket_of(33), 32);
        assert_eq!(LatencyHistogram::bucket_of(34), 33);
        assert_eq!(LatencyHistogram::bucket_of(63), 47);
        assert_eq!(LatencyHistogram::bucket_of(64), 48);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
        // Buckets tile the whole range: each starts one past the previous
        // one's end, and every bound maps back to its own bucket.
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = LatencyHistogram::bucket_range(i);
            assert_eq!(lo, next, "bucket {i}");
            assert!(hi - lo <= lo / 16, "bucket {i} = [{lo}, {hi}] wider than 1/16");
            assert_eq!(LatencyHistogram::bucket_of(lo), i);
            assert_eq!(LatencyHistogram::bucket_of(hi), i);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn exact_stats_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10, 20, 30, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_nanos(), 1060);
        assert_eq!(h.min_nanos(), 10);
        assert_eq!(h.max_nanos(), 1000);
        assert!((h.mean_nanos() - 265.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_within_a_sixteenth_at_every_magnitude() {
        for magnitude in [1_000u64, 37_000, 5_000_000, 3_000_000_000] {
            // 1000 values spread over [m, 2m) in a scrambled order.
            let mut values: Vec<u64> =
                (0..1000u64).map(|k| magnitude + (k * 7919) % magnitude).collect();
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            for q in [0.1, 0.5, 0.9, 0.99] {
                let rank = (q * values.len() as f64).ceil() as usize;
                let exact = values[rank - 1] as f64;
                let got = h.quantile_nanos(q) as f64;
                assert!(
                    (got - exact).abs() <= exact / 16.0,
                    "m={magnitude} q={q}: got {got}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn merge_accumulates() {
        // Merging is exact: the same as recording every value into one.
        let (mut a, mut b, mut both) =
            (LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new());
        for v in (0..500u64).map(|k| k * k * 31 + 5) {
            if v % 3 == 0 { &mut a } else { &mut b }.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 500);
        assert_eq!(a.min_nanos(), 5);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_nanos(0.5), 0);
        assert_eq!(h.min_nanos(), 0);
        assert_eq!(h.mean_nanos(), 0.0);
    }
}
