//! Log-bucketed latency histograms.

/// A latency histogram with power-of-two nanosecond buckets.
///
/// Bucket `i` counts durations in `[2^i, 2^(i+1))` nanoseconds (bucket 0
/// also absorbs 0 ns). 64 buckets cover every representable `u64`
/// duration, so recording never saturates or drops; memory is a flat
/// 64-entry array regardless of how many spans are recorded. Quantiles are
/// answered to within a factor of two — ample for "which stage dominates"
/// questions — while count/sum/min/max are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
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
        Self { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Index of the bucket holding `nanos`.
    fn bucket_of(nanos: u64) -> usize {
        (63 - nanos.max(1).leading_zeros()) as usize
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

    /// Approximate `q`-quantile (`0.0..=1.0`): the geometric midpoint of
    /// the first bucket whose cumulative count reaches `q * count`.
    /// Accurate to within a factor of two by construction.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = 1u64 << i;
                let hi = lo.saturating_mul(2).saturating_sub(1);
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
    fn buckets_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 1);
        assert_eq!(LatencyHistogram::bucket_of(4), 2);
        assert_eq!(LatencyHistogram::bucket_of(1023), 9);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 63);
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
    fn quantiles_are_within_a_factor_of_two() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        let p50 = h.quantile_nanos(0.5);
        assert!((64..=128).contains(&p50), "p50 {p50}");
        let p999 = h.quantile_nanos(0.999);
        assert!(p999 >= 65_536, "p999 {p999}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::new();
        a.record(5);
        let mut b = LatencyHistogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_nanos(), 5);
        assert_eq!(a.max_nanos(), 500);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_nanos(0.5), 0);
        assert_eq!(h.min_nanos(), 0);
        assert_eq!(h.mean_nanos(), 0.0);
    }
}
