//! Online statistics used throughout FiCSUM.
//!
//! Everything here is single-pass, constant-space, as required by the paper's
//! online setting (Section III-A: "this distribution is required to be
//! calculated online in one pass, in constant time and space").

/// Welford's online mean / variance accumulator.
///
/// Tracks count, mean and (population) standard deviation of a sequence of
/// real values in O(1) time and space per update. This is the
/// `(mu, sigma, count)` triple the paper stores per meta-information feature
/// in a concept fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporates one value.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }

    /// Number of values seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; 0 when fewer than two values were seen.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Resets to empty. Used by fingerprint plasticity events (Section IV).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Incremental central moments up to order four, with exact removal.
///
/// Extends Welford's recurrence to the third and fourth central moment sums
/// (Pébay's one-pass update), and — crucially for sliding windows — supports
/// *downdating*: removing a previously-pushed value in O(1) by running the
/// update in reverse. This lets mean / standard deviation / skew / kurtosis
/// of a window be maintained in O(1) per observation instead of O(w) per
/// fingerprint.
///
/// The accessors apply exactly the same degenerate-input gates as the batch
/// meta-functions in `ficsum-meta` (too-few observations or near-zero
/// variance return 0), so a freshly rebuilt accumulator and the batch path
/// agree to floating-point accumulation error.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    count: u64,
    mean: f64,
    /// Unnormalised central moment sums: `Σ (x - mean)^k`.
    m2: f64,
    m3: f64,
    m4: f64,
}

impl Moments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporates one value (Pébay's update; `m3`/`m4` use the
    /// pre-update lower moments).
    pub fn push(&mut self, x: f64) {
        let n0 = self.count as f64;
        self.count += 1;
        let n = n0 + 1.0;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n0;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Removes a previously-pushed value by inverting the update. The lower
    /// moments must be recovered first (`m2` before `m3` before `m4`) since
    /// each higher-order reversal needs the *old* lower moments.
    ///
    /// Panics when empty. Removing a value that was never pushed silently
    /// corrupts the accumulator, as with any downdating scheme.
    pub fn remove(&mut self, x: f64) {
        assert!(self.count > 0, "cannot remove from an empty Moments");
        if self.count == 1 {
            *self = Self::default();
            return;
        }
        let n = self.count as f64;
        let n0 = n - 1.0;
        let mean_old = (n * self.mean - x) / n0;
        let delta = x - mean_old;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n0;
        let m2_old = self.m2 - term1;
        let m3_old = self.m3 - term1 * delta_n * (n - 2.0) + 3.0 * delta_n * m2_old;
        let m4_old = self.m4
            - term1 * delta_n2 * (n * n - 3.0 * n + 3.0)
            - 6.0 * delta_n2 * m2_old
            + 4.0 * delta_n * m3_old;
        self.count -= 1;
        self.mean = mean_old;
        self.m2 = m2_old;
        self.m3 = m3_old;
        self.m4 = m4_old;
    }

    /// Number of values currently represented.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean; 0 when empty (matching the batch `mean` of an empty slice).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation; 0 with fewer than two values.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        (self.m2.max(0.0) / self.count as f64).sqrt()
    }

    /// Unnormalised second central moment `Σ (x - mean)²` — the raw sum the
    /// batch autocorrelation uses as its denominator. Exposed ungated so
    /// incremental substitutions can apply the batch functions' own gates.
    pub fn sum_sq_dev(&self) -> f64 {
        self.m2
    }

    /// Standardised skewness `m3 / m2^1.5` (population central moments);
    /// 0 with fewer than three values or near-zero variance.
    pub fn skewness(&self) -> f64 {
        if self.count < 3 {
            return 0.0;
        }
        let n = self.count as f64;
        let m2 = self.m2 / n;
        if m2 <= f64::EPSILON {
            return 0.0;
        }
        (self.m3 / n) / m2.powf(1.5)
    }

    /// Excess kurtosis `m4 / m2^2 - 3`; 0 with fewer than four values or
    /// near-zero variance.
    pub fn kurtosis(&self) -> f64 {
        if self.count < 4 {
            return 0.0;
        }
        let n = self.count as f64;
        let m2 = self.m2 / n;
        if m2 <= f64::EPSILON {
            return 0.0;
        }
        (self.m4 / n) / (m2 * m2) - 3.0
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Exponentially-weighted mean / variance accumulator.
///
/// Tracks the *recent* distribution of a sequence: each update moves the
/// mean by `alpha * (x - mean)` and decays the variance accordingly
/// (effective memory ~ `1/alpha` samples). FiCSUM uses this for the
/// recorded similarity distribution `(mu_c, sigma_c)` — "normal variation in
/// stationary conditions" — which must forget the classifier's training
/// transient rather than average over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwStats {
    alpha: f64,
    mean: f64,
    var: f64,
    count: u64,
}

impl EwStats {
    /// Accumulator with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, mean: 0.0, var: 0.0, count: 0 }
    }

    /// Incorporates one value. The first value initialises the mean.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.count == 1 {
            self.mean = x;
            self.var = 0.0;
            return;
        }
        let diff = x - self.mean;
        let incr = self.alpha * diff;
        self.mean += incr;
        self.var = (1.0 - self.alpha) * (self.var + diff * incr);
    }

    /// Exponentially-weighted mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Exponentially-weighted variance.
    pub fn variance(&self) -> f64 {
        self.var.max(0.0)
    }

    /// Exponentially-weighted standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Values seen since construction/reset.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Resets to empty, keeping `alpha`.
    pub fn reset(&mut self) {
        *self = Self::new(self.alpha);
    }
}

impl Default for EwStats {
    fn default() -> Self {
        Self::new(0.05)
    }
}

/// Online min–max scaler mapping each observed value into `[0, 1]`.
///
/// The paper scales "the observed range of each meta-information feature ...
/// to the range \[0,1\]" (Section III-A). The range is learned online: the
/// scaler widens as new extreme values arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMaxScaler {
    min: f64,
    max: f64,
    seen: bool,
}

impl Default for MinMaxScaler {
    fn default() -> Self {
        Self { min: f64::INFINITY, max: f64::NEG_INFINITY, seen: false }
    }
}

impl MinMaxScaler {
    /// New scaler with no observed range.
    pub fn new() -> Self {
        Self::default()
    }

    /// Widens the observed range to include `v`. Non-finite values are
    /// ignored so a single degenerate meta-feature cannot poison the range.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.seen = true;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Scales `v` into `[0, 1]` using the observed range, clamping values
    /// outside it. Returns 0.5 when no range has been observed or the range
    /// is degenerate (min == max), which keeps constant features neutral.
    pub fn scale(&self, v: f64) -> f64 {
        if !self.seen || !v.is_finite() {
            return 0.5;
        }
        let span = self.max - self.min;
        if span <= f64::EPSILON {
            return 0.5;
        }
        ((v - self.min) / span).clamp(0.0, 1.0)
    }

    /// Observes then scales in one call.
    pub fn observe_and_scale(&mut self, v: f64) -> f64 {
        self.observe(v);
        self.scale(v)
    }

    /// Observed minimum (`NaN`-free); `None` before any observation.
    pub fn min(&self) -> Option<f64> {
        self.seen.then_some(self.min)
    }

    /// Observed maximum; `None` before any observation.
    pub fn max(&self) -> Option<f64> {
        self.seen.then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        for v in data {
            s.push(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let (a, b) = ([1.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0]);
        let mut s1 = RunningStats::new();
        let mut s2 = RunningStats::new();
        let mut all = RunningStats::new();
        for v in a {
            s1.push(v);
            all.push(v);
        }
        for v in b {
            s2.push(v);
            all.push(v);
        }
        s1.merge(&s2);
        assert_eq!(s1.count(), all.count());
        assert!((s1.mean() - all.mean()).abs() < 1e-12);
        assert!((s1.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = RunningStats::new();
        s.push(3.0);
        s.merge(&RunningStats::new());
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn variance_of_single_value_is_zero() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn ew_stats_track_recent_level() {
        let mut s = EwStats::new(0.1);
        for _ in 0..200 {
            s.push(1.0);
        }
        assert!((s.mean() - 1.0).abs() < 1e-9);
        assert!(s.std_dev() < 1e-6);
        // Shift the level: the mean follows within ~3/alpha samples.
        for _ in 0..60 {
            s.push(5.0);
        }
        assert!((s.mean() - 5.0).abs() < 0.05, "mean {} should track", s.mean());
    }

    #[test]
    fn ew_stats_forget_the_transient() {
        // A noisy start followed by a tight regime: cumulative stats would
        // keep a large sigma forever; EW stats shed it.
        let mut ew = EwStats::new(0.05);
        let mut cum = RunningStats::new();
        for i in 0..30 {
            let v = if i % 2 == 0 { 0.5 } else { 1.5 };
            ew.push(v);
            cum.push(v);
        }
        for _ in 0..300 {
            ew.push(1.0);
            cum.push(1.0);
        }
        assert!(ew.std_dev() < 0.05, "EW sigma {} should forget", ew.std_dev());
        assert!(cum.std_dev() > 0.1, "control: cumulative sigma keeps the transient");
    }

    #[test]
    fn ew_stats_first_value_initialises() {
        let mut s = EwStats::new(0.2);
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 1);
        s.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ew_stats_rejects_bad_alpha() {
        let _ = EwStats::new(0.0);
    }

    /// Batch central-moment reference mirroring `ficsum-meta`'s functions.
    fn batch_moments(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len();
        if n == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let cm = |k: i32| xs.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n as f64;
        let (m2, m3, m4) = (cm(2), cm(3), cm(4));
        let sd = if n < 2 { 0.0 } else { m2.sqrt() };
        let skew = if n < 3 || m2 <= f64::EPSILON { 0.0 } else { m3 / m2.powf(1.5) };
        let kurt = if n < 4 || m2 <= f64::EPSILON { 0.0 } else { m4 / (m2 * m2) - 3.0 };
        (mean, sd, skew, kurt)
    }

    #[test]
    fn moments_push_matches_batch() {
        let data = [2.0, -4.0, 4.5, 4.0, 5.0, -5.0, 7.0, 9.25, 0.5, 1.0];
        let mut m = Moments::new();
        for (i, &v) in data.iter().enumerate() {
            m.push(v);
            let (mean, sd, skew, kurt) = batch_moments(&data[..=i]);
            assert!((m.mean() - mean).abs() < 1e-12);
            assert!((m.std_dev() - sd).abs() < 1e-12);
            assert!((m.skewness() - skew).abs() < 1e-10, "skew at {i}");
            assert!((m.kurtosis() - kurt).abs() < 1e-10, "kurt at {i}");
        }
    }

    #[test]
    fn moments_remove_inverts_push() {
        let mut m = Moments::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            m.push(v);
        }
        let snapshot = m;
        m.push(99.0);
        m.remove(99.0);
        assert_eq!(m.count(), snapshot.count());
        assert!((m.mean() - snapshot.mean()).abs() < 1e-12);
        assert!((m.std_dev() - snapshot.std_dev()).abs() < 1e-12);
        assert!((m.skewness() - snapshot.skewness()).abs() < 1e-10);
        assert!((m.kurtosis() - snapshot.kurtosis()).abs() < 1e-10);
    }

    #[test]
    fn moments_sliding_window_stays_accurate() {
        // Simulate a capacity-8 sliding window over a varied signal and
        // compare against batch recomputation at every step.
        let signal: Vec<f64> = (0..300)
            .map(|i| {
                let t = i as f64;
                (t * 0.37).sin() * 3.0 + (t * 0.051).cos() + if i % 7 == 0 { 5.0 } else { 0.0 }
            })
            .collect();
        let w = 8;
        let mut m = Moments::new();
        for i in 0..signal.len() {
            m.push(signal[i]);
            if i >= w {
                m.remove(signal[i - w]);
            }
            let lo = i.saturating_sub(w - 1);
            let (mean, sd, skew, kurt) = batch_moments(&signal[lo..=i]);
            assert!((m.mean() - mean).abs() < 1e-9, "mean at {i}");
            assert!((m.std_dev() - sd).abs() < 1e-9, "sd at {i}");
            assert!((m.skewness() - skew).abs() < 1e-9, "skew at {i}");
            assert!((m.kurtosis() - kurt).abs() < 1e-9, "kurt at {i}");
        }
    }

    #[test]
    fn moments_degenerate_gates_match_batch() {
        let mut m = Moments::new();
        assert_eq!(m.mean(), 0.0);
        m.push(3.0);
        assert_eq!(m.std_dev(), 0.0); // < 2 values
        m.push(4.0);
        assert_eq!(m.skewness(), 0.0); // < 3 values
        m.push(5.0);
        assert_eq!(m.kurtosis(), 0.0); // < 4 values
        // Constant series: near-zero variance gates skew and kurtosis.
        let mut c = Moments::new();
        for _ in 0..10 {
            c.push(1.0);
        }
        assert_eq!(c.skewness(), 0.0);
        assert_eq!(c.kurtosis(), 0.0);
        // Removing down to empty resets cleanly.
        let mut r = Moments::new();
        r.push(7.0);
        r.remove(7.0);
        assert_eq!(r, Moments::new());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn moments_remove_from_empty_panics() {
        let mut m = Moments::new();
        m.remove(1.0);
    }

    #[test]
    fn scaler_maps_range_to_unit_interval() {
        let mut m = MinMaxScaler::new();
        for v in [-2.0, 0.0, 2.0] {
            m.observe(v);
        }
        assert_eq!(m.scale(-2.0), 0.0);
        assert_eq!(m.scale(2.0), 1.0);
        assert_eq!(m.scale(0.0), 0.5);
        // outside the observed range clamps
        assert_eq!(m.scale(5.0), 1.0);
        assert_eq!(m.scale(-5.0), 0.0);
    }

    #[test]
    fn scaler_degenerate_cases() {
        let m = MinMaxScaler::new();
        assert_eq!(m.scale(1.0), 0.5); // nothing observed
        let mut m = MinMaxScaler::new();
        m.observe(3.0);
        assert_eq!(m.scale(3.0), 0.5); // zero-width range
        m.observe(f64::NAN); // ignored
        assert_eq!(m.min(), Some(3.0));
        assert_eq!(m.max(), Some(3.0));
    }
}
