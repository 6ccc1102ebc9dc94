//! Measurement helpers shared by every workload: quantiles of raw samples,
//! prequential kappa, outcome digests, derived stream seeds and the
//! classification of `Ficsum::process` calls by the work they did.

use ficsum_core::FicsumConfig;

/// Quantile `q` (0..=1) of raw samples, linearly interpolated between the
/// two closest ranks. Sorts `samples` in place.
///
/// Every percentile the benchmark reports comes from here, never from a
/// bucketed histogram: bucket edges would pin the figure to a power of two.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Median of `values`, leaving them untouched.
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Confusion counts of a prequential run, from which kappa is derived.
#[derive(Debug, Clone)]
pub struct Confusion {
    n_classes: usize,
    /// `counts[truth * n_classes + predicted]`.
    counts: Vec<u64>,
}

impl Confusion {
    pub fn new(n_classes: usize) -> Self {
        Self {
            n_classes,
            counts: vec![0; n_classes * n_classes],
        }
    }

    pub fn record(&mut self, truth: usize, predicted: usize) {
        let k = self.n_classes;
        self.counts[truth.min(k - 1) * k + predicted.min(k - 1)] += 1;
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cohen's kappa, `(p0 - pc) / (1 - pc)`; 0 when chance agreement is 1.
    pub fn kappa(&self) -> f64 {
        let k = self.n_classes;
        let n = self.total() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let p0 = (0..k).map(|c| self.counts[c * k + c]).sum::<u64>() as f64 / n;
        let pc: f64 = (0..k)
            .map(|c| {
                let row: u64 = self.counts[c * k..(c + 1) * k].iter().sum();
                let col: u64 = (0..k).map(|r| self.counts[r * k + c]).sum();
                (row as f64 / n) * (col as f64 / n)
            })
            .sum();
        if (1.0 - pc).abs() < 1e-12 {
            return 0.0;
        }
        (p0 - pc) / (1.0 - pc)
    }
}

/// FNV-1a over every step outcome: one bit of divergence anywhere changes
/// the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, prediction: usize, drift: bool, switched: bool, active: u64) {
        let flags = drift as u64 | (switched as u64) << 1;
        for v in [prediction as u64, flags, active] {
            for b in v.to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of the `index`-th stream of a run's pool: one pipeline's input,
/// and for the first 32 of `stagger-batch` also one served session's.
/// Streams of one run are independent of each other, and the same
/// workload seed always yields the same streams.
pub fn derive_seed(workload_seed: u64, index: u64) -> u64 {
    splitmix64(workload_seed ^ splitmix64(index))
}

/// What a `Ficsum::process` call did, read from outside the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Predict, train and push into the windows only.
    Plain,
    /// Fingerprint check: two extractions, similarity and the detector.
    Check,
    /// Repository refresh of every stored concept's fingerprint.
    Refresh,
    /// Model selection: a detected drift or its delayed second pass.
    Drift,
}

impl StepKind {
    pub const ALL: [StepKind; 4] = [Self::Plain, Self::Check, Self::Refresh, Self::Drift];

    pub fn name(self) -> &'static str {
        match self {
            Self::Plain => "plain",
            Self::Check => "check",
            Self::Refresh => "refresh",
            Self::Drift => "drift",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Classifies successive `process` calls of one pipeline by the gaps of
/// its [`FicsumConfig`] and each call's reported drift.
#[derive(Debug, Clone)]
pub struct StepClassifier {
    fingerprint_gap: u64,
    repository_gap: u64,
    window: u64,
    /// Delay of the second model-selection pass after a drift, if enabled.
    recheck_after: Option<u64>,
    t: u64,
    recheck_due: Option<u64>,
}

impl StepClassifier {
    pub fn new(config: &FicsumConfig) -> Self {
        Self {
            fingerprint_gap: config.fingerprint_gap as u64,
            repository_gap: config.repository_gap as u64,
            window: config.window_size as u64,
            recheck_after: config.second_check.then_some(config.window_size as u64),
            t: 0,
            recheck_due: None,
        }
    }

    /// Kind of the call just made; `repository_len` is the pipeline's
    /// repository size after it.
    pub fn classify(&mut self, drift: bool, repository_len: usize) -> StepKind {
        self.t += 1;
        let t = self.t;
        if drift {
            self.recheck_due = self.recheck_after.map(|delay| t + delay);
            return StepKind::Drift;
        }
        if self.recheck_due.is_some_and(|due| t >= due) {
            self.recheck_due = None;
            return StepKind::Drift;
        }
        let window_full = t >= self.window;
        if window_full && t.is_multiple_of(self.repository_gap) && repository_len > 0 {
            StepKind::Refresh
        } else if window_full && t.is_multiple_of(self.fingerprint_gap) {
            StepKind::Check
        } else {
            StepKind::Plain
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_eval::KappaEvaluator;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    #[test]
    fn quantiles_interpolate_between_raw_samples() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert!((quantile(&mut xs, 0.5) - 50.5).abs() < 1e-12);
        assert!((quantile(&mut xs, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_percentile_is_not_a_bucket_edge() {
        // 99 fast samples and one slow one: p99 lies between them, where a
        // power-of-two histogram would report a bucket boundary.
        let mut xs = vec![100.0; 99];
        xs.push(1_000.0);
        let p99 = quantile(&mut xs, 0.99);
        assert!((p99 - 109.0).abs() < 1e-9, "p99 = {p99}");
    }

    #[test]
    fn kappa_matches_the_evaluator() {
        for (k, seed) in [(2, 1u64), (3, 2), (5, 3)] {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut ours = Confusion::new(k);
            let mut reference = KappaEvaluator::new(k);
            for _ in 0..5_000 {
                let truth = rng.random_range(0..k);
                // A predictor right about 70% of the time.
                let pred = if rng.random_bool(0.7) {
                    truth
                } else {
                    rng.random_range(0..k)
                };
                ours.record(truth, pred);
                reference.record(truth, pred);
            }
            assert_eq!(ours.total(), reference.count());
            assert!((ours.kappa() - reference.kappa()).abs() < 1e-12);
            assert!(ours.kappa() > 0.3);
        }
        assert_eq!(Confusion::new(2).kappa(), 0.0);
    }

    #[test]
    fn digests_tell_outcomes_apart() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1, false, false, 0);
        b.push(1, false, false, 0);
        assert_eq!(a, b);
        let mut c = a;
        a.push(0, true, false, 1);
        c.push(0, false, true, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let seeds: Vec<u64> = (0..1_000).map(|s| derive_seed(42, s)).collect();
        assert_eq!(
            seeds,
            (0..1_000).map(|s| derive_seed(42, s)).collect::<Vec<_>>()
        );
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "every session gets its own stream"
        );
        assert!(!seeds.contains(&42));
        // Another workload seed gives another set of sessions.
        assert!((0..1_000).all(|s| derive_seed(43, s) != seeds[s as usize]));
    }

    #[test]
    fn step_kinds_follow_the_configured_gaps() {
        let config = FicsumConfig::default();
        let (w, fgap, rgap) = (
            config.window_size as u64,
            config.fingerprint_gap as u64,
            config.repository_gap as u64,
        );
        let mut clock = StepClassifier::new(&config);
        // Empty repository, no drift: checks on the fingerprint gap once
        // the window is full, never a refresh.
        for t in 1..=4 * w {
            let kind = clock.classify(false, 0);
            let expect = if t >= w && t % fgap == 0 {
                StepKind::Check
            } else {
                StepKind::Plain
            };
            assert_eq!(kind, expect, "t = {t}");
        }
        // With stored concepts, the repository gap takes precedence.
        let mut t = 4 * w;
        let mut saw_refresh = false;
        for _ in 0..2 * rgap {
            t += 1;
            let kind = clock.classify(false, 3);
            if t % rgap == 0 {
                assert_eq!(kind, StepKind::Refresh, "t = {t}");
                saw_refresh = true;
            } else if t % fgap == 0 {
                assert_eq!(kind, StepKind::Check, "t = {t}");
            } else {
                assert_eq!(kind, StepKind::Plain, "t = {t}");
            }
        }
        assert!(saw_refresh);
        // A drift, then its second selection pass one window later.
        t += 1;
        assert_eq!(clock.classify(true, 3), StepKind::Drift);
        let drift_at = t;
        while t < drift_at + w {
            t += 1;
            let kind = clock.classify(false, 4);
            assert_eq!(kind == StepKind::Drift, t == drift_at + w, "t = {t}");
        }
    }

    #[test]
    fn no_second_pass_when_disabled() {
        let config = FicsumConfig::default().with_second_check(false);
        let mut clock = StepClassifier::new(&config);
        assert_eq!(clock.classify(true, 0), StepKind::Drift);
        for _ in 0..3 * config.window_size {
            assert_ne!(clock.classify(false, 1), StepKind::Drift);
        }
    }
}
