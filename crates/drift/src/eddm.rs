//! EDDM — Early Drift Detection Method (Baena-García et al., 2006).
//!
//! Where DDM watches the error *rate*, EDDM watches the *distance between
//! consecutive errors*. Under a stable concept the average distance `p'` (and
//! `p' + 2 s'`) grows; when a drift degrades the classifier, errors bunch up
//! and the ratio `(p' + 2 s') / (p'_max + 2 s'_max)` falls below the drift
//! threshold `beta` (warning threshold `alpha`). This is the error-distance
//! behaviour source FiCSUM also fingerprints.

use ficsum_stream::RunningStats;

use crate::detector::{DetectorState, DriftDetector};

/// The EDDM error-distance drift detector.
#[derive(Debug, Clone)]
pub struct Eddm {
    alpha: f64,
    beta: f64,
    min_errors: u64,
    distance: RunningStats,
    since_last_error: u64,
    n: u64,
    max_level: f64,
    state: DetectorState,
}

impl Default for Eddm {
    fn default() -> Self {
        Self::new(0.95, 0.90, 30)
    }
}

impl Eddm {
    /// `alpha` is the warning threshold, `beta < alpha` the drift threshold,
    /// and `min_errors` the number of errors required before alarms fire.
    pub fn new(alpha: f64, beta: f64, min_errors: u64) -> Self {
        assert!(beta < alpha && alpha < 1.0 && beta > 0.0);
        Self {
            alpha,
            beta,
            min_errors,
            distance: RunningStats::new(),
            since_last_error: 0,
            n: 0,
            max_level: 0.0,
            state: DetectorState::Stable,
        }
    }

    /// Mean observed distance between errors.
    #[cfg(test)]
    fn mean_distance(&self) -> f64 {
        self.distance.mean()
    }
}

impl DriftDetector for Eddm {
    fn add(&mut self, value: f64) -> DetectorState {
        if self.state == DetectorState::Drift {
            self.reset();
        }
        self.n += 1;
        self.since_last_error += 1;
        self.state = DetectorState::Stable;
        if value < 0.5 {
            return self.state; // correct prediction: just extend the gap
        }

        self.distance.push(self.since_last_error as f64);
        self.since_last_error = 0;

        let level = self.distance.mean() + 2.0 * self.distance.std_dev();
        if level > self.max_level {
            self.max_level = level;
        }
        if self.distance.count() < self.min_errors || self.max_level <= 0.0 {
            return self.state;
        }
        let ratio = level / self.max_level;
        if ratio < self.beta {
            self.state = DetectorState::Drift;
        } else if ratio < self.alpha {
            self.state = DetectorState::Warning;
        }
        self.state
    }

    fn state(&self) -> DetectorState {
        self.state
    }

    fn reset(&mut self) {
        let (a, b, m) = (self.alpha, self.beta, self.min_errors);
        *self = Eddm::new(a, b, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One error every `period` observations (deterministic); returns index
    /// at which drift fired, if any.
    fn feed_periodic(d: &mut Eddm, period: usize, n: usize) -> Option<usize> {
        for i in 0..n {
            let err = if (i + 1) % period == 0 { 1.0 } else { 0.0 };
            if d.add(err) == DetectorState::Drift {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn detects_errors_bunching_up() {
        let mut eddm = Eddm::default();
        // 40 errors at distance 50: stable high-water mark.
        assert!(feed_periodic(&mut eddm, 50, 2000).is_none());
        // Errors on every observation: distances collapse to 1.
        let at = feed_periodic(&mut eddm, 1, 2000).expect("bunching must fire");
        assert!(at < 1000, "detection too slow: {at}");
    }

    #[test]
    fn constant_error_distance_is_stable() {
        let mut eddm = Eddm::default();
        assert!(feed_periodic(&mut eddm, 10, 10_000).is_none());
    }

    #[test]
    fn growing_distance_is_stable() {
        // Improving classifier: errors thin out; ratio stays at its max.
        let mut eddm = Eddm::default();
        let mut fired = None;
        let mut gap = 5usize;
        let mut budget = 5000usize;
        let mut i = 0usize;
        while budget > 0 {
            i += 1;
            budget -= 1;
            let err = if i.is_multiple_of(gap) {
                gap += 1; // next gap is larger
                i = 0;
                1.0
            } else {
                0.0
            };
            if eddm.add(err) == DetectorState::Drift {
                fired = Some(budget);
                break;
            }
        }
        assert!(fired.is_none(), "improvement must not alarm");
    }

    #[test]
    fn shrinking_gaps_pass_through_warning_into_drift() {
        // 40 errors 50 apart set the high-water mark, then each gap is one
        // shorter than the last. EDDM re-evaluates only on an error (a
        // correct prediction reports Stable), so the states read at the
        // errors must run Stable..., Warning..., Drift.
        let mut eddm = Eddm::default();
        let gaps = std::iter::repeat_n(50, 40).chain((1..50).rev()).chain(std::iter::repeat(1));
        let mut at_errors = Vec::new();
        for gap in gaps.take(200) {
            for _ in 1..gap {
                assert_eq!(eddm.add(0.0), DetectorState::Stable);
            }
            let state = eddm.add(1.0);
            at_errors.push(state);
            if state == DetectorState::Drift {
                break;
            }
        }
        let first_warning = at_errors.iter().position(|s| *s == DetectorState::Warning);
        let first_warning = first_warning.expect("shrinking gaps must warn before drifting");
        assert_eq!(at_errors.last(), Some(&DetectorState::Drift), "{at_errors:?}");
        assert!(first_warning >= 40, "warned on the constant prefix: {at_errors:?}");
        assert!(at_errors[..first_warning].iter().all(|s| *s == DetectorState::Stable));
        let n = at_errors.len();
        assert!(n - 1 > first_warning, "drift fired on the first warning: {at_errors:?}");
        assert!(at_errors[first_warning..n - 1].iter().all(|s| *s == DetectorState::Warning));
        assert_eq!(eddm.state(), DetectorState::Drift);
        // The value after a drift starts afresh.
        assert_eq!(eddm.add(0.0), DetectorState::Stable);
        assert_eq!(eddm.state(), DetectorState::Stable);
    }

    #[test]
    fn tracks_mean_distance() {
        let mut eddm = Eddm::default();
        // error every 5th observation
        for i in 1..=100 {
            eddm.add(if i % 5 == 0 { 1.0 } else { 0.0 });
        }
        assert!((eddm.mean_distance() - 5.0).abs() < 1e-9);
    }
}
