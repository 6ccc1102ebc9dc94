//! Run-level detection accounting: the drifts a system reported, matched
//! against the stream's ground-truth concept changes.
//!
//! The runner collects the step of every [`crate::Step`] whose `drift` is
//! set and reduces them here into the quantities the paper's analysis
//! discusses but its tables omit: how *fast* drifts are noticed (detection
//! delay), how often the detector cries wolf (false alarms) and how many
//! changes it never noticed (misses).

/// What a run's drift steps say about its detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Drifts the system reported.
    pub n_drifts: u64,
    /// Ground-truth concept changes the stream contained (after `grace`).
    pub n_truth_changes: u64,
    /// Truth changes matched by a drift within the detection window.
    pub detected: u64,
    /// Truth changes no drift matched.
    pub missed: u64,
    /// Drifts matching no truth change (fired outside every detection
    /// window, after `grace`).
    pub false_alarms: u64,
    /// Mean observations between a truth change and its matching drift
    /// (`None` when nothing was detected).
    pub mean_detection_delay: Option<f64>,
}

impl Detection {
    /// Reduces the drift points `drifts` against the ground-truth
    /// concept-change points `truth_changes` (observation indices, both
    /// ascending).
    ///
    /// Matching is greedy and one-to-one: each truth change at `c`
    /// consumes the earliest unconsumed drift in
    /// `(c, c + detection_window]`. Drifts before `grace` are ignored
    /// entirely (warm-up); unconsumed drifts after it are false alarms.
    pub fn from_drifts(
        drifts: &[u64],
        truth_changes: &[u64],
        grace: u64,
        detection_window: u64,
    ) -> Self {
        let mut consumed = vec![false; drifts.len()];
        let mut detected = 0u64;
        let mut missed = 0u64;
        let mut delay_sum = 0.0;
        let relevant_changes: Vec<u64> =
            truth_changes.iter().copied().filter(|&c| c >= grace).collect();
        for &c in &relevant_changes {
            let hit = drifts
                .iter()
                .enumerate()
                .find(|&(i, &d)| !consumed[i] && d > c && d <= c + detection_window);
            match hit {
                Some((i, &d)) => {
                    consumed[i] = true;
                    detected += 1;
                    delay_sum += (d - c) as f64;
                }
                None => missed += 1,
            }
        }
        let false_alarms = drifts
            .iter()
            .zip(&consumed)
            .filter(|&(&d, &used)| !used && d >= grace)
            .count() as u64;

        Self {
            n_drifts: drifts.len() as u64,
            n_truth_changes: relevant_changes.len() as u64,
            detected,
            missed,
            false_alarms,
            mean_detection_delay: (detected > 0).then(|| delay_sum / detected as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_matching_counts_delays_and_false_alarms() {
        // Truth changes at 1000 and 3000; drifts at 1100 (match, delay
        // 100), 1900 (false alarm) and 3500 (match, delay 500).
        let s = Detection::from_drifts(&[1100, 1900, 3500], &[1000, 3000], 0, 600);
        assert_eq!(s.detected, 2);
        assert_eq!(s.missed, 0);
        assert_eq!(s.false_alarms, 1);
        assert_eq!(s.mean_detection_delay, Some(300.0));
    }

    #[test]
    fn late_drifts_are_misses_plus_false_alarms() {
        let s = Detection::from_drifts(&[2500], &[1000], 0, 600);
        assert_eq!(s.detected, 0);
        assert_eq!(s.missed, 1);
        assert_eq!(s.false_alarms, 1);
        assert!(s.mean_detection_delay.is_none());
    }

    #[test]
    fn grace_period_exempts_warmup_fires() {
        let s = Detection::from_drifts(&[100, 1100], &[50, 1000], 500, 600);
        // The change at 50 and the fire at 100 both fall inside grace.
        assert_eq!(s.n_truth_changes, 1);
        assert_eq!(s.detected, 1);
        assert_eq!(s.false_alarms, 0);
    }
}
