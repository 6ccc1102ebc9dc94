//! Run-level observability summary derived *solely* from recorded signals.
//!
//! The evaluation runner attaches an [`InMemoryRecorder`] to the system
//! under test and, after the run, reduces the recorded event stream and
//! stage spans into the quantities the paper's analysis discusses but its
//! tables omit: how *fast* drifts are noticed (detection delay), how often
//! the detector cries wolf (false alarms) and where the compute goes
//! (per-stage cost). Nothing here peeks at system internals — if it is not
//! in the recorder, it is not in the summary.

use ficsum_obs::{InMemoryRecorder, Stage};

/// Aggregated cost of one pipeline stage over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Which stage.
    pub stage: Stage,
    /// Number of recorded executions.
    pub count: u64,
    /// Total nanoseconds across executions.
    pub total_nanos: u64,
    /// Mean nanoseconds per execution.
    pub mean_nanos: f64,
    /// Approximate 90th-percentile nanoseconds (factor-of-two resolution,
    /// from the log-bucketed histogram).
    pub p90_nanos: u64,
}

/// What the recorder saw during one evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSummary {
    /// Total recorded events of any kind.
    pub n_events: usize,
    /// `DriftDetected` events.
    pub n_drifts: u64,
    /// `ConceptSwitch` events.
    pub n_switches: u64,
    /// Ground-truth concept changes the stream contained (after `grace`).
    pub n_truth_changes: u64,
    /// Truth changes matched by a drift within the detection window.
    pub detected: u64,
    /// Truth changes no drift matched.
    pub missed: u64,
    /// Drift events matching no truth change (fired outside every
    /// detection window, after `grace`).
    pub false_alarms: u64,
    /// Mean observations between a truth change and its matching drift
    /// (`None` when nothing was detected).
    pub mean_detection_delay: Option<f64>,
    /// Per-stage execution costs, in [`Stage`] order, for stages that
    /// recorded at least one span.
    pub stage_costs: Vec<StageCost>,
}

impl ObsSummary {
    /// Reduces a recorded run against the ground-truth concept-change
    /// points `truth_changes` (observation indices, ascending).
    ///
    /// Matching is greedy and one-to-one: each truth change at `c`
    /// consumes the earliest unconsumed drift event in
    /// `(c, c + detection_window]`. Drifts before `grace` are ignored
    /// entirely (warm-up); unconsumed drifts after it are false alarms.
    pub fn from_recorder(
        recorder: &InMemoryRecorder,
        truth_changes: &[u64],
        grace: u64,
        detection_window: u64,
    ) -> Self {
        let drifts = recorder.drift_points();
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

        let stage_costs = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let h = recorder.stage_histogram(stage)?;
                Some(StageCost {
                    stage,
                    count: h.count(),
                    total_nanos: h.sum_nanos(),
                    mean_nanos: h.mean_nanos(),
                    p90_nanos: h.quantile_nanos(0.9),
                })
            })
            .collect();

        Self {
            n_events: recorder.events().len(),
            n_drifts: drifts.len() as u64,
            n_switches: recorder.concept_switches().len() as u64,
            n_truth_changes: relevant_changes.len() as u64,
            detected,
            missed,
            false_alarms,
            mean_detection_delay: (detected > 0).then(|| delay_sum / detected as f64),
            stage_costs,
        }
    }

    /// Fraction of truth changes detected in time (1.0 when the stream had
    /// none).
    pub fn detection_rate(&self) -> f64 {
        if self.n_truth_changes == 0 {
            1.0
        } else {
            self.detected as f64 / self.n_truth_changes as f64
        }
    }

    /// Total nanoseconds recorded across all stages.
    pub fn total_stage_nanos(&self) -> u64 {
        self.stage_costs.iter().map(|c| c.total_nanos).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_obs::{DriftTrigger, Recorder, StreamEvent};

    fn recorder_with_drifts(points: &[u64]) -> InMemoryRecorder {
        let mut r = InMemoryRecorder::new();
        for &t in points {
            r.event(t, StreamEvent::DriftDetected { trigger: DriftTrigger::Detector });
        }
        r
    }

    #[test]
    fn greedy_matching_counts_delays_and_false_alarms() {
        // Truth changes at 1000 and 3000; drifts at 1100 (match, delay
        // 100), 1900 (false alarm) and 3500 (match, delay 500).
        let r = recorder_with_drifts(&[1100, 1900, 3500]);
        let s = ObsSummary::from_recorder(&r, &[1000, 3000], 0, 600);
        assert_eq!(s.detected, 2);
        assert_eq!(s.missed, 0);
        assert_eq!(s.false_alarms, 1);
        assert_eq!(s.mean_detection_delay, Some(300.0));
        assert_eq!(s.detection_rate(), 1.0);
    }

    #[test]
    fn late_drifts_are_misses_plus_false_alarms() {
        let r = recorder_with_drifts(&[2500]);
        let s = ObsSummary::from_recorder(&r, &[1000], 0, 600);
        assert_eq!(s.detected, 0);
        assert_eq!(s.missed, 1);
        assert_eq!(s.false_alarms, 1);
        assert!(s.mean_detection_delay.is_none());
    }

    #[test]
    fn grace_period_exempts_warmup_fires() {
        let r = recorder_with_drifts(&[100, 1100]);
        let s = ObsSummary::from_recorder(&r, &[50, 1000], 500, 600);
        // The change at 50 and the fire at 100 both fall inside grace.
        assert_eq!(s.n_truth_changes, 1);
        assert_eq!(s.detected, 1);
        assert_eq!(s.false_alarms, 0);
    }

    #[test]
    fn stage_costs_come_from_histograms() {
        let mut r = InMemoryRecorder::new();
        r.span(Stage::Extract, 1_000);
        r.span(Stage::Extract, 3_000);
        r.span(Stage::DriftCheck, 500);
        r.span(Stage::Classifier, 200);
        let s = ObsSummary::from_recorder(&r, &[], 0, 100);
        assert_eq!(s.stage_costs.len(), 3);
        // In `Stage::ALL` order, whatever order the spans arrived in.
        let order: Vec<Stage> = s.stage_costs.iter().map(|c| c.stage).collect();
        assert_eq!(order, [Stage::Classifier, Stage::Extract, Stage::DriftCheck]);
        let extract = s.stage_costs.iter().find(|c| c.stage == Stage::Extract).unwrap();
        assert_eq!(extract.count, 2);
        assert_eq!(extract.total_nanos, 4_000);
        assert_eq!(s.total_stage_nanos(), 4_700);
    }
}
