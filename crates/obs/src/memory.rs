//! The retaining recorder used by tests and the evaluation runner.

use std::collections::BTreeMap;

use crate::event::{Stage, StreamEvent};
use crate::histogram::LatencyHistogram;
use crate::recorder::Recorder;

/// Retains every signal: events in arrival order and one latency histogram
/// per pipeline stage.
///
/// `BTreeMap`s keep iteration deterministic, so reports built from a
/// recorded run are reproducible byte-for-byte.
#[derive(Debug, Default)]
pub struct InMemoryRecorder {
    events: Vec<(u64, StreamEvent)>,
    spans: BTreeMap<Stage, LatencyHistogram>,
}

impl InMemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every recorded `(t, event)` pair, in arrival order.
    pub fn events(&self) -> &[(u64, StreamEvent)] {
        &self.events
    }

    /// The latency histogram of one stage, if any span was recorded.
    pub fn stage_histogram(&self, stage: Stage) -> Option<&LatencyHistogram> {
        self.spans.get(&stage)
    }

    /// Stages with at least one recorded span, in [`Stage`] order.
    pub fn stages(&self) -> impl Iterator<Item = (Stage, &LatencyHistogram)> + '_ {
        self.spans.iter().map(|(&s, h)| (s, h))
    }

    /// Observation indices at which [`StreamEvent::DriftDetected`] was
    /// recorded — the recorder-side reconstruction of the framework's
    /// legacy `drift_points()` accessor.
    pub fn drift_points(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, StreamEvent::DriftDetected { .. }))
            .map(|&(t, _)| t)
            .collect()
    }

    /// The `(t, similarity)` pairs of every
    /// [`StreamEvent::SimilarityObserved`] — the recorder-side
    /// reconstruction of the legacy `similarity_trace()` accessor.
    pub fn similarity_trace(&self) -> Vec<(u64, f64)> {
        self.events
            .iter()
            .filter_map(|&(t, ref e)| match e {
                StreamEvent::SimilarityObserved { value } => Some((t, *value)),
                _ => None,
            })
            .collect()
    }

    /// The concept-switch sequence as `(t, from, to)` triples.
    pub fn concept_switches(&self) -> Vec<(u64, u64, u64)> {
        self.events
            .iter()
            .filter_map(|&(t, ref e)| match e {
                StreamEvent::ConceptSwitch { from, to, .. } => Some((t, *from, *to)),
                _ => None,
            })
            .collect()
    }

    /// Count of recorded events with the given stable name.
    pub fn event_count(&self, name: &str) -> usize {
        self.events.iter().filter(|(_, e)| e.name() == name).count()
    }

    /// Drops all retained signals.
    pub fn clear(&mut self) {
        self.events.clear();
        self.spans.clear();
    }
}

impl Recorder for InMemoryRecorder {
    fn event(&mut self, t: u64, event: StreamEvent) {
        self.events.push((t, event));
    }

    fn span(&mut self, stage: Stage, nanos: u64) {
        self.spans.entry(stage).or_default().record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DriftTrigger;

    #[test]
    fn retains_all_signal_kinds() {
        let mut r = InMemoryRecorder::new();
        r.event(10, StreamEvent::DriftDetected { trigger: DriftTrigger::Detector });
        r.event(10, StreamEvent::ConceptSwitch { from: 0, to: 1, similarity: None });
        r.event(15, StreamEvent::SimilarityObserved { value: 0.93 });
        r.span(Stage::Extract, 1_000);
        r.span(Stage::Extract, 3_000);

        assert_eq!(r.events().len(), 3);
        assert_eq!(r.stage_histogram(Stage::Extract).unwrap().count(), 2);
        assert!(r.stage_histogram(Stage::Similarity).is_none());
        assert_eq!(r.drift_points(), vec![10]);
        assert_eq!(r.similarity_trace(), vec![(15, 0.93)]);
        assert_eq!(r.concept_switches(), vec![(10, 0, 1)]);
        assert_eq!(r.event_count("drift_detected"), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = InMemoryRecorder::new();
        r.span(Stage::Extract, 3);
        r.event(1, StreamEvent::PlasticityReset);
        r.clear();
        assert!(r.stages().next().is_none());
        assert!(r.events().is_empty());
    }
}
