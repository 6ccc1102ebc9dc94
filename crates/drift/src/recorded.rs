//! Observability wrapper for drift detectors.

use ficsum_obs::{DriftTrigger, Recorder, StreamEvent};

use crate::detector::{DetectorState, DriftDetector};

/// Wraps any [`DriftDetector`] and mirrors its state transitions into a
/// [`Recorder`]: a [`StreamEvent::DriftDetected`] on every fire, a
/// [`StreamEvent::DetectorWarning`] on every entry into the warning zone,
/// plus `drift.fired` / `drift.warnings` counters and a `drift.input`
/// gauge of the last monitored value.
///
/// The event timestamp is the number of values consumed so far (the
/// detector's own notion of time); hosts that know a richer stream index
/// should emit their own events instead — this wrapper serves detectors
/// run standalone, e.g. the baseline frameworks and detector comparisons.
pub struct RecordedDetector<D: DriftDetector, R: Recorder> {
    detector: D,
    recorder: R,
    t: u64,
    /// Edge-trigger memory: a warning is emitted only on the transition
    /// into [`DetectorState::Warning`], not on every update inside it.
    was_warning: bool,
}

impl<D: DriftDetector, R: Recorder> RecordedDetector<D, R> {
    /// Wraps `detector`, mirroring transitions into `recorder`.
    pub fn new(detector: D, recorder: R) -> Self {
        Self { detector, recorder, t: 0, was_warning: false }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.detector
    }

    /// The recorder (e.g. to hand back a shared handle).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Values consumed so far.
    pub fn observed(&self) -> u64 {
        self.t
    }
}

impl<D: DriftDetector, R: Recorder> DriftDetector for RecordedDetector<D, R> {
    fn add(&mut self, value: f64) -> DetectorState {
        let state = self.detector.add(value);
        self.t += 1;
        if self.recorder.enabled() {
            self.recorder.gauge("drift.input", value);
            match state {
                DetectorState::Drift => {
                    self.recorder
                        .event(self.t, StreamEvent::DriftDetected { trigger: DriftTrigger::Detector });
                    self.recorder.counter("drift.fired", 1);
                    self.was_warning = false;
                }
                DetectorState::Warning => {
                    if !self.was_warning {
                        self.recorder.event(self.t, StreamEvent::DetectorWarning);
                        self.recorder.counter("drift.warnings", 1);
                    }
                    self.was_warning = true;
                }
                DetectorState::Stable => self.was_warning = false,
            }
        }
        state
    }

    fn state(&self) -> DetectorState {
        self.detector.state()
    }

    fn reset(&mut self) {
        self.detector.reset();
        self.was_warning = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddm::Ddm;
    use ficsum_obs::{shared, InMemoryRecorder};

    #[test]
    fn mirrors_fires_and_warnings_with_edge_triggering() {
        let keep = shared(InMemoryRecorder::new());
        let mut det = RecordedDetector::new(Ddm::default(), keep.clone());
        // Low error rate, then a burst: DDM passes through warning into
        // drift.
        for i in 0..80 {
            det.add(if i % 10 == 0 { 1.0 } else { 0.0 });
        }
        let mut fired = false;
        for _ in 0..200 {
            if det.add(1.0) == DetectorState::Drift {
                fired = true;
                break;
            }
        }
        assert!(fired, "DDM must fire on an error burst");
        let rec = keep.borrow();
        assert_eq!(rec.counter_value("drift.fired"), 1);
        assert!(rec.counter_value("drift.warnings") >= 1);
        // Edge triggering: consecutive warning updates emit one event.
        assert_eq!(
            rec.event_count("detector_warning") as u64,
            rec.counter_value("drift.warnings")
        );
        let points = rec.drift_points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0], det.observed());
    }

    #[test]
    fn wrapper_is_behaviourally_transparent() {
        let mut plain = Ddm::default();
        let mut wrapped = RecordedDetector::new(Ddm::default(), InMemoryRecorder::new());
        for i in 0..500 {
            let v = if (i / 7) % 9 == 0 { 1.0 } else { 0.0 };
            assert_eq!(plain.add(v), wrapped.add(v), "step {i}");
        }
        assert_eq!(plain.state(), wrapped.state());
    }
}
