//! Prequential evaluation runner.

use std::time::Instant;

use ficsum_obs::{shared, InMemoryRecorder, Recorder};
use ficsum_stream::{Observation, StreamSource};

use crate::cf1::CoOccurrenceF1;
use crate::kappa::KappaEvaluator;
use crate::observability::ObsSummary;

/// A stream-classification system under evaluation.
///
/// Implemented by FiCSUM (all variants) and every baseline framework in
/// `ficsum-baselines`. The `model` identity returned by
/// [`EvaluatedSystem::step`] is whatever the system considers its active
/// model — for single-classifier frameworks the classifier generation, for
/// FiCSUM the active concept id, for ensembles a constant (they have one
/// evolving model, which is exactly why their C-F1 is poor in Table VI).
pub trait EvaluatedSystem {
    /// Processes one observation prequentially, returning the prediction
    /// made *before* training and the identity of the active model.
    fn step(&mut self, x: &[f64], y: usize) -> (usize, usize);

    /// Optional discrimination-ability probe, sampled periodically by the
    /// runner (Section II-A of the paper; see `Ficsum::discrimination_probe`
    /// for the exact quantity).
    fn discrimination(&mut self) -> Option<f64> {
        None
    }

    /// Attaches an observability recorder, returning `true` if the system
    /// supports one. The default declines (and drops the recorder), so
    /// systems without observability need no code.
    fn attach_recorder(&mut self, recorder: Box<dyn Recorder>) -> bool {
        drop(recorder);
        false
    }

    /// Display name.
    fn name(&self) -> String;
}

impl EvaluatedSystem for Box<dyn EvaluatedSystem> {
    fn step(&mut self, x: &[f64], y: usize) -> (usize, usize) {
        (**self).step(x, y)
    }

    fn discrimination(&mut self) -> Option<f64> {
        (**self).discrimination()
    }

    fn attach_recorder(&mut self, recorder: Box<dyn Recorder>) -> bool {
        (**self).attach_recorder(recorder)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// Everything measured in one prequential run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// System display name.
    pub system: String,
    /// Prequential kappa statistic.
    pub kappa: f64,
    /// Prequential accuracy.
    pub accuracy: f64,
    /// Co-occurrence F1.
    pub c_f1: f64,
    /// Mean sampled discrimination ability (`None` if the system has none).
    pub discrimination: Option<f64>,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
    /// Observations processed.
    pub n_observations: u64,
    /// Distinct models the system exposed.
    pub n_models: usize,
    /// Seed the run was configured with (for report reproducibility).
    pub seed: u64,
    /// Recorder-derived summary, when the run was observed
    /// (see [`RunOptions::observability`]).
    pub observability: Option<ObsSummary>,
}

/// How often the runner samples the discrimination probe.
const DISCRIMINATION_EVERY: u64 = 250;

/// Configuration for one evaluation run (see [`evaluate_with`]).
pub struct RunOptions {
    /// Number of classes in the stream.
    pub n_classes: usize,
    /// Seed associated with the run. The runner itself is deterministic;
    /// the seed is carried into [`RunResult::seed`] so multi-seed reports
    /// stay attributable, and callers use the same value to seed their
    /// stream/system construction.
    pub seed: u64,
    /// Observations at the start of the stream exempt from detection
    /// accounting (systems are still warming up).
    pub grace: u64,
    /// A drift fired within this many observations after a ground-truth
    /// concept change counts as detecting it; anything later (or matching
    /// no change) is a false alarm.
    pub detection_window: u64,
    /// When `true`, the runner attaches its own [`InMemoryRecorder`] to
    /// the system and reduces it into [`RunResult::observability`] after
    /// the run.
    pub observability: bool,
}

impl RunOptions {
    /// Defaults for a stream with `n_classes` labels: seed 0, a grace
    /// period of 500 observations, a 1000-observation detection window, no
    /// recorder.
    pub fn new(n_classes: usize) -> Self {
        Self {
            n_classes,
            seed: 0,
            grace: 500,
            detection_window: 1000,
            observability: false,
        }
    }

    /// Enables the runner-owned in-memory recorder.
    pub fn observed(mut self) -> Self {
        self.observability = true;
        self
    }

    /// Sets the seed carried into the result.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Drives `system` over `stream` prequentially and collects all metrics.
///
/// With [`RunOptions::observability`] set, the detection-delay and
/// per-stage-cost figures in [`RunResult::observability`] are derived
/// solely from the recorder's event stream — the runner never reaches into
/// the system beyond [`EvaluatedSystem`].
pub fn evaluate_with<S: EvaluatedSystem>(
    system: &mut S,
    stream: &mut dyn StreamSource,
    opts: &RunOptions,
) -> RunResult {
    let mut kappa = KappaEvaluator::new(opts.n_classes.max(2));
    let mut cf1 = CoOccurrenceF1::new();
    let mut disc_sum = 0.0;
    let mut disc_n = 0u64;
    let mut t = 0u64;

    let keep = if opts.observability {
        let keep = shared(InMemoryRecorder::new());
        system.attach_recorder(Box::new(keep.clone())).then_some(keep)
    } else {
        None
    };
    let mut truth_changes: Vec<u64> = Vec::new();
    let mut last_concept: Option<usize> = None;

    let start = Instant::now();
    while let Some(Observation { features, label, concept }) = stream.next_observation() {
        let (prediction, model) = system.step(&features, label);
        kappa.record(label, prediction);
        cf1.record(concept, model);
        t += 1;
        if last_concept.is_some_and(|prev| prev != concept) {
            truth_changes.push(t);
        }
        last_concept = Some(concept);
        if t.is_multiple_of(DISCRIMINATION_EVERY) {
            if let Some(d) = system.discrimination() {
                if d.is_finite() {
                    disc_sum += d;
                    disc_n += 1;
                }
            }
        }
    }
    let runtime_s = start.elapsed().as_secs_f64();

    let observability = keep.map(|keep| {
        ObsSummary::from_recorder(
            &keep.borrow(),
            &truth_changes,
            opts.grace,
            opts.detection_window,
        )
    });

    RunResult {
        system: system.name(),
        kappa: kappa.kappa(),
        accuracy: kappa.accuracy(),
        c_f1: cf1.c_f1(),
        discrimination: (disc_n > 0).then(|| disc_sum / disc_n as f64),
        runtime_s,
        n_observations: t,
        n_models: cf1.n_models(),
        seed: opts.seed,
        observability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::VecStream;

    /// Oracle: predicts the label, reports the concept as its model.
    struct Oracle;
    impl EvaluatedSystem for Oracle {
        fn step(&mut self, _x: &[f64], y: usize) -> (usize, usize) {
            (y, y)
        }
        fn name(&self) -> String {
            "oracle".into()
        }
    }

    /// Constant: predicts 0 from model 0, discriminates nothing.
    struct Constant;
    impl EvaluatedSystem for Constant {
        fn step(&mut self, _x: &[f64], _y: usize) -> (usize, usize) {
            (0, 0)
        }
        fn discrimination(&mut self) -> Option<f64> {
            Some(1.5)
        }
        fn name(&self) -> String {
            "constant".into()
        }
    }

    /// Records a `DriftDetected` exactly 10 observations after each
    /// concept change it is told about (via its own concept input).
    struct Announcer {
        recorder: Option<Box<dyn Recorder>>,
        t: u64,
        pending: Option<u64>,
        last_y: Option<usize>,
    }
    impl EvaluatedSystem for Announcer {
        fn step(&mut self, _x: &[f64], y: usize) -> (usize, usize) {
            self.t += 1;
            if self.last_y.is_some_and(|prev| prev != y) {
                self.pending = Some(self.t + 10);
            }
            self.last_y = Some(y);
            if self.pending.is_some_and(|due| due == self.t) {
                self.pending = None;
                if let Some(r) = &mut self.recorder {
                    r.event(
                        self.t,
                        ficsum_obs::StreamEvent::DriftDetected {
                            trigger: ficsum_obs::DriftTrigger::Detector,
                        },
                    );
                }
            }
            (y, y)
        }
        fn attach_recorder(&mut self, recorder: Box<dyn Recorder>) -> bool {
            self.recorder = Some(recorder);
            true
        }
        fn name(&self) -> String {
            "announcer".into()
        }
    }

    fn stream() -> VecStream {
        let data = (0..1000)
            .map(|i| Observation::with_concept(vec![i as f64], i % 2, i / 500))
            .collect();
        VecStream::new(data)
    }

    #[test]
    fn oracle_scores_perfectly() {
        let mut s = stream();
        let r = evaluate_with(&mut Oracle, &mut s, &RunOptions::new(2));
        assert!((r.kappa - 1.0).abs() < 1e-12);
        assert_eq!(r.accuracy, 1.0);
        assert_eq!(r.n_observations, 1000);
        assert!(r.discrimination.is_none());
        assert!(r.observability.is_none(), "not requested");
    }

    #[test]
    fn constant_scores_zero_kappa() {
        let mut s = stream();
        let r = evaluate_with(&mut Constant, &mut s, &RunOptions::new(2));
        assert!(r.kappa.abs() < 1e-9);
        assert!((r.accuracy - 0.5).abs() < 1e-9);
        assert_eq!(r.discrimination, Some(1.5));
        assert_eq!(r.n_models, 1);
    }

    #[test]
    fn observed_run_derives_detection_delay_from_events() {
        // One concept change at t=3001 (stream index 3000 is the first of
        // concept 1); the announcer fires 10 observations later.
        let data = (0..6000)
            .map(|i| Observation::with_concept(vec![i as f64], (i / 3000) % 2, i / 3000))
            .collect();
        let mut s = VecStream::new(data);
        let mut sys = Announcer { recorder: None, t: 0, pending: None, last_y: None };
        let opts = RunOptions { grace: 0, ..RunOptions::new(2) }.observed().seed(7);
        let r = evaluate_with(&mut sys, &mut s, &opts);
        assert_eq!(r.seed, 7);
        let obs = r.observability.expect("observability requested and supported");
        assert_eq!(obs.n_truth_changes, 1);
        assert_eq!(obs.detected, 1);
        assert_eq!(obs.false_alarms, 0);
        assert_eq!(obs.mean_detection_delay, Some(10.0));
    }

    #[test]
    fn systems_without_recorder_support_yield_no_summary() {
        let mut s = stream();
        let r = evaluate_with(&mut Oracle, &mut s, &RunOptions::new(2).observed());
        assert!(r.observability.is_none());
    }
}
