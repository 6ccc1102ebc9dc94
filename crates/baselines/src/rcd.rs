//! RCD — Recurring Concept Drift framework (Gonçalves & De Barros, Pattern
//! Recognition Letters 2013).
//!
//! RCD stores, per concept, a classifier together with a *window of raw
//! observations*. Drift is detected with EDDM on the classifier's errors.
//! RCD keeps a rolling buffer of the last `buffer_cap` (200)
//! observations: every step on which EDDM reads `Stable` appends its
//! observation and evicts the oldest past the cap. EDDM reads `Stable` on
//! every correct prediction, inside a warning zone too, and an error it
//! flags `Warning` is appended only while the buffer is below the cap, so
//! a warning does not start the buffer. On drift, the buffered
//! observations (about the last `buffer_cap`, with or without a warning
//! before) are compared against each stored concept's window with a
//! two-sample statistical test; a match reuses that concept's classifier,
//! otherwise a new concept is created. The step on which EDDM reads
//! `Drift` is RCD's drift.
//!
//! The original uses a KNN-based multivariate test; we use per-feature
//! Kolmogorov–Smirnov tests with a majority vote — the same role (does this
//! sample come from the stored distribution?) with a textbook test.

use ficsum_classifiers::{Classifier, HoeffdingTree};
use ficsum_drift::{DetectorState, DriftDetector, Eddm};
use ficsum_eval::{EvaluatedSystem, Step};

/// Two-sample Kolmogorov–Smirnov distance between sorted samples.
fn ks_distance(a: &mut [f64], b: &mut [f64]) -> f64 {
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (n, m) = (a.len(), b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let (x, y) = (a[i], b[j]);
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            // Tied value: step both CDFs past every duplicate before
            // measuring the gap, otherwise ties inflate the distance.
            while i < n && a[i] == x {
                i += 1;
            }
            while j < m && b[j] == x {
                j += 1;
            }
        }
        d = d.max((i as f64 / n as f64 - j as f64 / m as f64).abs());
    }
    d
}

/// Whether two samples pass the KS test at alpha = 0.05 (null: same
/// distribution is *not* rejected).
fn ks_same(a: &[f64], b: &[f64]) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    let d = ks_distance(&mut a, &mut b);
    let (n, m) = (a.len() as f64, b.len() as f64);
    let critical = 1.36 * ((n + m) / (n * m)).sqrt();
    d <= critical
}

struct StoredConcept {
    id: usize,
    classifier: HoeffdingTree,
    /// Column-major stored sample: `window[feature]` = values.
    window: Vec<Vec<f64>>,
    labels: Vec<f64>,
}

/// The RCD framework.
pub struct Rcd {
    concepts: Vec<StoredConcept>,
    active: usize, // index into concepts
    detector: Eddm,
    /// The last `buffer_cap` or so observations (see the module docs).
    buffer: Vec<(Vec<f64>, usize)>,
    buffer_cap: usize,
    n_features: usize,
    n_classes: usize,
    next_id: usize,
    /// Fraction of feature tests that must accept for a recurrence.
    accept_fraction: f64,
}

impl Rcd {
    /// RCD with a 200-observation comparison window.
    pub fn new(n_features: usize, n_classes: usize) -> Self {
        let first = StoredConcept {
            id: 0,
            classifier: HoeffdingTree::new(n_features, n_classes),
            window: vec![Vec::new(); n_features],
            labels: Vec::new(),
        };
        Self {
            concepts: vec![first],
            active: 0,
            detector: Eddm::default(),
            buffer: Vec::new(),
            buffer_cap: 200,
            n_features,
            n_classes,
            next_id: 1,
            accept_fraction: 0.7,
        }
    }

    /// Number of stored concepts.
    pub fn n_concepts(&self) -> usize {
        self.concepts.len()
    }

    fn buffer_columns(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut cols = vec![Vec::with_capacity(self.buffer.len()); self.n_features];
        let mut labels = Vec::with_capacity(self.buffer.len());
        for (x, y) in &self.buffer {
            for (c, v) in cols.iter_mut().zip(x) {
                c.push(*v);
            }
            labels.push(*y as f64);
        }
        (cols, labels)
    }

    /// Tests the buffered sample against a stored concept's window.
    fn matches(&self, concept: &StoredConcept, cols: &[Vec<f64>], labels: &[f64]) -> bool {
        if concept.labels.is_empty() {
            return false;
        }
        let mut accepted = 0usize;
        let mut total = 0usize;
        for (stored, fresh) in concept.window.iter().zip(cols) {
            total += 1;
            if ks_same(stored, fresh) {
                accepted += 1;
            }
        }
        total += 1;
        if ks_same(&concept.labels, labels) {
            accepted += 1;
        }
        accepted as f64 / total as f64 >= self.accept_fraction
    }

    fn on_drift(&mut self) {
        let (cols, labels) = self.buffer_columns();
        let matched = self
            .concepts
            .iter()
            .position(|c| self.matches(c, &cols, &labels));
        match matched {
            Some(idx) => self.active = idx,
            None => {
                let id = self.next_id;
                self.next_id += 1;
                self.concepts.push(StoredConcept {
                    id,
                    classifier: HoeffdingTree::new(self.n_features, self.n_classes),
                    window: cols,
                    labels,
                });
                self.active = self.concepts.len() - 1;
            }
        }
        self.buffer.clear();
        self.detector.reset();
    }
}

impl EvaluatedSystem for Rcd {
    fn step(&mut self, x: &[f64], y: usize) -> Step {
        let concept = &mut self.concepts[self.active];
        let prediction = concept.classifier.predict(x);
        let err = if prediction == y { 0.0 } else { 1.0 };
        concept.classifier.train(x, y);

        // Keep the stored window fresh while the concept is active.
        if concept.labels.len() < 400 {
            for (c, v) in concept.window.iter_mut().zip(x) {
                c.push(*v);
            }
            concept.labels.push(y as f64);
        }

        let state = self.detector.add(err);
        match state {
            DetectorState::Warning => {
                if self.buffer.len() < self.buffer_cap {
                    self.buffer.push((x.to_vec(), y));
                }
            }
            DetectorState::Drift => {
                self.buffer.push((x.to_vec(), y));
                self.on_drift();
            }
            DetectorState::Stable => {
                // Keep a rolling short buffer so a sudden drift still has a
                // sample to test with.
                self.buffer.push((x.to_vec(), y));
                if self.buffer.len() > self.buffer_cap {
                    self.buffer.remove(0);
                }
            }
        }
        Step {
            prediction,
            model: self.concepts[self.active].id,
            drift: state == DetectorState::Drift,
        }
    }

    fn name(&self) -> String {
        "RCD".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    #[test]
    fn ks_distance_identical_is_zero() {
        let mut a = vec![1.0, 2.0, 3.0, 4.0];
        let mut b = a.clone();
        assert_eq!(ks_distance(&mut a, &mut b), 0.0);
    }

    #[test]
    fn ks_detects_disjoint_samples() {
        let a: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let b: Vec<f64> = (0..100).map(|i| 5.0 + i as f64 * 0.01).collect();
        assert!(!ks_same(&a, &b));
    }

    #[test]
    fn ks_accepts_same_distribution() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let a: Vec<f64> = (0..200).map(|_| rng.random()).collect();
        let b: Vec<f64> = (0..200).map(|_| rng.random()).collect();
        assert!(ks_same(&a, &b));
    }

    #[test]
    fn runs_prequentially() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut rcd = Rcd::new(2, 2);
        let mut correct = 0;
        for _ in 0..3000 {
            let y = rng.random_range(0..2usize);
            let x = vec![y as f64 + rng.random::<f64>() * 0.5, rng.random()];
            if rcd.step(&x, y).prediction == y {
                correct += 1;
            }
        }
        assert!(correct > 2400, "accuracy too low: {correct}/3000");
        assert_eq!(rcd.n_concepts(), 1, "stationary stream: one concept");
    }

    #[test]
    fn creates_concept_on_feature_drift() {
        // Label noise keeps a steady error flow so EDDM has distance
        // statistics; the drift shifts the feature marginal (rejected by
        // the KS test) and scrambles the labelling (bunching the errors).
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut rcd = Rcd::new(2, 2);
        let emit = |rcd: &mut Rcd, rng: &mut Xoshiro256pp, drifted: bool| {
            let mut y = rng.random_range(0..2usize);
            let x = if drifted {
                vec![5.0 + (1 - y) as f64 * 3.0 + rng.random::<f64>(), rng.random()]
            } else {
                vec![y as f64 + rng.random::<f64>() * 0.5, rng.random()]
            };
            if rng.random::<f64>() < 0.15 {
                y = 1 - y;
            }
            rcd.step(&x, y);
        };
        for _ in 0..2000 {
            emit(&mut rcd, &mut rng, false);
        }
        for _ in 0..4000 {
            emit(&mut rcd, &mut rng, true);
        }
        assert!(rcd.n_concepts() >= 2, "drift should create a concept");
    }
}
