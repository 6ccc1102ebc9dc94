//! HTCD: Hoeffding Tree with Change Detection.
//!
//! The paper's simplest framework baseline — a single Hoeffding tree whose
//! prequential errors feed an ADWIN detector; on drift the tree is rebuilt
//! from scratch. Each rebuild is a new "model", so HTCD's C-F1 is poor on
//! recurring-concept streams (it can never bring a previous model back).
//! The step on which ADWIN fires and the tree is rebuilt is HTCD's drift.

use ficsum_classifiers::{Classifier, HoeffdingTree};
use ficsum_drift::{Adwin, DetectorState, DriftDetector};
use ficsum_eval::{EvaluatedSystem, Step};

/// The HTCD framework.
pub struct Htcd {
    tree: HoeffdingTree,
    detector: Adwin,
    n_features: usize,
    n_classes: usize,
    generation: usize,
    n_resets: usize,
}

impl Htcd {
    /// HTCD with ADWIN delta 0.002 (MOA default).
    pub fn new(n_features: usize, n_classes: usize) -> Self {
        Self {
            tree: HoeffdingTree::new(n_features, n_classes),
            detector: Adwin::new(0.002),
            n_features,
            n_classes,
            generation: 0,
            n_resets: 0,
        }
    }

    /// How many times the tree has been rebuilt.
    pub fn n_resets(&self) -> usize {
        self.n_resets
    }
}

impl EvaluatedSystem for Htcd {
    fn step(&mut self, x: &[f64], y: usize) -> Step {
        let prediction = self.tree.predict(x);
        let err = if prediction == y { 0.0 } else { 1.0 };
        self.tree.train(x, y);
        let drift = self.detector.add(err) == DetectorState::Drift;
        if drift {
            self.tree = HoeffdingTree::new(self.n_features, self.n_classes);
            self.detector.reset();
            self.generation += 1;
            self.n_resets += 1;
        }
        Step { prediction, model: self.generation, drift }
    }

    fn name(&self) -> String {
        "HTCD".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    fn blob(rng: &mut Xoshiro256pp, flip: bool) -> (Vec<f64>, usize) {
        let y = rng.random_range(0..2usize);
        let x0 = if y == 0 { rng.random::<f64>() } else { 2.0 + rng.random::<f64>() };
        (vec![x0, rng.random()], if flip { 1 - y } else { y })
    }

    #[test]
    fn resets_on_label_flip() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut htcd = Htcd::new(2, 2);
        for _ in 0..3000 {
            let (x, y) = blob(&mut rng, false);
            htcd.step(&x, y);
        }
        assert_eq!(htcd.n_resets(), 0, "no reset under stationarity");
        let mut correct = 0;
        for _ in 0..4000 {
            let (x, y) = blob(&mut rng, true);
            if htcd.step(&x, y).prediction == y {
                correct += 1;
            }
        }
        assert!(htcd.n_resets() >= 1, "flip must reset the tree");
        assert!(correct > 2600, "post-drift recovery too weak: {correct}/4000");
    }

    #[test]
    fn model_id_increments_per_reset() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut htcd = Htcd::new(2, 2);
        assert_eq!(htcd.step(&[0.0, 0.0], 0).model, 0);
        for _ in 0..2000 {
            let (x, y) = blob(&mut rng, false);
            htcd.step(&x, y);
        }
        for _ in 0..3000 {
            let (x, y) = blob(&mut rng, true);
            htcd.step(&x, y);
        }
        assert!(htcd.step(&[0.0, 0.0], 0).model >= 1);
    }

    #[test]
    fn drift_steps_are_the_resets() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut htcd = Htcd::new(2, 2);
        let mut drifts = 0;
        // Four label flips, each long enough for ADWIN to notice.
        for flip in [false, true, false, true, false] {
            for _ in 0..2500 {
                let (x, y) = blob(&mut rng, flip);
                drifts += usize::from(htcd.step(&x, y).drift);
            }
        }
        assert!(htcd.n_resets() >= 2, "the flips must reset the tree");
        assert_eq!(drifts, htcd.n_resets());
    }
}
