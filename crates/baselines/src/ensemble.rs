//! Adapter exposing the ensemble classifiers (DWM, ARF) as evaluated
//! systems.
//!
//! Ensembles maintain one continuously evolving model, so their model
//! identity never changes — the paper's Table VI shows exactly this: strong
//! kappa (especially ARF) but flat, poor C-F1 because a single model id
//! cannot track recurring concepts.
//!
//! Neither surfaces a system-level drift: DWM drops and adds experts by
//! their weights, and ARF swaps single trees on each tree's own ADWIN,
//! but the ensemble as a whole never resets. Every step therefore reports
//! `drift: false`, and the runner counts every ground-truth change as a
//! miss.

use ficsum_classifiers::{AdaptiveRandomForest, Classifier, DynamicWeightedMajority};
use ficsum_eval::{EvaluatedSystem, Step};

/// Which ensemble to run.
pub enum EnsembleKind {
    /// Dynamic Weighted Majority (Kolter & Maloof 2007).
    Dwm(DynamicWeightedMajority),
    /// Adaptive Random Forest (Gomes et al. 2017).
    Arf(AdaptiveRandomForest),
}

/// An ensemble under evaluation.
pub struct EnsembleSystem {
    kind: EnsembleKind,
}

impl EnsembleSystem {
    /// DWM with paper-parity defaults (10 Hoeffding-tree experts).
    pub fn dwm(n_features: usize, n_classes: usize) -> Self {
        Self { kind: EnsembleKind::Dwm(DynamicWeightedMajority::new(n_features, n_classes)) }
    }

    /// ARF with paper-parity defaults (10 trees).
    pub fn arf(n_features: usize, n_classes: usize) -> Self {
        Self { kind: EnsembleKind::Arf(AdaptiveRandomForest::new(n_features, n_classes)) }
    }

    fn classifier(&mut self) -> &mut dyn Classifier {
        match &mut self.kind {
            EnsembleKind::Dwm(c) => c,
            EnsembleKind::Arf(c) => c,
        }
    }
}

impl EvaluatedSystem for EnsembleSystem {
    fn step(&mut self, x: &[f64], y: usize) -> Step {
        let clf = self.classifier();
        let prediction = clf.predict(x);
        clf.train(x, y);
        // A single evolving model, with no system-level drift.
        Step { prediction, model: 0, drift: false }
    }

    fn name(&self) -> String {
        match &self.kind {
            EnsembleKind::Dwm(_) => "DWM".into(),
            EnsembleKind::Arf(_) => "ARF".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    #[test]
    fn both_ensembles_learn() {
        for mut system in [EnsembleSystem::dwm(2, 2), EnsembleSystem::arf(2, 2)] {
            let mut rng = Xoshiro256pp::seed_from_u64(6);
            let mut correct = 0;
            for i in 0..1500 {
                let y = rng.random_range(0..2usize);
                let x = vec![y as f64 * 2.0 + rng.random::<f64>(), rng.random()];
                let step = system.step(&x, y);
                assert_eq!((step.model, step.drift), (0, false), "a single model, no drift");
                if i > 500 && step.prediction == y {
                    correct += 1;
                }
            }
            assert!(correct > 900, "{} accuracy too low: {correct}/1000", system.name());
        }
    }
}
