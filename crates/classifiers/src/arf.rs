//! Adaptive Random Forest (Gomes et al., Machine Learning 2017).
//!
//! ARF is the strongest ensemble baseline in the paper's Table VI. Each
//! member is a Hoeffding tree restricted to a random attribute subspace,
//! trained with online bagging (Poisson(λ=6) example weights) and monitored
//! by a pair of ADWIN detectors: a permissive one that triggers *warnings*
//! (start training a background tree) and a strict one that triggers
//! *drifts* (replace the tree with its background).

use ficsum_drift::{Adwin, DetectorState, DriftDetector};
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

use crate::classifier::{argmax, normalize_or_uniform, Classifier};
use crate::hoeffding::{HoeffdingTree, HoeffdingTreeConfig};

/// Draws from Poisson(lambda) via Knuth's algorithm (fine for small lambda).
fn poisson(lambda: f64, rng: &mut Xoshiro256pp) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[derive(Debug, Clone)]
struct Member {
    tree: HoeffdingTree,
    background: Option<HoeffdingTree>,
    warning: Adwin,
    drift: Adwin,
    correct: f64,
    seen: f64,
}

impl Member {
    /// Decayed running accuracy used as the vote weight.
    fn weight(&self) -> f64 {
        if self.seen < 1.0 {
            1.0
        } else {
            (self.correct / self.seen).max(0.01)
        }
    }
}

/// Configuration for [`AdaptiveRandomForest`].
#[derive(Debug, Clone)]
pub struct ArfConfig {
    /// Ensemble size (paper: 10).
    pub n_trees: usize,
    /// Online-bagging Poisson rate.
    pub lambda: f64,
    /// ADWIN delta for the warning monitor.
    pub warning_delta: f64,
    /// ADWIN delta for the drift monitor.
    pub drift_delta: f64,
    /// Per-tree random-subspace size; `None` = `ceil(sqrt(d)) + 1`.
    pub subspace: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ArfConfig {
    fn default() -> Self {
        Self {
            n_trees: 10,
            lambda: 6.0,
            warning_delta: 0.01,
            drift_delta: 0.001,
            subspace: None,
            seed: 0,
        }
    }
}

/// The Adaptive Random Forest ensemble classifier.
#[derive(Debug, Clone)]
pub struct AdaptiveRandomForest {
    members: Vec<Member>,
    config: ArfConfig,
    n_features: usize,
    n_classes: usize,
    n_trained: usize,
    rng: Xoshiro256pp,
}

impl AdaptiveRandomForest {
    /// Forest with default configuration.
    pub fn new(n_features: usize, n_classes: usize) -> Self {
        Self::with_config(n_features, n_classes, ArfConfig::default())
    }

    /// Forest with explicit configuration.
    pub fn with_config(n_features: usize, n_classes: usize, config: ArfConfig) -> Self {
        assert!(config.n_trees > 0);
        let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
        let members = (0..config.n_trees)
            .map(|_| Self::fresh_member(n_features, n_classes, &config, &mut rng))
            .collect();
        Self { members, config, n_features, n_classes, n_trained: 0, rng }
    }

    fn subspace_size(n_features: usize, config: &ArfConfig) -> usize {
        config
            .subspace
            .unwrap_or_else(|| ((n_features as f64).sqrt().ceil() as usize + 1).min(n_features))
    }

    fn fresh_tree(
        n_features: usize,
        n_classes: usize,
        config: &ArfConfig,
        rng: &mut Xoshiro256pp,
    ) -> HoeffdingTree {
        let tree_config = HoeffdingTreeConfig {
            subspace: Some(Self::subspace_size(n_features, config)),
            grace_period: 50,
            seed: rng.random(),
            ..HoeffdingTreeConfig::default()
        };
        HoeffdingTree::with_config(n_features, n_classes, tree_config)
    }

    fn fresh_member(
        n_features: usize,
        n_classes: usize,
        config: &ArfConfig,
        rng: &mut Xoshiro256pp,
    ) -> Member {
        Member {
            tree: Self::fresh_tree(n_features, n_classes, config, rng),
            background: None,
            warning: Adwin::new(config.warning_delta),
            drift: Adwin::new(config.drift_delta),
            correct: 0.0,
            seen: 0.0,
        }
    }

    /// Members currently training a background tree (in warning state).
    #[cfg(test)]
    fn n_backgrounds(&self) -> usize {
        self.members.iter().filter(|m| m.background.is_some()).count()
    }
}

impl Classifier for AdaptiveRandomForest {
    fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.predict_proba(x))
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        for m in &self.members {
            let w = m.weight();
            for (a, p) in acc.iter_mut().zip(m.tree.predict_proba(x)) {
                *a += w * p;
            }
        }
        normalize_or_uniform(acc)
    }

    fn train(&mut self, x: &[f64], y: usize) {
        if y >= self.n_classes || x.len() != self.n_features {
            return;
        }
        self.n_trained += 1;
        let (n_features, n_classes) = (self.n_features, self.n_classes);
        let config = self.config.clone();
        for mi in 0..self.members.len() {
            // Prequential error of this member drives its monitors.
            let err = {
                let m = &mut self.members[mi];
                let pred = m.tree.predict(x);
                let err = if pred == y { 0.0 } else { 1.0 };
                m.seen = m.seen * 0.999 + 1.0;
                m.correct = m.correct * 0.999 + (1.0 - err);
                err
            };
            let warning_fired =
                self.members[mi].warning.add(err) == DetectorState::Drift;
            let drift_fired = self.members[mi].drift.add(err) == DetectorState::Drift;

            if drift_fired {
                let m = &mut self.members[mi];
                m.tree = m.background.take().unwrap_or_else(|| {
                    Self::fresh_tree(n_features, n_classes, &config, &mut self.rng)
                });
                m.warning.reset();
                m.drift.reset();
                m.correct = 0.0;
                m.seen = 0.0;
            } else if warning_fired && self.members[mi].background.is_none() {
                self.members[mi].background =
                    Some(Self::fresh_tree(n_features, n_classes, &config, &mut self.rng));
            }

            // Online bagging: train k ~ Poisson(lambda) times.
            let k = poisson(self.config.lambda, &mut self.rng);
            let m = &mut self.members[mi];
            for _ in 0..k {
                m.tree.train(x, y);
                if let Some(bg) = &mut m.background {
                    bg.train(x, y);
                }
            }
        }
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn n_trained(&self) -> usize {
        self.n_trained
    }

    fn reset(&mut self) {
        let config = self.config.clone();
        *self = AdaptiveRandomForest::with_config(self.n_features, self.n_classes, config);
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(rng: &mut Xoshiro256pp) -> (Vec<f64>, usize) {
        let y = rng.random_range(0..2usize);
        let x0 = if y == 0 { rng.random::<f64>() } else { 2.0 + rng.random::<f64>() };
        (vec![x0, rng.random()], y)
    }

    #[test]
    fn poisson_mean_is_close_to_lambda() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(6.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.1, "poisson mean {mean}");
    }

    #[test]
    fn learns_separable_concept() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut arf = AdaptiveRandomForest::with_config(
            2,
            2,
            ArfConfig { n_trees: 5, ..ArfConfig::default() },
        );
        for _ in 0..1500 {
            let (x, y) = blob(&mut rng);
            arf.train(&x, y);
        }
        let mut correct = 0;
        for _ in 0..300 {
            let (x, y) = blob(&mut rng);
            if arf.predict(&x) == y {
                correct += 1;
            }
        }
        assert!(correct > 270, "accuracy too low: {correct}/300");
    }

    #[test]
    fn adapts_to_label_flip() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut arf = AdaptiveRandomForest::with_config(
            2,
            2,
            ArfConfig { n_trees: 5, ..ArfConfig::default() },
        );
        for _ in 0..1500 {
            let (x, y) = blob(&mut rng);
            arf.train(&x, y);
        }
        // Flip the labelling function and keep training.
        for _ in 0..2500 {
            let (x, y) = blob(&mut rng);
            arf.train(&x, 1 - y);
        }
        let mut correct = 0;
        for _ in 0..300 {
            let (x, y) = blob(&mut rng);
            if arf.predict(&x) == 1 - y {
                correct += 1;
            }
        }
        assert!(correct > 250, "post-drift accuracy too low: {correct}/300");
    }

    #[test]
    fn reset_restores_untrained_state() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut arf = AdaptiveRandomForest::new(2, 2);
        for _ in 0..200 {
            let (x, y) = blob(&mut rng);
            arf.train(&x, y);
        }
        arf.reset();
        assert_eq!(arf.n_trained(), 0);
        assert_eq!(arf.n_backgrounds(), 0);
    }
}
