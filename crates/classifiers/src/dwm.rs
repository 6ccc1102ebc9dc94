//! Dynamic Weighted Majority (Kolter & Maloof, JMLR 2007).
//!
//! DWM maintains a pool of expert learners with multiplicative weights.
//! Every `period` observations: experts that voted wrongly are decayed by
//! `beta`, experts whose weight falls below `theta` are removed, and a fresh
//! expert is added whenever the weighted ensemble itself errs. This is one
//! of the framework baselines of the paper's Table VI.

use crate::classifier::{argmax, normalize_or_uniform, Classifier};
use crate::hoeffding::HoeffdingTree;
use crate::naive_bayes::GaussianNaiveBayes;

/// Base learner used for new experts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpertKind {
    /// Gaussian naive Bayes (fast; the classic DWM choice).
    NaiveBayes,
    /// Hoeffding tree (the paper's Table VI configuration).
    #[default]
    HoeffdingTree,
}

struct Expert {
    model: Box<dyn Classifier>,
    weight: f64,
}

impl Clone for Expert {
    fn clone(&self) -> Self {
        Self { model: self.model.clone_box(), weight: self.weight }
    }
}

/// The DWM ensemble classifier.
pub struct DynamicWeightedMajority {
    experts: Vec<Expert>,
    kind: ExpertKind,
    beta: f64,
    theta: f64,
    period: usize,
    max_experts: usize,
    n_features: usize,
    n_classes: usize,
    n_trained: usize,
}

impl Clone for DynamicWeightedMajority {
    fn clone(&self) -> Self {
        Self {
            experts: self.experts.clone(),
            kind: self.kind,
            beta: self.beta,
            theta: self.theta,
            period: self.period,
            max_experts: self.max_experts,
            n_features: self.n_features,
            n_classes: self.n_classes,
            n_trained: self.n_trained,
        }
    }
}

impl DynamicWeightedMajority {
    /// DWM with paper-parity defaults: beta 0.5, theta 0.01, period 50,
    /// at most 10 Hoeffding-tree experts.
    pub fn new(n_features: usize, n_classes: usize) -> Self {
        Self::with_params(n_features, n_classes, ExpertKind::default(), 0.5, 0.01, 50, 10)
    }

    /// Fully parameterised constructor.
    pub fn with_params(
        n_features: usize,
        n_classes: usize,
        kind: ExpertKind,
        beta: f64,
        theta: f64,
        period: usize,
        max_experts: usize,
    ) -> Self {
        assert!((0.0..1.0).contains(&beta) && theta > 0.0 && period > 0 && max_experts > 0);
        let mut dwm = Self {
            experts: Vec::new(),
            kind,
            beta,
            theta,
            period,
            max_experts,
            n_features,
            n_classes,
            n_trained: 0,
        };
        dwm.add_expert();
        dwm
    }

    fn build_model(&self) -> Box<dyn Classifier> {
        match self.kind {
            ExpertKind::NaiveBayes => {
                Box::new(GaussianNaiveBayes::new(self.n_features, self.n_classes))
            }
            ExpertKind::HoeffdingTree => {
                Box::new(HoeffdingTree::new(self.n_features, self.n_classes))
            }
        }
    }

    fn add_expert(&mut self) {
        if self.experts.len() >= self.max_experts {
            // Evict the lightest expert to make room.
            if let Some((idx, _)) = self
                .experts
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.weight.total_cmp(&b.1.weight))
            {
                self.experts.swap_remove(idx);
            }
        }
        let model = self.build_model();
        self.experts.push(Expert { model, weight: 1.0 });
    }

    /// Current number of experts in the pool.
    #[cfg(test)]
    fn n_experts(&self) -> usize {
        self.experts.len()
    }

    fn weighted_vote(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        for e in &self.experts {
            acc[e.model.predict(x).min(self.n_classes - 1)] += e.weight;
        }
        normalize_or_uniform(acc)
    }
}

impl Classifier for DynamicWeightedMajority {
    fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.weighted_vote(x))
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.weighted_vote(x)
    }

    fn train(&mut self, x: &[f64], y: usize) {
        if y >= self.n_classes || x.len() != self.n_features {
            return;
        }
        self.n_trained += 1;
        let update_round = self.n_trained.is_multiple_of(self.period);

        // Record per-expert correctness before training, decay wrong experts
        // on update rounds.
        let global_pred = self.predict(x);
        for e in &mut self.experts {
            if update_round && e.model.predict(x) != y {
                e.weight *= self.beta;
            }
        }

        if update_round {
            // Normalise so the max weight is 1, prune light experts.
            let max_w = self.experts.iter().map(|e| e.weight).fold(0.0_f64, f64::max);
            if max_w > 0.0 {
                for e in &mut self.experts {
                    e.weight /= max_w;
                }
            }
            let theta = self.theta;
            if self.experts.len() > 1 {
                self.experts.retain(|e| e.weight >= theta);
            }
            if global_pred != y {
                self.add_expert();
            }
        }

        for e in &mut self.experts {
            e.model.train(x, y);
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
        self.experts.clear();
        self.n_trained = 0;
        self.add_expert();
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    fn blob(rng: &mut Xoshiro256pp, flipped: bool) -> (Vec<f64>, usize) {
        let y = rng.random_range(0..2usize);
        let x0 = if y == 0 { rng.random::<f64>() } else { 2.0 + rng.random::<f64>() };
        (vec![x0, rng.random()], if flipped { 1 - y } else { y })
    }

    #[test]
    fn learns_and_adapts() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut dwm =
            DynamicWeightedMajority::with_params(2, 2, ExpertKind::NaiveBayes, 0.5, 0.01, 50, 10);
        for _ in 0..1500 {
            let (x, y) = blob(&mut rng, false);
            dwm.train(&x, y);
        }
        let mut correct = 0;
        for _ in 0..200 {
            let (x, y) = blob(&mut rng, false);
            if dwm.predict(&x) == y {
                correct += 1;
            }
        }
        assert!(correct > 180, "pre-drift accuracy {correct}/200");

        for _ in 0..3000 {
            let (x, y) = blob(&mut rng, true);
            dwm.train(&x, y);
        }
        let mut correct = 0;
        for _ in 0..200 {
            let (x, y) = blob(&mut rng, true);
            if dwm.predict(&x) == y {
                correct += 1;
            }
        }
        assert!(correct > 160, "post-drift accuracy {correct}/200");
    }

    #[test]
    fn expert_pool_is_bounded() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut dwm =
            DynamicWeightedMajority::with_params(1, 2, ExpertKind::NaiveBayes, 0.5, 0.01, 10, 4);
        // Pure noise keeps adding experts; pool must stay bounded.
        for _ in 0..2000 {
            dwm.train(&[rng.random()], rng.random_range(0..2usize));
        }
        assert!(dwm.n_experts() <= 4);
        assert!(dwm.n_experts() >= 1);
    }

    #[test]
    fn reset_shrinks_to_single_expert() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let mut dwm = DynamicWeightedMajority::new(2, 2);
        for _ in 0..500 {
            let (x, y) = blob(&mut rng, false);
            dwm.train(&x, y);
        }
        dwm.reset();
        assert_eq!(dwm.n_experts(), 1);
        assert_eq!(dwm.n_trained(), 0);
    }
}
