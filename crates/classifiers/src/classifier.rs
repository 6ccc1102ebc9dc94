//! The incremental classifier interface.

/// An incremental (online) multi-class classifier.
///
/// All learners in this workspace are trained prequentially: callers predict
/// first, then train on the revealed label. Implementations must be
/// object-safe so the FiCSUM repository can store heterogeneous classifiers
/// behind `Box<dyn Classifier>`.
pub trait Classifier: Send + Sync {
    /// Predicts a class label for `x`. Untrained classifiers return 0.
    fn predict(&self, x: &[f64]) -> usize;

    /// Allocation-free prediction: like [`Self::predict`], but given a
    /// caller-owned scratch vector implementations can reuse for the
    /// probability work. Must return the same label as `predict`. The
    /// default ignores the scratch and delegates.
    fn predict_with(&self, x: &[f64], proba_scratch: &mut Vec<f64>) -> usize {
        let _ = proba_scratch;
        self.predict(x)
    }

    /// Class-probability estimates for `x`. The returned vector has
    /// `n_classes` entries summing to 1 (uniform when untrained).
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// Incorporates one labeled observation.
    fn train(&mut self, x: &[f64], y: usize);

    /// Number of classes this classifier discriminates.
    fn n_classes(&self) -> usize;

    /// Number of input features.
    fn n_features(&self) -> usize;

    /// Number of training observations incorporated so far.
    fn n_trained(&self) -> usize;

    /// Forgets everything, returning to the untrained state.
    fn reset(&mut self);

    /// Clones the classifier behind the trait object.
    fn clone_box(&self) -> Box<dyn Classifier>;

    /// Returns `true` once if the model structure changed "significantly"
    /// since the last call (e.g. a Hoeffding tree grew a branch). FiCSUM
    /// uses this to reset the distribution of classifier-dependent
    /// meta-information features (Section IV). Default: never.
    fn take_growth_event(&mut self) -> bool {
        false
    }

    /// Per-feature importance of the prediction on `x`, when the learner can
    /// attribute it (tree path contributions). `None` for opaque learners.
    fn feature_contributions(&self, x: &[f64]) -> Option<Vec<f64>> {
        let _ = x;
        None
    }

    /// Allocation-free variant of [`Self::feature_contributions`]: fills
    /// `out` and returns the label it explains — which must equal
    /// [`Self::predict_with`] on `x` — when the learner can attribute the
    /// prediction; returns `None` (leaving `out` unspecified) otherwise.
    /// `proba_scratch` is caller-owned scratch for the probability walks.
    /// Must produce the same values as `feature_contributions`, so one call
    /// serves a caller that needs both the prediction and its attribution.
    fn contributions_with(
        &self,
        x: &[f64],
        out: &mut Vec<f64>,
        proba_scratch: &mut Vec<f64>,
    ) -> Option<usize> {
        let c = self.feature_contributions(x)?;
        out.clear();
        out.extend_from_slice(&c);
        Some(self.predict_with(x, proba_scratch))
    }

    /// A rough model-complexity measure (splits for trees, experts for
    /// ensembles, 0 for flat models). FiCSUM uses it to judge whether a
    /// growth event is still a *significant* behavioural change (early
    /// structure) or routine refinement of a large model.
    fn complexity(&self) -> usize {
        0
    }
}

impl Clone for Box<dyn Classifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A factory producing fresh classifiers for new concepts.
///
/// FiCSUM initialises a new classifier whenever a drift leads to a segment
/// that matches no stored concept; the factory captures the configuration
/// (classifier kind, hyper-parameters, seed policy) used for every concept.
pub trait ClassifierFactory: Send {
    /// Builds a fresh, untrained classifier.
    fn build(&mut self) -> Box<dyn Classifier>;
}

impl<F> ClassifierFactory for F
where
    F: FnMut() -> Box<dyn Classifier> + Send,
{
    fn build(&mut self) -> Box<dyn Classifier> {
        self()
    }
}

/// Utility: argmax over a probability vector with deterministic tie-break
/// (lowest index wins).
pub fn argmax(probs: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in probs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Utility: normalises a non-negative vector to sum to 1, or returns the
/// uniform distribution when the sum is zero or non-finite.
pub fn normalize_or_uniform(mut v: Vec<f64>) -> Vec<f64> {
    normalize_or_uniform_in_place(&mut v);
    v
}

/// In-place [`normalize_or_uniform`]: same result, no allocation when the
/// vector already has capacity. An empty vector degenerates to `[1.0]`,
/// matching the by-value version.
pub fn normalize_or_uniform_in_place(v: &mut Vec<f64>) {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        for x in v.iter_mut() {
            *x /= sum;
        }
    } else {
        let n = v.len().max(1);
        v.clear();
        v.resize(n, 1.0 / n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[0.4, 0.4, 0.2]), 0);
        assert_eq!(argmax(&[0.1, 0.8, 0.1]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn normalize_handles_zero_sum() {
        let u = normalize_or_uniform(vec![0.0, 0.0]);
        assert_eq!(u, vec![0.5, 0.5]);
        let n = normalize_or_uniform(vec![1.0, 3.0]);
        assert!((n[0] - 0.25).abs() < 1e-12);
        assert!((n[1] - 0.75).abs() < 1e-12);
    }
}
