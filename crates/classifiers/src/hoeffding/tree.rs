//! The Hoeffding tree (VFDT) learner.

use ficsum_stream::rng::{sample_indices, Xoshiro256pp};

use crate::classifier::{argmax, normalize_or_uniform_in_place, Classifier};
use crate::hoeffding::observer::{entropy, GaussianObserver, NbTerm, SplitScratch};

/// How leaves turn their sufficient statistics into predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeafPrediction {
    /// Majority class of the leaf.
    MajorityClass,
    /// Gaussian naive Bayes over the leaf's attribute observers.
    NaiveBayes,
    /// Per-leaf adaptive choice between the two, tracking which has been
    /// more accurate at this leaf (MOA's `NBAdaptive`, the default).
    #[default]
    NaiveBayesAdaptive,
}

/// Hyper-parameters of the [`HoeffdingTree`].
#[derive(Debug, Clone)]
pub struct HoeffdingTreeConfig {
    /// Observations a leaf accumulates between split attempts.
    pub grace_period: usize,
    /// `delta` of the Hoeffding bound (probability of a wrong split choice).
    pub split_confidence: f64,
    /// Below this bound value, ties are split anyway.
    pub tie_threshold: f64,
    /// Leaf prediction strategy.
    pub leaf_prediction: LeafPrediction,
    /// Maximum tree depth (leaves at this depth never split).
    pub max_depth: usize,
    /// Number of candidate thresholds evaluated per attribute.
    pub n_split_candidates: usize,
    /// When set, each leaf observes only a random subset of this many
    /// attributes (the ARF random-subspace mechanism).
    pub subspace: Option<usize>,
    /// Seed for subspace sampling.
    pub seed: u64,
}

impl Default for HoeffdingTreeConfig {
    /// Defaults tuned for recurring-concept streams whose stationary
    /// segments hold hundreds-to-thousands of observations (the paper's
    /// setting): splits are evaluated often and the tie threshold is
    /// permissive, trading a little split quality for much faster
    /// structural convergence than MOA's web-scale defaults.
    fn default() -> Self {
        Self {
            grace_period: 25,
            split_confidence: 1e-4,
            tie_threshold: 0.15,
            leaf_prediction: LeafPrediction::default(),
            max_depth: 20,
            n_split_candidates: 10,
            subspace: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct LeafData {
    class_counts: Vec<f64>,
    /// Naive-Bayes log-priors `ln((count_c + 1) / (total + K))` of
    /// `class_counts`, computed when the leaf is made and refreshed by
    /// [`LeafData::count_class`], the only other change to the counts.
    ln_priors: Vec<f64>,
    observers: Vec<GaussianObserver>,
    /// Attributes this leaf observes (all, or a random subspace).
    attrs: Vec<usize>,
    weight_seen: f64,
    weight_at_last_eval: f64,
    depth: usize,
    /// Adaptive leaf-prediction bookkeeping.
    mc_correct: f64,
    nb_correct: f64,
}

impl LeafData {
    /// Counts one observation of class `y`; every prior moves with the
    /// total, so all of them are refreshed.
    fn count_class(&mut self, y: usize) {
        self.class_counts[y] += 1.0;
        self.refresh_ln_priors();
    }

    fn refresh_ln_priors(&mut self) {
        let total: f64 = self.class_counts.iter().sum();
        let k = self.class_counts.len() as f64;
        self.ln_priors.clear();
        self.ln_priors.extend(self.class_counts.iter().map(|&c| ((c + 1.0) / (total + k)).ln()));
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(LeafData),
    Split {
        feature: usize,
        threshold: f64,
        /// Class counts of everything routed through this node, kept for
        /// Saabas path contributions.
        class_counts: Vec<f64>,
        left: usize,
        right: usize,
    },
}

/// An incremental Very Fast Decision Tree (Domingos & Hulten, KDD 2000) with
/// Gaussian attribute observers for numeric features.
///
/// This is the classifier FiCSUM attaches to every concept representation.
/// Besides the standard learner interface, it exposes:
///
/// * **growth events** ([`Classifier::take_growth_event`]) — FiCSUM resets
///   classifier-dependent meta-feature distributions when the tree grows a
///   branch (paper Section IV),
/// * **path contributions** ([`Classifier::feature_contributions`]) — the
///   Saabas decomposition of a prediction across the features on its root→
///   leaf path, this workspace's fast stand-in for Shapley values.
#[derive(Debug, Clone)]
pub struct HoeffdingTree {
    config: HoeffdingTreeConfig,
    nodes: Vec<Node>,
    root: usize,
    n_features: usize,
    n_classes: usize,
    n_trained: usize,
    rng: Xoshiro256pp,
    grew_since_taken: bool,
    n_splits: usize,
    /// Scratch probability vector for the adaptive-leaf bookkeeping in
    /// `train`, kept so the hot path never allocates.
    train_scratch: Vec<f64>,
    /// Reusable buffers for grace-period split evaluation, kept so the
    /// periodic [`GaussianObserver::best_split_with`] sweep never allocates.
    split_scratch: SplitScratch,
}

impl HoeffdingTree {
    /// A tree over `n_features` numeric inputs and `n_classes` labels with
    /// default hyper-parameters.
    pub fn new(n_features: usize, n_classes: usize) -> Self {
        Self::with_config(n_features, n_classes, HoeffdingTreeConfig::default())
    }

    /// A tree with explicit hyper-parameters.
    pub fn with_config(n_features: usize, n_classes: usize, config: HoeffdingTreeConfig) -> Self {
        assert!(n_features > 0 && n_classes > 0);
        let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
        let root_leaf =
            Self::make_leaf(n_features, n_classes, &config, &mut rng, 0, vec![0.0; n_classes]);
        Self {
            config,
            nodes: vec![Node::Leaf(root_leaf)],
            root: 0,
            n_features,
            n_classes,
            n_trained: 0,
            rng,
            grew_since_taken: false,
            n_splits: 0,
            train_scratch: Vec::new(),
            split_scratch: SplitScratch::default(),
        }
    }

    /// A leaf at `depth` starting from `class_counts`.
    fn make_leaf(
        n_features: usize,
        n_classes: usize,
        config: &HoeffdingTreeConfig,
        rng: &mut Xoshiro256pp,
        depth: usize,
        class_counts: Vec<f64>,
    ) -> LeafData {
        let attrs: Vec<usize> = match config.subspace {
            Some(k) if k < n_features => sample_indices(rng, n_features, k),
            _ => (0..n_features).collect(),
        };
        let mut leaf = LeafData {
            class_counts,
            ln_priors: Vec::new(),
            observers: attrs.iter().map(|_| GaussianObserver::new(n_classes)).collect(),
            attrs,
            weight_seen: 0.0,
            weight_at_last_eval: 0.0,
            depth,
            mc_correct: 0.0,
            nb_correct: 0.0,
        };
        leaf.refresh_ln_priors();
        leaf
    }

    /// Number of splits performed so far (tree size proxy).
    pub fn n_splits(&self) -> usize {
        self.n_splits
    }

    /// Total node count.
    #[cfg(test)]
    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (max leaf depth).
    pub fn depth(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf(l) => Some(l.depth),
                Node::Split { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Index of the leaf `x` routes to.
    fn sorted_leaf(&self, x: &[f64]) -> usize {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Leaf(_) => return idx,
                Node::Split { feature, threshold, left, right, .. } => {
                    idx = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Naive-Bayes class log-posteriors at a leaf, written into `out`.
    fn leaf_nb_proba_into(&self, leaf: &LeafData, x: &[f64], out: &mut Vec<f64>) {
        let total: f64 = leaf.class_counts.iter().sum();
        if total <= 0.0 {
            out.clear();
            out.resize(self.n_classes, 1.0 / self.n_classes as f64);
            return;
        }
        out.clear();
        out.resize(self.n_classes, 0.0);
        for ((c, log), &ln_prior) in out.iter_mut().enumerate().zip(&leaf.ln_priors) {
            *log = ln_prior;
            for (obs, &attr) in leaf.observers.iter().zip(&leaf.attrs) {
                let Some(NbTerm { mean, sd, ln_sd }) = obs.nb_term(c) else { continue };
                let z = (x[attr] - mean) / sd;
                *log += -0.5 * z * z - ln_sd;
            }
        }
        let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for l in out.iter_mut() {
            *l = (*l - max).exp();
        }
        normalize_or_uniform_in_place(out);
    }

    fn leaf_proba_into(&self, leaf: &LeafData, x: &[f64], out: &mut Vec<f64>) {
        let mc = |out: &mut Vec<f64>| {
            out.clear();
            out.extend_from_slice(&leaf.class_counts);
            normalize_or_uniform_in_place(out);
        };
        match self.config.leaf_prediction {
            LeafPrediction::MajorityClass => mc(out),
            LeafPrediction::NaiveBayes => self.leaf_nb_proba_into(leaf, x, out),
            LeafPrediction::NaiveBayesAdaptive => {
                if leaf.nb_correct > leaf.mc_correct {
                    self.leaf_nb_proba_into(leaf, x, out)
                } else {
                    mc(out)
                }
            }
        }
    }

    /// Class-probability estimates written into `out` — the zero-allocation
    /// core [`Classifier::predict_proba`] wraps.
    pub fn predict_proba_into(&self, x: &[f64], out: &mut Vec<f64>) {
        let leaf_idx = self.sorted_leaf(x);
        match &self.nodes[leaf_idx] {
            Node::Leaf(l) => self.leaf_proba_into(l, x, out),
            Node::Split { .. } => unreachable!("sorted_leaf returns a leaf"),
        }
    }

    /// Attempts to split the leaf at `idx`. Returns whether a split happened.
    fn try_split(&mut self, idx: usize) -> bool {
        let (best, second_merit, leaf_entropy, n, depth) = {
            let scratch = &mut self.split_scratch;
            let leaf = match &self.nodes[idx] {
                Node::Leaf(l) => l,
                Node::Split { .. } => return false,
            };
            if leaf.depth >= self.config.max_depth {
                return false;
            }
            let n: f64 = leaf.class_counts.iter().sum();
            // A pure leaf has nothing to gain from splitting.
            if leaf.class_counts.iter().filter(|&&c| c > 0.0).count() < 2 {
                return false;
            }
            let mut best: Option<(usize, f64, f64)> = None; // (attr, threshold, merit)
            let mut second_merit = 0.0;
            for (oi, obs) in leaf.observers.iter().enumerate() {
                if let Some(cand) = obs.best_split_with(self.config.n_split_candidates, scratch) {
                    match best {
                        Some((_, _, m)) if cand.merit > m => {
                            second_merit = m;
                            best = Some((leaf.attrs[oi], cand.threshold, cand.merit));
                        }
                        Some((_, _, m)) => {
                            if cand.merit > second_merit {
                                second_merit = cand.merit;
                            }
                            let _ = m;
                        }
                        None => best = Some((leaf.attrs[oi], cand.threshold, cand.merit)),
                    }
                }
            }
            match best {
                Some(b) => (b, second_merit, entropy(&leaf.class_counts), n, leaf.depth),
                None => return false,
            }
        };

        // Hoeffding bound over the merit range R = log2(n_classes).
        let range = (self.n_classes as f64).log2().max(1.0);
        let eps = (range * range * (1.0 / self.config.split_confidence).ln() / (2.0 * n)).sqrt();
        let (attr, threshold, merit) = best;
        // Splitting must beat not-splitting (merit > 0) decisively.
        let decisive = merit - second_merit > eps || eps < self.config.tie_threshold;
        if merit <= 1e-10 || !decisive || merit < leaf_entropy * 0.01 {
            return false;
        }

        // Materialise the split: project leaf statistics into the children.
        let (left_counts, right_counts, parent_counts) = {
            let leaf = match &self.nodes[idx] {
                Node::Leaf(l) => l,
                Node::Split { .. } => unreachable!("checked above"),
            };
            let oi = leaf.attrs.iter().position(|&a| a == attr).expect("attr from this leaf");
            let (l, r) = leaf.observers[oi].project(threshold);
            (l, r, leaf.class_counts.clone())
        };
        let (n_features, n_classes, config) = (self.n_features, self.n_classes, &self.config);
        let left_leaf =
            Self::make_leaf(n_features, n_classes, config, &mut self.rng, depth + 1, left_counts);
        let right_leaf =
            Self::make_leaf(n_features, n_classes, config, &mut self.rng, depth + 1, right_counts);

        let left = self.nodes.len();
        self.nodes.push(Node::Leaf(left_leaf));
        let right = self.nodes.len();
        self.nodes.push(Node::Leaf(right_leaf));
        self.nodes[idx] =
            Node::Split { feature: attr, threshold, class_counts: parent_counts, left, right };
        self.n_splits += 1;
        self.grew_since_taken = true;
        true
    }
}

impl Classifier for HoeffdingTree {
    fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.predict_proba(x))
    }

    fn predict_with(&self, x: &[f64], proba_scratch: &mut Vec<f64>) -> usize {
        // Same label as `predict`: the probabilities are computed by the
        // identical exp/normalise path, only into caller-owned storage.
        self.predict_proba_into(x, proba_scratch);
        argmax(proba_scratch)
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_classes);
        self.predict_proba_into(x, &mut out);
        out
    }

    fn train(&mut self, x: &[f64], y: usize) {
        if y >= self.n_classes || x.len() != self.n_features {
            return;
        }
        // Update class counts along the internal path (for contributions).
        let mut idx = self.root;
        loop {
            match &mut self.nodes[idx] {
                Node::Leaf(_) => break,
                Node::Split { feature, threshold, class_counts, left, right } => {
                    class_counts[y] += 1.0;
                    idx = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }

        // Adaptive-leaf bookkeeping requires predictions *before* training.
        if self.config.leaf_prediction == LeafPrediction::NaiveBayesAdaptive {
            let mut scratch = std::mem::take(&mut self.train_scratch);
            let (mc_pred, nb_pred) = match &self.nodes[idx] {
                Node::Leaf(l) => {
                    self.leaf_nb_proba_into(l, x, &mut scratch);
                    (argmax(&l.class_counts), argmax(&scratch))
                }
                Node::Split { .. } => unreachable!(),
            };
            self.train_scratch = scratch;
            if let Node::Leaf(l) = &mut self.nodes[idx] {
                if mc_pred == y {
                    l.mc_correct += 1.0;
                }
                if nb_pred == y {
                    l.nb_correct += 1.0;
                }
            }
        }

        let should_eval = {
            let leaf = match &mut self.nodes[idx] {
                Node::Leaf(l) => l,
                Node::Split { .. } => unreachable!(),
            };
            leaf.count_class(y);
            leaf.weight_seen += 1.0;
            for oi in 0..leaf.attrs.len() {
                let attr = leaf.attrs[oi];
                leaf.observers[oi].observe(x[attr], y);
            }
            leaf.weight_seen - leaf.weight_at_last_eval >= self.config.grace_period as f64
        };
        self.n_trained += 1;

        if should_eval {
            if let Node::Leaf(l) = &mut self.nodes[idx] {
                l.weight_at_last_eval = l.weight_seen;
            }
            self.try_split(idx);
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
        *self = HoeffdingTree::with_config(self.n_features, self.n_classes, config);
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn take_growth_event(&mut self) -> bool {
        std::mem::take(&mut self.grew_since_taken)
    }

    fn complexity(&self) -> usize {
        self.n_splits
    }

    /// Saabas path decomposition: walking root→leaf, the change in the
    /// predicted class's probability at each split is credited to the split
    /// feature. The absolute values, averaged over a window, approximate
    /// Shapley feature importance for trees.
    fn feature_contributions(&self, x: &[f64]) -> Option<Vec<f64>> {
        let mut contrib = Vec::new();
        let mut scratch = Vec::with_capacity(self.n_classes);
        self.contributions_with(x, &mut contrib, &mut scratch);
        Some(contrib)
    }

    fn contributions_with(
        &self,
        x: &[f64],
        out: &mut Vec<f64>,
        proba_scratch: &mut Vec<f64>,
    ) -> Option<usize> {
        out.clear();
        out.resize(self.n_features, 0.0);
        let pred = self.predict_with(x, proba_scratch);
        // `predict_with` evaluated the leaf `x` routes to; the walk below
        // ends at that same leaf, so its P(pred) is reused for the final
        // hop instead of being evaluated a second time.
        let p_leaf = proba_scratch[pred];
        let norm_counts = |counts: &[f64], scratch: &mut Vec<f64>| {
            scratch.clear();
            scratch.extend_from_slice(counts);
            normalize_or_uniform_in_place(scratch);
            scratch[pred]
        };
        let mut idx = self.root;
        // Walk internal nodes; every hop credits the split feature with the
        // change in P(pred). Reaching a leaf ends the walk (the hop *into*
        // the leaf was already credited when the leaf was the child).
        while let Node::Split { feature, threshold, class_counts, left, right } = &self.nodes[idx]
        {
            let p_here = norm_counts(class_counts, proba_scratch);
            let child = if x[*feature] <= *threshold { *left } else { *right };
            let p_child = match &self.nodes[child] {
                Node::Leaf(_) => p_leaf,
                Node::Split { class_counts, .. } => norm_counts(class_counts, proba_scratch),
            };
            out[*feature] += p_child - p_here;
            idx = child;
        }
        Some(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    /// Two well-separated Gaussian blobs labelled by a threshold on x0.
    fn blob_stream(rng: &mut Xoshiro256pp, n: usize) -> Vec<(Vec<f64>, usize)> {
        (0..n)
            .map(|_| {
                let y = rng.random_range(0..2usize);
                let x0 = if y == 0 { rng.random::<f64>() } else { 2.0 + rng.random::<f64>() };
                let x1: f64 = rng.random();
                (vec![x0, x1], y)
            })
            .collect()
    }

    #[test]
    fn learns_threshold_concept() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut tree = HoeffdingTree::new(2, 2);
        for (x, y) in blob_stream(&mut rng, 3000) {
            tree.train(&x, y);
        }
        assert!(tree.n_splits() >= 1, "tree must grow");
        let mut correct = 0;
        let test = blob_stream(&mut rng, 500);
        for (x, y) in &test {
            if tree.predict(x) == *y {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.95, "accuracy {acc} too low");
    }

    #[test]
    fn growth_event_is_one_shot() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut tree = HoeffdingTree::new(2, 2);
        for (x, y) in blob_stream(&mut rng, 3000) {
            tree.train(&x, y);
        }
        assert!(tree.take_growth_event());
        assert!(!tree.take_growth_event(), "event must be consumed");
    }

    #[test]
    fn contributions_highlight_predictive_feature() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut tree = HoeffdingTree::new(2, 2);
        for (x, y) in blob_stream(&mut rng, 5000) {
            tree.train(&x, y);
        }
        let mut acc = vec![0.0; 2];
        for (x, _) in blob_stream(&mut rng, 200) {
            let c = tree.feature_contributions(&x).unwrap();
            acc[0] += c[0].abs();
            acc[1] += c[1].abs();
        }
        assert!(
            acc[0] > acc[1],
            "feature 0 drives labels; contributions {acc:?} disagree"
        );
    }

    /// The contributions walk with the leaf evaluated again at the final
    /// hop through `leaf_proba_into`: the oracle for the walk that reuses
    /// the prediction's leaf probability.
    fn reference_contributions(tree: &HoeffdingTree, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; tree.n_features];
        let mut scratch = Vec::new();
        let pred = tree.predict_with(x, &mut scratch);
        let norm_counts = |counts: &[f64], scratch: &mut Vec<f64>| {
            scratch.clear();
            scratch.extend_from_slice(counts);
            normalize_or_uniform_in_place(scratch);
            scratch[pred]
        };
        let mut idx = tree.root;
        while let Node::Split { feature, threshold, class_counts, left, right } = &tree.nodes[idx]
        {
            let p_here = norm_counts(class_counts, &mut scratch);
            let child = if x[*feature] <= *threshold { *left } else { *right };
            let p_child = match &tree.nodes[child] {
                Node::Leaf(l) => {
                    tree.leaf_proba_into(l, x, &mut scratch);
                    scratch[pred]
                }
                Node::Split { class_counts, .. } => norm_counts(class_counts, &mut scratch),
            };
            out[*feature] += p_child - p_here;
            idx = child;
        }
        out
    }

    /// Checks the fused walk against the reference on `queries`: identical
    /// contribution bits and a returned label equal to `predict_with`.
    fn assert_contributions_match_reference(tree: &HoeffdingTree, queries: &[Vec<f64>]) {
        let (mut out, mut scratch, mut pscratch) = (Vec::new(), Vec::new(), Vec::new());
        for (q, x) in queries.iter().enumerate() {
            let label = tree.contributions_with(x, &mut out, &mut scratch);
            assert_eq!(label, Some(tree.predict_with(x, &mut pscratch)), "query {q}: label");
            let expected = reference_contributions(tree, x);
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&expected), "query {q}: contributions");
            let by_value = tree.feature_contributions(x).unwrap();
            assert_eq!(bits(&by_value), bits(&expected), "query {q}: feature_contributions");
        }
    }

    #[test]
    fn fused_contributions_walk_matches_reference() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        // Three classes over four features with overlapping classes, so
        // trees grow several levels and naive-Bayes leaves disagree with
        // the majority class at some points.
        let stream: Vec<(Vec<f64>, usize)> = (0..4000)
            .map(|_| {
                let x: Vec<f64> = (0..4).map(|_| rng.random::<f64>() * 4.0).collect();
                let noisy = rng.random::<f64>() < 0.15;
                let y = if noisy {
                    rng.random_range(0..3usize)
                } else {
                    ((x[0] > 2.0) as usize + (x[1] + x[2] > 4.0) as usize) % 3
                };
                (x, y)
            })
            .collect();
        let queries: Vec<Vec<f64>> =
            (0..300).map(|_| (0..4).map(|_| rng.random::<f64>() * 5.0 - 0.5).collect()).collect();
        for mode in [
            LeafPrediction::MajorityClass,
            LeafPrediction::NaiveBayes,
            LeafPrediction::NaiveBayesAdaptive,
        ] {
            let config = HoeffdingTreeConfig { leaf_prediction: mode, ..Default::default() };
            let mut tree = HoeffdingTree::with_config(4, 3, config);
            // Untrained: a single uniform leaf.
            assert_contributions_match_reference(&tree, &queries);
            // Root only: trained, but fewer observations than a grace period.
            for (x, y) in &stream[..10] {
                tree.train(x, *y);
            }
            assert_eq!(tree.n_splits(), 0, "{mode:?}: premise, root-only tree");
            assert_contributions_match_reference(&tree, &queries);
            for (x, y) in &stream[10..] {
                tree.train(x, *y);
            }
            assert!(tree.depth() >= 2, "{mode:?}: premise, multi-level tree");
            assert_contributions_match_reference(&tree, &queries);
        }
    }

    /// Naive-Bayes leaf probabilities recomputing every term from the
    /// class estimators on each call: the oracle for the cached terms.
    fn reference_nb_proba(tree: &HoeffdingTree, leaf: &LeafData, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        let total: f64 = leaf.class_counts.iter().sum();
        if total <= 0.0 {
            out.resize(tree.n_classes, 1.0 / tree.n_classes as f64);
            return out;
        }
        out.resize(tree.n_classes, 0.0);
        for (c, log) in out.iter_mut().enumerate() {
            let prior = (leaf.class_counts[c] + 1.0) / (total + tree.n_classes as f64);
            *log = prior.ln();
            for (oi, &attr) in leaf.attrs.iter().enumerate() {
                let stats = leaf.observers[oi].running_stats(c);
                if stats.count() < 2 {
                    continue;
                }
                let sd = stats.std_dev().max(1e-6);
                let z = (x[attr] - stats.mean()) / sd;
                *log += -0.5 * z * z - sd.ln();
            }
        }
        let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for l in out.iter_mut() {
            *l = (*l - max).exp();
        }
        normalize_or_uniform_in_place(&mut out);
        out
    }

    /// Tree probabilities with the leaf answered by the reference above.
    fn reference_proba(tree: &HoeffdingTree, x: &[f64]) -> Vec<f64> {
        let Node::Leaf(leaf) = &tree.nodes[tree.sorted_leaf(x)] else { unreachable!() };
        let mut mc = leaf.class_counts.clone();
        normalize_or_uniform_in_place(&mut mc);
        match tree.config.leaf_prediction {
            LeafPrediction::MajorityClass => mc,
            LeafPrediction::NaiveBayes => reference_nb_proba(tree, leaf, x),
            LeafPrediction::NaiveBayesAdaptive if leaf.nb_correct > leaf.mc_correct => {
                reference_nb_proba(tree, leaf, x)
            }
            LeafPrediction::NaiveBayesAdaptive => mc,
        }
    }

    fn assert_proba_matches_reference(tree: &HoeffdingTree, queries: &[Vec<f64>], at: &str) {
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let mut out = Vec::new();
        for (q, x) in queries.iter().enumerate() {
            tree.predict_proba_into(x, &mut out);
            assert_eq!(bits(&out), bits(&reference_proba(tree, x)), "{at} query {q}");
        }
    }

    #[test]
    fn cached_leaf_terms_match_recomputed_terms() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut stream: Vec<(Vec<f64>, usize)> = (0..3000)
            .map(|_| {
                let x: Vec<f64> = (0..4).map(|_| rng.random::<f64>() * 4.0).collect();
                let y = if rng.random::<f64>() < 0.2 {
                    rng.random_range(0..3usize)
                } else {
                    ((x[0] > 2.0) as usize + (x[1] + x[2] > 4.0) as usize) % 3
                };
                (x, y)
            })
            .collect();
        // A non-finite attribute value is skipped by that attribute's
        // observer alone, so its class counts fall behind the others.
        stream[2].0[1] = f64::NAN;
        stream[40].0[3] = f64::INFINITY;
        let mut queries: Vec<Vec<f64>> =
            (0..200).map(|_| (0..4).map(|_| rng.random::<f64>() * 5.0 - 0.5).collect()).collect();
        queries.push(vec![1.0, f64::NAN, 2.0, 3.0]);
        queries.push(vec![f64::INFINITY, 1.0, f64::NEG_INFINITY, 0.5]);
        for mode in [
            LeafPrediction::MajorityClass,
            LeafPrediction::NaiveBayes,
            LeafPrediction::NaiveBayesAdaptive,
        ] {
            for subspace in [None, Some(2)] {
                let config = HoeffdingTreeConfig {
                    leaf_prediction: mode,
                    subspace,
                    seed: 3,
                    ..Default::default()
                };
                let mut tree = HoeffdingTree::with_config(4, 3, config);
                let mut trained = 0;
                // Untrained, then per-class observer counts of 0, 1 and 2+
                // side by side, then a grown tree.
                for upto in [0usize, 1, 2, 3, 5, 8, 3000] {
                    for (x, y) in &stream[trained..upto] {
                        tree.train(x, *y);
                    }
                    trained = upto;
                    let at = format!("{mode:?} subspace {subspace:?} after {upto}");
                    assert_proba_matches_reference(&tree, &queries, &at);
                }
                assert!(tree.depth() >= 2, "{mode:?}: premise, multi-level tree");
            }
        }
    }

    #[test]
    fn untrained_tree_is_uniform() {
        let tree = HoeffdingTree::new(3, 4);
        let p = tree.predict_proba(&[0.0, 0.0, 0.0]);
        assert_eq!(p, vec![0.25; 4]);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn pure_stream_never_splits() {
        let mut tree = HoeffdingTree::new(1, 2);
        for i in 0..2000 {
            tree.train(&[i as f64], 0);
        }
        assert_eq!(tree.n_splits(), 0);
    }

    #[test]
    fn respects_max_depth() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let config = HoeffdingTreeConfig {
            max_depth: 1,
            grace_period: 50,
            ..HoeffdingTreeConfig::default()
        };
        let mut tree = HoeffdingTree::with_config(2, 2, config);
        // Noisy XOR-ish labels force repeated split attempts.
        for _ in 0..5000 {
            let x = [rng.random::<f64>() * 4.0, rng.random::<f64>() * 4.0];
            let y = ((x[0] > 2.0) ^ (x[1] > 2.0)) as usize;
            tree.train(&x, y);
        }
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn subspace_restricts_observed_attrs() {
        let config = HoeffdingTreeConfig {
            subspace: Some(1),
            grace_period: 30,
            ..HoeffdingTreeConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut tree = HoeffdingTree::with_config(4, 2, config);
        for (x, y) in (0..500).map(|_| {
            let y = rng.random_range(0..2usize);
            (vec![y as f64, rng.random(), rng.random(), rng.random()], y)
        }) {
            tree.train(&x, y);
        }
        // No crash and the tree may or may not split (depends which attr was
        // sampled); the invariant is that training stayed well-defined.
        assert_eq!(tree.n_trained(), 500);
    }

    #[test]
    fn reset_restores_blank_state() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut tree = HoeffdingTree::new(2, 2);
        for (x, y) in blob_stream(&mut rng, 2000) {
            tree.train(&x, y);
        }
        tree.reset();
        assert_eq!(tree.n_trained(), 0);
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_proba(&[0.0, 0.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn multiclass_three_blobs() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut tree = HoeffdingTree::new(1, 3);
        for _ in 0..6000 {
            let y = rng.random_range(0..3usize);
            let x = [y as f64 * 3.0 + rng.random::<f64>()];
            tree.train(&x, y);
        }
        assert_eq!(tree.predict(&[0.5]), 0);
        assert_eq!(tree.predict(&[3.5]), 1);
        assert_eq!(tree.predict(&[6.5]), 2);
    }
}
