//! Dynamic meta-feature weighting (Section III-B).
//!
//! Each fingerprint dimension `mi` receives the weight
//! `w_mi = w_sigma_mi * w_d_mi` where:
//!
//! * `w_sigma_mi = 1 / sigma_mi` rescales deviations into units of the
//!   dimension's normal standard deviation (from the active concept
//!   fingerprint), and
//! * `w_d_mi = max(v_s_mi, v_sc_mi)` is a Fisher-score style discrimination
//!   term: `v_s` measures *inter-concept* variation (spread of per-concept
//!   means across the repository relative to the largest within-concept
//!   deviation) and `v_sc` measures *intra-classifier* variation (how far a
//!   stored classifier's behaviour on current data has moved from its stored
//!   behaviour).

use ficsum_obs::Recorder;

use crate::fingerprint::{ConceptFingerprint, FingerprintNormalizer};
use crate::repository::Repository;

/// The learned per-dimension weight vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicWeights {
    /// One non-negative weight per fingerprint dimension.
    pub values: Vec<f64>,
}

impl DynamicWeights {
    /// Uniform weights (used before anything is learned and by the
    /// no-weighting ablation).
    pub fn uniform(dims: usize) -> Self {
        Self { values: vec![1.0; dims] }
    }

    /// Computes the dynamic weights for the active concept against the
    /// repository. Concept fingerprints hold *raw* meta-feature statistics;
    /// `normalizer` supplies each dimension's observed span so the scale
    /// component is computed in normalised units (`sigma_floor` is in those
    /// units). The two Fisher components are ratios of same-dimension
    /// quantities, so spans cancel and raw statistics are used directly.
    pub fn compute(
        active: &ConceptFingerprint,
        repo: &Repository,
        normalizer: &FingerprintNormalizer,
        sigma_floor: f64,
    ) -> Self {
        let mut w = Self { values: Vec::new() };
        w.compute_into(active, repo, normalizer, sigma_floor);
        w
    }

    /// Recomputes the weight vector in place, reusing `values`' capacity —
    /// the allocation-free core [`DynamicWeights::compute`] wraps. The
    /// per-dimension statistics stream over the repository in the same
    /// entry order (and with the same per-accumulator addition order) as
    /// the collecting implementation, so the result is bit-identical.
    ///
    /// The one-pass reference for the split the pipeline runs:
    /// [`DynamicWeights::discrimination_into`] (the repository half, kept
    /// while the repository is unchanged) followed by
    /// [`DynamicWeights::combine`] gives the same bits.
    pub fn compute_into(
        &mut self,
        active: &ConceptFingerprint,
        repo: &Repository,
        normalizer: &FingerprintNormalizer,
        sigma_floor: f64,
    ) {
        let dims = active.dims();
        let values = &mut self.values;
        values.clear();
        let trained = || repo.iter().filter(|e| e.fingerprint.is_trained());
        let n_trained = trained().count();
        for dim in 0..dims {
            // --- scale component -------------------------------------------------
            let w_sigma = if active.n_incorporated() >= 2 {
                1.0 / normalizer.scale_sigma(active.std_dev(dim), dim).max(sigma_floor)
            } else {
                1.0
            };

            // --- inter-concept variation (v_s) -----------------------------------
            let v_s = if n_trained >= 2 {
                let grand =
                    trained().map(|e| e.fingerprint.mean(dim)).sum::<f64>() / n_trained as f64;
                let between = (trained()
                    .map(|e| {
                        let m = e.fingerprint.mean(dim);
                        (m - grand) * (m - grand)
                    })
                    .sum::<f64>()
                    / n_trained as f64)
                    .sqrt();
                let max_within =
                    trained().map(|e| e.fingerprint.std_dev(dim)).fold(0.0f64, f64::max);
                between / max_within.max(sigma_floor)
            } else {
                0.0
            };

            // --- intra-classifier variation (v_sc) --------------------------------
            let mut sc_sum = 0.0;
            let mut sc_n = 0usize;
            for e in trained().filter(|e| e.sc_fingerprint.is_trained()) {
                let dev = (e.fingerprint.mean(dim) - e.sc_fingerprint.mean(dim)).abs();
                sc_sum += dev / e.sc_fingerprint.std_dev(dim).max(sigma_floor);
                sc_n += 1;
            }
            let v_sc = if sc_n == 0 { 0.0 } else { sc_sum / sc_n as f64 };

            let w_d = v_s.max(v_sc);
            // Until discrimination information exists, fall back to pure
            // scale weighting.
            let w_d = if w_d > 0.0 { w_d } else { 1.0 };
            let w = w_sigma * w_d;
            values.push(if w.is_finite() && w > 0.0 { w } else { 1.0 });
        }
        // Normalise to mean 1 so weight magnitudes, and the `spread` the
        // pipeline reports for them, stay comparable across updates (the
        // cosine similarity itself is invariant to a global scale).
        let mean = values.iter().sum::<f64>() / dims.max(1) as f64;
        if mean > 0.0 && mean.is_finite() {
            for v in values.iter_mut() {
                *v /= mean;
            }
        }
    }

    /// The repository half of the weights: `w_d = max(v_s, v_sc)` per
    /// dimension, 1 where both are 0, written into `out`. It reads only the
    /// repository, so a caller can keep it while
    /// [`Repository::weights_stamp`] stands and re-derive the full vector
    /// with [`DynamicWeights::combine`] as the active fingerprint and the
    /// normaliser move. Same accumulation order as
    /// [`DynamicWeights::compute_into`], so the pair is bit-identical to it.
    pub fn discrimination_into(
        repo: &Repository,
        dims: usize,
        sigma_floor: f64,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let trained = || repo.iter().filter(|e| e.fingerprint.is_trained());
        let n_trained = trained().count();
        for dim in 0..dims {
            let v_s = if n_trained >= 2 {
                let grand =
                    trained().map(|e| e.fingerprint.mean(dim)).sum::<f64>() / n_trained as f64;
                let between = (trained()
                    .map(|e| {
                        let m = e.fingerprint.mean(dim);
                        (m - grand) * (m - grand)
                    })
                    .sum::<f64>()
                    / n_trained as f64)
                    .sqrt();
                let max_within =
                    trained().map(|e| e.fingerprint.std_dev(dim)).fold(0.0f64, f64::max);
                between / max_within.max(sigma_floor)
            } else {
                0.0
            };
            let mut sc_sum = 0.0;
            let mut sc_n = 0usize;
            for e in trained().filter(|e| e.sc_fingerprint.is_trained()) {
                let dev = (e.fingerprint.mean(dim) - e.sc_fingerprint.mean(dim)).abs();
                sc_sum += dev / e.sc_fingerprint.std_dev(dim).max(sigma_floor);
                sc_n += 1;
            }
            let v_sc = if sc_n == 0 { 0.0 } else { sc_sum / sc_n as f64 };
            let w_d = v_s.max(v_sc);
            out.push(if w_d > 0.0 { w_d } else { 1.0 });
        }
    }

    /// The active half of the weights: `w_sigma · w_d` per dimension for a
    /// `w_d` from [`DynamicWeights::discrimination_into`], then the mean-1
    /// normalisation. Reuses `values`' capacity.
    pub fn combine(
        &mut self,
        active: &ConceptFingerprint,
        w_d: &[f64],
        normalizer: &FingerprintNormalizer,
        sigma_floor: f64,
    ) {
        let values = &mut self.values;
        values.clear();
        for (dim, &w_d) in w_d.iter().enumerate() {
            let w_sigma = if active.n_incorporated() >= 2 {
                1.0 / normalizer.scale_sigma(active.std_dev(dim), dim).max(sigma_floor)
            } else {
                1.0
            };
            let w = w_sigma * w_d;
            values.push(if w.is_finite() && w > 0.0 { w } else { 1.0 });
        }
        let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        if mean > 0.0 && mean.is_finite() {
            for v in values.iter_mut() {
                *v /= mean;
            }
        }
    }

    /// Publishes the vector's shape gauges (`ficsum.weights.spread`,
    /// `ficsum.weights.max`) to `recorder`; a disabled recorder skips the
    /// derived statistics entirely.
    pub fn publish_shape(&self, recorder: &mut dyn Recorder) {
        if recorder.enabled() {
            recorder.gauge("ficsum.weights.spread", self.spread());
            recorder.gauge("ficsum.weights.max", self.values.iter().copied().fold(0.0, f64::max));
        }
    }

    /// Max-minus-min of the weight values: 0 for uniform weights, larger as
    /// the weighting concentrates on few discriminative dimensions. The
    /// vector is mean-1 normalised, so spreads are comparable across
    /// recomputations.
    pub fn spread(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi >= lo { hi - lo } else { 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::{ConceptEntry, Repository};
    use ficsum_classifiers::MajorityClass;

    /// A normalizer whose every dimension has span 1 (so raw == normalised).
    fn unit_normalizer(dims: usize) -> FingerprintNormalizer {
        let mut n = FingerprintNormalizer::new(dims);
        n.observe(&vec![0.0; dims]);
        n.observe(&vec![1.0; dims]);
        n
    }

    fn entry_with_fp(repo: &mut Repository, samples: &[[f64; 2]]) {
        let id = repo.allocate_id();
        let mut e = ConceptEntry::new(id, 2, Box::new(MajorityClass::new(1, 2)));
        for s in samples {
            e.fingerprint.incorporate(s);
        }
        repo.insert(e);
    }

    #[test]
    fn uniform_before_learning() {
        let active = ConceptFingerprint::new(3);
        let repo = Repository::new(0);
        let w = DynamicWeights::compute(&active, &repo, &unit_normalizer(active.dims()), 0.01);
        assert_eq!(w.values, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn low_variance_dims_get_high_scale_weight() {
        let mut active = ConceptFingerprint::new(2);
        // dim 0 noisy, dim 1 tight
        for i in 0..20 {
            let v = if i % 2 == 0 { 0.1 } else { 0.9 };
            active.incorporate(&[v, 0.5 + 0.001 * (i % 2) as f64]);
        }
        let repo = Repository::new(0);
        let w = DynamicWeights::compute(&active, &repo, &unit_normalizer(active.dims()), 0.001);
        assert!(
            w.values[1] > w.values[0] * 10.0,
            "tight dim should dominate: {:?}",
            w.values
        );
    }

    #[test]
    fn discriminative_dims_get_high_fisher_weight() {
        let mut active = ConceptFingerprint::new(2);
        for _ in 0..10 {
            active.incorporate(&[0.5, 0.5]);
            active.incorporate(&[0.6, 0.6]);
        }
        let mut repo = Repository::new(0);
        // Concepts differ strongly in dim 0, identically in dim 1.
        entry_with_fp(&mut repo, &[[0.1, 0.5], [0.12, 0.52]]);
        entry_with_fp(&mut repo, &[[0.9, 0.5], [0.88, 0.52]]);
        let w = DynamicWeights::compute(&active, &repo, &unit_normalizer(active.dims()), 0.01);
        assert!(
            w.values[0] > 3.0 * w.values[1],
            "dim 0 separates concepts: {:?}",
            w.values
        );
    }

    #[test]
    fn intra_classifier_deviation_raises_weight() {
        let mut active = ConceptFingerprint::new(2);
        for _ in 0..5 {
            active.incorporate(&[0.5, 0.5]);
            active.incorporate(&[0.52, 0.52]);
        }
        let mut repo = Repository::new(0);
        let id = repo.allocate_id();
        let mut e = ConceptEntry::new(id, 2, Box::new(MajorityClass::new(1, 2)));
        // Stored behaviour: [0.2, 0.5]; behaviour on current data: dim 0
        // moved to 0.8, dim 1 stayed.
        for _ in 0..5 {
            e.fingerprint.incorporate(&[0.2, 0.5]);
            e.fingerprint.incorporate(&[0.22, 0.52]);
            e.sc_fingerprint.incorporate(&[0.8, 0.5]);
            e.sc_fingerprint.incorporate(&[0.82, 0.52]);
        }
        repo.insert(e);
        let w = DynamicWeights::compute(&active, &repo, &unit_normalizer(active.dims()), 0.01);
        assert!(
            w.values[0] > 2.0 * w.values[1],
            "dim 0 detects the classifier shift: {:?}",
            w.values
        );
    }

    #[test]
    fn weights_are_finite_and_positive() {
        let mut active = ConceptFingerprint::new(4);
        active.incorporate(&[0.0, 1.0, 0.5, f64::NAN]);
        active.incorporate(&[0.0, 1.0, 0.5, 0.5]);
        let repo = Repository::new(0);
        let w = DynamicWeights::compute(&active, &repo, &unit_normalizer(active.dims()), 0.01);
        assert!(w.values.iter().all(|v| v.is_finite() && *v > 0.0), "{:?}", w.values);
    }

    #[test]
    fn spread_is_zero_for_uniform_weights() {
        assert_eq!(DynamicWeights::uniform(5).spread(), 0.0);
        let w = DynamicWeights { values: vec![0.5, 1.0, 1.5] };
        assert!((w.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn publish_shape_reports_gauges() {
        use ficsum_obs::InMemoryRecorder;
        let mut active = ConceptFingerprint::new(2);
        for i in 0..10 {
            active.incorporate(&[0.1 * i as f64, 0.5]);
        }
        let repo = Repository::new(0);
        let mut rec = InMemoryRecorder::new();
        let w = DynamicWeights::compute(&active, &repo, &unit_normalizer(2), 0.01);
        w.publish_shape(&mut rec);
        assert_eq!(rec.gauge_value("ficsum.weights.spread"), Some(w.spread()));
        let max = w.values.iter().copied().fold(0.0, f64::max);
        assert_eq!(rec.gauge_value("ficsum.weights.max"), Some(max));
    }

    #[test]
    fn split_halves_match_the_one_pass_reference_bit_for_bit() {
        // Random repositories of 0 to 5 entries (so the 0-, 1- and 2-entry
        // cases recur), mixing untrained entries, entries with no `F_SC`
        // sample and constant dimensions that hit the sigma floor.
        use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
        let dims = 5;
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let sample = |rng: &mut Xoshiro256pp| -> Vec<f64> {
            (0..dims).map(|d| if d == 0 { 0.5 } else { rng.random::<f64>() }).collect()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for case in 0..120 {
            let mut repo = Repository::new(0);
            for _ in 0..case % 6 {
                let id = repo.allocate_id();
                let mut e = ConceptEntry::new(id, dims, Box::new(MajorityClass::new(1, 2)));
                for _ in 0..rng.random_range(0..5usize) {
                    e.fingerprint.incorporate(&sample(&mut rng));
                }
                for _ in 0..rng.random_range(0..4usize) {
                    e.sc_fingerprint.incorporate(&sample(&mut rng));
                }
                repo.insert(e);
            }
            let mut active = ConceptFingerprint::new(dims);
            for _ in 0..rng.random_range(0..5usize) {
                active.incorporate(&sample(&mut rng));
            }
            let mut normalizer = FingerprintNormalizer::new(dims);
            for _ in 0..rng.random_range(0..4usize) {
                normalizer.observe(&sample(&mut rng));
            }
            for floor in [0.01, 0.001] {
                let reference = DynamicWeights::compute(&active, &repo, &normalizer, floor);
                let mut w_d = Vec::new();
                DynamicWeights::discrimination_into(&repo, dims, floor, &mut w_d);
                let mut split = DynamicWeights::uniform(dims);
                split.combine(&active, &w_d, &normalizer, floor);
                assert_eq!(bits(&split.values), bits(&reference.values), "case {case}");
            }
        }
    }

    #[test]
    fn mean_is_normalised_to_one() {
        let mut active = ConceptFingerprint::new(3);
        for i in 0..10 {
            active.incorporate(&[0.1 * i as f64, 0.5, 0.9 - 0.05 * i as f64]);
        }
        let repo = Repository::new(0);
        let w = DynamicWeights::compute(&active, &repo, &unit_normalizer(active.dims()), 0.01);
        let mean = w.values.iter().sum::<f64>() / 3.0;
        assert!((mean - 1.0).abs() < 1e-9);
    }
}
