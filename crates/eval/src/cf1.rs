//! Co-occurrence F1 (C-F1): how well system model identities track
//! ground-truth concepts (Section II of the paper).
//!
//! Every observation pairs the ground-truth concept `c_t` with the model
//! `m_t` that classified it. For each concept `C`, the model `M` maximising
//! the F1 of "predicting C by M being active" is found; C-F1 is the mean of
//! those maxima over concepts.
//!
//! The counts live in ordered maps, so the mean adds the concepts' best
//! F1 values in ascending concept order and a given record sequence gives
//! the same bits in every process.

use std::collections::BTreeMap;

/// Accumulates `(concept, model)` co-occurrence counts.
#[derive(Debug, Clone, Default)]
pub struct CoOccurrenceF1 {
    /// joint[(concept, model)] — time steps where both held.
    joint: BTreeMap<(usize, usize), u64>,
    concept_totals: BTreeMap<usize, u64>,
    model_totals: BTreeMap<usize, u64>,
}

impl CoOccurrenceF1 {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one time step.
    pub fn record(&mut self, concept: usize, model: usize) {
        *self.joint.entry((concept, model)).or_insert(0) += 1;
        *self.concept_totals.entry(concept).or_insert(0) += 1;
        *self.model_totals.entry(model).or_insert(0) += 1;
    }

    /// F1 of tracking `concept` with `model`.
    pub fn f1(&self, concept: usize, model: usize) -> f64 {
        let joint = *self.joint.get(&(concept, model)).unwrap_or(&0) as f64;
        if joint == 0.0 {
            return 0.0;
        }
        let precision = joint / *self.model_totals.get(&model).unwrap_or(&1) as f64;
        let recall = joint / *self.concept_totals.get(&concept).unwrap_or(&1) as f64;
        2.0 * precision * recall / (precision + recall)
    }

    /// `max_M F1_{CM}` for one concept.
    pub fn best_f1(&self, concept: usize) -> f64 {
        self.model_totals
            .keys()
            .map(|&m| self.f1(concept, m))
            .fold(0.0, f64::max)
    }

    /// The C-F1 score: mean best-F1 over all observed concepts, summed in
    /// ascending concept order.
    pub fn c_f1(&self) -> f64 {
        if self.concept_totals.is_empty() {
            return 0.0;
        }
        let total: f64 = self.concept_totals.keys().map(|&c| self.best_f1(c)).sum();
        total / self.concept_totals.len() as f64
    }

    /// Number of distinct models observed.
    pub fn n_models(&self) -> usize {
        self.model_totals.len()
    }

    /// Number of distinct concepts observed.
    pub fn n_concepts(&self) -> usize {
        self.concept_totals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_tracking_scores_one() {
        let mut c = CoOccurrenceF1::new();
        for t in 0..300 {
            let concept = t / 100; // three concepts in sequence
            c.record(concept, concept + 10); // distinct model per concept
        }
        assert!((c.c_f1() - 1.0).abs() < 1e-12);
        assert_eq!(c.n_concepts(), 3);
        assert_eq!(c.n_models(), 3);
    }

    #[test]
    fn single_model_for_everything_scores_low() {
        let mut c = CoOccurrenceF1::new();
        for t in 0..400 {
            c.record(t / 100, 0); // four concepts, one model
        }
        // Per concept: precision 0.25, recall 1 -> F1 = 0.4.
        assert!((c.c_f1() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn fragmented_models_score_by_largest_fragment() {
        let mut c = CoOccurrenceF1::new();
        // One concept, split across two models 75/25.
        for t in 0..100 {
            c.record(0, if t < 75 { 1 } else { 2 });
        }
        // Best model is 1: precision 1.0, recall 0.75 -> F1 ~ 0.857.
        assert!((c.c_f1() - 2.0 * 0.75 / 1.75).abs() < 1e-9);
    }

    #[test]
    fn model_shared_across_concepts_hurts_precision() {
        let mut c = CoOccurrenceF1::new();
        // Model 5 active during concepts 0 and 1 equally.
        for t in 0..200 {
            c.record(t / 100, 5);
        }
        // precision 0.5, recall 1.0 -> F1 = 2/3 for each concept.
        assert!((c.c_f1() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn c_f1_sums_in_ascending_concept_order() {
        let mut c = CoOccurrenceF1::new();
        // Thirteen concepts of uneven length, each tracked by a few models.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..30_000 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let concept = ((state >> 33) % 1_000).isqrt() as usize % 13;
            let model = concept + (state >> 20) as usize % (1 + concept % 4);
            c.record(concept, model);
        }
        let best: Vec<f64> = (0..13).map(|k| c.best_f1(k)).collect();
        let sum_from = |start: usize| (0..13).map(|i| best[(start + i) % 13]).sum::<f64>() / 13.0;
        let ascending = sum_from(0);
        assert!(
            (1..13).any(|start| sum_from(start).to_bits() != ascending.to_bits()),
            "premise: the summation order changes the bits"
        );
        assert_eq!(c.c_f1().to_bits(), ascending.to_bits());
    }

    #[test]
    fn empty_scores_zero() {
        assert_eq!(CoOccurrenceF1::new().c_f1(), 0.0);
    }

    #[test]
    fn recurrence_with_reuse_beats_recurrence_without() {
        let mut reuse = CoOccurrenceF1::new();
        let mut fresh = CoOccurrenceF1::new();
        // Concept 0 occurs twice; the reusing system brings back model 0,
        // the naive system makes a new model per segment.
        for t in 0..300 {
            let concept = if !(100..200).contains(&t) { 0 } else { 1 };
            let model_reuse = concept;
            let model_fresh = t / 100; // 0, 1, 2
            reuse.record(concept, model_reuse);
            fresh.record(concept, model_fresh);
        }
        assert!(reuse.c_f1() > fresh.c_f1());
        assert!((reuse.c_f1() - 1.0).abs() < 1e-12);
    }
}
