//! Adapter exposing [`ficsum_core::Ficsum`] (any variant) to the runner.

use ficsum_core::{Ficsum, FicsumBuilder, FicsumConfig, Variant};
use ficsum_eval::{EvaluatedSystem, Step};

/// A FiCSUM instance under evaluation.
pub struct FicsumSystem {
    inner: Ficsum,
    label: String,
}

impl FicsumSystem {
    /// Builds the given variant with the paper-default configuration.
    pub fn new(n_features: usize, n_classes: usize, variant: Variant) -> Self {
        Self::with_config(n_features, n_classes, variant, FicsumConfig::default())
    }

    /// Builds the given variant with an explicit configuration.
    pub fn with_config(
        n_features: usize,
        n_classes: usize,
        variant: Variant,
        config: FicsumConfig,
    ) -> Self {
        let inner = FicsumBuilder::new(n_features, n_classes)
            .variant(variant)
            .config(config)
            .build()
            .expect("valid FiCSUM configuration");
        Self { inner, label: variant.name() }
    }

    /// Wraps an already-built instance, e.g. one built with
    /// [`FicsumBuilder::recorder`] to observe an evaluated run.
    pub fn from_instance(inner: Ficsum, label: impl Into<String>) -> Self {
        Self { inner, label: label.into() }
    }

    /// Access to the wrapped framework (for diagnostics).
    pub fn inner(&self) -> &Ficsum {
        &self.inner
    }
}

impl EvaluatedSystem for FicsumSystem {
    fn step(&mut self, x: &[f64], y: usize) -> Step {
        let outcome = self.inner.process(x, y);
        Step {
            prediction: outcome.prediction,
            model: outcome.active_concept,
            drift: outcome.drift,
        }
    }

    fn discrimination(&mut self) -> Option<f64> {
        self.inner.discrimination_probe()
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_eval::{evaluate_with, RunOptions};
    use ficsum_synth::stagger_stream;
    use ficsum_stream::{StreamSource, VecStream};

    fn truncated(stream: VecStream, n: usize) -> VecStream {
        let data: Vec<_> = stream.observations().iter().take(n).cloned().collect();
        VecStream::with_classes(data, 2)
    }

    #[test]
    fn ficsum_full_beats_chance_on_stagger() {
        let mut stream = truncated(stagger_stream(1), 8000);
        let mut system = FicsumSystem::with_config(
            stream.dims(),
            2,
            Variant::Full,
            FicsumConfig::default().with_window_size(50).with_fingerprint_gap(5),
        );
        let result = evaluate_with(&mut system, &mut stream, &RunOptions::new(2));
        assert!(result.kappa > 0.3, "kappa {}", result.kappa);
        assert!(result.c_f1 > 0.2, "c_f1 {}", result.c_f1);
        assert_eq!(result.n_observations, 8000);
        // The pipeline's drift outcomes reach the runner's accounting.
        assert!(result.detection.n_drifts >= 1, "{:?}", result.detection);
    }

    #[test]
    fn variants_report_their_names() {
        assert_eq!(FicsumSystem::new(3, 2, Variant::ErrorRate).name(), "ER");
        assert_eq!(FicsumSystem::new(3, 2, Variant::Full).name(), "FiCSUM");
    }
}
