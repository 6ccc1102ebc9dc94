//! Validated session templates: one configuration, many pipelines.
//!
//! A serving deployment runs thousands of independent FiCSUM sessions that
//! all share one tuned configuration. Re-validating the hyper-parameters
//! (and re-threading error handling) on every session creation is wasted
//! work and an API trap — the config either was valid for every session or
//! for none. [`SessionTemplate`] front-loads validation once and then
//! stamps out pipelines infallibly and cheaply; it is `Send + Sync`, so a
//! sharded server can hand one template to every worker thread and build
//! sessions locally on the thread that will own them.

use std::sync::Arc;

use ficsum_classifiers::{Classifier, ClassifierFactory, HoeffdingTree};
use ficsum_meta::ExtractionMode;

use crate::checkpoint::{RestoreError, SessionCheckpoint};
use crate::config::{ConfigError, FicsumConfig};
use crate::framework::Ficsum;
use crate::variant::Variant;

/// Builds one fresh classifier factory per session.
///
/// [`ClassifierFactory::build`] takes `&mut self`, so a factory cannot be
/// shared between sessions that live on different threads; the template
/// instead shares this *factory constructor* and gives every session its
/// own factory.
type FactoryFn = dyn Fn() -> Box<dyn ClassifierFactory> + Send + Sync;

/// A validated, immutable recipe for constructing identical [`Ficsum`]
/// pipelines.
///
/// Construction validates the configuration exactly once;
/// [`SessionTemplate::instantiate`] is then infallible. Two pipelines
/// stamped from the same template are bit-identical in behaviour: driven
/// with the same observations they produce the same
/// [`crate::StepOutcome`]s (pinned by the template-cloning property test).
/// Template sessions run sequentially: a sharded server parallelises
/// across sessions, not within one.
///
/// ```
/// use ficsum_core::{FicsumConfig, SessionTemplate, Variant};
/// let template = SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::Full)?;
/// let mut a = template.instantiate();
/// let mut b = template.instantiate();
/// let (xs, y) = ([0.1, 0.7, 0.2], 1);
/// assert_eq!(a.process(&xs, y), b.process(&xs, y));
/// # Ok::<(), ficsum_core::ConfigError>(())
/// ```
#[derive(Clone)]
pub struct SessionTemplate {
    n_features: usize,
    n_classes: usize,
    config: FicsumConfig,
    variant: Variant,
    extraction: ExtractionMode,
    factory: Arc<FactoryFn>,
}

impl SessionTemplate {
    /// Validates `config` and captures the recipe. The classifier is the
    /// paper-default Hoeffding tree; see
    /// [`SessionTemplate::with_classifier_factory`] to override it.
    pub fn new(
        n_features: usize,
        n_classes: usize,
        config: FicsumConfig,
        variant: Variant,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self {
            n_features,
            n_classes,
            config,
            variant,
            extraction: ExtractionMode::default(),
            factory: Arc::new(move || {
                Box::new(move || {
                    Box::new(HoeffdingTree::new(n_features, n_classes)) as Box<dyn Classifier>
                })
            }),
        })
    }

    /// Replaces the per-session classifier factory. `make` is invoked once
    /// per instantiated session, on the thread that owns the session.
    #[must_use]
    pub fn with_classifier_factory(
        mut self,
        make: impl Fn() -> Box<dyn ClassifierFactory> + Send + Sync + 'static,
    ) -> Self {
        self.factory = Arc::new(make);
        self
    }

    /// Switches extraction to incremental mode (see
    /// [`crate::variant::FicsumBuilder::incremental_stats`]).
    #[must_use]
    pub fn with_incremental_stats(mut self, on: bool) -> Self {
        self.extraction.incremental = on;
        self
    }

    /// Bounds the EMD re-sifting cadence, with batch and incremental
    /// statistics alike (see [`crate::variant::FicsumBuilder::emd_stride`]).
    #[must_use]
    pub fn with_emd_stride(mut self, stride: u32) -> Self {
        self.extraction.emd_stride = stride;
        self
    }

    /// Feature dimensionality sessions are built for.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes sessions are built for.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The validated hyper-parameters.
    pub fn config(&self) -> &FicsumConfig {
        &self.config
    }

    /// The meta-information variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Stamps out a fresh pipeline. Infallible: the configuration was
    /// validated at template construction and the extractor is derived from
    /// the same `n_features` the pipeline is checked against.
    pub fn instantiate(&self) -> Ficsum {
        let mut ficsum = Ficsum::from_parts(
            self.n_features,
            self.n_classes,
            self.config,
            self.variant.extractor(self.n_features),
            (self.factory)(),
        )
        .expect("template was validated at construction");
        ficsum.configure_extraction(self.extraction);
        ficsum
    }

    /// Rehydrates a session from a [`SessionCheckpoint`] captured with
    /// [`Ficsum::checkpoint`], after validating that this template is
    /// compatible with the checkpointed session (feature/class counts,
    /// fingerprint schema and hyper-parameters must all match — replaying
    /// under a different recipe would diverge silently, so a mismatch is an
    /// error, not a best effort).
    ///
    /// The restored pipeline continues **bit-identically**: driven with the
    /// observations the original session would have seen next, it produces
    /// the same [`crate::StepOutcome`]s and statistics as the uninterrupted
    /// original (pinned by the snapshot→restore→replay property test). The
    /// template's extraction mode is applied to the restored session. It
    /// changes extraction arithmetic (within its ≤ 1e-9 contract), so
    /// bit-identical replay requires the mode the capturing session ran
    /// with; the checkpointed frame windows carry their statistic banks,
    /// and re-enabling the same resolution on restore is an exact no-op,
    /// while a batch template drops them. One caveat: the engine's EMD
    /// entropy cache is scratch, not state, so an `emd_stride` above 1
    /// restarts its re-sift cadence at the restore point — replay stays
    /// within the tolerance contract but is bit-pinned only at the default
    /// stride.
    pub fn restore(&self, checkpoint: &SessionCheckpoint) -> Result<Ficsum, RestoreError> {
        self.validate_checkpoint(checkpoint)?;
        let extractor = self.variant.extractor(self.n_features);
        let mut ficsum = Ficsum::from_state(checkpoint.state.clone(), extractor, (self.factory)());
        ficsum.configure_extraction(self.extraction);
        Ok(ficsum)
    }

    /// Checks whether [`SessionTemplate::restore`] would accept
    /// `checkpoint`, without constructing a pipeline. A server admitting
    /// checkpoints can reject incompatible ones eagerly on the submit
    /// thread and leave the actual (validated, infallible) rehydration to
    /// the worker thread that will own the session.
    pub fn validate_checkpoint(&self, checkpoint: &SessionCheckpoint) -> Result<(), RestoreError> {
        if self.n_features != checkpoint.n_features() {
            return Err(RestoreError::FeatureCountMismatch {
                template: self.n_features,
                checkpoint: checkpoint.n_features(),
            });
        }
        if self.n_classes != checkpoint.n_classes() {
            return Err(RestoreError::ClassCountMismatch {
                template: self.n_classes,
                checkpoint: checkpoint.n_classes(),
            });
        }
        if self.config != *checkpoint.config() {
            return Err(RestoreError::ConfigMismatch);
        }
        let dims = self.variant.extractor(self.n_features).schema().len();
        if dims != checkpoint.dims() {
            return Err(RestoreError::DimensionMismatch {
                template: dims,
                checkpoint: checkpoint.dims(),
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for SessionTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTemplate")
            .field("n_features", &self.n_features)
            .field("n_classes", &self.n_classes)
            .field("variant", &self.variant)
            .field("extraction", &self.extraction)
            .finish_non_exhaustive()
    }
}

/// Send audit for the serving boundary. `Ficsum` itself is deliberately
/// *not* `Send` (recorders may be `Rc`-shared single-thread handles); what
/// crosses threads in a sharded server is the template plus plain data, and
/// sessions are constructed on the worker thread that owns them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SessionTemplate>();
    assert_send_sync::<FicsumConfig>();
    assert_send_sync::<crate::framework::StepOutcome>();
    assert_send_sync::<crate::framework::FicsumStats>();
    assert_send_sync::<ConfigError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_config_is_rejected_once_up_front() {
        let bad = FicsumConfig::default().with_window_size(2);
        assert!(SessionTemplate::new(3, 2, bad, Variant::Full).is_err());
    }

    #[test]
    fn instantiated_sessions_are_independent_and_identical() {
        let template = SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::Full)
            .expect("default config is valid");
        let mut a = template.instantiate();
        let mut b = template.instantiate();
        let mut only_a = template.instantiate();
        for i in 0..400usize {
            let x = [(i % 7) as f64 * 0.13, (i % 5) as f64 * 0.19, (i % 3) as f64 * 0.31];
            let y = i % 2;
            assert_eq!(a.process(&x, y), b.process(&x, y), "diverged at step {i}");
            // Driving a third session differently must not affect the pair.
            only_a.process(&x, (x[0] > 0.4) as usize);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn template_respects_variant_and_dims() {
        let template = SessionTemplate::new(4, 3, FicsumConfig::default(), Variant::ErrorRate)
            .expect("valid");
        let f = template.instantiate();
        assert_eq!(f.n_classes(), 3);
        assert_eq!(f.engine().schema().len(), 1, "ER variant has one dimension");
    }
}
