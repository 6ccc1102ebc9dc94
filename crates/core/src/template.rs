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
    /// statistics alike. Templates start at the default stride, 2; pass 1
    /// for the exact path (see
    /// [`crate::variant::FicsumBuilder::emd_stride`]). A checkpoint carries
    /// the cadence, so [`SessionTemplate::restore`] replays bit-identically
    /// at any stride.
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

    /// Stamps out a fresh pipeline running the template's extraction mode.
    /// Infallible: the configuration was validated at template construction
    /// and the extractor is derived from the variant for the template's own
    /// `n_features`.
    pub fn instantiate(&self) -> Ficsum {
        let mut ficsum = Ficsum::from_parts(
            self.n_features,
            self.n_classes,
            self.config,
            self.variant.extractor(self.n_features),
            (self.factory)(),
        );
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
    /// while a batch template drops them. An incremental template given a
    /// batch checkpoint builds the banks, moments included, from the
    /// resident frames. The checkpoint also carries the engine's EMD
    /// re-sift cadence, which is put back: a template at the capturing
    /// session's `emd_stride` re-sifts on the same checks and replays
    /// bit-identically, whatever that stride is.
    pub fn restore(&self, checkpoint: &SessionCheckpoint) -> Result<Ficsum, RestoreError> {
        self.validate_checkpoint(checkpoint)?;
        let extractor = self.variant.extractor(self.n_features);
        let mut ficsum = Ficsum::from_state(
            checkpoint.state.clone(),
            checkpoint.emd_cadence.clone(),
            extractor,
            (self.factory)(),
        );
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

    /// A builder and a template given one recipe build the same pipeline:
    /// over 3,000 drifting STAGGER steps the two report identical outcomes
    /// at every step and identical similarity bits and counters at the end,
    /// in the default mode, in incremental mode at EMD stride 4, and with
    /// the builder fanning extraction over two threads.
    #[test]
    fn builder_and_template_build_the_same_pipeline() {
        use crate::variant::FicsumBuilder;
        use ficsum_stream::StreamSource;

        let config = FicsumConfig::default();
        let template = || SessionTemplate::new(3, 2, config, Variant::Full).expect("valid");
        let builder = || FicsumBuilder::new(3, 2).config(config).variant(Variant::Full);
        let cases: [(&str, Ficsum, Ficsum); 3] = [
            ("default", builder().build().unwrap(), template().instantiate()),
            (
                "incremental, stride 4",
                builder().incremental_stats(true).emd_stride(4).build().unwrap(),
                template().with_incremental_stats(true).with_emd_stride(4).instantiate(),
            ),
            ("parallelism 2", builder().parallelism(2).build().unwrap(), template().instantiate()),
        ];
        for (case, mut built, mut stamped) in cases {
            let mut stream = ficsum_synth::stagger_stream(5);
            for step in 0..3000 {
                let o = stream.next_observation().expect("STAGGER is 30k long");
                let want = built.process(&o.features, o.label);
                assert_eq!(stamped.process(&o.features, o.label), want, "{case}: step {step}");
            }
            assert_eq!(
                built.last_similarity().map(f64::to_bits),
                stamped.last_similarity().map(f64::to_bits),
                "{case}"
            );
            assert_eq!(built.stats(), stamped.stats(), "{case}");
            assert!(built.stats().n_drifts > 0, "{case}: the stream should drift");
        }
    }

    /// A checkpoint taken mid-stream while the drift check's EMD records
    /// serve `B` and the scans carries those records: at strides 2 and 4
    /// the restored session reports the same outcome and similarity bits
    /// as the uninterrupted one at every step of a drifting tail, and goes
    /// on reading records.
    #[test]
    fn restore_with_live_emd_records_replays_bit_identically() {
        use ficsum_stream::StreamSource;

        let reused =
            |f: &Ficsum| f.engine().emd_counts().iter().map(|(_, c)| c.reused).sum::<u64>();
        for stride in [2, 4] {
            let template = SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::Full)
                .expect("valid")
                .with_emd_stride(stride);
            let mut original = template.instantiate();
            let mut stream = ficsum_synth::stagger_stream(11);
            // Cut on the first step after 1,500 whose checks read a record.
            let mut read = 0;
            for step in 0.. {
                let o = stream.next_observation().expect("STAGGER is 30k long");
                original.process(&o.features, o.label);
                let now = reused(&original);
                if step >= 1_500 && now > read {
                    break;
                }
                read = now;
            }
            let mut restored = template.restore(&original.checkpoint()).expect("restores");
            for step in 0..2_500 {
                let o = stream.next_observation().expect("STAGGER is 30k long");
                let want = original.process(&o.features, o.label);
                let got = restored.process(&o.features, o.label);
                assert_eq!(got, want, "stride {stride}: step {step}");
                assert_eq!(
                    restored.last_similarity().map(f64::to_bits),
                    original.last_similarity().map(f64::to_bits),
                    "stride {stride}: step {step}"
                );
            }
            assert_eq!(restored.stats(), original.stats(), "stride {stride}");
            assert!(original.stats().n_drifts > 0, "stride {stride}: the tail should drift");
            assert!(reused(&restored) > 0, "stride {stride}: the restored session reads records");
        }
    }

    /// A checkpoint cut right after an `F_SC` refresh tick with three or
    /// more stored concepts: the tick moved one stored concept's `F_SC`,
    /// and with it the repository half of the dynamic weights, which the
    /// restored session rebuilds from its state alone. It replays the
    /// uninterrupted session's outcomes and similarity bits.
    #[test]
    fn restore_right_after_a_refresh_tick_replays_bit_identically() {
        use ficsum_stream::StreamSource;

        let mut stream = ficsum_synth::rtree_stream(3);
        let template = SessionTemplate::new(
            stream.dims(),
            stream.n_classes(),
            FicsumConfig::default(),
            Variant::Full,
        )
        .expect("valid");
        let mut original = template.instantiate();
        let samples = |f: &Ficsum| {
            f.repository().iter().map(|e| e.sc_fingerprint.n_incorporated()).sum::<u64>()
        };
        loop {
            let o = stream.next_observation().expect("RTREE reaches three stored concepts");
            let before = samples(&original);
            original.process(&o.features, o.label);
            if original.repository().len() >= 3 && samples(&original) > before {
                break;
            }
        }
        let mut restored = template.restore(&original.checkpoint()).expect("restores");
        for step in 0..1_500 {
            let o = stream.next_observation().expect("RTREE is 30k long");
            let want = original.process(&o.features, o.label);
            assert_eq!(restored.process(&o.features, o.label), want, "step {step}");
            assert_eq!(
                restored.last_similarity().map(f64::to_bits),
                original.last_similarity().map(f64::to_bits),
                "step {step}"
            );
        }
        assert_eq!(restored.stats(), original.stats());
        assert!(original.stats().n_drifts > 0, "the tail should drift");
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
