//! Builder and the paper's ablation variants.

use std::sync::Arc;

use ficsum_meta::{ExtractionMode, FingerprintExtractor, MetaFunction, SourceSelection};
use ficsum_obs::{Clock, Recorder};

use crate::config::{ConfigError, FicsumConfig};
use crate::framework::Ficsum;
use crate::template::SessionTemplate;

/// Which meta-information configuration to fingerprint with.
///
/// These are exactly the systems compared in Tables III–V of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All behaviour sources, all 13 functions (FiCSUM proper).
    Full,
    /// Error-rate meta-feature only (the ER baseline).
    ErrorRate,
    /// Supervised behaviour sources only (S-MI).
    Supervised,
    /// Unsupervised (feature) behaviour sources only (U-MI).
    Unsupervised,
    /// A single meta-information function across all sources (Table V rows).
    SingleFunction(MetaFunction),
}

impl Variant {
    /// Short name used in experiment reports.
    pub fn name(&self) -> String {
        match self {
            Variant::Full => "FiCSUM".into(),
            Variant::ErrorRate => "ER".into(),
            Variant::Supervised => "S-MI".into(),
            Variant::Unsupervised => "U-MI".into(),
            Variant::SingleFunction(f) => format!("fn:{}", f.name()),
        }
    }

    /// Builds the extractor for this variant.
    pub fn extractor(&self, n_features: usize) -> FingerprintExtractor {
        match self {
            Variant::Full => FingerprintExtractor::full(n_features),
            Variant::ErrorRate => FingerprintExtractor::error_rate_only(n_features),
            Variant::Supervised => FingerprintExtractor::new(
                n_features,
                MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
                SourceSelection::supervised_only(),
                false,
            ),
            Variant::Unsupervised => FingerprintExtractor::new(
                n_features,
                MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
                SourceSelection::unsupervised_only(),
                false,
            ),
            Variant::SingleFunction(f) => FingerprintExtractor::single_function(n_features, *f),
        }
    }
}

/// Builder for [`Ficsum`] instances.
///
/// Everything an instance can be configured with is a builder option; a
/// built [`Ficsum`] is immutable-by-default (drive it with
/// [`Ficsum::process`]). The recipe — config, variant, extraction mode and
/// the paper-default Hoeffding tree — goes through a [`SessionTemplate`],
/// so a builder and a template given the same recipe build the same
/// pipeline; the builder adds what a template does not carry (recorder,
/// clock, parallelism). The one supported post-build hook is
/// [`Ficsum::attach_recorder`], for drivers that receive an already-built
/// pipeline.
pub struct FicsumBuilder {
    n_features: usize,
    n_classes: usize,
    config: FicsumConfig,
    variant: Variant,
    recorder: Option<Box<dyn Recorder>>,
    clock: Option<Arc<dyn Clock>>,
    parallelism: usize,
    extraction: ExtractionMode,
}

impl FicsumBuilder {
    /// Builder for a stream with `n_features` inputs and `n_classes` labels.
    pub fn new(n_features: usize, n_classes: usize) -> Self {
        Self {
            n_features,
            n_classes,
            config: FicsumConfig::default(),
            variant: Variant::Full,
            recorder: None,
            clock: None,
            parallelism: 1,
            extraction: ExtractionMode::default(),
        }
    }

    /// Sets the hyper-parameters.
    pub fn config(mut self, config: FicsumConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the meta-information variant.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Attaches an observability recorder (default:
    /// [`ficsum_obs::NullRecorder`] — zero cost). Keep a shared handle
    /// ([`ficsum_obs::shared`]) to read signals back after the run.
    pub fn recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Overrides the span-timing clock (default: a monotonic wall clock;
    /// tests pass a [`ficsum_obs::ManualClock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Number of worker threads the pipeline may use (default 1 =
    /// sequential): the fingerprint engine fans each extraction's
    /// behaviour sources across them. Everything else, model selection
    /// included, runs on the calling thread. The fan-out is bit-identical
    /// to sequential, so this only changes wall-clock behaviour; it pays on
    /// wide streams (QG, 63 features) and costs on narrow ones.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Switches extraction to incremental mode: the windows keep a stat
    /// bank each, and the feature and label sources read its
    /// O(1)-per-observation moments and sequence statistics (ACF/PACF at
    /// lags 1–2, lagged mutual information, the turning-point rate) instead
    /// of sweeping the window. IMF entropies take the EMD path of either
    /// mode (see [`FicsumBuilder::emd_stride`]). Substituted values agree with
    /// the batch sweep to ≤ 1e-9 relative (MI and turning points are
    /// bit-identical). Off by default because drift trajectories are
    /// feedback loops: batch statistics keep them bit-exact against the
    /// reference sweep. See [`ExtractionMode`].
    pub fn incremental_stats(mut self, on: bool) -> Self {
        self.extraction.incremental = on;
        self
    }

    /// Bounds how often IMF entropies are re-sifted, with batch and
    /// incremental statistics alike: a changed window re-computes them at
    /// most every `stride`-th drift check, and the stale window and the
    /// repository scans read the feature and label sources' values from
    /// the active window's checks. The default is 2, the
    /// largest stride that kept the paper's metrics across seeds (the
    /// `quality` bench; DESIGN.md deviation 11); it sifts about half as
    /// often as stride 1. `1` re-sifts on every change and is the exact
    /// path the golden trajectories pin; larger strides trade bounded
    /// staleness for a further cut in EMD cost. Checkpoints carry the
    /// re-sift cadence and the checks' records, so a restore replays
    /// bit-identically at any stride. See [`ExtractionMode::emd_stride`].
    pub fn emd_stride(mut self, stride: u32) -> Self {
        self.extraction.emd_stride = stride;
        self
    }

    /// Builds the framework instance: the recipe goes through
    /// [`SessionTemplate::new`] and [`SessionTemplate::instantiate`], then
    /// the clock, recorder and parallelism are attached.
    ///
    /// Fails with a [`ConfigError`] if the hyper-parameters are invalid
    /// (see [`FicsumConfig::validate`]).
    pub fn build(self) -> Result<Ficsum, ConfigError> {
        let mut ficsum =
            SessionTemplate::new(self.n_features, self.n_classes, self.config, self.variant)?
                .with_incremental_stats(self.extraction.incremental)
                .with_emd_stride(self.extraction.emd_stride)
                .instantiate();
        // Clock first: attaching a recorder snapshots it into the engine.
        if let Some(clock) = self.clock {
            ficsum.attach_clock(clock);
        }
        if let Some(recorder) = self.recorder {
            ficsum.attach_recorder(recorder);
        }
        if self.parallelism != 1 {
            ficsum.configure_parallelism(self.parallelism);
        }
        Ok(ficsum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_are_stable() {
        assert_eq!(Variant::Full.name(), "FiCSUM");
        assert_eq!(Variant::ErrorRate.name(), "ER");
        assert_eq!(Variant::SingleFunction(MetaFunction::Skew).name(), "fn:skew");
    }

    #[test]
    fn extractor_dimensions_per_variant() {
        assert_eq!(Variant::Full.extractor(4).schema().len(), 12 * 8 + 4);
        assert_eq!(Variant::ErrorRate.extractor(4).schema().len(), 1);
        assert_eq!(Variant::Supervised.extractor(4).schema().len(), 12 * 4);
        assert_eq!(Variant::Unsupervised.extractor(4).schema().len(), 12 * 4);
        assert_eq!(
            Variant::SingleFunction(MetaFunction::Mean).extractor(4).schema().len(),
            8
        );
    }

    #[test]
    fn builder_produces_runnable_instances() {
        for v in [Variant::Full, Variant::ErrorRate, Variant::Supervised, Variant::Unsupervised] {
            let mut f = FicsumBuilder::new(2, 2).variant(v).build().unwrap();
            for i in 0..100 {
                f.process(&[i as f64 * 0.01, 0.5], i % 2);
            }
            assert_eq!(f.n_classes(), 2);
        }
    }
}
