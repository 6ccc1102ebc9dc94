//! # FiCSUM — fingerprinting concepts in data streams
//!
//! A complete Rust reproduction of *"Fingerprinting Concepts in Data
//! Streams with Supervised and Unsupervised Meta-Information"* (Halstead,
//! Koh, Riddle, Pechenizkiy, Bifet, Pears — ICDE 2021), including every
//! substrate the paper depends on: incremental classifiers, drift
//! detectors, meta-information functions, stream generators, baseline
//! frameworks and the evaluation machinery.
//!
//! ## Quick start
//!
//! ```
//! use ficsum::prelude::*;
//!
//! // A stream whose labelling function changes every 500 observations.
//! let mut stream = ficsum::synth::stagger_stream(7);
//! let mut system = FicsumBuilder::new(stream.dims(), stream.n_classes()).build()?;
//!
//! let mut correct = 0;
//! let mut n = 0;
//! while let Some(obs) = stream.next_observation() {
//!     let outcome = system.process(&obs.features, obs.label);
//!     if outcome.prediction == obs.label {
//!         correct += 1;
//!     }
//!     n += 1;
//!     if n >= 3000 {
//!         break;
//!     }
//! }
//! assert!(correct as f64 / n as f64 > 0.5);
//! # Ok::<(), ConfigError>(())
//! ```
//!
//! ## Workspace map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`stream`] | `ficsum-stream` | observations, windows, online statistics |
//! | [`drift`] | `ficsum-drift` | ADWIN and EDDM |
//! | [`classifiers`] | `ficsum-classifiers` | Hoeffding tree, naive Bayes, ARF, DWM |
//! | [`meta`] | `ficsum-meta` | the 13 meta-information functions and extraction |
//! | [`core`] | `ficsum-core` | fingerprints, dynamic weighting, the FiCSUM driver |
//! | [`synth`] | `ficsum-synth` | stream generators and the Table II datasets |
//! | [`baselines`] | `ficsum-baselines` | HTCD, RCD, DWM/ARF adapters |
//! | [`eval`] | `ficsum-eval` | kappa, C-F1, Friedman/Nemenyi, the runner |
//! | [`obs`] | `ficsum-obs` | recorders, stream events, stage spans, JSONL sinks |
//! | [`serve`] | `ficsum-serve` | sharded multi-session serving, bounded queues, LRU eviction |
//! | [`net`] | `ficsum-net` | wire protocol, TCP front-end, blocking client |

pub use ficsum_baselines as baselines;
pub use ficsum_classifiers as classifiers;
pub use ficsum_core as core;
pub use ficsum_drift as drift;
pub use ficsum_eval as eval;
pub use ficsum_meta as meta;
pub use ficsum_net as net;
pub use ficsum_obs as obs;
pub use ficsum_serve as serve;
pub use ficsum_stream as stream;
pub use ficsum_synth as synth;

/// The most common imports for working with FiCSUM.
///
/// Covers the whole public surface an application needs: the framework and
/// its builder, configuration (and its error type), the fingerprint engine
/// and extractor, classifiers, both drift detectors, stream vocabulary, the
/// repo-owned RNG, synthetic generators, the evaluation entry points and
/// the serving stack (in-process sharded serving plus the TCP front-end
/// and client).
pub mod prelude {
    pub use ficsum_baselines::{EnsembleSystem, FicsumSystem, Htcd, Rcd};
    pub use ficsum_classifiers::{
        AdaptiveRandomForest, Classifier, ClassifierFactory, GaussianNaiveBayes, HoeffdingTree,
    };
    pub use ficsum_core::{
        ConfigError, Ficsum, FicsumBuilder, FicsumConfig, FicsumStats, RestoreError,
        SessionCheckpoint, SessionTemplate, StepOutcome, Variant,
    };
    pub use ficsum_drift::{Adwin, DetectorState, DriftDetector, Eddm};
    pub use ficsum_eval::{
        evaluate_with, Detection, EvaluatedSystem, KappaEvaluator, RunOptions, RunResult,
    };
    pub use ficsum_meta::{
        FingerprintEngine, FingerprintExtractor, MetaFunction, SourceSelection,
    };
    pub use ficsum_net::{
        ConnRecorderFactory, NetClient, NetError, NetMetrics, NetOptions, NetReport, NetServer,
        ProtocolError, RemoteOutcome, RemoteStepResult, SnapshotSummary,
    };
    pub use ficsum_obs::{
        shared, Clock, DriftTrigger, InMemoryRecorder, JsonlSink, LatencyHistogram, ManualClock,
        MonotonicClock, NullRecorder, Recorder, SharedRecorder, Stage, StreamEvent,
    };
    pub use ficsum_serve::{
        BatchReply, EvictReason, RecorderFactory, ServeConfig, ServeError,
        ServeOptions, ServeReport, SessionId, SessionSnapshot, ShardMetrics, StepError,
        StepResult, StreamServer, Submit,
    };
    pub use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
    pub use ficsum_stream::{
        ConceptStream, LabeledObservation, Observation, StreamSource, VecStream,
    };
    pub use ficsum_synth::{
        dataset_by_name, ChannelModulation, ConceptGenerator, DatasetSpec, LabelledConcept,
        ModulatedSampler, RandomTreeLabeller, RecurringStreamBuilder, UniformSampler,
        ALL_DATASETS,
    };
}
