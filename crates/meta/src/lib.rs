//! Meta-information functions and fingerprint feature extraction.
//!
//! Implements every meta-information function of Table I of the FiCSUM
//! paper, each mapping a univariate *behaviour source* sequence to a single
//! real value (Definitions 1 and 2):
//!
//! | function | behaviour captured |
//! |---|---|
//! | mean | distribution centre |
//! | standard deviation | distribution variance |
//! | skew | distribution asymmetry |
//! | kurtosis | distribution tails |
//! | autocorrelation lag 1 & 2 | temporal dependence |
//! | partial autocorrelation lag 1 & 2 | temporal dependence |
//! | mutual information (lag 1) | temporal dependence |
//! | turning point rate | rate of oscillation |
//! | entropy of intrinsic mode functions 1 & 2 | behaviour across timescales |
//! | feature importance (tree path contributions) | classifier behaviour |
//!
//! and the five behaviour sources: the `d` input features (unsupervised,
//! describing `p(X)`), labels, classifier labels, errors and error distances
//! (supervised, describing `p(y|X)`).
//!
//! The IMF entropies require a full empirical mode decomposition, provided
//! by [`emd`] on top of natural cubic splines ([`spline`]). Both histogram
//! estimators (MI and the IMF entropies) are evaluated from integer counts
//! in closed form by [`entropy`].

pub mod autocorr;
pub mod emd;
pub mod engine;
pub mod entropy;
pub mod extractor;
pub mod functions;
mod incremental;
pub mod mutual_info;
pub mod sources;
pub mod spline;
pub mod sweep;

pub use autocorr::{autocorrelation, partial_autocorrelation};
pub use emd::{imf_entropies, imf_entropies_scratch, EmdConfig, EmdScratch};
pub use engine::{EmdCadence, EmdCounts, EmdMemo, ExtractionMode, FingerprintEngine, StaticScan};
pub use extractor::{DimensionInfo, FingerprintExtractor, FingerprintSchema, SourceSelection};
pub use functions::{kurtosis, mean, skewness, std_dev, turning_point_rate, MetaFunction};
pub use mutual_info::lagged_mutual_information;
pub use sources::{behaviour_sources, error_distances_into, source_sequence_into, SourceKind};
pub use sweep::{SourceSweep, SweepStats};
