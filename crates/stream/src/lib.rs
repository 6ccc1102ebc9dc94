//! Data-stream foundations for the FiCSUM workspace.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! reproduction of *Fingerprinting Concepts in Data Streams with Supervised
//! and Unsupervised Meta-Information* (ICDE 2021):
//!
//! * [`Observation`] / [`LabeledObservation`] — the `<X, y>` and `<X, y, l>`
//!   tuples the paper operates on,
//! * [`ConceptStream`] — a stream of observations annotated with the ground
//!   truth concept identifier needed by the co-occurrence evaluation,
//! * [`FrameWindows`] — the *active* window `A` and the delayed *buffer*
//!   window `B` of Algorithm 1, as views over one shared frame ring, with
//!   the optional incremental [`Moments`] and per-sequence [`SeqStats`]
//!   the fingerprint engine reads in incremental mode,
//! * online statistics ([`RunningStats`], [`MinMaxScaler`]) used by the
//!   fingerprinting and weighting machinery.

pub mod frames;
pub mod observation;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod winstats;

pub use frames::{FrameStore, FrameWindows, TrackedFrames};
pub use observation::{LabeledObservation, Observation};
pub use rng::{RandomSource, Xoshiro256pp};
pub use stats::{EwStats, MinMaxScaler, Moments, RunningStats};
pub use winstats::SeqStats;
pub use stream::{ConceptStream, StreamSource, VecStream};
