//! Hoeffding tree (VFDT) implementation.
//!
//! Split into the numeric attribute [`observer`] (Gaussian per-class
//! estimators and split scoring) and the [`tree`] learner itself.

pub mod observer;
pub mod tree;

pub use observer::{entropy, normal_cdf, GaussianObserver, NbTerm, SplitCandidate};
pub use tree::{HoeffdingTree, HoeffdingTreeConfig, LeafPrediction};
