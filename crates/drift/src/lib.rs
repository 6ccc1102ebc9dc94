//! Concept drift detectors.
//!
//! FiCSUM feeds a stream of *similarity values* into an explicit drift
//! detector (the paper uses ADWIN); the baseline frameworks feed *error
//! indicators* into ADWIN (HTCD, ARF) or EDDM (RCD). Both detectors
//! implement the common [`DriftDetector`] trait over a stream of real
//! values.
//!
//! Implemented detectors:
//!
//! * [`Adwin`] — ADaptive WINdowing (Bifet & Gavaldà, SDM 2007), with the
//!   exponential-histogram bucket compression scheme,
//! * [`Eddm`] — Early Drift Detection Method (Baena-García et al., 2006),
//!   based on the distance between classification errors.
//!
//! These are the two the paper's experiments run (DESIGN.md, "Drift
//! detectors").

pub mod adwin;
pub mod detector;
pub mod eddm;

pub use adwin::Adwin;
pub use detector::{DetectorState, DriftDetector};
pub use eddm::Eddm;
