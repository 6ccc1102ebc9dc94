//! The common drift-detector interface.

/// Tri-state output of a drift detector after each update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorState {
    /// No evidence of change.
    #[default]
    Stable,
    /// Change is suspected (warning zone); learners may start training a
    /// background model.
    Warning,
    /// Change confirmed; the monitored distribution has drifted.
    Drift,
}

/// An online change detector over a univariate stream.
///
/// Implementations consume one value per call to [`DriftDetector::add`] and
/// expose their current state. Detectors that operate on classification
/// errors (EDDM) interpret the value as an error indicator
/// (anything `>= 0.5` counts as an error); ADWIN accepts arbitrary bounded
/// real values, which is what lets FiCSUM run it over fingerprint
/// similarities.
pub trait DriftDetector {
    /// Consumes one value and returns the resulting state.
    fn add(&mut self, value: f64) -> DetectorState;

    /// State after the most recent update.
    fn state(&self) -> DetectorState;

    /// Resets all internal state, forgetting everything seen so far.
    fn reset(&mut self);
}
