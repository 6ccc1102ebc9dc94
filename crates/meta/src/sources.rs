//! Behaviour-source extraction (Figure 2 of the paper).
//!
//! A window of `w` labeled observations is separated into `d + 4` univariate
//! sequences: one per input feature (describing `p(X)`), plus the label,
//! predicted-label, error, and error-distance sequences (describing
//! `p(y|X)` as shown by the concept and as learned by the classifier).

use ficsum_stream::LabeledObservation;

/// Identifies one behaviour source of the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// The `j`-th input feature — unsupervised, describes `p(X)`.
    Feature(usize),
    /// Ground-truth labels `y` — supervised.
    Labels,
    /// Classifier labels `l` — supervised (learned `p(y|X)`).
    Predictions,
    /// Error indicators `l != y` — supervised.
    Errors,
    /// Distances between consecutive errors — supervised (temporal
    /// `p(y|X)`).
    ErrorDistances,
}

impl SourceKind {
    /// Whether this source needs labels/classifier output (Definition 2) or
    /// only the feature distribution (Definition 1).
    pub fn is_supervised(self) -> bool {
        !matches!(self, SourceKind::Feature(_))
    }

    /// Stable short name for reports.
    pub fn name(self) -> String {
        match self {
            SourceKind::Feature(j) => format!("x{j}"),
            SourceKind::Labels => "y".into(),
            SourceKind::Predictions => "l".into(),
            SourceKind::Errors => "err".into(),
            SourceKind::ErrorDistances => "errdist".into(),
        }
    }
}

/// Extracts the error-distance sequence into `out` (cleared first): the
/// gaps (in observations) between consecutive errors within the window.
/// Matches the paper's worked example (errors `[0, 1, 1]` → distances
/// `[1]`). Reusing one buffer across calls makes repeated extraction
/// allocation-free once the buffer has warmed to the window size.
pub fn error_distances_into(window: &[LabeledObservation], out: &mut Vec<f64>) {
    out.clear();
    let mut last: Option<usize> = None;
    for (i, o) in window.iter().enumerate() {
        if o.is_error() {
            if let Some(prev) = last {
                out.push((i - prev) as f64);
            }
            last = Some(i);
        }
    }
}

/// Extracts the univariate sequence for one behaviour source into `out`
/// (cleared first), reusing its capacity.
pub fn source_sequence_into(window: &[LabeledObservation], kind: SourceKind, out: &mut Vec<f64>) {
    match kind {
        SourceKind::Feature(j) => {
            out.clear();
            out.extend(window.iter().map(|o| o.features()[j]));
        }
        SourceKind::Labels => {
            out.clear();
            out.extend(window.iter().map(|o| o.label() as f64));
        }
        SourceKind::Predictions => {
            out.clear();
            out.extend(window.iter().map(|o| o.prediction as f64));
        }
        SourceKind::Errors => {
            out.clear();
            out.extend(window.iter().map(|o| if o.is_error() { 1.0 } else { 0.0 }));
        }
        SourceKind::ErrorDistances => error_distances_into(window, out),
    }
}

/// All `d + 4` behaviour sources in fingerprint order.
pub fn behaviour_sources(n_features: usize) -> Vec<SourceKind> {
    let mut out: Vec<SourceKind> = (0..n_features).map(SourceKind::Feature).collect();
    out.extend([
        SourceKind::Labels,
        SourceKind::Predictions,
        SourceKind::Errors,
        SourceKind::ErrorDistances,
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from Section III-A of the paper.
    fn paper_window() -> Vec<LabeledObservation> {
        vec![
            LabeledObservation::new(vec![1.0, 5.0], 1, 1),
            LabeledObservation::new(vec![0.5, 7.0], 1, 0),
            LabeledObservation::new(vec![0.75, 6.0], 0, 1),
        ]
    }

    /// One source's sequence in a fresh buffer.
    fn source_sequence(window: &[LabeledObservation], kind: SourceKind) -> Vec<f64> {
        let mut out = Vec::new();
        source_sequence_into(window, kind, &mut out);
        out
    }

    #[test]
    fn paper_example_sources() {
        let w = paper_window();
        assert_eq!(source_sequence(&w, SourceKind::Feature(0)), vec![1.0, 0.5, 0.75]);
        assert_eq!(source_sequence(&w, SourceKind::Feature(1)), vec![5.0, 7.0, 6.0]);
        assert_eq!(source_sequence(&w, SourceKind::Labels), vec![1.0, 1.0, 0.0]);
        assert_eq!(source_sequence(&w, SourceKind::Predictions), vec![1.0, 0.0, 1.0]);
        assert_eq!(source_sequence(&w, SourceKind::Errors), vec![0.0, 1.0, 1.0]);
        assert_eq!(source_sequence(&w, SourceKind::ErrorDistances), vec![1.0]);
    }

    #[test]
    fn paper_example_mean_fingerprint() {
        // "Using only the 'mean' meta-information function, the fingerprint
        // of the window would be: [0.75, 6, 0.66, 0.66, 0.66, 1]".
        let w = paper_window();
        let means: Vec<f64> = behaviour_sources(2)
            .into_iter()
            .map(|k| crate::functions::mean(&source_sequence(&w, k)))
            .collect();
        let expected = [0.75, 6.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0, 1.0];
        for (got, want) in means.iter().zip(expected) {
            assert!((got - want).abs() < 1e-9, "{means:?}");
        }
    }

    #[test]
    fn no_errors_means_empty_distances() {
        let w = vec![LabeledObservation::new(vec![0.0], 1, 1); 5];
        let mut out = vec![1.0];
        error_distances_into(&w, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn into_variants_match_and_reuse_capacity() {
        let w = paper_window();
        let mut buf = Vec::new();
        for kind in behaviour_sources(2) {
            source_sequence_into(&w, kind, &mut buf);
            assert_eq!(buf, source_sequence(&w, kind), "{kind:?}");
        }
        let cap = buf.capacity();
        for kind in behaviour_sources(2) {
            source_sequence_into(&w, kind, &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "warm buffer must not reallocate");
    }

    #[test]
    fn source_ordering_is_features_then_supervised() {
        let srcs = behaviour_sources(3);
        assert_eq!(srcs.len(), 7);
        assert_eq!(srcs[0], SourceKind::Feature(0));
        assert_eq!(srcs[2], SourceKind::Feature(2));
        assert_eq!(srcs[6], SourceKind::ErrorDistances);
        assert!(!srcs[1].is_supervised());
        assert!(srcs[4].is_supervised());
    }
}
