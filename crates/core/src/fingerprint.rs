//! Concept fingerprints and online normalisation.

use ficsum_stream::{MinMaxScaler, RunningStats};

/// Online per-dimension min–max normaliser shared by all fingerprints of a
/// FiCSUM instance.
///
/// The paper scales "the observed range of each meta-information feature ...
/// to the range \[0,1\]" (Section III-A). The range is global (not
/// per-concept) so fingerprints from different concepts stay comparable.
#[derive(Debug, Clone)]
pub struct FingerprintNormalizer {
    scalers: Vec<MinMaxScaler>,
    /// Bumped whenever an observation widens any dimension's range; cache
    /// keys derived from scaled vectors include this.
    version: u64,
}

impl FingerprintNormalizer {
    /// Normaliser for `dims` fingerprint dimensions.
    pub fn new(dims: usize) -> Self {
        Self { scalers: vec![MinMaxScaler::new(); dims], version: 0 }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.scalers.len()
    }

    /// Monotone counter of range-widening observations. Two calls returning
    /// the same value bracket a region in which `scale` was a fixed
    /// function.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Widens every dimension's observed range by the raw vector.
    ///
    /// Concept fingerprints accumulate *raw* meta-feature values and are
    /// normalised only at comparison time — normalising before accumulation
    /// would freeze stored fingerprints in the range observed at storage
    /// time, biasing every later comparison as the range widens.
    pub fn observe(&mut self, raw: &[f64]) {
        debug_assert_eq!(raw.len(), self.scalers.len());
        let mut widened = false;
        for (&v, s) in raw.iter().zip(&mut self.scalers) {
            let before = (s.min(), s.max());
            s.observe(v);
            widened |= (s.min(), s.max()) != before;
        }
        self.version += widened as u64;
    }

    /// Widens every dimension's observed range, then returns the normalised
    /// copy.
    pub fn observe_and_scale(&mut self, raw: &[f64]) -> Vec<f64> {
        self.observe(raw);
        self.scale(raw)
    }

    /// Normalises without widening the range (for queries that must not
    /// perturb shared state).
    pub fn scale(&self, raw: &[f64]) -> Vec<f64> {
        debug_assert_eq!(raw.len(), self.scalers.len());
        raw.iter().zip(&self.scalers).map(|(&v, s)| s.scale(v)).collect()
    }

    /// [`Self::scale`] into a caller-owned vector (cleared first).
    pub fn scale_into(&self, raw: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(raw.len(), self.scalers.len());
        out.clear();
        out.extend(raw.iter().zip(&self.scalers).map(|(&v, s)| s.scale(v)));
    }

    /// Normalises a vector in place.
    pub fn scale_in_place(&self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.scalers.len());
        for (x, s) in v.iter_mut().zip(&self.scalers) {
            *x = s.scale(*x);
        }
    }

    /// Observed span (max − min) of dimension `i`; `None` before any
    /// observation or for a degenerate range.
    pub fn span(&self, i: usize) -> Option<f64> {
        let (min, max) = (self.scalers[i].min()?, self.scalers[i].max()?);
        let span = max - min;
        (span > f64::EPSILON).then_some(span)
    }

    /// Converts a raw per-dimension standard deviation into normalised
    /// units (`sigma_raw / span`). Degenerate ranges yield 0 (the dimension
    /// is constant so far).
    pub fn scale_sigma(&self, raw_sigma: f64, i: usize) -> f64 {
        match self.span(i) {
            Some(span) => raw_sigma / span,
            None => 0.0,
        }
    }
}

/// The stored representation of one concept: per-dimension
/// `(mean, std-dev, count)` over all fingerprints incorporated from that
/// concept's stationary segments (Section III-A).
#[derive(Debug, Clone)]
pub struct ConceptFingerprint {
    stats: Vec<RunningStats>,
    incorporated: u64,
    /// Bumped on every mutation (incorporate, dimension reset); cache keys
    /// over the mean vector include this.
    version: u64,
}

impl ConceptFingerprint {
    /// Empty fingerprint with `dims` dimensions.
    pub fn new(dims: usize) -> Self {
        Self { stats: vec![RunningStats::new(); dims], incorporated: 0, version: 0 }
    }

    /// Monotone mutation counter. Equal values bracket a region in which
    /// the mean vector was unchanged.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Incorporates one raw window fingerprint. A non-finite value in a
    /// dimension is replaced by that dimension's current mean (a no-op on
    /// the distribution) so one degenerate meta-feature cannot poison it.
    pub fn incorporate(&mut self, fingerprint: &[f64]) {
        debug_assert_eq!(fingerprint.len(), self.stats.len());
        for (s, &v) in self.stats.iter_mut().zip(fingerprint) {
            s.push(if v.is_finite() { v } else { s.mean() });
        }
        self.incorporated += 1;
        self.version += 1;
    }

    /// Number of fingerprints incorporated so far.
    pub fn n_incorporated(&self) -> u64 {
        self.incorporated
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.stats.len()
    }

    /// Whether any fingerprint has been incorporated.
    pub fn is_trained(&self) -> bool {
        self.incorporated > 0
    }

    /// The `mu` vector (used as the concept's vector representation in the
    /// similarity calculation).
    pub fn mean_vector(&self) -> Vec<f64> {
        self.stats.iter().map(RunningStats::mean).collect()
    }

    /// [`Self::mean_vector`] into a caller-owned vector (cleared first).
    pub fn mean_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.stats.iter().map(RunningStats::mean));
    }

    /// Per-dimension mean.
    pub fn mean(&self, dim: usize) -> f64 {
        self.stats[dim].mean()
    }

    /// Per-dimension standard deviation.
    pub fn std_dev(&self, dim: usize) -> f64 {
        self.stats[dim].std_dev()
    }

    /// Resets the distribution of the dimensions selected by `mask`
    /// (fingerprint plasticity: classifier-dependent dimensions forget old
    /// classifier behaviour after significant training events, Section IV).
    pub fn reset_dims(&mut self, mask: impl Fn(usize) -> bool) {
        for (i, s) in self.stats.iter_mut().enumerate() {
            if mask(i) {
                s.reset();
            }
        }
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_meta::{FingerprintExtractor, MetaFunction, SourceSelection};

    #[test]
    fn incorporate_tracks_distribution() {
        let mut cf = ConceptFingerprint::new(2);
        cf.incorporate(&[0.0, 1.0]);
        cf.incorporate(&[1.0, 1.0]);
        assert_eq!(cf.n_incorporated(), 2);
        assert!((cf.mean(0) - 0.5).abs() < 1e-12);
        assert!((cf.std_dev(0) - 0.5).abs() < 1e-12);
        assert_eq!(cf.std_dev(1), 0.0);
        assert_eq!(cf.mean_vector(), vec![0.5, 1.0]);
    }

    #[test]
    fn non_finite_values_are_neutralised() {
        let mut cf = ConceptFingerprint::new(1);
        cf.incorporate(&[2.0]);
        cf.incorporate(&[f64::NAN]);
        assert_eq!(cf.mean(0), 2.0, "NaN must not move the mean");
    }

    #[test]
    fn normalizer_span_and_sigma_scaling() {
        let mut n = FingerprintNormalizer::new(2);
        n.observe(&[0.0, 5.0]);
        n.observe(&[4.0, 5.0]);
        assert_eq!(n.span(0), Some(4.0));
        assert_eq!(n.span(1), None); // degenerate
        assert!((n.scale_sigma(1.0, 0) - 0.25).abs() < 1e-12);
        assert_eq!(n.scale_sigma(1.0, 1), 0.0);
    }

    #[test]
    fn plasticity_reset_keeps_classifier_independent_dims() {
        let ex = FingerprintExtractor::new(
            2,
            vec![MetaFunction::Mean],
            SourceSelection::all(),
            false,
        );
        // dims: x0.mean, x1.mean, y.mean, l.mean, err.mean, errdist.mean
        let mut cf = ConceptFingerprint::new(ex.schema().len());
        cf.incorporate(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let version = cf.version();
        let schema = ex.schema();
        cf.reset_dims(|i| schema.dims[i].depends_on_classifier());
        assert!(cf.version() > version, "a reset must invalidate cached sides");
        for (dim, kept) in [0.1, 0.2, 0.3].into_iter().enumerate() {
            assert!((cf.mean(dim) - kept).abs() < 1e-12, "dim {dim} must survive");
        }
        for dim in 3..6 {
            assert_eq!(cf.mean(dim), 0.0, "classifier-dependent dim {dim} must reset");
        }
    }

    #[test]
    fn normalizer_shares_range_across_queries() {
        let mut n = FingerprintNormalizer::new(1);
        n.observe_and_scale(&[0.0]);
        n.observe_and_scale(&[10.0]);
        assert!((n.scale(&[5.0])[0] - 0.5).abs() < 1e-12);
        // scale() must not widen the range
        assert_eq!(n.scale(&[20.0]), vec![1.0]);
        assert!((n.scale(&[5.0])[0] - 0.5).abs() < 1e-12);
    }
}
