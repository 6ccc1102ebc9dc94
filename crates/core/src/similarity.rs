//! Weighted cosine similarity between fingerprint vectors (Section III-B).

use crate::fingerprint::{ConceptFingerprint, FingerprintNormalizer};

/// Weighted cosine similarity:
///
/// `Sim(a, b, w) = (wa . wb) / (||wa|| ||wb||)` with `wa_i = w_i a_i`.
///
/// Degenerate cases: two zero vectors are identical (similarity 1); one zero
/// vector is maximally dissimilar (0). With non-negative inputs (FiCSUM
/// fingerprints are normalised to `[0, 1]`) the result lies in `[0, 1]`.
pub fn weighted_cosine(a: &[f64], b: &[f64], weights: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), weights.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for ((&x, &y), &w) in a.iter().zip(b).zip(weights) {
        let (wx, wy) = (w * x, w * y);
        dot += wx * wy;
        na += wx * wx;
        nb += wy * wy;
    }
    if na <= 0.0 && nb <= 0.0 {
        return 1.0;
    }
    if na <= 0.0 || nb <= 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
}

/// Unweighted cosine similarity (all weights 1).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let ones = vec![1.0; a.len()];
    weighted_cosine(a, b, &ones)
}

/// [`fingerprint_similarity`] with unit weights, without materialising the
/// ones vector. Bit-identical to passing `&[1.0; n]`: IEEE 754 multiplication
/// by 1.0 is exact, so `wx = 1.0 * x` has the very bits of `x`.
pub fn fingerprint_similarity_unit(a: &[f64], b: &[f64]) -> f64 {
    if a.len() == 1 {
        return (1.0 - (a[0] - b[0]).abs()).clamp(0.0, 1.0);
    }
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na <= 0.0 && nb <= 0.0 {
        return 1.0;
    }
    if na <= 0.0 || nb <= 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
}

/// Cache identity for one prepared fingerprint side:
/// `(weights generation, normaliser version, fingerprint version)`.
/// Unit-weight caches use `0` for the weights generation.
pub type CacheKey = (u64, u64, u64);

/// One pre-scaled, pre-weighted side of the fingerprint similarity.
///
/// Scaling a stored concept's mean vector and folding in the weights costs
/// O(d) per comparison — but between mutations of the fingerprint, the
/// normaliser and the weights, those inputs are *fixed*. This cache keys the
/// prepared side on the three version counters and lets repeated
/// comparisons skip half of [`weighted_cosine`], bit-exactly: the cached
/// accumulators (`wx` products, `Σ wx²`) are built in the same index order
/// as the fused loop, and IEEE 754 addition order is all that determines
/// the bits.
#[derive(Debug, Clone, Default)]
pub struct CachedFingerprint {
    key: Option<CacheKey>,
    /// Scaled mean vector (needed for the univariate fallback).
    scaled: Vec<f64>,
    /// `w_i * scaled_i` per dimension.
    weighted: Vec<f64>,
    /// `Σ (w_i * scaled_i)²` in index order.
    norm_sq: f64,
}

impl CachedFingerprint {
    /// An empty (invalid) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached side; the next `ensure` recomputes.
    pub fn invalidate(&mut self) {
        self.key = None;
    }

    /// Prepares `fingerprint`'s side under `normalizer` and `weights`
    /// (`None` = unit weights), unless `key` already matches. `key` must
    /// change whenever any of the three inputs change — the version
    /// counters of the fingerprint and normaliser plus a weights
    /// generation counter provide exactly that.
    pub fn ensure(
        &mut self,
        key: CacheKey,
        fingerprint: &ConceptFingerprint,
        normalizer: &FingerprintNormalizer,
        weights: Option<&[f64]>,
    ) {
        if self.key == Some(key) {
            return;
        }
        fingerprint.mean_into(&mut self.scaled);
        normalizer.scale_in_place(&mut self.scaled);
        self.weighted.clear();
        match weights {
            Some(w) => {
                debug_assert_eq!(w.len(), self.scaled.len());
                self.weighted.extend(self.scaled.iter().zip(w).map(|(&x, &wi)| wi * x));
            }
            None => self.weighted.extend_from_slice(&self.scaled),
        }
        self.norm_sq = self.weighted.iter().map(|&wx| wx * wx).sum();
        self.key = Some(key);
    }

    /// The cached scaled mean vector.
    pub fn scaled(&self) -> &[f64] {
        &self.scaled
    }

    /// Fingerprint similarity of the cached side against an *already
    /// scaled* query vector, with the same weights the cache was prepared
    /// with. Bit-identical to
    /// `fingerprint_similarity(cached_scaled, scaled_query, weights)`:
    /// each accumulator (`dot`, `na`, `nb`) receives the same additions in
    /// the same order as the fused loop, and splitting one loop into
    /// per-accumulator loops cannot change any of them.
    pub fn similarity_scaled(&self, scaled_query: &[f64], weights: Option<&[f64]>) -> f64 {
        debug_assert!(self.key.is_some(), "similarity_scaled before ensure");
        debug_assert_eq!(self.scaled.len(), scaled_query.len());
        if self.scaled.len() == 1 {
            return (1.0 - (self.scaled[0] - scaled_query[0]).abs()).clamp(0.0, 1.0);
        }
        let na = self.norm_sq;
        let mut dot = 0.0;
        let mut nb = 0.0;
        match weights {
            Some(w) => {
                debug_assert_eq!(w.len(), scaled_query.len());
                for ((&wx, &y), &wi) in self.weighted.iter().zip(scaled_query).zip(w) {
                    let wy = wi * y;
                    dot += wx * wy;
                    nb += wy * wy;
                }
            }
            None => {
                for (&wx, &wy) in self.weighted.iter().zip(scaled_query) {
                    dot += wx * wy;
                    nb += wy * wy;
                }
            }
        }
        if na <= 0.0 && nb <= 0.0 {
            return 1.0;
        }
        if na <= 0.0 || nb <= 0.0 {
            return 0.0;
        }
        (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
    }
}

/// Fingerprint similarity used throughout FiCSUM.
///
/// Multi-dimensional fingerprints use the weighted cosine. A univariate
/// fingerprint (the ER variant) would make cosine degenerate — any two
/// positive scalars are perfectly "aligned" — so the paper's univariate
/// fallback is used instead: the complement of the absolute difference
/// (Section II's "inverse absolute difference", bounded to `[0, 1]` for
/// normalised inputs).
pub fn fingerprint_similarity(a: &[f64], b: &[f64], weights: &[f64]) -> f64 {
    if a.len() == 1 {
        (1.0 - (a[0] - b[0]).abs()).clamp(0.0, 1.0)
    } else {
        weighted_cosine(a, b, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_similarity_one() {
        let v = [0.3, 0.7, 0.1];
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_vectors_have_similarity_zero() {
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance() {
        let a = [0.2, 0.4, 0.6];
        let b = [0.4, 0.8, 1.2];
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_change_the_verdict() {
        // a and b agree on dim 0, disagree on dim 1.
        let a = [1.0, 1.0];
        let b = [1.0, 0.0];
        let favour_agreeing = weighted_cosine(&a, &b, &[10.0, 0.1]);
        let favour_disagreeing = weighted_cosine(&a, &b, &[0.1, 10.0]);
        assert!(favour_agreeing > 0.99);
        assert!(favour_disagreeing < 0.2);
    }

    #[test]
    fn zero_weight_dims_are_ignored() {
        let a = [0.5, 123.0];
        let b = [0.5, -55.0];
        assert!((weighted_cosine(&a, &b, &[1.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_vectors() {
        assert_eq!(cosine(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(cosine(&[1.0, 0.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn univariate_similarity_is_distance_based() {
        assert!((fingerprint_similarity(&[0.3], &[0.3], &[1.0]) - 1.0).abs() < 1e-12);
        assert!((fingerprint_similarity(&[0.2], &[0.7], &[1.0]) - 0.5).abs() < 1e-12);
        assert_eq!(fingerprint_similarity(&[0.0], &[1.0], &[1.0]), 0.0);
        // With >= 2 dims it's the weighted cosine.
        let s = fingerprint_similarity(&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]);
        assert!(s.abs() < 1e-12);
    }

    /// xorshift64* — deterministic generator for the property test below
    /// (the workspace carries no external proptest dependency).
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform in [0, 1).
        fn f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next_u64() as usize) % (hi - lo)
        }
    }

    /// Property: for every epoch-valid cache, `similarity_scaled` is
    /// bit-identical (0 ULPs) to the uncached [`fingerprint_similarity`]
    /// over the same scaled vectors and weights. 500 randomised cases
    /// sweep dimensionality (including the univariate fallback), weighted
    /// and unit-weight comparisons, degenerate zero vectors and sparse
    /// weights.
    #[test]
    fn cached_similarity_matches_uncached_to_zero_ulps() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for case in 0..500 {
            let dims = rng.range(1, 24);
            let mut normalizer = FingerprintNormalizer::new(dims);
            let mut fp = ConceptFingerprint::new(dims);
            // Train the normaliser and the stored fingerprint on a few
            // random raw vectors (occasionally all-zero to hit the
            // degenerate branches).
            let zero_side = case % 17 == 0;
            for _ in 0..rng.range(1, 6) {
                let raw: Vec<f64> = (0..dims)
                    .map(|_| if zero_side { 0.0 } else { rng.f64() * 10.0 - 2.0 })
                    .collect();
                normalizer.observe(&raw);
                fp.incorporate(&raw);
            }
            let weights: Option<Vec<f64>> = if case % 3 == 0 {
                None
            } else {
                // Sparse non-negative weights, some exactly zero.
                Some(
                    (0..dims)
                        .map(|_| if rng.f64() < 0.2 { 0.0 } else { rng.f64() * 3.0 })
                        .collect(),
                )
            };
            let mut cache = CachedFingerprint::new();
            cache.ensure((1, normalizer.version(), fp.version()), &fp, &normalizer, weights.as_deref());
            // A batch of queries against the one prepared side exercises
            // cache reuse, not just the first fill.
            for q in 0..4 {
                let raw_q: Vec<f64> = (0..dims)
                    .map(|_| if q == 3 { 0.0 } else { rng.f64() * 10.0 - 2.0 })
                    .collect();
                let scaled_q = normalizer.scale(&raw_q);
                let got = cache.similarity_scaled(&scaled_q, weights.as_deref());
                let scaled_side = normalizer.scale(&fp.mean_vector());
                let ones = vec![1.0; dims];
                let w = weights.as_deref().unwrap_or(&ones);
                let want = fingerprint_similarity(&scaled_side, &scaled_q, w);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} query {q}: cached {got:e} != uncached {want:e} (dims {dims})"
                );
            }
        }
    }

    #[test]
    fn bounded_for_nonnegative_inputs() {
        let a = [0.1, 0.9, 0.5, 0.3];
        let b = [0.8, 0.2, 0.4, 0.6];
        let w = [2.0, 0.5, 1.5, 3.0];
        let s = weighted_cosine(&a, &b, &w);
        assert!((0.0..=1.0).contains(&s));
    }
}
