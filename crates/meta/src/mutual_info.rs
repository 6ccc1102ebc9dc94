//! Lag-1 self mutual information as a temporal-dependence meta-feature.
//!
//! FiCSUM (following FEDD) uses the mutual information between a behaviour
//! source and its one-step-lagged self. Unlike autocorrelation, MI also
//! captures nonlinear dependence. Estimated with an equal-width 2-D
//! histogram, which is the standard plug-in estimator at window sizes of
//! 50–200 observations.

/// Mutual information (nats) between `xs[..n-lag]` and `xs[lag..]`.
///
/// Returns 0 for degenerate inputs (constant or too-short series).
pub fn lagged_mutual_information(xs: &[f64], lag: usize, n_bins: usize) -> f64 {
    if xs.len() <= lag + 2 || n_bins < 2 {
        return 0.0;
    }
    let n = xs.len() - lag;
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !(hi - lo).is_finite() || hi - lo <= f64::EPSILON {
        return 0.0;
    }
    let mut joint = vec![0.0; n_bins * n_bins];
    let mut px = vec![0.0; n_bins];
    let mut py = vec![0.0; n_bins];
    for i in 0..n {
        let a = bin_of(xs[i], lo, hi - lo, n_bins);
        let b = bin_of(xs[i + lag], lo, hi - lo, n_bins);
        joint[a * n_bins + b] += 1.0;
        px[a] += 1.0;
        py[b] += 1.0;
    }
    mi_from_counts(&joint, &px, &mut py, n)
}

/// The equal-width histogram bin of `v` over `[lo, lo + range]`, the top
/// edge folded into the last bin.
#[inline]
pub(crate) fn bin_of(v: f64, lo: f64, range: f64, n_bins: usize) -> usize {
    (((v - lo) / range * n_bins as f64) as usize).min(n_bins - 1)
}

/// The plug-in mutual information of `pairs` counted pairs: `joint` is the
/// `n_bins x n_bins` row-major pair histogram, `px` and `py` its row and
/// column sums (`py` is turned into probabilities in place). Marginal
/// probabilities are taken once per row and column, not once per cell, and
/// empty cells are skipped before any division.
pub(crate) fn mi_from_counts(joint: &[f64], px: &[f64], py: &mut [f64], pairs: usize) -> f64 {
    let n = pairs as f64;
    for c in py.iter_mut() {
        *c /= n;
    }
    let mut mi = 0.0;
    for (row, &count_a) in joint.chunks_exact(px.len()).zip(px.iter()) {
        if count_a == 0.0 {
            continue;
        }
        let pa = count_a / n;
        for (&c, &pb) in row.iter().zip(py.iter()) {
            if c == 0.0 {
                continue;
            }
            let pj = c / n;
            mi += pj * (pj / (pa * pb)).ln();
        }
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    /// The per-cell estimator the row/column hoisting replaced, kept as
    /// the bit-identity oracle.
    fn reference_mi(xs: &[f64], lag: usize, n_bins: usize) -> f64 {
        if xs.len() <= lag + 2 || n_bins < 2 {
            return 0.0;
        }
        let n = xs.len() - lag;
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !(hi - lo).is_finite() || hi - lo <= f64::EPSILON {
            return 0.0;
        }
        let bin = |v: f64| -> usize {
            (((v - lo) / (hi - lo) * n_bins as f64) as usize).min(n_bins - 1)
        };
        let mut joint = vec![0.0; n_bins * n_bins];
        let mut px = vec![0.0; n_bins];
        let mut py = vec![0.0; n_bins];
        for i in 0..n {
            let a = bin(xs[i]);
            let b = bin(xs[i + lag]);
            joint[a * n_bins + b] += 1.0;
            px[a] += 1.0;
            py[b] += 1.0;
        }
        let n = n as f64;
        let mut mi = 0.0;
        for a in 0..n_bins {
            for b in 0..n_bins {
                let pj = joint[a * n_bins + b] / n;
                if pj > 0.0 {
                    let pa = px[a] / n;
                    let pb = py[b] / n;
                    mi += pj * (pj / (pa * pb)).ln();
                }
            }
        }
        mi.max(0.0)
    }

    #[test]
    fn hoisted_marginals_are_bit_identical_to_per_cell_loop() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for n in 0..=130usize {
            let continuous: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 6.0 - 3.0).collect();
            let ints: Vec<f64> = (0..n).map(|_| rng.random_range(0..3usize) as f64).collect();
            for (kind, xs) in [("continuous", &continuous), ("integer", &ints)] {
                for (lag, bins) in [(1usize, 2usize), (1, 8), (2, 5)] {
                    let got = lagged_mutual_information(xs, lag, bins);
                    let want = reference_mi(xs, lag, bins);
                    assert_eq!(got.to_bits(), want.to_bits(), "{kind} n {n} lag {lag} bins {bins}");
                }
            }
        }
    }

    #[test]
    fn iid_noise_has_low_mi() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let xs: Vec<f64> = (0..5000).map(|_| rng.random()).collect();
        let mi = lagged_mutual_information(&xs, 1, 8);
        assert!(mi < 0.05, "iid MI {mi} should be near zero");
    }

    #[test]
    fn deterministic_sequence_has_high_mi() {
        // A slow sine is almost perfectly predictable from its lag.
        let xs: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.05).sin()).collect();
        let mi = lagged_mutual_information(&xs, 1, 8);
        assert!(mi > 1.0, "deterministic MI {mi} should be high");
    }

    #[test]
    fn nonlinear_dependence_is_captured() {
        // x_{t+1} = x_t^2 folded into [0,1]: zero linear correlation regions
        // still share information.
        let mut x = 0.37;
        let xs: Vec<f64> = (0..5000)
            .map(|_| {
                x = 3.9 * x * (1.0 - x); // logistic map, chaotic but deterministic
                x
            })
            .collect();
        let mi = lagged_mutual_information(&xs, 1, 8);
        assert!(mi > 0.5, "logistic-map MI {mi} should be substantial");
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(lagged_mutual_information(&[], 1, 8), 0.0);
        assert_eq!(lagged_mutual_information(&[1.0, 2.0], 1, 8), 0.0);
        assert_eq!(lagged_mutual_information(&vec![5.0; 100], 1, 8), 0.0);
        assert_eq!(lagged_mutual_information(&[1.0, 2.0, 3.0, 4.0], 1, 1), 0.0);
    }

    #[test]
    fn mi_is_nonnegative() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..20 {
            let xs: Vec<f64> = (0..60).map(|_| rng.random()).collect();
            assert!(lagged_mutual_information(&xs, 1, 6) >= 0.0);
        }
    }
}
