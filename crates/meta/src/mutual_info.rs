//! Lag-1 self mutual information as a temporal-dependence meta-feature.
//!
//! FiCSUM (following FEDD) uses the mutual information between a behaviour
//! source and its one-step-lagged self. Unlike autocorrelation, MI also
//! captures nonlinear dependence. Estimated with an equal-width 2-D
//! histogram, which is the standard plug-in estimator at window sizes of
//! 50–200 observations. The histogram holds integer counts, and the
//! estimate is taken from them in closed form by
//! [`crate::entropy::mutual_information_from_counts`], with no logarithm
//! per cell; the fused sweep and the incremental stat banks reach the same
//! function with the same counts.

use crate::entropy::mutual_information_from_counts;

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
    let mut joint = vec![0u32; n_bins * n_bins];
    for i in 0..n {
        let a = bin_of(xs[i], lo, hi - lo, n_bins);
        let b = bin_of(xs[i + lag], lo, hi - lo, n_bins);
        joint[a * n_bins + b] += 1;
    }
    mutual_information_from_counts(&joint, n_bins)
}

/// The equal-width histogram bin of `v` over `[lo, lo + range]`, the top
/// edge folded into the last bin.
#[inline]
pub(crate) fn bin_of(v: f64, lo: f64, range: f64, n_bins: usize) -> usize {
    (((v - lo) / range * n_bins as f64) as usize).min(n_bins - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    /// The per-cell plug-in estimator, `Σ p_ab ln(p_ab / (p_a p_b))` with
    /// one logarithm per non-empty cell: the oracle for the closed form.
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

    fn ar1(rng: &mut Xoshiro256pp, phi: f64, n: usize) -> Vec<f64> {
        let mut prev = 0.0;
        (0..n)
            .map(|_| {
                prev = phi * prev + rng.random::<f64>() - 0.5;
                prev
            })
            .collect()
    }

    #[test]
    fn closed_form_agrees_with_the_per_cell_estimator() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut worst = 0.0f64;
        for n in 4..=150usize {
            let continuous: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 6.0 - 3.0).collect();
            let binary: Vec<f64> = (0..n).map(|_| rng.random_range(0..2usize) as f64).collect();
            let small: Vec<f64> = (0..n).map(|_| rng.random_range(0..5usize) as f64).collect();
            let phi = rng.random::<f64>() * 1.8 - 0.9;
            let autoregressive = ar1(&mut rng, phi, n);
            let offset: Vec<f64> = continuous.iter().map(|x| x + 1e6).collect();
            let windows = [
                ("continuous", &continuous),
                ("binary", &binary),
                ("small-integer", &small),
                ("ar1", &autoregressive),
                ("1e6 offset", &offset),
            ];
            for (kind, xs) in windows {
                for bins in 2..=10usize {
                    for lag in [1usize, 2] {
                        let got = lagged_mutual_information(xs, lag, bins);
                        let want = reference_mi(xs, lag, bins);
                        let diff = (got - want).abs();
                        assert!(diff <= 1e-12, "{kind} n {n} lag {lag} bins {bins}: {got} vs {want}");
                        worst = worst.max(diff);
                    }
                }
            }
        }
        assert!(worst > 0.0, "premise: the two forms are not bit-identical everywhere");
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
