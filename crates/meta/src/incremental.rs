//! Evaluation of the incrementally substituted sequence statistics.
//!
//! [`ficsum_stream::SeqStats`] maintains sufficient state — shift-centered
//! lagged cross-sums, a lag-1 joint histogram with exact frozen edges, and
//! an exact turning-point counter — in O(1) per observation. This module
//! turns that state into the values of the corresponding meta-functions,
//! applying *the batch functions' own degenerate-input gates* so the
//! substitution stays within the tolerance contract:
//!
//! * turning-point rate and lagged mutual information are **bit-identical**
//!   to the batch sweep: the counts are the batch histogram's, and the MI
//!   is the same [`crate::entropy::mutual_information_from_counts`] call
//!   over them (no logarithm per cell);
//! * ACF and PACF agree to ≤ 1e-9 relative (the cross-sums accumulate in a
//!   different order than the batch sweep and the mean/denominator come
//!   from the window's incremental [`Moments`]).
//!
//! When the state cannot honour the contract — non-finite values resident,
//! a PACF denominator small enough to amplify the cross-sum rounding past
//! 1e-9 — [`ext_vals`] returns `None` and the engine falls back to the
//! batch sweep for that source.

use ficsum_stream::{Moments, SeqStats};

use crate::entropy::mutual_information_from_counts;

/// Substituted values for the incrementally maintained sequence functions
/// of one behaviour source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExtVals {
    pub acf1: f64,
    pub acf2: f64,
    pub pacf1: f64,
    pub pacf2: f64,
    pub mi: f64,
    pub tpr: f64,
}

/// PACF error amplification is `O(rounding / (1 - r1²))`; below this
/// denominator the ~1e-13 cross-sum rounding could breach the 1e-9
/// contract, so the source falls back to the batch sweep instead.
const PACF_DENOM_FLOOR: f64 = 1e-3;

/// Evaluates every substitutable sequence statistic from `stats`, or
/// `None` when the state is unusable (invalid, stale length, mismatched
/// histogram resolution, or a tolerance-threatening PACF denominator) and
/// the caller must take the batch path. `get(i)` reads window value `i`
/// (oldest first) for the O(lag) re-centering corrections.
pub(crate) fn ext_vals<G: Fn(usize) -> f64>(
    stats: &SeqStats,
    moments: &Moments,
    n: usize,
    mi_bins: usize,
    get: G,
) -> Option<ExtVals> {
    if !stats.is_valid() || stats.count() != n || stats.bins() != mi_bins || mi_bins < 2 {
        return None;
    }
    let mean = moments.mean();
    let denom = moments.sum_sq_dev();
    let r1 = acf(stats, n, mean, denom, 1, &get);
    let r2 = acf(stats, n, mean, denom, 2, &get);
    let pacf2_denom = 1.0 - r1 * r1;
    if pacf2_denom.abs() < PACF_DENOM_FLOOR && n > 3 {
        return None;
    }
    let pacf2 = if pacf2_denom.abs() <= f64::EPSILON {
        0.0
    } else {
        (r2 - r1 * r1) / pacf2_denom
    };
    Some(ExtVals {
        acf1: r1,
        acf2: r2,
        // Durbin–Levinson: pacf(1) is acf(1).
        pacf1: r1,
        pacf2,
        mi: mutual_information(stats, n),
        tpr: turning_point_rate(stats, n),
    })
}

/// Autocorrelation at `lag` from the centered cross-sum, re-centered from
/// the frozen shift `K` to the window mean with an exact O(lag)
/// correction: with `u_i = x_i - K` and `d = mean - K`,
///
/// `Σ (x_i - m)(x_{i+lag} - m) = c_lag - d·(2nd - head - tail) + (n-lag)d²`
///
/// where `head`/`tail` are the sums of the first/last `lag` shifted window
/// values. Gates mirror the batch `autocorrelation` exactly.
fn acf<G: Fn(usize) -> f64>(
    stats: &SeqStats,
    n: usize,
    mean: f64,
    denom: f64,
    lag: usize,
    get: &G,
) -> f64 {
    if n <= lag + 1 {
        return 0.0;
    }
    if denom <= f64::EPSILON {
        return 0.0;
    }
    let k = stats.shift();
    let d = mean - k;
    let head: f64 = (0..lag).map(|i| get(i) - k).sum();
    let tail: f64 = (n - lag..n).map(|i| get(i) - k).sum();
    let num = stats.cross_sum(lag) - d * (2.0 * n as f64 * d - head - tail)
        + (n - lag) as f64 * d * d;
    num / denom
}

/// Lag-1 mutual information from the joint histogram, through the batch
/// estimator's gates and its count-based closed form, so the value is
/// bit-identical to the batch sweep's.
fn mutual_information(stats: &SeqStats, n: usize) -> f64 {
    let bins = stats.bins();
    if n <= 3 || bins < 2 {
        return 0.0;
    }
    let (lo, hi) = stats.edges();
    if !(hi - lo).is_finite() || hi - lo <= f64::EPSILON {
        return 0.0;
    }
    mutual_information_from_counts(stats.joint(), bins)
}

/// Turning-point rate from the exact counter; the count is bit-identical
/// to the batch sweep by construction, and so is the final division.
fn turning_point_rate(stats: &SeqStats, n: usize) -> f64 {
    if n < 3 {
        return 0.0;
    }
    stats.turning_points() as f64 / (n - 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autocorr::{autocorrelation, partial_autocorrelation};
    use crate::functions::turning_point_rate as batch_tpr;
    use crate::mutual_info::lagged_mutual_information;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    fn assemble(xs: &[f64], bins: usize) -> (SeqStats, Moments) {
        let mut s = SeqStats::new(bins);
        s.rebuild(xs);
        let mut m = Moments::new();
        xs.iter().for_each(|&x| m.push(x));
        (s, m)
    }

    #[test]
    fn matches_batch_functions_on_random_windows() {
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        // Continuous windows at a random offset, then binary and
        // small-integer windows (errors, labels, predictions), whose joint
        // histograms have empty rows and columns.
        for trial in 0..150 {
            let n = rng.random_range(4..120usize);
            let xs: Vec<f64> = match trial % 3 {
                0 => {
                    let offset = rng.random_range(-1e4..1e4);
                    (0..n).map(|_| offset + rng.random_range(-3.0..3.0)).collect()
                }
                1 => (0..n).map(|_| rng.random_range(0..2usize) as f64).collect(),
                _ => (0..n).map(|_| rng.random_range(0..5usize) as f64).collect(),
            };
            let (s, m) = assemble(&xs, 8);
            let Some(e) = ext_vals(&s, &m, n, 8, |i| xs[i]) else {
                continue; // PACF denominator floor: batch fallback is legal.
            };
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
            assert!(close(e.acf1, autocorrelation(&xs, 1)), "trial {trial} acf1");
            assert!(close(e.acf2, autocorrelation(&xs, 2)), "trial {trial} acf2");
            assert!(close(e.pacf1, partial_autocorrelation(&xs, 1)), "trial {trial} pacf1");
            assert!(close(e.pacf2, partial_autocorrelation(&xs, 2)), "trial {trial} pacf2");
            assert_eq!(
                e.mi.to_bits(),
                lagged_mutual_information(&xs, 1, 8).to_bits(),
                "trial {trial} mi"
            );
            assert_eq!(e.tpr.to_bits(), batch_tpr(&xs).to_bits(), "trial {trial} tpr");
        }
    }

    #[test]
    fn constant_window_gates_to_zero() {
        let xs = vec![2.5; 30];
        let (s, m) = assemble(&xs, 8);
        let e = ext_vals(&s, &m, xs.len(), 8, |i| xs[i]).expect("valid state");
        assert_eq!(e.acf1, 0.0);
        assert_eq!(e.acf2, 0.0);
        assert_eq!(e.pacf2, 0.0);
        assert_eq!(e.mi, 0.0);
        assert_eq!(e.tpr, 0.0);
    }

    #[test]
    fn invalid_or_mismatched_state_is_refused() {
        let xs = [1.0, f64::NAN, 3.0, 4.0, 2.0];
        let (s, m) = assemble(&xs, 8);
        assert!(ext_vals(&s, &m, xs.len(), 8, |i| xs[i]).is_none(), "non-finite");
        let clean = [1.0, 2.0, 3.0, 4.0, 2.0];
        let (s, m) = assemble(&clean, 8);
        assert!(ext_vals(&s, &m, 4, 8, |i| clean[i]).is_none(), "stale length");
        assert!(ext_vals(&s, &m, clean.len(), 4, |i| clean[i]).is_none(), "bins mismatch");
    }

    #[test]
    fn near_unit_acf_falls_back_for_pacf_safety() {
        // A long ramp has r1 ≈ 1 - 3/n; the PACF denominator floor must
        // refuse once 1 - r1² drops below it.
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let (s, m) = assemble(&xs, 8);
        let r1 = autocorrelation(&xs, 1);
        assert!(1.0 - r1 * r1 < PACF_DENOM_FLOOR, "premise: ramp is near-unit ACF");
        assert!(ext_vals(&s, &m, xs.len(), 8, |i| xs[i]).is_none());
    }
}
