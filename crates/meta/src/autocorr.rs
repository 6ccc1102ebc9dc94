//! Autocorrelation and partial autocorrelation.

use crate::functions::mean;

/// Sample autocorrelation at `lag`.
///
/// Returns 0 for sequences too short or with zero variance (a constant
/// series carries no temporal dependence signal).
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|&x| (x - m) * (x - m)).sum();
    if denom <= f64::EPSILON {
        return 0.0;
    }
    let num: f64 = xs.windows(lag + 1).map(|w| (w[0] - m) * (w[lag] - m)).sum();
    num / denom
}

/// Partial autocorrelation at `lag` (1 or 2) via the Durbin–Levinson
/// recursion:
///
/// * `pacf(1) = acf(1)`
/// * `pacf(2) = (acf(2) - acf(1)^2) / (1 - acf(1)^2)`
///
/// Lags above 2 are not needed by FiCSUM and panic.
pub fn partial_autocorrelation(xs: &[f64], lag: usize) -> f64 {
    match lag {
        1 => autocorrelation(xs, 1),
        2 => pacf2_from(autocorrelation(xs, 1), autocorrelation(xs, 2)),
        _ => panic!("FiCSUM only uses PACF lags 1 and 2, got {lag}"),
    }
}

/// The Durbin–Levinson lag-2 step from `acf(1)` and `acf(2)`.
pub(crate) fn pacf2_from(r1: f64, r2: f64) -> f64 {
    let denom = 1.0 - r1 * r1;
    if denom.abs() <= f64::EPSILON {
        0.0
    } else {
        (r2 - r1 * r1) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    fn ar1(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut prev = 0.0;
        for _ in 0..n {
            let eps: f64 = rng.random::<f64>() - 0.5;
            let x = phi * prev + eps;
            xs.push(x);
            prev = x;
        }
        xs
    }

    #[test]
    fn white_noise_has_near_zero_acf() {
        let xs = ar1(0.0, 5000, 1);
        assert!(autocorrelation(&xs, 1).abs() < 0.05);
        assert!(autocorrelation(&xs, 2).abs() < 0.05);
    }

    #[test]
    fn ar1_acf_matches_phi() {
        let xs = ar1(0.8, 20_000, 2);
        assert!((autocorrelation(&xs, 1) - 0.8).abs() < 0.03);
        assert!((autocorrelation(&xs, 2) - 0.64).abs() < 0.05);
    }

    #[test]
    fn ar1_pacf2_is_near_zero() {
        // For an AR(1) process the PACF cuts off after lag 1.
        let xs = ar1(0.7, 20_000, 3);
        assert!((partial_autocorrelation(&xs, 1) - 0.7).abs() < 0.03);
        assert!(partial_autocorrelation(&xs, 2).abs() < 0.05);
    }

    #[test]
    fn constant_series_is_zero() {
        let xs = vec![3.0; 100];
        assert_eq!(autocorrelation(&xs, 1), 0.0);
        assert_eq!(partial_autocorrelation(&xs, 2), 0.0);
    }

    #[test]
    fn short_series_is_zero() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 2), 0.0);
        assert_eq!(autocorrelation(&[], 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "lags 1 and 2")]
    fn pacf_lag3_panics() {
        let _ = partial_autocorrelation(&[1.0, 2.0, 3.0, 4.0], 3);
    }

    #[test]
    fn alternating_series_has_negative_acf() {
        let xs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert!(autocorrelation(&xs, 2) > 0.9);
    }
}
