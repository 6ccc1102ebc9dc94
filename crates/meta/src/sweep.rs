//! Every non-EMD sequence statistic of one behaviour source in two sweeps.
//!
//! Evaluated one function at a time, a source's moments, ACF/PACF at lags
//! 1–2, lag-1 mutual information and turning-point rate pass over the
//! sequence about nine times: the moment sweeps, the ACF mean, denominator
//! and lag sweeps, two min/max folds and two bin divisions per value for
//! the MI histogram, and the turning-point pass. [`SourceSweep::stats`]
//! reads the sequence twice:
//!
//! 1. the sum (for the mean), the minimum and maximum (for the MI bin
//!    edges) and the turning points;
//! 2. the central sums `s2`, `s3`, `s4`, the lag-1 and lag-2 products of
//!    the deviations, each value's MI bin (computed once and carried to
//!    the next pair) and the joint histogram.
//!
//! Every value is bit-identical to the one-function oracles
//! ([`crate::functions`], [`crate::autocorrelation`],
//! [`crate::partial_autocorrelation`], [`crate::lagged_mutual_information`]):
//! each sum receives the same terms in the same order from the same start
//! (`-0.0`, where the oracle uses `Iterator::sum`), every gate is the
//! oracle's, and the ACF denominator *is* `s2` — the oracle's
//! `Σ (x - m) * (x - m)` is `s2`'s `Σ d * d` term by term, and since a
//! square is never `-0.0`, the two starts agree from the first term on.

use crate::autocorr::pacf2_from;
use crate::mutual_info::{bin_of, mi_from_counts};

/// The non-EMD sequence statistics of one behaviour source. `pacf(1)` is
/// `acf1` (Durbin–Levinson).
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    /// Arithmetic mean; 0 for an empty sequence.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Moment skewness.
    pub skewness: f64,
    /// Excess kurtosis.
    pub kurtosis: f64,
    /// Autocorrelation at lag 1.
    pub acf1: f64,
    /// Autocorrelation at lag 2.
    pub acf2: f64,
    /// Partial autocorrelation at lag 2.
    pub pacf2: f64,
    /// Lag-1 self mutual information (nats).
    pub mi: f64,
    /// Turning-point rate.
    pub tpr: f64,
}

/// Reusable histogram storage for [`SourceSweep::stats`]; repeated sweeps
/// allocate nothing once the histogram has grown to the bin count.
#[derive(Debug, Clone, Default)]
pub struct SourceSweep {
    joint: Vec<f64>,
    px: Vec<f64>,
    py: Vec<f64>,
}

impl SourceSweep {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics of `xs`, the mutual information over a
    /// `mi_bins x mi_bins` histogram (`mi_bins < 2` skips the histogram
    /// and reports 0, as the oracle does).
    pub fn stats(&mut self, xs: &[f64], mi_bins: usize) -> SweepStats {
        let n = xs.len();
        let Some((&first, rest)) = xs.split_first() else {
            return SweepStats::default();
        };
        // Sweep 1: sum, range and turning points. The first difference is
        // paired with a zero step, which never counts as a turn.
        let mut sum = -0.0 + first;
        let (mut lo, mut hi) = (f64::INFINITY.min(first), f64::NEG_INFINITY.max(first));
        let (mut prev, mut step, mut turns) = (first, 0.0, 0usize);
        for &x in rest {
            sum += x;
            lo = lo.min(x);
            hi = hi.max(x);
            let s = x - prev;
            turns += (step * s < 0.0) as usize;
            (prev, step) = (x, s);
        }
        let nf = n as f64;
        let mean = sum / nf;
        let range = hi - lo;
        let mi_on = n > 3 && mi_bins >= 2 && range.is_finite() && range > f64::EPSILON;
        if mi_on {
            for (buf, len) in [
                (&mut self.joint, mi_bins * mi_bins),
                (&mut self.px, mi_bins),
                (&mut self.py, mi_bins),
            ] {
                buf.clear();
                buf.resize(len, 0.0);
            }
        }

        // Sweep 2: central sums, lagged products and the pair histogram.
        let (mut s2, mut s3, mut s4) = (-0.0, -0.0, -0.0);
        let (mut lag1, mut lag2) = (-0.0, -0.0);
        let (mut d1, mut d2) = (0.0, 0.0);
        let mut bin_prev = 0usize;
        for (i, &x) in xs.iter().enumerate() {
            let d = x - mean;
            let sq = d * d;
            s2 += sq;
            s3 += sq * d;
            s4 += sq * sq;
            if i >= 2 {
                lag2 += d2 * d;
            }
            if i >= 1 {
                lag1 += d1 * d;
            }
            (d2, d1) = (d1, d);
            if mi_on {
                let b = bin_of(x, lo, range, mi_bins);
                if i >= 1 {
                    self.joint[bin_prev * mi_bins + b] += 1.0;
                    self.px[bin_prev] += 1.0;
                    self.py[b] += 1.0;
                }
                bin_prev = b;
            }
        }

        let (cm2, cm3, cm4) = (s2 / nf, s3 / nf, s4 / nf);
        let flat = cm2 <= f64::EPSILON;
        let (acf1, acf2, pacf2) = if n <= 2 || s2 <= f64::EPSILON {
            (0.0, 0.0, 0.0)
        } else {
            let r1 = lag1 / s2;
            let r2 = if n <= 3 { 0.0 } else { lag2 / s2 };
            (r1, r2, pacf2_from(r1, r2))
        };
        SweepStats {
            mean,
            std_dev: if n < 2 { 0.0 } else { cm2.sqrt() },
            skewness: if n < 3 || flat { 0.0 } else { cm3 / cm2.powf(1.5) },
            kurtosis: if n < 4 || flat { 0.0 } else { cm4 / (cm2 * cm2) - 3.0 },
            acf1,
            acf2,
            pacf2,
            mi: if mi_on {
                mi_from_counts(&self.joint, &self.px, &mut self.py, n - 1)
            } else {
                0.0
            },
            tpr: if n < 3 { 0.0 } else { turns as f64 / (n - 2) as f64 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autocorr::{autocorrelation, partial_autocorrelation};
    use crate::functions::{kurtosis, mean, skewness, std_dev, turning_point_rate};
    use crate::mutual_info::lagged_mutual_information;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    /// The sweep against every one-function oracle, bit for bit.
    fn assert_matches_oracles(sweep: &mut SourceSweep, xs: &[f64], what: &str) {
        for bins in [2usize, 8] {
            let s = sweep.stats(xs, bins);
            let got = [
                s.mean, s.std_dev, s.skewness, s.kurtosis, s.acf1, s.acf2, s.acf1, s.pacf2, s.mi,
                s.tpr,
            ];
            let want = [
                mean(xs),
                std_dev(xs),
                skewness(xs),
                kurtosis(xs),
                autocorrelation(xs, 1),
                autocorrelation(xs, 2),
                partial_autocorrelation(xs, 1),
                partial_autocorrelation(xs, 2),
                lagged_mutual_information(xs, 1, bins),
                turning_point_rate(xs),
            ];
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{what}, {bins} bins: {got:?} vs {want:?}"
            );
        }
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
    fn sweep_is_bit_identical_to_the_oracles() {
        let mut rng = Xoshiro256pp::seed_from_u64(61);
        let mut sweep = SourceSweep::new();
        let lengths: Vec<usize> = (0..=6).chain([75, 150]).collect();
        for &n in &lengths {
            for trial in 0..40 {
                let tag = format!("n {n} trial {trial}");
                let continuous: Vec<f64> =
                    (0..n).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect();
                assert_matches_oracles(&mut sweep, &continuous, &format!("continuous {tag}"));
                let binary: Vec<f64> = (0..n).map(|_| rng.random_range(0..2usize) as f64).collect();
                assert_matches_oracles(&mut sweep, &binary, &format!("binary {tag}"));
                let small: Vec<f64> = (0..n).map(|_| rng.random_range(0..4usize) as f64).collect();
                assert_matches_oracles(&mut sweep, &small, &format!("small-integer {tag}"));
                let offset: Vec<f64> = continuous.iter().map(|x| x + 1e6).collect();
                assert_matches_oracles(&mut sweep, &offset, &format!("1e6 offset {tag}"));
                let phi = rng.random::<f64>() * 1.8 - 0.9;
                assert_matches_oracles(&mut sweep, &ar1(&mut rng, phi, n), &format!("ar1 {tag}"));
            }
            for c in [0.0, -0.0, 3.5, -2.0, 1e6] {
                assert_matches_oracles(&mut sweep, &vec![c; n], &format!("constant {c} n {n}"));
            }
            if n == 0 {
                continue;
            }
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, n / 2, n - 1] {
                    let mut xs: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
                    xs[at] = bad;
                    assert_matches_oracles(&mut sweep, &xs, &format!("{bad} at {at} of {n}"));
                }
            }
        }
        assert_matches_oracles(&mut sweep, &[1.0, f64::INFINITY, f64::NEG_INFINITY, 0.5], "±inf");
        // Every window of up to 6 values over zeros of both signs and ±1:
        // means come out exactly zero, and a sum whose every term is a
        // negative zero keeps its sign only from a `-0.0` start.
        let values = [-0.0, 0.0, 1.0, -1.0];
        for n in 1..=6u32 {
            for code in 0..4usize.pow(n) {
                let xs: Vec<f64> = (0..n).map(|i| values[code / 4usize.pow(i) % 4]).collect();
                assert_matches_oracles(&mut sweep, &xs, &format!("signed zeros {xs:?}"));
            }
        }
    }

    #[test]
    fn one_bin_skips_the_histogram() {
        let mut sweep = SourceSweep::new();
        let xs = [0.0, 1.0, 0.0, 2.0, 1.0, 3.0];
        let s = sweep.stats(&xs, 1);
        assert_eq!(s.mi, 0.0);
        assert_eq!(s.tpr.to_bits(), turning_point_rate(&xs).to_bits());
    }
}
