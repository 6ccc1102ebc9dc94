//! Gaussian numeric attribute observer for Hoeffding-tree leaves.
//!
//! Each leaf keeps, per attribute, one Gaussian estimator per class plus the
//! observed attribute range. Candidate binary splits are evaluated by
//! projecting each class's Gaussian mass onto the two sides of a threshold
//! (the scheme of MOA's `GaussianNumericAttributeClassObserver`).

use ficsum_stream::RunningStats;

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (maximum absolute error ~1.5e-7, ample for split scoring).
pub fn normal_cdf(x: f64, mean: f64, std: f64) -> f64 {
    if std <= 0.0 {
        return if x < mean { 0.0 } else { 1.0 };
    }
    let z = (x - mean) / (std * std::f64::consts::SQRT_2);
    0.5 * (1.0 + erf(z))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Shannon entropy (log2) of a non-negative count vector.
pub fn entropy(counts: &[f64]) -> f64 {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts {
        if c > 0.0 {
            let p = c / total;
            h -= p * p.log2();
        }
    }
    h
}

/// A candidate binary split on a numeric attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// Threshold: observations with `x <= threshold` go left.
    pub threshold: f64,
    /// Information gain of the split.
    pub merit: f64,
}

/// Reusable buffers for [`GaussianObserver::best_split_with`]: the class
/// totals plus the left/right projections for one candidate threshold.
#[derive(Debug, Clone, Default)]
pub struct SplitScratch {
    totals: Vec<f64>,
    left: Vec<f64>,
    right: Vec<f64>,
}

/// One class's Gaussian estimator together with the naive-Bayes terms
/// derived from it, refreshed whenever the estimator changes.
#[derive(Debug, Clone, Copy, Default)]
struct ClassGaussian {
    stats: RunningStats,
    /// `stats.std_dev().max(1e-6)`.
    sd: f64,
    /// `sd.ln()`.
    ln_sd: f64,
}

/// The naive-Bayes leaf terms of one class's Gaussian: its mean, its
/// floored standard deviation and that deviation's natural log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NbTerm {
    /// Class-conditional mean of the attribute.
    pub mean: f64,
    /// Population standard deviation, floored at `1e-6`.
    pub sd: f64,
    /// `sd.ln()`.
    pub ln_sd: f64,
}

/// Per-attribute observer: one Gaussian per class + attribute range.
#[derive(Debug, Clone)]
pub struct GaussianObserver {
    per_class: Vec<ClassGaussian>,
    min: f64,
    max: f64,
}

impl GaussianObserver {
    /// Observer for an attribute under `n_classes` labels.
    pub fn new(n_classes: usize) -> Self {
        Self {
            per_class: vec![ClassGaussian::default(); n_classes],
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records attribute value `v` for an observation of class `class`,
    /// refreshing that class's naive-Bayes terms.
    pub fn observe(&mut self, v: f64, class: usize) {
        if !v.is_finite() || class >= self.per_class.len() {
            return;
        }
        let g = &mut self.per_class[class];
        g.stats.push(v);
        g.sd = g.stats.std_dev().max(1e-6);
        g.ln_sd = g.sd.ln();
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Projected class counts `(left, right)` for threshold `t`, using each
    /// class Gaussian's CDF mass.
    pub fn project(&self, t: f64) -> (Vec<f64>, Vec<f64>) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        self.project_into(t, &mut left, &mut right);
        (left, right)
    }

    /// [`GaussianObserver::project`] into caller-owned buffers (cleared and
    /// zero-filled first) — the allocation-free core.
    pub fn project_into(&self, t: f64, left: &mut Vec<f64>, right: &mut Vec<f64>) {
        let k = self.per_class.len();
        left.clear();
        left.resize(k, 0.0);
        right.clear();
        right.resize(k, 0.0);
        for (c, ClassGaussian { stats: s, .. }) in self.per_class.iter().enumerate() {
            let n = s.count() as f64;
            if n == 0.0 {
                continue;
            }
            let frac = if s.count() < 2 {
                // Point mass: all on one side.
                if s.mean() <= t {
                    1.0
                } else {
                    0.0
                }
            } else {
                normal_cdf(t, s.mean(), s.std_dev())
            };
            left[c] = n * frac;
            right[c] = n * (1.0 - frac);
        }
    }

    /// Best split over `n_candidates` evenly spaced thresholds in the
    /// observed range. Returns `None` when the range is degenerate.
    pub fn best_split(&self, n_candidates: usize) -> Option<SplitCandidate> {
        self.best_split_with(n_candidates, &mut SplitScratch::default())
    }

    /// [`GaussianObserver::best_split`] reusing `scratch` — identical result
    /// (same thresholds, same projection arithmetic, same tie handling),
    /// with every buffer reused across candidate thresholds and calls.
    pub fn best_split_with(
        &self,
        n_candidates: usize,
        scratch: &mut SplitScratch,
    ) -> Option<SplitCandidate> {
        if !self.min.is_finite() || !self.max.is_finite() || self.max - self.min <= f64::EPSILON {
            return None;
        }
        let SplitScratch { totals, left, right } = scratch;
        totals.clear();
        totals.extend(self.per_class.iter().map(|g| g.stats.count() as f64));
        let n: f64 = totals.iter().sum();
        if n < 2.0 {
            return None;
        }
        let h_pre = entropy(totals);
        let mut best: Option<SplitCandidate> = None;
        for i in 1..=n_candidates {
            let t = self.min + (self.max - self.min) * i as f64 / (n_candidates + 1) as f64;
            self.project_into(t, left, right);
            let nl: f64 = left.iter().sum();
            let nr: f64 = right.iter().sum();
            if nl <= 0.0 || nr <= 0.0 {
                continue;
            }
            let h_post = (nl * entropy(left) + nr * entropy(right)) / n;
            let merit = h_pre - h_post;
            if best.is_none_or(|b| merit > b.merit) {
                best = Some(SplitCandidate { threshold: t, merit });
            }
        }
        best
    }

    /// The naive-Bayes terms of class `class`, `None` while that class has
    /// fewer than two observations (no spread to score against). Computed
    /// when the class was last observed, not per call.
    #[inline]
    pub fn nb_term(&self, class: usize) -> Option<NbTerm> {
        let g = &self.per_class[class];
        (g.stats.count() >= 2).then_some(NbTerm { mean: g.stats.mean(), sd: g.sd, ln_sd: g.ln_sd })
    }

    /// Class `class`'s Gaussian estimator, for tests that recompute the
    /// naive-Bayes terms from scratch.
    #[cfg(test)]
    pub(crate) fn running_stats(&self, class: usize) -> &RunningStats {
        &self.per_class[class].stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_sanity() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(3.0, 0.0, 1.0) > 0.99);
        assert!(normal_cdf(-3.0, 0.0, 1.0) < 0.01);
        // Degenerate sigma behaves like a step function.
        assert_eq!(normal_cdf(1.0, 2.0, 0.0), 0.0);
        assert_eq!(normal_cdf(3.0, 2.0, 0.0), 1.0);
    }

    #[test]
    fn entropy_sanity() {
        assert_eq!(entropy(&[4.0, 0.0]), 0.0);
        assert!((entropy(&[5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn separable_classes_yield_high_merit_split() {
        let mut obs = GaussianObserver::new(2);
        for i in 0..200 {
            let jitter = (i % 10) as f64 * 0.01;
            obs.observe(0.0 + jitter, 0);
            obs.observe(1.0 + jitter, 1);
        }
        let split = obs.best_split(10).expect("split must exist");
        assert!(split.merit > 0.9, "merit {} too low", split.merit);
        assert!(split.threshold > 0.05 && split.threshold < 1.0);
    }

    #[test]
    fn identical_distributions_yield_low_merit() {
        let mut obs = GaussianObserver::new(2);
        for i in 0..200 {
            let v = (i % 20) as f64 * 0.05;
            obs.observe(v, 0);
            obs.observe(v, 1);
        }
        let split = obs.best_split(10).expect("range is non-degenerate");
        assert!(split.merit < 0.05, "merit {} should be ~0", split.merit);
    }

    #[test]
    fn degenerate_range_yields_none() {
        let mut obs = GaussianObserver::new(2);
        for _ in 0..50 {
            obs.observe(1.0, 0);
            obs.observe(1.0, 1);
        }
        assert!(obs.best_split(10).is_none());
    }

    #[test]
    fn projection_preserves_total_mass() {
        let mut obs = GaussianObserver::new(3);
        for i in 0..90 {
            obs.observe(i as f64 * 0.1, i % 3);
        }
        let (l, r) = obs.project(4.5);
        let total: f64 = l.iter().sum::<f64>() + r.iter().sum::<f64>();
        assert!((total - 90.0).abs() < 1e-9);
    }
}
