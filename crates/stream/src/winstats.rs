//! Incrementally maintained per-window sequence statistics beyond moments.
//!
//! [`crate::stats::Moments`] already gives the fingerprint engine O(1)
//! mean/std/skew/kurtosis per window. The remaining Table-I sequence
//! statistics — autocorrelation, partial autocorrelation, lagged mutual
//! information and turning-point rate — are still O(w) batch sweeps per
//! extraction. [`SeqStats`] maintains the sufficient state for all of them
//! in O(1) amortized time per pushed/evicted observation:
//!
//! * **Lagged cross-sums** for ACF/PACF lags 1–2, kept *centered around a
//!   frozen shift reference `K`*: `c_lag = Σ (x_i - K)(x_{i+lag} - K)`.
//!   Centering bounds catastrophic cancellation for data with a large mean
//!   offset (raw `Σ x_i x_{i+lag}` sums lose ~9 digits at offset 1e6); the
//!   consumer re-centers to the exact current mean at evaluation time with
//!   an O(lag) correction. `K` is refreshed to the current mean at every
//!   resummation, and a drift guard rebuilds early if the window mean runs
//!   more than 16 standard deviations from `K`.
//! * An **add/remove joint histogram** for lag-1 mutual information, with
//!   bin edges frozen at the window's exact min/max. Pushing a value
//!   outside the edges, or evicting a value sitting exactly on an edge,
//!   forces a rebuild — which keeps the frozen edges always equal to the
//!   true window min/max, so the histogram counts are *bit-identical* to a
//!   batch recount. For continuous data both kinds of edge event are rare —
//!   the incoming or the evicted value is a window extremum on O(1/w) of
//!   steps — so maintenance stays O(1) amortized. Integer-valued sources
//!   are the opposite case: with few distinct values nearly every value
//!   sits on an edge, so evicting one forces a rebuild on almost every
//!   push (every eviction from a window holding only 0s and 1s is an edge
//!   event). That O(w) rebuild is therefore a hot path in its own right,
//!   and runs over one contiguous slice of the window (see
//!   [`SeqStats::rebuild`]).
//! * An exact **turning-point counter** (integer, bit-identical to the
//!   batch count by construction: both sides evaluate the same
//!   `(b-a)*(c-b) < 0` products on the same values).
//!
//! Non-finite values poison batch statistics in ways no incremental update
//! can mirror (`NaN` comparisons), so the state tracks an exact count of
//! non-finite values currently in the window; while it is non-zero the
//! state reports invalid and consumers fall back to the batch sweep, and
//! when the last non-finite value leaves the window the owner rebuilds.
//!
//! The owner ([`crate::frames::FrameWindows`]) drives maintenance: it
//! reads the neighbour values each update needs from its frame ring and
//! calls [`SeqStats::step`], then [`SeqStats::rebuild`]s any state that
//! requested it from the window column gathered out of the ring.
//! Periodic resummation piggybacks on the ring's existing moment-rebuild
//! cadence to bound floating-point drift in the cross-sums.

/// Incremental sufficient statistics for one behaviour-source sequence
/// over a sliding window. See the module docs for the maintenance
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqStats {
    bins: usize,
    /// Window length currently represented.
    n: usize,
    /// Shift reference `K` for the centered cross-sums.
    shift: f64,
    /// `Σ (x_i - K)(x_{i+1} - K)` over adjacent pairs.
    c1: f64,
    /// `Σ (x_i - K)(x_{i+2} - K)` over lag-2 pairs.
    c2: f64,
    /// Exact count of interior local extrema.
    turns: u32,
    /// Exact count of non-finite values currently in the window.
    nonfinite: u32,
    /// Whether the state needs a full rebuild before use.
    dirty: bool,
    /// Frozen histogram edges == exact window min/max while clean.
    lo: f64,
    hi: f64,
    /// Joint lag-1 histogram, row-major `[older_bin][newer_bin]` counts.
    joint: Vec<u32>,
}

impl SeqStats {
    /// Empty state with a `bins x bins` mutual-information histogram.
    pub fn new(bins: usize) -> Self {
        Self {
            bins,
            n: 0,
            shift: 0.0,
            c1: 0.0,
            c2: 0.0,
            turns: 0,
            nonfinite: 0,
            dirty: false,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            joint: vec![0; bins * bins],
        }
    }

    /// Resets to the empty-window state, keeping the histogram allocation.
    pub fn reset(&mut self) {
        self.n = 0;
        self.shift = 0.0;
        self.c1 = 0.0;
        self.c2 = 0.0;
        self.turns = 0;
        self.nonfinite = 0;
        self.dirty = false;
        self.lo = f64::INFINITY;
        self.hi = f64::NEG_INFINITY;
        self.joint.iter_mut().for_each(|c| *c = 0);
    }

    /// Histogram resolution per axis.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Window length this state currently represents.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Whether the state may be substituted for a batch sweep. False while
    /// the window holds non-finite values or a rebuild is pending.
    pub fn is_valid(&self) -> bool {
        !self.dirty && self.nonfinite == 0
    }

    /// Whether the owner must [`SeqStats::rebuild`] before the next use.
    /// False while non-finite values remain resident (a rebuild would not
    /// help until they leave the window).
    pub fn needs_rebuild(&self) -> bool {
        self.dirty && self.nonfinite == 0
    }

    /// The frozen shift reference `K`.
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Centered cross-sum `Σ (x_i - K)(x_{i+lag} - K)` for lag 1 or 2.
    pub fn cross_sum(&self, lag: usize) -> f64 {
        match lag {
            1 => self.c1,
            2 => self.c2,
            _ => panic!("cross-sums are maintained for lags 1 and 2, got {lag}"),
        }
    }

    /// Exact count of interior turning points in the window.
    pub fn turning_points(&self) -> u32 {
        self.turns
    }

    /// Frozen histogram edges (exact window min/max while clean).
    pub fn edges(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Joint lag-1 histogram counts, row-major `[older][newer]`.
    pub fn joint(&self) -> &[u32] {
        &self.joint
    }

    /// Bin index of `v` under the frozen edges — the same computation the
    /// batch estimator applies with its freshly-folded min/max.
    #[inline]
    fn bin(&self, v: f64) -> usize {
        (((v - self.lo) / (self.hi - self.lo) * self.bins as f64) as usize).min(self.bins - 1)
    }

    /// O(1) maintenance for one window update.
    ///
    /// `v` is the value entering at the newest end; `p1`/`p2` are the
    /// previously newest and second-newest window values (when present).
    /// `evict` carries the value leaving the oldest end together with the
    /// next two oldest values of the *post-append* window (`x1`/`x2` may
    /// therefore be the incoming `v` for very small windows).
    ///
    /// When the update cannot be applied in O(1) — a histogram edge moved,
    /// or non-finite values are involved — the state marks itself for
    /// rebuild instead; the owner must check [`SeqStats::needs_rebuild`]
    /// afterwards and rebuild from the window contents.
    pub fn step(
        &mut self,
        v: f64,
        p1: Option<f64>,
        p2: Option<f64>,
        evict: Option<(f64, Option<f64>, Option<f64>)>,
    ) {
        // Length and non-finite accounting are exact regardless of state.
        let n_pre = self.n;
        self.n += 1;
        if !v.is_finite() {
            self.nonfinite += 1;
        }
        if let Some((x0, _, _)) = evict {
            self.n -= 1;
            if !x0.is_finite() {
                self.nonfinite = self.nonfinite.saturating_sub(1);
            }
        }
        if self.nonfinite > 0 {
            // Comparisons against NaN/inf are meaningless; leave the rest
            // of the state stale and rebuild once the window is clean.
            self.dirty = true;
            return;
        }
        if self.dirty {
            return;
        }
        // Histogram edge events force a rebuild: a new extremum widens the
        // range, and evicting a value sitting on an edge may shrink it.
        // Rebuilding keeps the frozen edges equal to the exact window
        // min/max, which is what makes the counts match a batch recount.
        if n_pre == 0 || v < self.lo || v > self.hi {
            self.dirty = true;
            return;
        }
        if let Some((x0, _, _)) = evict {
            if x0 == self.lo || x0 == self.hi {
                self.dirty = true;
                return;
            }
        }

        let k = self.shift;
        if let Some(p1) = p1 {
            self.c1 += (p1 - k) * (v - k);
            let at = self.bin(p1) * self.bins + self.bin(v);
            self.joint[at] += 1;
            if let Some(p2) = p2 {
                // New interior point p1 in the triple (p2, p1, v).
                if (p1 - p2) * (v - p1) < 0.0 {
                    self.turns += 1;
                }
                self.c2 += (p2 - k) * (v - k);
            }
        }
        if let Some((x0, Some(x1), x2)) = evict {
            self.c1 -= (x0 - k) * (x1 - k);
            let at = self.bin(x0) * self.bins + self.bin(x1);
            self.joint[at] -= 1;
            if let Some(x2) = x2 {
                // x1 stops being interior in the triple (x0, x1, x2).
                if (x1 - x0) * (x2 - x1) < 0.0 {
                    self.turns -= 1;
                }
                self.c2 -= (x0 - k) * (x2 - k);
            }
        }
    }

    /// Exact recomputation from the window contents `xs`, oldest first.
    /// Refreshes the shift reference to the current window mean and the
    /// histogram edges to the exact min/max, clearing the dirty flag —
    /// unless non-finite values are present, in which case the state stays
    /// invalid until they leave the window.
    ///
    /// One sweep yields the non-finite count, the sum and the min/max; a
    /// second accumulates the cross-sums, histogram and turning points in
    /// window order, computing each value's bin once and carrying it to
    /// the next pair.
    pub fn rebuild(&mut self, xs: &[f64]) {
        let len = xs.len();
        self.n = len;
        let mut nonfinite = 0u32;
        let mut sum = 0.0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in xs {
            nonfinite += u32::from(!x.is_finite());
            sum += x;
            lo = lo.min(x);
            hi = hi.max(x);
        }
        self.nonfinite = nonfinite;
        if nonfinite > 0 {
            self.dirty = true;
            return;
        }
        let k = if len == 0 { 0.0 } else { sum / len as f64 };
        self.shift = k;
        self.lo = lo;
        self.hi = hi;
        self.joint.iter_mut().for_each(|c| *c = 0);
        let (mut c1, mut c2, mut turns) = (0.0, 0.0, 0u32);
        if let Some(&first) = xs.first() {
            let mut b_prev = self.bin(first);
            for (i, pair) in xs.windows(2).enumerate() {
                let (x, y) = (pair[0], pair[1]);
                c1 += (x - k) * (y - k);
                let b_next = self.bin(y);
                self.joint[b_prev * self.bins + b_next] += 1;
                b_prev = b_next;
                if let Some(&z) = xs.get(i + 2) {
                    c2 += (x - k) * (z - k);
                    if (y - x) * (z - y) < 0.0 {
                        turns += 1;
                    }
                }
            }
        }
        self.c1 = c1;
        self.c2 = c2;
        self.turns = turns;
        self.dirty = false;
    }

    /// Whether the window mean `mean` has drifted far enough from the
    /// shift reference (relative to the raw second moment `sum_sq_dev =
    /// Σ (x - mean)²`) that the eval-time re-centering correction would
    /// start losing precision; the owner rebuilds when this fires. The
    /// 16-sigma threshold keeps the relative error of the corrected
    /// cross-sums comfortably under 1e-12.
    pub fn shift_drifted(&self, mean: f64, sum_sq_dev: f64) -> bool {
        if self.n == 0 {
            return false;
        }
        let d = mean - self.shift;
        d * d * self.n as f64 > 256.0 * sum_sq_dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RandomSource, Xoshiro256pp};

    /// Batch references mirroring the ficsum-meta functions.
    fn batch_cross_sum(xs: &[f64], k: f64, lag: usize) -> f64 {
        xs.windows(lag + 1).map(|w| (w[0] - k) * (w[lag] - k)).sum()
    }

    fn batch_turns(xs: &[f64]) -> u32 {
        xs.windows(3).filter(|w| (w[1] - w[0]) * (w[2] - w[1]) < 0.0).count() as u32
    }

    fn batch_joint(xs: &[f64], bins: usize) -> (Vec<u32>, f64, f64) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let bin = |v: f64| (((v - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1);
        let mut joint = vec![0u32; bins * bins];
        for w in xs.windows(2) {
            joint[bin(w[0]) * bins + bin(w[1])] += 1;
        }
        (joint, lo, hi)
    }

    /// Drives a window of capacity `w` over `values`, mirroring the
    /// owner's maintenance contract, checking every statistic against a
    /// batch recompute at every step.
    fn drive_and_check(values: &[f64], w: usize, bins: usize) {
        let mut s = SeqStats::new(bins);
        let mut win: Vec<f64> = Vec::new();
        for (step, &v) in values.iter().enumerate() {
            let n = win.len();
            let p1 = (n >= 1).then(|| win[n - 1]);
            let p2 = (n >= 2).then(|| win[n - 2]);
            let evict = (n == w).then(|| {
                // Post-append window is win + [v]; x1/x2 fall back to v.
                let x1 = if w >= 2 { Some(win[1]) } else { Some(v) };
                let x2 = if w >= 3 {
                    Some(win[2])
                } else if w == 2 {
                    Some(v)
                } else {
                    None
                };
                (win[0], x1, x2)
            });
            s.step(v, p1, p2, evict);
            win.push(v);
            if win.len() > w {
                win.remove(0);
            }
            if s.needs_rebuild() {
                s.rebuild(&win);
            }
            let finite = win.iter().all(|x| x.is_finite());
            assert_eq!(s.count(), win.len(), "step {step}: length");
            assert_eq!(s.is_valid(), finite, "step {step}: validity");
            if !finite {
                continue;
            }
            assert_eq!(s.turning_points(), batch_turns(&win), "step {step}: turns");
            let (joint, lo, hi) = batch_joint(&win, bins);
            assert_eq!(s.edges(), (lo, hi), "step {step}: edges");
            assert_eq!(s.joint(), &joint[..], "step {step}: joint histogram");
            for lag in [1usize, 2] {
                let want = batch_cross_sum(&win, s.shift(), lag);
                let got = s.cross_sum(lag);
                let tol = 1e-11 * (1.0 + want.abs());
                assert!(
                    (got - want).abs() <= tol,
                    "step {step}: c{lag} got {got} want {want}"
                );
            }
        }
    }

    /// The closure-driven rebuild the slice form replaced, kept verbatim
    /// as the bit-identity oracle.
    fn reference_rebuild<F: Fn(usize) -> f64>(s: &mut SeqStats, len: usize, get: F) {
        s.n = len;
        s.nonfinite = (0..len).filter(|&i| !get(i).is_finite()).count() as u32;
        if s.nonfinite > 0 {
            s.dirty = true;
            return;
        }
        let mut sum = 0.0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..len {
            let x = get(i);
            sum += x;
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let k = if len == 0 { 0.0 } else { sum / len as f64 };
        s.shift = k;
        s.lo = lo;
        s.hi = hi;
        s.c1 = 0.0;
        s.c2 = 0.0;
        s.turns = 0;
        s.joint.iter_mut().for_each(|c| *c = 0);
        for i in 0..len {
            let x = get(i);
            if i + 1 < len {
                let y = get(i + 1);
                s.c1 += (x - k) * (y - k);
                let at = s.bin(x) * s.bins + s.bin(y);
                s.joint[at] += 1;
            }
            if i + 2 < len {
                let z = get(i + 2);
                s.c2 += (x - k) * (z - k);
                if (get(i + 1) - x) * (z - get(i + 1)) < 0.0 {
                    s.turns += 1;
                }
            }
        }
        s.dirty = false;
    }

    /// Every field, floats compared by bit pattern.
    fn assert_bit_identical(got: &SeqStats, want: &SeqStats, what: &str) {
        let floats = |s: &SeqStats| [s.shift, s.c1, s.c2, s.lo, s.hi].map(f64::to_bits);
        assert_eq!(floats(got), floats(want), "{what}: shift, c1, c2, lo, hi");
        assert_eq!(got.n, want.n, "{what}: n");
        assert_eq!(got.turns, want.turns, "{what}: turns");
        assert_eq!(got.nonfinite, want.nonfinite, "{what}: nonfinite");
        assert_eq!(got.dirty, want.dirty, "{what}: dirty");
        assert_eq!(got.joint, want.joint, "{what}: joint");
    }

    #[test]
    fn slice_rebuild_is_bit_identical_to_closure_rebuild() {
        let mut rng = Xoshiro256pp::seed_from_u64(15);
        for n in 0..=130usize {
            let continuous: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..5.0)).collect();
            let binary: Vec<f64> = (0..n).map(|_| rng.random_range(0..2u32) as f64).collect();
            let small_int: Vec<f64> = (0..n).map(|_| rng.random_range(0..5u32) as f64).collect();
            let mut nan_bearing = continuous.clone();
            if n > 0 {
                nan_bearing[rng.random_range(0..n)] = f64::NAN;
                nan_bearing[rng.random_range(0..n)] = f64::INFINITY;
            }
            let offset: Vec<f64> = continuous.iter().map(|x| 1e6 + x).collect();
            for (kind, xs) in [
                ("continuous", &continuous),
                ("binary", &binary),
                ("small-integer", &small_int),
                ("nan-bearing", &nan_bearing),
                ("offset", &offset),
            ] {
                for bins in [2usize, 8] {
                    // Start from a used state so stale fields must be reset.
                    let mut got = SeqStats::new(bins);
                    got.rebuild(&[3.0, -1.0, 2.0, 0.5]);
                    let mut want = got.clone();
                    got.rebuild(xs);
                    reference_rebuild(&mut want, xs.len(), |i| xs[i]);
                    assert_bit_identical(&got, &want, &format!("{kind} n {n} bins {bins}"));
                }
            }
        }
    }

    #[test]
    fn random_stream_matches_batch_at_every_step() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for &w in &[1usize, 2, 3, 5, 8, 30] {
            let values: Vec<f64> = (0..400).map(|_| rng.random_range(-5.0..5.0)).collect();
            drive_and_check(&values, w, 8);
        }
    }

    #[test]
    fn offset_stream_keeps_precision() {
        // Large mean offset is where un-centered cross-sums would lose
        // ~9 digits; the shifted form must not.
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let values: Vec<f64> = (0..500).map(|_| 1e6 + rng.random_range(-1.0..1.0)).collect();
        drive_and_check(&values, 20, 8);
    }

    #[test]
    fn duplicate_heavy_stream_is_exact() {
        // Repeated values sit exactly on histogram edges; evicting them
        // must trigger conservative rebuilds, never a wrong count.
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let values: Vec<f64> = (0..300).map(|_| (rng.random_range(0..4u32)) as f64).collect();
        drive_and_check(&values, 10, 4);
    }

    #[test]
    fn nonfinite_values_poison_and_recover() {
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        let mut values: Vec<f64> = (0..200).map(|_| rng.random_range(-2.0..2.0)).collect();
        values[40] = f64::NAN;
        values[41] = f64::INFINITY;
        values[120] = f64::NEG_INFINITY;
        drive_and_check(&values, 12, 8);
    }

    #[test]
    fn shift_drift_guard_fires_on_level_shifts() {
        let mut s = SeqStats::new(4);
        let base: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        s.rebuild(&base);
        assert!(!s.shift_drifted(0.01, 25.0));
        // Mean ran 1e6 away from K with unit-scale variance: must fire.
        assert!(s.shift_drifted(1e6, 50.0));
    }

    #[test]
    fn reset_returns_to_empty() {
        let mut s = SeqStats::new(4);
        let xs = [1.0, 2.0, 3.0, 1.0];
        s.rebuild(&xs);
        assert_eq!(s.count(), 4);
        s.reset();
        assert_eq!(s, SeqStats::new(4));
        assert!(s.is_valid());
    }
}
