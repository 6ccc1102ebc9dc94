//! Natural cubic spline interpolation.
//!
//! Used by the empirical mode decomposition to build upper/lower envelopes
//! through the local extrema of a signal. Knots are `(x, y)` pairs with
//! strictly increasing `x`; the spline has zero second derivative at both
//! ends (the "natural" boundary condition) and is evaluated with clamped
//! linear extrapolation outside the knot range.

/// A natural cubic spline through a set of knots.
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots.
    m: Vec<f64>,
}

impl CubicSpline {
    /// Fits a natural cubic spline. Requires at least 2 knots with strictly
    /// increasing `x`; returns `None` otherwise.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Option<Self> {
        let n = xs.len();
        if n < 2 || n != ys.len() {
            return None;
        }
        if xs.windows(2).any(|w| w[1] <= w[0]) {
            return None;
        }
        // Solve the tridiagonal system for second derivatives (Thomas
        // algorithm). Natural boundary: m[0] = m[n-1] = 0.
        let mut m = vec![0.0; n];
        if n > 2 {
            let k = n - 2; // interior unknowns
            let mut a = vec![0.0; k]; // sub-diagonal
            let mut b = vec![0.0; k]; // diagonal
            let mut c = vec![0.0; k]; // super-diagonal
            let mut d = vec![0.0; k]; // rhs
            for i in 0..k {
                let h0 = xs[i + 1] - xs[i];
                let h1 = xs[i + 2] - xs[i + 1];
                a[i] = h0;
                b[i] = 2.0 * (h0 + h1);
                c[i] = h1;
                d[i] = 6.0 * ((ys[i + 2] - ys[i + 1]) / h1 - (ys[i + 1] - ys[i]) / h0);
            }
            // Forward elimination.
            for i in 1..k {
                let w = a[i] / b[i - 1];
                b[i] -= w * c[i - 1];
                d[i] -= w * d[i - 1];
            }
            // Back substitution.
            m[k] = d[k - 1] / b[k - 1];
            for i in (0..k - 1).rev() {
                m[i + 1] = (d[i] - c[i] * m[i + 2]) / b[i];
            }
        }
        Some(Self { xs: xs.to_vec(), ys: ys.to_vec(), m })
    }

    /// Evaluates the spline at `x`. Outside the knot range the boundary
    /// value is extended (constant extrapolation keeps EMD envelopes sane).
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // Binary search for the containing interval.
        let i = match self.xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => return self.ys[i],
            Err(i) => i - 1,
        };
        let h = self.xs[i + 1] - self.xs[i];
        let t = x - self.xs[i];
        let u = self.xs[i + 1] - x;
        (self.m[i] * u * u * u + self.m[i + 1] * t * t * t) / (6.0 * h)
            + (self.ys[i] / h - self.m[i] * h / 6.0) * u
            + (self.ys[i + 1] / h - self.m[i + 1] * h / 6.0) * t
    }
}

/// A natural cubic spline with caller-owned, reusable storage.
///
/// Functionally identical to [`CubicSpline`] — the solve works the same
/// tridiagonal system with the same operands in the same order, and the
/// evaluation uses the same interpolation formula — but every buffer
/// (knots, second derivatives, eliminated diagonal and right-hand side) is
/// retained across fits, so refitting inside a hot loop allocates nothing
/// after warm-up. Built for the EMD sifting loop, which fits an upper and
/// a lower envelope per sifting pass: the knots are loaded straight into
/// the two scratches and [`SplineScratch::solve_pair`] solves both systems
/// in lockstep.
///
/// Evaluation covers the EMD case only — every integer point `x = 0..n` at
/// once: [`SplineScratch::eval_grid_into`] fills the grid segment by
/// segment, O(n + k) instead of O(n log k) binary searches, and produces
/// bit-identical values, including the exact-knot-hit and clamped-end
/// behaviour of [`CubicSpline::eval`].
#[derive(Debug, Clone, Default)]
pub struct SplineScratch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    m: Vec<f64>,
    /// Diagonal of the interior rows after forward elimination.
    b: Vec<f64>,
    /// Right-hand side of the interior rows after forward elimination.
    d: Vec<f64>,
}

/// What the forward elimination of one system carries from row to row:
/// the previous interval's width and slope, and the previous row's
/// eliminated diagonal and right-hand side.
#[derive(Debug, Clone, Copy)]
struct Carry {
    h0: f64,
    s0: f64,
    pb: f64,
    pd: f64,
}

impl Carry {
    /// Diagonal `2 (h0 + h1)` and right-hand side `6 (s1 - s0)` of the row
    /// whose right interval has width `h1` and rise `dy1`; advances the
    /// carried interval to that one.
    #[inline(always)]
    fn row(&mut self, h1: f64, dy1: f64) -> (f64, f64) {
        let s1 = dy1 / h1;
        let b = 2.0 * (self.h0 + h1);
        let d = 6.0 * (s1 - self.s0);
        self.h0 = h1;
        self.s0 = s1;
        (b, d)
    }
}

impl SplineScratch {
    /// Empty scratch; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the knots `(xs[i], ys[i])`, to be solved by
    /// [`SplineScratch::solve_pair`]. Same contract as
    /// [`CubicSpline::fit`]: requires at least 2 knots with strictly
    /// increasing `x`, and returns `false` (leaving the scratch unusable
    /// until the next successful load) otherwise.
    pub fn load_knots(&mut self, xs: &[f64], ys: &[f64]) -> bool {
        self.xs.clear();
        self.ys.clear();
        if xs.len() < 2 || xs.len() != ys.len() || xs.windows(2).any(|w| w[1] <= w[0]) {
            return false;
        }
        self.xs.extend_from_slice(xs);
        self.ys.extend_from_slice(ys);
        true
    }

    /// Loads the endpoint-anchored envelope knots of EMD sifting: the
    /// signal's first point, the extrema of `signal` at the strictly
    /// increasing interior indices `idx` (at least one), and its last
    /// point. The knots are valid by construction, so no check is made.
    pub(crate) fn load_envelope(&mut self, signal: &[f64], idx: &[usize]) {
        let last = signal.len() - 1;
        self.xs.clear();
        self.ys.clear();
        self.xs.push(0.0);
        self.ys.push(signal[0]);
        self.xs.extend(idx.iter().map(|&i| i as f64));
        self.ys.extend(idx.iter().map(|&i| signal[i]));
        if idx.last() != Some(&last) {
            self.xs.push(last as f64);
            self.ys.push(signal[last]);
        }
    }

    /// Fits both loaded splines — natural boundary, `m[0] = m[n - 1] = 0`
    /// — by solving their tridiagonal systems for the second derivatives
    /// in lockstep.
    ///
    /// Forward elimination and back substitution are each a serial chain
    /// of divisions; running the two independent systems row by row in one
    /// loop lets the two chains overlap instead of waiting on each other.
    /// Each system keeps exactly its own operands and order, the
    /// Thomas-algorithm expressions of [`CubicSpline::fit`], so the second
    /// derivatives are bit-identical to two separate fits. Where one system
    /// has more rows, its extra rows run alone after the shared ones.
    pub fn solve_pair(upper: &mut Self, lower: &mut Self) {
        let (ku, kl) = (upper.start(), lower.start());
        // Forward elimination, rows 1.. (row 0 is done by `start`).
        let (mut cu, mut cl) = (upper.first_row(), lower.first_row());
        let shared = ku.min(kl);
        for i in 1..shared {
            upper.forward(i, &mut cu);
            lower.forward(i, &mut cl);
        }
        for i in shared.max(1)..ku {
            upper.forward(i, &mut cu);
        }
        for i in shared.max(1)..kl {
            lower.forward(i, &mut cl);
        }
        // Back substitution from each system's last row down.
        let (mut nu, mut nl) = (upper.last_row(ku), lower.last_row(kl));
        let (ru, rl) = (ku.saturating_sub(1), kl.saturating_sub(1));
        let shared = ru.min(rl);
        for j in 1..=shared {
            upper.backward(ru - j, &mut nu);
            lower.backward(rl - j, &mut nl);
        }
        for i in (0..ru - shared).rev() {
            upper.backward(i, &mut nu);
        }
        for i in (0..rl - shared).rev() {
            lower.backward(i, &mut nl);
        }
    }

    /// Sizes the solve buffers for the loaded knots and zeroes the second
    /// derivatives; returns the number of interior unknowns.
    fn start(&mut self) -> usize {
        let n = self.xs.len();
        debug_assert!(n >= 2, "solve before a successful load");
        let k = n - 2;
        self.m.clear();
        self.m.resize(n, 0.0);
        // Every element of b/d is written before it is read, so the
        // buffers are resized without zero-filling.
        self.b.resize(k, 0.0);
        self.d.resize(k, 0.0);
        k
    }

    /// Sets up interior row 0, if there is one (it needs no elimination),
    /// and returns the carry into row 1.
    fn first_row(&mut self) -> Carry {
        let (xs, ys) = (&self.xs, &self.ys);
        let h0 = xs[1] - xs[0];
        let s0 = (ys[1] - ys[0]) / h0;
        let mut carry = Carry { h0, s0, pb: 0.0, pd: 0.0 };
        if xs.len() > 2 {
            let (b, d) = carry.row(xs[2] - xs[1], ys[2] - ys[1]);
            carry.pb = b;
            carry.pd = d;
            self.b[0] = b;
            self.d[0] = d;
        }
        carry
    }

    /// Sets up interior row `i` and eliminates its sub-diagonal against
    /// row `i - 1`. The sub-diagonal `a[i]` and the previous row's
    /// super-diagonal `c[i - 1]` are both the interval `xs[i + 1] - xs[i]`,
    /// carried as `h0`; each slope is divided once and carried to the next
    /// row, exactly the values the indexed form recomputes.
    #[inline(always)]
    fn forward(&mut self, i: usize, c: &mut Carry) {
        let h1 = self.xs[i + 2] - self.xs[i + 1];
        let h0 = c.h0;
        let (bi, di) = c.row(h1, self.ys[i + 2] - self.ys[i + 1]);
        let w = h0 / c.pb;
        c.pb = bi - w * h0;
        c.pd = di - w * c.pd;
        self.b[i] = c.pb;
        self.d[i] = c.pd;
    }

    /// The last unknown `m[k] = d[k - 1] / b[k - 1]`, or 0 without
    /// interior rows.
    fn last_row(&mut self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let v = self.d[k - 1] / self.b[k - 1];
        self.m[k] = v;
        v
    }

    /// Back substitution of row `i`: `m[i + 1] = (d[i] - c[i] m[i + 2]) /
    /// b[i]`, with `m[i + 2]` carried in `next` and the super-diagonal
    /// `c[i] = xs[i + 2] - xs[i + 1]`.
    #[inline(always)]
    fn backward(&mut self, i: usize, next: &mut f64) {
        let ci = self.xs[i + 2] - self.xs[i + 1];
        let v = (self.d[i] - ci * *next) / self.b[i];
        self.m[i + 1] = v;
        *next = v;
    }

    /// Evaluates the solved spline at every integer point `x = 0..out.len()`
    /// into `out`. Bit-identical to [`CubicSpline::eval`] at each point,
    /// including exact knot hits and clamped extrapolation.
    ///
    /// The grid is written segment by segment: the terms of the
    /// interpolation formula that do not depend on `x` are computed once
    /// per segment by exactly the expressions [`CubicSpline::eval`]
    /// evaluates per point, so every point sees the same operands in the
    /// same order while doing one division instead of five.
    pub fn eval_grid_into(&self, out: &mut [f64]) {
        let n = out.len();
        let k = self.xs.len();
        // Number of grid points strictly below `x` (capped at `n`).
        let below = |x: f64| {
            if x > 0.0 {
                (x.ceil() as usize).min(n)
            } else {
                0
            }
        };
        // Left clamp: every point before the first knot.
        let mut j = below(self.xs[0]);
        out[..j].fill(self.ys[0]);
        for i in 0..k - 1 {
            let (x0, x1) = (self.xs[i], self.xs[i + 1]);
            // Exact knot hit; at the first knot this is the clamped value.
            if j < n && j as f64 == x0 {
                out[j] = self.ys[i];
                j += 1;
            }
            let stop = below(x1).max(j);
            let h = x1 - x0;
            let six_h = 6.0 * h;
            let (m0, m1) = (self.m[i], self.m[i + 1]);
            let c0 = self.ys[i] / h - m0 * h / 6.0;
            let c1 = self.ys[i + 1] / h - m1 * h / 6.0;
            // The abscissa steps by 1.0 from `j`, exact on an integer grid
            // (below 2^53), instead of converting each index.
            let mut x = j as f64;
            for o in &mut out[j..stop] {
                let t = x - x0;
                let u = x1 - x;
                *o = (m0 * u * u * u + m1 * t * t * t) / six_h + c0 * u + c1 * t;
                x += 1.0;
            }
            j = stop;
        }
        // Right clamp: the last knot and every point after it.
        out[j..].fill(self.ys[k - 1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_knots_exactly() {
        let xs = [0.0, 1.0, 2.5, 4.0];
        let ys = [1.0, -1.0, 3.0, 0.5];
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((s.eval(*x) - y).abs() < 1e-9, "knot ({x},{y})");
        }
    }

    #[test]
    fn two_knots_is_linear() {
        let s = CubicSpline::fit(&[0.0, 2.0], &[0.0, 4.0]).unwrap();
        assert!((s.eval(1.0) - 2.0).abs() < 1e-12);
        assert!((s.eval(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reproduces_smooth_function_between_knots() {
        // Sample sin on a dense grid; spline error should be small.
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for i in 0..190 {
            let x = i as f64 * 0.05;
            assert!(
                (s.eval(x) - x.sin()).abs() < 0.01,
                "x={x} spline={} sin={}",
                s.eval(x),
                x.sin()
            );
        }
    }

    #[test]
    fn extrapolation_is_clamped() {
        let s = CubicSpline::fit(&[0.0, 1.0, 2.0], &[5.0, 0.0, 7.0]).unwrap();
        assert_eq!(s.eval(-10.0), 5.0);
        assert_eq!(s.eval(10.0), 7.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(CubicSpline::fit(&[0.0], &[1.0]).is_none());
        assert!(CubicSpline::fit(&[0.0, 0.0], &[1.0, 2.0]).is_none());
        assert!(CubicSpline::fit(&[0.0, 1.0], &[1.0]).is_none());
        assert!(CubicSpline::fit(&[1.0, 0.5], &[1.0, 2.0]).is_none());
    }

    /// Draws `k` strictly increasing knots starting at `start`, spaced by
    /// one plus a random whole or fractional gap, with values in [-2, 2).
    fn random_knots(
        rng: &mut ficsum_stream::rng::Xoshiro256pp,
        k: usize,
        start: f64,
        fractional: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        use ficsum_stream::rng::RandomSource;
        let mut x = start;
        let mut xs = Vec::new();
        for _ in 0..k {
            xs.push(x);
            let gap = rng.random::<f64>() * 3.0;
            x += 1.0 + if fractional { gap } else { gap.floor() };
        }
        let ys: Vec<f64> = (0..k).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect();
        (xs, ys)
    }

    /// Knots of the grid test's `trial`: integer knots from 0 (the EMD
    /// case: every knot is hit), then integer knots from a negative or
    /// positive offset, then fractional knots that no grid point hits.
    fn trial_knots(
        rng: &mut ficsum_stream::rng::Xoshiro256pp,
        trial: usize,
        k: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let (start, fractional) = match trial % 4 {
            0 | 1 => (0.0, false),
            2 => ((trial % 7) as f64 - 3.0, false),
            _ => ((trial % 5) as f64 * 0.7 - 1.3, true),
        };
        random_knots(rng, k, start, fractional)
    }

    #[test]
    fn grid_evaluation_is_bit_identical_to_legacy() {
        use ficsum_stream::rng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let (mut upper, mut lower) = (SplineScratch::new(), SplineScratch::new());
        let mut grid = Vec::new();
        for trial in 0..200 {
            let knots = [
                trial_knots(&mut rng, trial, 2 + (trial % 30)),
                trial_knots(&mut rng, trial, 2 + (trial * 7 % 30)),
            ];
            assert!(upper.load_knots(&knots[0].0, &knots[0].1));
            assert!(lower.load_knots(&knots[1].0, &knots[1].1));
            SplineScratch::solve_pair(&mut upper, &mut lower);
            for ((xs, ys), scratch) in knots.iter().zip([&upper, &lower]) {
                let legacy = CubicSpline::fit(xs, ys).unwrap();
                // Grids that end before, on and past the last knot, so both
                // clamped ends are exercised.
                let last = *xs.last().unwrap();
                let on = last.max(0.0) as usize;
                for n in [0, 1, 2, on, on + 1, last as usize + 4] {
                    grid.clear();
                    grid.resize(n, f64::NAN);
                    scratch.eval_grid_into(&mut grid);
                    for (p, &v) in grid.iter().enumerate() {
                        assert_eq!(
                            legacy.eval(p as f64).to_bits(),
                            v.to_bits(),
                            "trial {trial}, n {n}, point {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paired_solve_is_bit_identical_to_separate_fits() {
        use ficsum_stream::rng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(78);
        let (mut upper, mut lower) = (SplineScratch::new(), SplineScratch::new());
        // Equal and unequal knot counts, either side the longer, down to
        // the 2-knot (no interior row) and 3-knot (one row) systems; the
        // same scratches are reused, so a stale longer solve would show.
        let counts = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 9), (9, 3), (14, 15), (15, 14), (31, 6)];
        for (trial, &(ku, kl)) in counts.iter().cycle().take(counts.len() * 6).enumerate() {
            let fractional = trial % 2 == 1;
            let knots = [
                random_knots(&mut rng, ku, 0.0, fractional),
                random_knots(&mut rng, kl, 0.0, fractional),
            ];
            assert!(upper.load_knots(&knots[0].0, &knots[0].1));
            assert!(lower.load_knots(&knots[1].0, &knots[1].1));
            SplineScratch::solve_pair(&mut upper, &mut lower);
            for ((xs, ys), scratch) in knots.iter().zip([&upper, &lower]) {
                let fit = CubicSpline::fit(xs, ys).unwrap();
                let want: Vec<u64> = fit.m.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = scratch.m.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "trial {trial}: {ku} and {kl} knots");
            }
        }
    }

    #[test]
    fn load_knots_rejects_what_fit_rejects() {
        let mut s = SplineScratch::new();
        assert!(!s.load_knots(&[0.0], &[1.0]));
        assert!(!s.load_knots(&[0.0, 0.0], &[1.0, 2.0]));
        assert!(!s.load_knots(&[0.0, 1.0], &[1.0]));
        assert!(!s.load_knots(&[1.0, 0.5], &[1.0, 2.0]));
        assert!(s.load_knots(&[0.0, 1.0], &[1.0, 2.0]));
    }

    #[test]
    fn natural_boundary_second_derivative_is_zero() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 0.7).cos()).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        assert_eq!(s.m[0], 0.0);
        assert_eq!(s.m[9], 0.0);
    }
}
