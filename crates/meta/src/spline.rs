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
/// Functionally identical to [`CubicSpline`] — the fit solves the same
/// tridiagonal system and the evaluation uses the same interpolation
/// formula — but every buffer (knots, second derivatives, Thomas-algorithm
/// temporaries) is retained across fits, so refitting inside a hot loop
/// allocates nothing after warm-up. Built for the EMD sifting loop, which
/// refits two envelopes per sifting pass.
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
    // Thomas-algorithm temporaries.
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    d: Vec<f64>,
}

impl SplineScratch {
    /// Empty scratch; buffers grow on first fit and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fits a natural cubic spline through the knots, reusing this scratch's
    /// storage. Same contract as [`CubicSpline::fit`]: requires at least 2
    /// knots with strictly increasing `x`, returns `false` (leaving the
    /// scratch unusable until the next successful fit) otherwise.
    pub fn fit(&mut self, xs: &[f64], ys: &[f64]) -> bool {
        let n = xs.len();
        if n < 2 || n != ys.len() {
            return false;
        }
        if xs.windows(2).any(|w| w[1] <= w[0]) {
            return false;
        }
        self.xs.clear();
        self.xs.extend_from_slice(xs);
        self.ys.clear();
        self.ys.extend_from_slice(ys);
        self.m.clear();
        self.m.resize(n, 0.0);
        if n > 2 {
            let k = n - 2; // interior unknowns
            // Every element of a/b/c/d is overwritten below before it is
            // read, so the buffers are resized without zero-filling.
            for buf in [&mut self.a, &mut self.b, &mut self.c, &mut self.d] {
                buf.resize(k, 0.0);
            }
            let (a, b, c, d) = (&mut self.a, &mut self.b, &mut self.c, &mut self.d);
            // Each knot's left slope is the previous knot's right slope, so
            // carrying it across iterations halves the divisions without
            // changing a single operand (bit-identical to the two-division
            // form in [`CubicSpline::fit`]).
            let mut h0 = xs[1] - xs[0];
            let mut s0 = (ys[1] - ys[0]) / h0;
            for ((((ai, bi), (ci, di)), xw), yw) in a
                .iter_mut()
                .zip(b.iter_mut())
                .zip(c.iter_mut().zip(d.iter_mut()))
                .zip(xs[1..].windows(2))
                .zip(ys[1..].windows(2))
            {
                let h1 = xw[1] - xw[0];
                let s1 = (yw[1] - yw[0]) / h1;
                *ai = h0;
                *bi = 2.0 * (h0 + h1);
                *ci = h1;
                *di = 6.0 * (s1 - s0);
                h0 = h1;
                s0 = s1;
            }
            // Forward elimination. The previous row's updated diagonal and
            // rhs are carried in registers: `pb`/`pd` hold exactly the
            // values `b[i - 1]`/`d[i - 1]` contain after their own update,
            // so each division sees the same operands as the indexed form.
            let mut pb = b[0];
            let mut pc = c[0];
            let mut pd = d[0];
            for ((&ai, bi), (&ci, di)) in a[1..]
                .iter()
                .zip(b[1..].iter_mut())
                .zip(c[1..].iter().zip(d[1..].iter_mut()))
            {
                let w = ai / pb;
                pb = *bi - w * pc;
                pd = *di - w * pd;
                *bi = pb;
                *di = pd;
                pc = ci;
            }
            // Back substitution, carrying `m[i + 2]` the same way.
            self.m[k] = d[k - 1] / b[k - 1];
            let mut next = self.m[k];
            for (((&di, &ci), &bi), mi) in d[..k - 1]
                .iter()
                .zip(c[..k - 1].iter())
                .zip(b[..k - 1].iter())
                .zip(self.m[1..k].iter_mut())
                .rev()
            {
                let v = (di - ci * next) / bi;
                *mi = v;
                next = v;
            }
        }
        true
    }

    /// Evaluates the fitted spline at every integer point `x = 0..out.len()`
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
        let below = |x: f64| if x > 0.0 { (x.ceil() as usize).min(n) } else { 0 };
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
            for (o, p) in out[j..stop].iter_mut().zip(j..) {
                let x = p as f64;
                let t = x - x0;
                let u = x1 - x;
                *o = (m0 * u * u * u + m1 * t * t * t) / six_h + c0 * u + c1 * t;
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

    #[test]
    fn grid_evaluation_is_bit_identical_to_legacy() {
        use ficsum_stream::rng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let mut scratch = SplineScratch::new();
        let mut grid = Vec::new();
        for trial in 0..200 {
            let k = 2 + (trial % 30);
            // Integer knots from 0 (the EMD case: every knot is hit), then
            // integer knots from a negative or positive offset, then
            // fractional knots that no grid point hits.
            let (start, fractional) = match trial % 4 {
                0 | 1 => (0.0, false),
                2 => ((trial % 7) as f64 - 3.0, false),
                _ => ((trial % 5) as f64 * 0.7 - 1.3, true),
            };
            let (xs, ys) = random_knots(&mut rng, k, start, fractional);
            let legacy = CubicSpline::fit(&xs, &ys).unwrap();
            assert!(scratch.fit(&xs, &ys));
            // Grids that end before, on and past the last knot, so both
            // clamped ends are exercised.
            let last = *xs.last().unwrap();
            for n in [0, 1, 2, last.max(0.0) as usize, last.max(0.0) as usize + 1, last as usize + 4]
            {
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

    #[test]
    fn natural_boundary_second_derivative_is_zero() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 0.7).cos()).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        assert_eq!(s.m[0], 0.0);
        assert_eq!(s.m[9], 0.0);
    }
}
