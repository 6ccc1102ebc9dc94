//! Empirical Mode Decomposition and IMF entropy.
//!
//! The "entropy of intrinsic mode functions 1 & 2" meta-features (Ding &
//! Luo, Entropy 2019) require decomposing a window into intrinsic mode
//! functions (IMFs) via sifting: repeatedly subtracting the mean of the
//! cubic-spline envelopes through the local maxima and minima until the
//! residual behaves like an IMF. Each IMF is then summarised by the Shannon
//! entropy of its value histogram, capturing behaviour at that timescale;
//! [`histogram_entropy`] takes it from the integer bin counts in closed
//! form ([`crate::entropy`]).

use crate::entropy::entropy_from_counts;
use crate::mutual_info::bin_of;
use crate::spline::{CubicSpline, SplineScratch};

/// Parameters of the sifting process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmdConfig {
    /// Stop sifting when the normalised squared change falls below this
    /// (Huang's SD criterion, usually 0.2–0.3).
    pub sd_threshold: f64,
    /// Hard cap on sifting iterations per IMF.
    pub max_siftings: usize,
    /// Number of IMFs to extract.
    pub n_imfs: usize,
    /// Histogram bins for the entropy summary.
    pub entropy_bins: usize,
}

impl Default for EmdConfig {
    fn default() -> Self {
        Self { sd_threshold: 0.3, max_siftings: 8, n_imfs: 2, entropy_bins: 10 }
    }
}

/// Indices of local maxima (`true`) or minima (`false`), with plateau
/// handling (the first point of a plateau counts).
fn local_extrema(xs: &[f64], maxima: bool) -> Vec<usize> {
    let mut out = Vec::new();
    let n = xs.len();
    if n < 3 {
        return out;
    }
    for i in 1..n - 1 {
        let (a, b, c) = (xs[i - 1], xs[i], xs[i + 1]);
        let is_ext = if maxima { b > a && b >= c } else { b < a && b <= c };
        if is_ext {
            out.push(i);
        }
    }
    out
}

/// One sifting pass: signal minus the mean envelope. `None` when the signal
/// has too few extrema to build envelopes (it is a residual/trend).
fn sift_once(xs: &[f64]) -> Option<Vec<f64>> {
    let maxima = local_extrema(xs, true);
    let minima = local_extrema(xs, false);
    if maxima.len() < 2 || minima.len() < 2 {
        return None;
    }
    let n = xs.len();
    // Anchor envelopes at the endpoints to avoid swing-out.
    let build = |idx: &[usize]| -> Option<CubicSpline> {
        let mut kx = Vec::with_capacity(idx.len() + 2);
        let mut ky = Vec::with_capacity(idx.len() + 2);
        kx.push(0.0);
        ky.push(xs[0]);
        for &i in idx {
            kx.push(i as f64);
            ky.push(xs[i]);
        }
        if *idx.last().unwrap() != n - 1 {
            kx.push((n - 1) as f64);
            ky.push(xs[n - 1]);
        }
        CubicSpline::fit(&kx, &ky)
    };
    let upper = build(&maxima)?;
    let lower = build(&minima)?;
    Some(
        (0..n)
            .map(|i| {
                let x = i as f64;
                xs[i] - 0.5 * (upper.eval(x) + lower.eval(x))
            })
            .collect(),
    )
}

/// Extracts one IMF from `xs` by iterated sifting. Returns `None` when `xs`
/// is already a residual.
fn extract_imf(xs: &[f64], config: &EmdConfig) -> Option<Vec<f64>> {
    let mut h = sift_once(xs)?;
    for _ in 1..config.max_siftings {
        let next = match sift_once(&h) {
            Some(n) => n,
            None => break,
        };
        // Huang's stopping criterion.
        let num: f64 = h.iter().zip(&next).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = h.iter().map(|a| a * a).sum::<f64>().max(1e-12);
        h = next;
        if num / den < config.sd_threshold {
            break;
        }
    }
    Some(h)
}

/// Full decomposition: returns up to `config.n_imfs` IMFs (coarser modes
/// later). The final residual is not returned.
pub fn decompose(xs: &[f64], config: &EmdConfig) -> Vec<Vec<f64>> {
    let mut residual = xs.to_vec();
    let mut imfs = Vec::with_capacity(config.n_imfs);
    for _ in 0..config.n_imfs {
        match extract_imf(&residual, config) {
            Some(imf) => {
                for (r, i) in residual.iter_mut().zip(&imf) {
                    *r -= i;
                }
                imfs.push(imf);
            }
            None => break,
        }
    }
    imfs
}

/// Shannon entropy (nats) of an equal-width `bins`-bin histogram of `xs`,
/// counted into `counts` and evaluated from the integer counts in closed
/// form ([`crate::entropy`]; no logarithm per bin). 0 for fewer than two
/// values, fewer than two bins, or a range that is non-finite or at most
/// `f64::EPSILON`.
pub fn histogram_entropy(xs: &[f64], bins: usize, counts: &mut Vec<u32>) -> f64 {
    if xs.len() < 2 || bins < 2 {
        return 0.0;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if !(hi - lo).is_finite() || hi - lo <= f64::EPSILON {
        return 0.0;
    }
    counts.clear();
    counts.resize(bins, 0);
    for &x in xs {
        counts[bin_of(x, lo, hi - lo, bins)] += 1;
    }
    entropy_from_counts(counts)
}

/// The two IMF-entropy meta-features: `(H(IMF1), H(IMF2))`.
///
/// When the window is too smooth to yield an IMF, the corresponding entropy
/// is 0 (no oscillatory behaviour at that timescale).
pub fn imf_entropies(xs: &[f64], config: &EmdConfig) -> (f64, f64) {
    let imfs = decompose(xs, config);
    let mut counts = Vec::new();
    let mut h = |i: usize| {
        imfs.get(i).map_or(0.0, |imf| histogram_entropy(imf, config.entropy_bins, &mut counts))
    };
    (h(0), h(1))
}

/// Reusable working memory for [`imf_entropies_scratch`].
///
/// The sifting loop is by far the most allocation-heavy part of fingerprint
/// extraction: every pass builds two extrema lists, two knot arrays, two
/// splines and an output signal. Holding all of that here lets repeated
/// extraction (one EMD per behaviour source per fingerprint) run without
/// touching the allocator after warm-up, while producing bit-identical
/// results to the allocating [`imf_entropies`] path.
#[derive(Debug, Clone, Default)]
pub struct EmdScratch {
    residual: Vec<f64>,
    h: Vec<f64>,
    next: Vec<f64>,
    sift: SiftBuffers,
    counts: Vec<u32>,
}

impl EmdScratch {
    /// Empty scratch; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Buffers consumed by a single sifting pass.
#[derive(Debug, Clone, Default)]
struct SiftBuffers {
    max_idx: Vec<usize>,
    min_idx: Vec<usize>,
    /// The two envelope splines, knots loaded straight from the extrema.
    upper: SplineScratch,
    lower: SplineScratch,
    /// The two envelopes evaluated at every point of the window.
    upper_env: Vec<f64>,
    lower_env: Vec<f64>,
}

/// Both [`local_extrema`] passes fused into one branchless sweep over `xs`:
/// every interior index is written to the next free slot of both buffers
/// (presized to `n`) and each slot is kept only when its flag is set, which
/// reproduces both index lists exactly.
fn local_extrema_both_into(xs: &[f64], max_out: &mut Vec<usize>, min_out: &mut Vec<usize>) {
    max_out.clear();
    min_out.clear();
    let n = xs.len();
    if n < 3 {
        return;
    }
    max_out.resize(n, 0);
    min_out.resize(n, 0);
    let (mut n_max, mut n_min) = (0usize, 0usize);
    for (w, i) in xs.windows(3).zip(1..) {
        let (a, b, c) = (w[0], w[1], w[2]);
        max_out[n_max] = i;
        min_out[n_min] = i;
        n_max += ((b > a) & (b >= c)) as usize;
        n_min += ((b < a) & (b <= c)) as usize;
    }
    max_out.truncate(n_max);
    min_out.truncate(n_min);
}

/// [`sift_once`] with reused buffers; returns `false` where the allocating
/// version returns `None`. The envelope knots are the ones [`sift_once`]
/// builds, loaded straight into the two splines, whose systems are solved
/// as a pair (bit-identical to two [`CubicSpline::fit`] calls). Both
/// envelopes are evaluated over the whole grid `x = 0..n`, matching
/// [`CubicSpline::eval`] at every point.
fn sift_once_into(xs: &[f64], out: &mut Vec<f64>, s: &mut SiftBuffers) -> bool {
    local_extrema_both_into(xs, &mut s.max_idx, &mut s.min_idx);
    if s.max_idx.len() < 2 || s.min_idx.len() < 2 {
        return false;
    }
    // Interior extrema give strictly increasing knots, so neither fit can
    // fail the way `CubicSpline::fit` checks for.
    s.upper.load_envelope(xs, &s.max_idx);
    s.lower.load_envelope(xs, &s.min_idx);
    SplineScratch::solve_pair(&mut s.upper, &mut s.lower);
    s.upper_env.resize(xs.len(), 0.0);
    s.lower_env.resize(xs.len(), 0.0);
    s.upper.eval_grid_into(&mut s.upper_env);
    s.lower.eval_grid_into(&mut s.lower_env);
    out.clear();
    out.extend(
        xs.iter()
            .zip(&s.upper_env)
            .zip(&s.lower_env)
            .map(|((&v, &u), &l)| v - 0.5 * (u + l)),
    );
    true
}

/// [`extract_imf`] with reused buffers; the extracted IMF lands in `h`.
fn extract_imf_into(
    xs: &[f64],
    h: &mut Vec<f64>,
    next: &mut Vec<f64>,
    sift: &mut SiftBuffers,
    config: &EmdConfig,
) -> bool {
    if !sift_once_into(xs, h, sift) {
        return false;
    }
    for _ in 1..config.max_siftings {
        if !sift_once_into(h, next, sift) {
            break;
        }
        // Huang's criterion with both sums in one sweep; each accumulator
        // adds the same terms in the same order as the two-pass form.
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (a, b) in h.iter().zip(next.iter()) {
            num += (a - b) * (a - b);
            den += a * a;
        }
        let den = den.max(1e-12);
        std::mem::swap(h, next);
        if num / den < config.sd_threshold {
            break;
        }
    }
    true
}

/// The decomposition loop of [`decompose`] inside `scratch`: extracts up
/// to `config.n_imfs` IMFs, handing each to `visit` (with its index and the
/// scratch's histogram counts) before subtracting it from the residual.
fn decompose_scratch_with(
    xs: &[f64],
    config: &EmdConfig,
    scratch: &mut EmdScratch,
    mut visit: impl FnMut(usize, &[f64], &mut Vec<u32>),
) {
    let EmdScratch { residual, h, next, sift, counts } = scratch;
    residual.clear();
    residual.extend_from_slice(xs);
    for k in 0..config.n_imfs {
        if !extract_imf_into(residual, h, next, sift, config) {
            break;
        }
        visit(k, h, counts);
        for (r, i) in residual.iter_mut().zip(h.iter()) {
            *r -= i;
        }
    }
}

/// Allocation-free variant of [`imf_entropies`]: decomposition, sifting and
/// the entropy histograms all run inside `scratch`. Bit-identical output.
pub fn imf_entropies_scratch(xs: &[f64], config: &EmdConfig, scratch: &mut EmdScratch) -> (f64, f64) {
    let mut out = (0.0, 0.0);
    decompose_scratch_with(xs, config, scratch, |k, imf, counts| {
        let e = histogram_entropy(imf, config.entropy_bins, counts);
        if k == 0 {
            out.0 = e;
        } else if k == 1 {
            out.1 = e;
        }
    });
    out
}

/// [`decompose`] through the scratch path's sifting code, for the IMF-level
/// bit-identity tests.
#[cfg(test)]
fn decompose_scratch(xs: &[f64], config: &EmdConfig, scratch: &mut EmdScratch) -> Vec<Vec<f64>> {
    let mut imfs = Vec::new();
    decompose_scratch_with(xs, config, scratch, |_, imf, _| imfs.push(imf.to_vec()));
    imfs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    #[test]
    fn extrema_detection() {
        let xs = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0];
        assert_eq!(local_extrema(&xs, true), vec![1, 5]);
        assert_eq!(local_extrema(&xs, false), vec![3]);
    }

    #[test]
    fn monotone_signal_has_no_imfs() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert!(decompose(&xs, &EmdConfig::default()).is_empty());
        assert_eq!(imf_entropies(&xs, &EmdConfig::default()), (0.0, 0.0));
    }

    #[test]
    fn imf1_captures_the_fast_component() {
        // fast sine + slow sine: IMF1 should correlate with the fast one.
        let n = 256;
        let fast: Vec<f64> = (0..n).map(|i| (i as f64 * 1.0).sin()).collect();
        let slow: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin() * 2.0).collect();
        let xs: Vec<f64> = fast.iter().zip(&slow).map(|(a, b)| a + b).collect();
        let imfs = decompose(&xs, &EmdConfig::default());
        assert!(!imfs.is_empty());
        let imf1 = &imfs[0];
        // Correlation of IMF1 with the fast component.
        let mf = fast.iter().sum::<f64>() / n as f64;
        let mi = imf1.iter().sum::<f64>() / n as f64;
        let num: f64 = fast.iter().zip(imf1).map(|(f, i)| (f - mf) * (i - mi)).sum();
        let df: f64 = fast.iter().map(|f| (f - mf) * (f - mf)).sum::<f64>().sqrt();
        let di: f64 = imf1.iter().map(|i| (i - mi) * (i - mi)).sum::<f64>().sqrt();
        let corr = num / (df * di);
        assert!(corr > 0.8, "IMF1 should track the fast sine, corr={corr}");
    }

    #[test]
    fn decomposition_is_additive() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let xs: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.9).sin() + 0.3 * (i as f64 * 0.1).cos() + rng.random::<f64>() * 0.1)
            .collect();
        let config = EmdConfig::default();
        let imfs = decompose(&xs, &config);
        assert!(!imfs.is_empty());
        // signal = sum(imfs) + residual; residual = signal - sum must have
        // fewer oscillations (fewer extrema) than the signal.
        let mut residual = xs.clone();
        for imf in &imfs {
            for (r, v) in residual.iter_mut().zip(imf) {
                *r -= v;
            }
        }
        let ext = |v: &[f64]| local_extrema(v, true).len() + local_extrema(v, false).len();
        assert!(
            ext(&residual) < ext(&xs),
            "residual must be smoother: {} vs {}",
            ext(&residual),
            ext(&xs)
        );
    }

    #[test]
    fn entropies_distinguish_dense_from_spiky_oscillation() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        // Dense oscillation: IMF values spread over their range.
        let noise: Vec<f64> = (0..128).map(|_| rng.random::<f64>()).collect();
        // Spiky signal: mostly flat with rare large impulses, so the IMF's
        // value histogram is concentrated near zero (low entropy).
        let spiky: Vec<f64> = (0..128)
            .map(|i| {
                let base = 0.01 * ((i % 3) as f64 - 1.0); // tiny ripple so extrema exist
                if i % 32 == 5 {
                    5.0
                } else {
                    base
                }
            })
            .collect();
        let (hn, hn2) = imf_entropies(&noise, &EmdConfig::default());
        let (hs, _) = imf_entropies(&spiky, &EmdConfig::default());
        assert!(hn > 0.0 && hn2 > 0.0);
        assert!(
            hn - hs > 0.5,
            "dense ({hn}) vs spiky ({hs}) IMF1 entropy should differ clearly"
        );
    }

    #[test]
    fn fused_extrema_match_the_two_pass_lists() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let (mut max_idx, mut min_idx) = (Vec::new(), Vec::new());
        for n in 0..60 {
            for levels in [2usize, 3, 0] {
                let xs: Vec<f64> = (0..n)
                    .map(|_| match levels {
                        0 => rng.random::<f64>(),
                        l => rng.random_range(0..l) as f64,
                    })
                    .collect();
                local_extrema_both_into(&xs, &mut max_idx, &mut min_idx);
                assert_eq!(max_idx, local_extrema(&xs, true), "n {n}, levels {levels}");
                assert_eq!(min_idx, local_extrema(&xs, false), "n {n}, levels {levels}");
            }
        }
    }

    /// Number of window shapes [`generated_window`] draws.
    const SHAPES: usize = 6;

    /// Generated windows of the shapes the behaviour sources produce:
    /// continuous features, binary errors, small-integer labels and
    /// predictions, constant runs (a one-class window), error distances
    /// (small positive gaps, usually short sequences), and plateau-heavy
    /// runs (repeated values).
    fn generated_window(rng: &mut Xoshiro256pp, shape: usize, n: usize) -> Vec<f64> {
        match shape {
            0 => (0..n).map(|_| rng.random_range(-3.0..3.0)).collect(),
            1 => (0..n).map(|_| rng.random_range(0..2usize) as f64).collect(),
            2 => (0..n).map(|_| rng.random_range(0..5usize) as f64).collect(),
            3 => vec![rng.random_range(0..3usize) as f64; n],
            4 => (0..n)
                .map(|_| 1.0 + (rng.random::<f64>() * rng.random::<f64>() * 12.0).floor())
                .collect(),
            _ => {
                let mut v = 0.0;
                (0..n)
                    .map(|_| {
                        if rng.random::<f64>() < 0.3 {
                            v = rng.random_range(0..4usize) as f64 + rng.random::<f64>();
                        }
                        v
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn scratch_entropies_are_bit_identical_to_the_allocating_path() {
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        let config = EmdConfig::default();
        // One scratch across every window, so stale buffer contents from a
        // longer window would show up on a shorter one.
        let mut scratch = EmdScratch::new();
        let sizes = (0..=10).chain([75, 200]);
        for n in sizes {
            for shape in 0..SHAPES {
                for rep in 0..8 {
                    let xs = generated_window(&mut rng, shape, n);
                    let (a1, a2) = imf_entropies(&xs, &config);
                    let (s1, s2) = imf_entropies_scratch(&xs, &config, &mut scratch);
                    let ctx = format!("n {n}, shape {shape}, rep {rep}");
                    assert_eq!(a1.to_bits(), s1.to_bits(), "IMF1 entropy, {ctx}");
                    assert_eq!(a2.to_bits(), s2.to_bits(), "IMF2 entropy, {ctx}");
                }
            }
        }
    }

    #[test]
    fn scratch_imfs_are_bit_identical_to_decompose() {
        // The IMFs themselves, not their entropies: a histogram entropy
        // absorbs ulp-level drift in the values it bins, so only an
        // IMF-level comparison pins the sifting arithmetic.
        let mut rng = Xoshiro256pp::seed_from_u64(15);
        let config = EmdConfig::default();
        let mut scratch = EmdScratch::new();
        let mut sifted = 0;
        for n in (0..=12).chain([24, 31, 50, 75, 100]) {
            for shape in 0..SHAPES {
                for rep in 0..10 {
                    let xs = generated_window(&mut rng, shape, n);
                    let want = decompose(&xs, &config);
                    let got = decompose_scratch(&xs, &config, &mut scratch);
                    let ctx = format!("n {n}, shape {shape}, rep {rep}");
                    assert_eq!(got.len(), want.len(), "IMF count, {ctx}");
                    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                        let g: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
                        let w: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(g, w, "IMF {k}, {ctx}");
                    }
                    sifted += want.len();
                }
            }
        }
        assert!(sifted > 500, "too few windows yielded an IMF: {sifted}");
    }

    /// The per-bin plug-in entropy, `-Σ p ln p` with one logarithm per
    /// occupied bin: the oracle for the closed form.
    fn reference_histogram_entropy(xs: &[f64], bins: usize) -> f64 {
        if xs.len() < 2 || bins < 2 {
            return 0.0;
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !(hi - lo).is_finite() || hi - lo <= f64::EPSILON {
            return 0.0;
        }
        let mut counts = vec![0.0f64; bins];
        for &x in xs {
            let b = (((x - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1);
            counts[b] += 1.0;
        }
        let n = xs.len() as f64;
        -counts
            .iter()
            .filter(|&&c| c > 0.0)
            .map(|&c| {
                let p = c / n;
                p * p.ln()
            })
            .sum::<f64>()
    }

    #[test]
    fn closed_form_entropy_agrees_with_the_per_bin_estimator() {
        let mut rng = Xoshiro256pp::seed_from_u64(16);
        let mut counts = Vec::new();
        for n in 0..=150usize {
            for shape in 0..SHAPES {
                let xs = generated_window(&mut rng, shape, n);
                let offset: Vec<f64> = xs.iter().map(|x| x + 1e6).collect();
                for (what, xs) in [("plain", &xs), ("1e6 offset", &offset)] {
                    for bins in 2..=12usize {
                        let got = histogram_entropy(xs, bins, &mut counts);
                        let want = reference_histogram_entropy(xs, bins);
                        let ctx = format!("n {n}, shape {shape}, {what}, {bins} bins");
                        assert!((got - want).abs() <= 1e-12, "{ctx}: {got} vs {want}");
                        if want == 0.0 {
                            assert_eq!(got, 0.0, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn short_windows_do_not_panic() {
        for n in 0..10 {
            let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let _ = imf_entropies(&xs, &EmdConfig::default());
        }
    }
}
