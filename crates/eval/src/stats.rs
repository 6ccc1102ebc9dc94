//! Aggregation and significance testing across datasets and seeds.
//!
//! The paper ranks methods per dataset, averages the ranks, runs a Friedman
//! test (methods achieve equal ranks?) and, on rejection, a Nemenyi post-hoc
//! test at alpha = 0.05.

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Ranks one row of scores (higher = better): best gets rank 1. Ties share
/// the average rank, matching standard Friedman methodology.
pub fn rank_row(scores: &[f64]) -> Vec<f64> {
    let k = scores.len();
    let mut idx: Vec<usize> = (0..k).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let mut ranks = vec![0.0; k];
    let mut i = 0;
    while i < k {
        let mut j = i;
        while j + 1 < k && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        // positions i..=j tie: average rank
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &p in &idx[i..=j] {
            ranks[p] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Average rank of each method (column) over datasets (rows), higher scores
/// ranking better.
pub fn rank_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    assert!(!rows.is_empty());
    let k = rows[0].len();
    let mut sums = vec![0.0; k];
    for row in rows {
        assert_eq!(row.len(), k);
        for (s, r) in sums.iter_mut().zip(rank_row(row)) {
            *s += r;
        }
    }
    sums.into_iter().map(|s| s / rows.len() as f64).collect()
}

/// Outcome of the Friedman test.
#[derive(Debug, Clone)]
pub struct FriedmanOutcome {
    /// Friedman chi-square statistic.
    pub chi_square: f64,
    /// Degrees of freedom (`k - 1`).
    pub dof: usize,
    /// Approximate p-value from the chi-square distribution.
    pub p_value: f64,
    /// Average rank per method.
    pub average_ranks: Vec<f64>,
}

/// Regularised lower incomplete gamma `P(s, x)` via series / continued
/// fraction (Numerical Recipes style) — enough for chi-square p-values.
fn gamma_p(s: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let ln_gamma_s = ln_gamma(s);
    if x < s + 1.0 {
        // Series expansion.
        let mut term = 1.0 / s;
        let mut sum = term;
        let mut a = s;
        for _ in 0..500 {
            a += 1.0;
            term *= x / a;
            sum += term;
            if term.abs() < sum.abs() * 1e-14 {
                break;
            }
        }
        sum * (-x + s * x.ln() - ln_gamma_s).exp()
    } else {
        // Continued fraction for Q, then P = 1 - Q.
        let mut b = x + 1.0 - s;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - s);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-14 {
                break;
            }
        }
        1.0 - h * (-x + s * x.ln() - ln_gamma_s).exp()
    }
}

/// Lanczos log-gamma.
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection.
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Chi-square survival function.
fn chi_square_sf(x: f64, dof: usize) -> f64 {
    (1.0 - gamma_p(dof as f64 / 2.0, x / 2.0)).clamp(0.0, 1.0)
}

/// Friedman test over `rows` (datasets) × `columns` (methods), higher score
/// = better.
pub fn friedman_test(rows: &[Vec<f64>]) -> FriedmanOutcome {
    let n = rows.len() as f64;
    let average_ranks = rank_rows(rows);
    let k = average_ranks.len() as f64;
    let sum_r2: f64 = average_ranks.iter().map(|r| r * r).sum();
    let chi_square = 12.0 * n / (k * (k + 1.0)) * (sum_r2 - k * (k + 1.0) * (k + 1.0) / 4.0);
    let dof = average_ranks.len() - 1;
    FriedmanOutcome {
        chi_square,
        dof,
        p_value: chi_square_sf(chi_square, dof),
        average_ranks,
    }
}

/// Nemenyi critical difference at alpha = 0.05: two methods differ
/// significantly when their average ranks differ by more than this.
/// `k` = number of methods (2..=10 supported), `n` = number of datasets.
pub fn nemenyi_critical_difference(k: usize, n: usize) -> f64 {
    // q_0.05 values (studentised range / sqrt(2)) from Demšar (2006).
    const Q05: [f64; 9] = [1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164];
    assert!((2..=10).contains(&k), "Nemenyi table covers 2..=10 methods");
    let q = Q05[k - 2];
    q * ((k * (k + 1)) as f64 / (6.0 * n as f64)).sqrt()
}

/// Outcome of a paired, one-sided exact sign test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignTest {
    /// Pairs in which the candidate is higher than the reference.
    pub higher: usize,
    /// Pairs in which it is lower.
    pub lower: usize,
    /// Tied pairs, dropped from the test.
    pub ties: usize,
    /// One-sided p-value that the candidate runs higher: the chance of at
    /// least `higher` heads in `higher + lower` fair coin flips (1 when
    /// every pair ties).
    pub p_value: f64,
}

/// Exact sign test on `(candidate, reference)` pairs against the
/// alternative that the candidate is higher; ties are dropped.
pub fn sign_test_higher(pairs: impl IntoIterator<Item = (f64, f64)>) -> SignTest {
    let (mut higher, mut lower, mut ties) = (0usize, 0usize, 0usize);
    for (candidate, reference) in pairs {
        match candidate.total_cmp(&reference) {
            std::cmp::Ordering::Greater => higher += 1,
            std::cmp::Ordering::Less => lower += 1,
            std::cmp::Ordering::Equal => ties += 1,
        }
    }
    let n = higher + lower;
    let ln_fact = |m: usize| ln_gamma(m as f64 + 1.0);
    let ln_choose = |k: usize| ln_fact(n) - ln_fact(k) - ln_fact(n - k);
    let p_value = (higher..=n)
        .map(|k| (ln_choose(k) - n as f64 * std::f64::consts::LN_2).exp())
        .sum::<f64>()
        .min(1.0);
    SignTest { higher, lower, ties, p_value }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_test_matches_binomial_tails() {
        // 8 of 10 untied pairs higher: P(X >= 8 | Bin(10, 0.5)) = 56/1024.
        let mut pairs = vec![(2.0, 1.0); 8];
        pairs.extend([(1.0, 2.0), (1.0, 2.0), (3.0, 3.0)]);
        let t = sign_test_higher(pairs);
        assert_eq!((t.higher, t.lower, t.ties), (8, 2, 1));
        assert!((t.p_value - 56.0 / 1024.0).abs() < 1e-9, "p {}", t.p_value);
        // No pair higher: the whole distribution, p = 1.
        assert!((sign_test_higher([(0.0, 1.0); 5]).p_value - 1.0).abs() < 1e-9);
        // All ties: nothing to test.
        assert_eq!(sign_test_higher([(1.0, 1.0); 3]).p_value, 1.0);
        // 6 of 6 higher: 1/64 < 0.05.
        assert!((sign_test_higher([(1.0, 0.0); 6]).p_value - 1.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn ranking_higher_is_better() {
        assert_eq!(rank_row(&[0.9, 0.5, 0.7]), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn tied_scores_share_average_rank() {
        assert_eq!(rank_row(&[0.5, 0.5, 0.1]), vec![1.5, 1.5, 3.0]);
        assert_eq!(rank_row(&[0.3, 0.3, 0.3]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn average_ranks_across_datasets() {
        let rows = vec![vec![0.9, 0.1], vec![0.8, 0.2], vec![0.1, 0.9]];
        assert_eq!(rank_rows(&rows), vec![(1.0 + 1.0 + 2.0) / 3.0, (2.0 + 2.0 + 1.0) / 3.0]);
    }

    #[test]
    fn friedman_detects_consistent_dominance() {
        // Method 0 always best, method 2 always worst, across 12 datasets.
        let rows: Vec<Vec<f64>> =
            (0..12).map(|i| vec![0.9 + 0.001 * i as f64, 0.5, 0.1]).collect();
        let out = friedman_test(&rows);
        assert!(out.p_value < 0.01, "p {}", out.p_value);
        assert_eq!(out.average_ranks, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn friedman_accepts_random_ranks() {
        // Rotating winners: no consistent ranking.
        let rows = vec![
            vec![0.9, 0.5, 0.1],
            vec![0.1, 0.9, 0.5],
            vec![0.5, 0.1, 0.9],
            vec![0.9, 0.5, 0.1],
            vec![0.1, 0.9, 0.5],
            vec![0.5, 0.1, 0.9],
        ];
        let out = friedman_test(&rows);
        assert!(out.p_value > 0.5, "p {}", out.p_value);
    }

    #[test]
    fn chi_square_sf_sanity() {
        // chi2(1): P(X > 3.841) ~ 0.05.
        assert!((chi_square_sf(3.841, 1) - 0.05).abs() < 0.002);
        // chi2(3): P(X > 7.815) ~ 0.05.
        assert!((chi_square_sf(7.815, 3) - 0.05).abs() < 0.002);
    }

    #[test]
    fn nemenyi_matches_published_value() {
        // Demšar (2006): k=4, N=14 -> CD ~ 1.25... (q=2.569).
        let cd = nemenyi_critical_difference(4, 14);
        assert!((cd - 2.569 * (20.0_f64 / 84.0).sqrt()).abs() < 1e-9);
        assert!(cd > 0.0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..10u64 {
            let fact: f64 = (1..n).map(|i| i as f64).product();
            assert!((ln_gamma(n as f64) - fact.ln()).abs() < 1e-9, "n={n}");
        }
    }
}
