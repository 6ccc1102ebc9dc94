//! Plug-in entropies from integer histogram counts.
//!
//! Two meta-functions of Table I are plug-in entropies over equal-width
//! histograms: the lag-1 mutual information ([`crate::mutual_info`], the
//! fused [`crate::SourceSweep`] and the stat banks' incremental MI) and the
//! entropy of IMF 1 and 2 ([`crate::emd`]). With integer counts `k` that
//! sum to `N`, both estimators need no logarithm per cell:
//!
//! * `H = (N ln N − Σ_bins k ln k) / N`
//! * `MI = ((Σ_cells k ln k − Σ_rows k ln k) + (N ln N − Σ_cols k ln k)) / N`
//!
//! The second line is `(Σ_cells − Σ_rows − Σ_cols)/N + ln N`, grouped so
//! that a histogram with one occupied row or one occupied column gives
//! exactly 0, as the per-cell `Σ p_ab ln(p_ab / (p_a p_b))` does: each
//! bracket is then a difference of two bit-equal sums, or a sum and its
//! exact negation.
//!
//! The only per-term work is `k ln k` of an integer, read from one
//! process-wide table for `k ≤ 4096` and computed directly above it, so a
//! table hit and a direct call give the same bits.
//! Each quantity has one function here, and every caller reaches it with
//! the same counts, so the sweep, the one-function oracles and the
//! incremental MI stay bit-identical to one another. Against the per-cell
//! form the closed forms agree to a few ulps of `ln N` (≤ 1e-12 absolute,
//! pinned by `mutual_info`'s and `emd`'s agreement tests).

use std::sync::LazyLock;

/// Largest count whose `k ln k` comes from the table (32 KiB of `f64`).
const K_LN_K_TABLE_MAX: u32 = 4096;

static K_LN_K: LazyLock<Box<[f64]>> =
    LazyLock::new(|| (0..=K_LN_K_TABLE_MAX).map(k_ln_k_direct).collect());

/// `k ln k`, with `0 ln 0 = 0`.
fn k_ln_k_direct(k: u32) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let k = f64::from(k);
    k * k.ln()
}

#[inline]
fn lookup(table: &[f64], k: u32) -> f64 {
    match table.get(k as usize) {
        Some(&v) => v,
        None => k_ln_k_direct(k),
    }
}

/// `k ln k` of a count (`0 ln 0 = 0`), from the table up to
/// [`K_LN_K_TABLE_MAX`]; bit-equal to `k as f64 * (k as f64).ln()` for
/// every `k > 0`.
#[inline]
fn k_ln_k(k: u32) -> f64 {
    lookup(&K_LN_K, k)
}

/// `Σ k ln k` over `counts`, added in iteration order.
fn sum_k_ln_k(counts: impl Iterator<Item = u32>) -> f64 {
    let table: &[f64] = &K_LN_K;
    counts.fold(0.0, |acc, k| acc + lookup(table, k))
}

/// Shannon entropy (nats) of a histogram of integer counts; 0 when empty.
pub(crate) fn entropy_from_counts(counts: &[u32]) -> f64 {
    let n: u32 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    (k_ln_k(n) - sum_k_ln_k(counts.iter().copied())) / f64::from(n)
}

/// Plug-in mutual information (nats) of a `bins x bins` row-major joint
/// histogram of integer counts, clamped at 0; 0 when empty. The terms are
/// summed cells row-major, then rows, then columns.
pub fn mutual_information_from_counts(joint: &[u32], bins: usize) -> f64 {
    let n: u32 = joint.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let cells = sum_k_ln_k(joint.iter().copied());
    let rows = sum_k_ln_k(joint.chunks_exact(bins).map(|row| row.iter().sum()));
    let cols = sum_k_ln_k((0..bins).map(|b| joint[b..].iter().step_by(bins).sum()));
    (((cells - rows) + (k_ln_k(n) - cols)) / f64::from(n)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_entries_are_bit_equal_to_the_direct_product() {
        assert_eq!(k_ln_k(0), 0.0);
        assert_eq!(k_ln_k(1), 0.0);
        let max = K_LN_K_TABLE_MAX;
        let edge = (max - 8..=max + 8).chain([2 * max, 1 << 20, u32::MAX]);
        for k in (1..=max).chain(edge) {
            let x = k as f64;
            assert_eq!(k_ln_k(k).to_bits(), (x * x.ln()).to_bits(), "k = {k}");
        }
    }

    #[test]
    fn closed_forms_match_hand_values() {
        let ln2 = 2f64.ln();
        assert!((entropy_from_counts(&[3, 3]) - ln2).abs() < 1e-15);
        assert!((entropy_from_counts(&[0, 5, 5, 0, 5, 5]) - 2.0 * ln2).abs() < 1e-15);
        assert_eq!(entropy_from_counts(&[]), 0.0);
        assert_eq!(entropy_from_counts(&[0, 0]), 0.0);
        assert_eq!(entropy_from_counts(&[0, 7, 0]), 0.0);
        // A perfectly predictable pair: MI = H = ln 2.
        assert!((mutual_information_from_counts(&[4, 0, 0, 4], 2) - ln2).abs() < 1e-15);
        assert_eq!(mutual_information_from_counts(&[0; 4], 2), 0.0);
    }

    #[test]
    fn one_occupied_row_or_column_is_exactly_zero() {
        // The per-cell form gives exact zeros here (every ratio is 1), so
        // the closed form must too: fingerprints compare these bits.
        for k in 1..60u32 {
            let row = [0, 0, 0, k, k + 1, 2 * k + 3, 0, 0, 0];
            assert_eq!(mutual_information_from_counts(&row, 3), 0.0, "row {k}");
            let col = [k, 0, 0, k + 1, 0, 0, 2 * k + 3, 0, 0];
            assert_eq!(mutual_information_from_counts(&col, 3), 0.0, "column {k}");
            assert_eq!(entropy_from_counts(&[0, k, 0]), 0.0, "single bin {k}");
        }
    }
}
