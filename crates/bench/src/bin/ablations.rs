//! Ablation study over the design choices DESIGN.md calls out. Five rows,
//! each a `FicsumConfig` change to full FiCSUM: full, no second check (the
//! delayed second selection pass), no plasticity (fingerprint resets on
//! classifier growth), no rebase (similarity re-basing through retained
//! pairs) and no buffer (near-naive most-recent incorporation: a buffer
//! ratio of 0.014, which at `w = 75` is a delay of 2 observations).
//!
//! Dynamic weighting (weighted vs unweighted cosine) and the Fisher-score
//! weight components are not run: neither is a config switch.

use ficsum_bench::harness::{Dataset, Grid, Options, System};
use ficsum_core::{FicsumConfig, Variant};

const DATASETS: [&str; 4] = ["STAGGER", "RTREE-U", "Arabic", "RBF"];

fn variants() -> Vec<(&'static str, FicsumConfig)> {
    let base = FicsumConfig::default();
    vec![
        ("full", base),
        ("no second check", base.with_second_check(false)),
        ("no plasticity", base.with_plasticity(false)),
        ("no rebase", base.with_rebase_similarity(false)),
        ("no buffer (b=2)", base.with_buffer_ratio(0.014)),
    ]
}

fn main() {
    let report = Grid {
        experiment: "ablations",
        systems: variants()
            .into_iter()
            .map(|(label, config)| System::ficsum(label, Variant::Full, config))
            .collect(),
        datasets: DATASETS.map(Dataset::named).into(),
    }
    .run(&Options::from_args(2));
    println!("Ablations — kappa statistic\n");
    println!("{}", report.table_by_system("Configuration", |r| r.kappa).render());
    println!("Ablations — C-F1\n");
    println!("{}", report.table_by_system("Configuration", |r| r.c_f1).render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_row_label_states_its_delay() {
        let (label, config) = variants().pop().unwrap();
        assert_eq!(label, format!("no buffer (b={})", config.buffer_delay()));
    }
}
