//! Ablation study over the design choices DESIGN.md calls out. Five rows,
//! each a `FicsumConfig` change to full FiCSUM: full, no second check (the
//! delayed second selection pass), no plasticity (fingerprint resets on
//! classifier growth), no rebase (similarity re-basing through retained
//! pairs) and no buffer (near-naive most-recent incorporation: a buffer
//! ratio of 0.014, which at `w = 75` is a delay of 2 observations).
//!
//! Dynamic weighting (weighted vs unweighted cosine) and the Fisher-score
//! weight components are not run: neither is a config switch.

use ficsum_baselines::FicsumSystem;
use ficsum_bench::harness::{build_stream, metric, run_options, Options};
use ficsum_bench::jsonl_out::JsonlReporter;
use ficsum_core::{FicsumConfig, Variant};
use ficsum_eval::{evaluate_with, format_cell, Table};
use ficsum_stream::StreamSource;

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
    let opts = Options::from_args();
    let mut reporter = JsonlReporter::from_options("ablations", &opts);
    let headers: Vec<&str> = std::iter::once("Configuration")
        .chain(DATASETS.iter().copied())
        .collect();
    let mut kappa_table = Table::new(&headers);
    let mut cf1_table = Table::new(&headers);
    for (label, config) in variants() {
        let mut kappa_cells = Vec::new();
        let mut cf1_cells = Vec::new();
        for name in DATASETS {
            let results = opts.run_seeds(|seed| {
                let mut stream = build_stream(name, seed, &opts);
                let (d, k) = (stream.dims(), stream.n_classes());
                let mut system = FicsumSystem::with_config(d, k, Variant::Full, config);
                evaluate_with(&mut system, &mut stream, &run_options(k, seed, &opts))
            });
            if let Some(rep) = reporter.as_mut() {
                for r in &results {
                    rep.record(name, r);
                }
            }
            kappa_cells.push(format_cell(&metric(&results, |r| r.kappa)));
            cf1_cells.push(format_cell(&metric(&results, |r| r.c_f1)));
        }
        kappa_table.add_row(label, kappa_cells);
        cf1_table.add_row(label, cf1_cells);
        eprintln!("[ablations] {label} done");
    }
    println!("Ablations — kappa statistic\n");
    println!("{}", kappa_table.render());
    println!("Ablations — C-F1\n");
    println!("{}", cf1_table.render());
    if let Some(rep) = reporter {
        rep.finish();
    }
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
