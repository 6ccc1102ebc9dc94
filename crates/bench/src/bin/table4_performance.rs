//! Table IV: kappa statistic and C-F1 for ER / S-MI / U-MI / FiCSUM over all
//! datasets, with average ranks and Friedman/Nemenyi significance tests.

use ficsum_bench::harness::{metric, run_variant, Options, VARIANT_COLUMNS};
use ficsum_bench::jsonl_out::JsonlReporter;
use ficsum_eval::{
    format_cell, friedman_test, mean_std, nemenyi_critical_difference, Table,
};
use ficsum_synth::ALL_DATASETS;

fn main() {
    let opts = Options::from_args();
    let mut reporter = JsonlReporter::from_options("table4_performance", &opts);
    let mut kappa_table = Table::new(&["Dataset", "ER", "S-MI", "U-MI", "FiCSUM"]);
    let mut cf1_table = Table::new(&["Dataset", "ER", "S-MI", "U-MI", "FiCSUM"]);
    let mut kappa_rows: Vec<Vec<f64>> = Vec::new();
    let mut cf1_rows: Vec<Vec<f64>> = Vec::new();

    for spec in ALL_DATASETS {
        if !opts.selected(spec.name) {
            continue;
        }
        let mut kappa_cells = Vec::new();
        let mut cf1_cells = Vec::new();
        let mut kappa_row = Vec::new();
        let mut cf1_row = Vec::new();
        for variant in VARIANT_COLUMNS {
            let results = opts.run_seeds(|seed| run_variant(spec.name, variant, seed, &opts));
            if let Some(rep) = reporter.as_mut() {
                for r in &results {
                    rep.record(spec.name, r);
                }
            }
            let kappas = metric(&results, |r| r.kappa);
            let cf1s = metric(&results, |r| r.c_f1);
            kappa_row.push(mean_std(&kappas).0);
            cf1_row.push(mean_std(&cf1s).0);
            kappa_cells.push(format_cell(&kappas));
            cf1_cells.push(format_cell(&cf1s));
        }
        kappa_table.add_row(spec.name, kappa_cells);
        cf1_table.add_row(spec.name, cf1_cells);
        kappa_rows.push(kappa_row);
        cf1_rows.push(cf1_row);
        eprintln!("[table4] {} done", spec.name);
    }

    println!("Table IV — kappa statistic\n");
    println!("{}", kappa_table.render());
    println!("Table IV — co-occurrence F1 (C-F1)\n");
    println!("{}", cf1_table.render());

    for (label, rows) in [("kappa", &kappa_rows), ("C-F1", &cf1_rows)] {
        if rows.len() >= 2 {
            let outcome = friedman_test(rows);
            let cd = nemenyi_critical_difference(4, rows.len());
            println!(
                "{label}: avg ranks ER={:.2} S-MI={:.2} U-MI={:.2} FiCSUM={:.2} | Friedman chi2={:.2} p={:.4} | Nemenyi CD(0.05)={:.2}",
                outcome.average_ranks[0],
                outcome.average_ranks[1],
                outcome.average_ranks[2],
                outcome.average_ranks[3],
                outcome.chi_square,
                outcome.p_value,
                cd
            );
        }
    }
    if let Some(rep) = reporter {
        rep.finish();
    }
}
