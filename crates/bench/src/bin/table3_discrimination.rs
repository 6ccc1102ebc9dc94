//! Table III: discrimination ability of ER / S-MI / U-MI / FiCSUM.
//!
//! Discrimination is measured as the mean gap between the active concept's
//! similarity and each stored concept's similarity, in units of the normal
//! similarity deviation (see `Ficsum::discrimination_probe`); the paper's
//! unbounded similarity units differ, so compare *ranks within a row*, not
//! absolute magnitudes.

use ficsum_bench::harness::{metric, run_variant, Options, VARIANT_COLUMNS};
use ficsum_bench::jsonl_out::JsonlReporter;
use ficsum_eval::{format_cell, Table};
use ficsum_synth::ALL_DATASETS;

fn main() {
    let opts = Options::from_args();
    let mut reporter = JsonlReporter::from_options("table3_discrimination", &opts);
    let mut table = Table::new(&["Dataset", "ER", "S-MI", "U-MI", "FiCSUM"]);
    for spec in ALL_DATASETS {
        if !opts.selected(spec.name) {
            continue;
        }
        let mut cells = Vec::new();
        for variant in VARIANT_COLUMNS {
            let results = opts.run_seeds(|seed| run_variant(spec.name, variant, seed, &opts));
            if let Some(rep) = reporter.as_mut() {
                for r in &results {
                    rep.record(spec.name, r);
                }
            }
            let discs = metric(&results, |r| r.discrimination.unwrap_or(0.0));
            cells.push(format_cell(&discs));
        }
        table.add_row(spec.name, cells);
        eprintln!("[table3] {} done", spec.name);
    }
    println!("Table III — discrimination ability (mean gap to impostor concepts, sigma units)\n");
    println!("{}", table.render());
    if let Some(rep) = reporter {
        rep.finish();
    }
}
