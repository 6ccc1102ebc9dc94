//! Table V: per-meta-function kappa / C-F1 / discrimination under injected
//! drift in distribution (D), autocorrelation (A) and frequency (F), on
//! streams of four concepts.

use ficsum_bench::harness::{Dataset, Grid, Options, System};
use ficsum_core::{FicsumConfig, Variant};
use ficsum_meta::MetaFunction;
use ficsum_synth::{synth_stream, SynthDrift, SYNTH_COMBOS};

/// One row per meta-information function, then full FiCSUM.
fn rows() -> Vec<System> {
    let row = |label: &str, variant| System::ficsum(label, variant, FicsumConfig::default());
    let mut rows =
        vec![row("Shapley(FI)", Variant::SingleFunction(MetaFunction::FeatureImportance))];
    for f in MetaFunction::SEQUENCE_FUNCTIONS {
        rows.push(row(f.name(), Variant::SingleFunction(f)));
    }
    rows.push(row("FiCSUM", Variant::Full));
    rows
}

fn main() {
    let opts = Options::from_args(2);
    let segment = if opts.quick { 250 } else { 400 };
    let datasets = SYNTH_COMBOS.map(|combo| {
        let drifts = SynthDrift::parse_combo(combo);
        Dataset::new(format!("Synth_{combo}"), move |seed| synth_stream(&drifts, 4, segment, seed))
    });
    let report = Grid {
        experiment: "table5_meta_functions",
        systems: rows(),
        datasets: datasets.into(),
    }
    .run(&opts);
    println!("Table V — kappa statistic per meta-information function\n");
    println!("{}", report.table_by_system("Function", |r| r.kappa).render());
    println!("Table V — C-F1 per meta-information function\n");
    println!("{}", report.table_by_system("Function", |r| r.c_f1).render());
    println!("Table V — discrimination ability per meta-information function\n");
    let table = report.table_by_system("Function", |r| r.discrimination.unwrap_or(0.0));
    println!("{}", table.render());
}
