//! Table V: per-meta-function kappa / C-F1 / discrimination under injected
//! drift in distribution (D), autocorrelation (A) and frequency (F).

use ficsum_baselines::FicsumSystem;
use ficsum_bench::harness::{run_options, truncate, Options};
use ficsum_bench::jsonl_out::JsonlReporter;
use ficsum_core::Variant;
use ficsum_eval::{evaluate_with, format_cell, Table};
use ficsum_meta::MetaFunction;
use ficsum_stream::StreamSource;
use ficsum_synth::{synth_stream, SynthDrift, SYNTH_COMBOS};

fn rows() -> Vec<(String, Variant)> {
    let mut rows: Vec<(String, Variant)> = vec![(
        "Shapley(FI)".into(),
        Variant::SingleFunction(MetaFunction::FeatureImportance),
    )];
    for f in MetaFunction::SEQUENCE_FUNCTIONS {
        rows.push((f.name().to_string(), Variant::SingleFunction(f)));
    }
    rows.push(("FiCSUM".into(), Variant::Full));
    rows
}

fn main() {
    let opts = Options::from_args();
    let mut reporter = JsonlReporter::from_options("table5_meta_functions", &opts);
    let n_concepts = 4;
    let segment = if opts.quick { 250 } else { 400 };

    let headers: Vec<String> =
        std::iter::once("Function".to_string()).chain(SYNTH_COMBOS.iter().map(|c| format!("Synth_{c}"))).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut kappa_table = Table::new(&header_refs);
    let mut cf1_table = Table::new(&header_refs);
    let mut disc_table = Table::new(&header_refs);

    for (label, variant) in rows() {
        let mut kappa_cells = Vec::new();
        let mut cf1_cells = Vec::new();
        let mut disc_cells = Vec::new();
        for combo in SYNTH_COMBOS {
            let drifts = SynthDrift::parse_combo(combo);
            let mut kappas = Vec::new();
            let mut cf1s = Vec::new();
            let mut discs = Vec::new();
            let results = opts.run_seeds(|seed| {
                let stream = synth_stream(&drifts, n_concepts, segment, seed);
                let mut stream = truncate(stream, opts.stream_cap());
                let (d, k) = (stream.dims(), stream.n_classes());
                let mut system = FicsumSystem::new(d, k, variant);
                evaluate_with(&mut system, &mut stream, &run_options(k, seed, &opts))
            });
            for r in results {
                if let Some(rep) = reporter.as_mut() {
                    rep.record(&format!("Synth_{combo}"), &r);
                }
                kappas.push(r.kappa);
                cf1s.push(r.c_f1);
                discs.push(r.discrimination.unwrap_or(0.0));
            }
            kappa_cells.push(format_cell(&kappas));
            cf1_cells.push(format_cell(&cf1s));
            disc_cells.push(format_cell(&discs));
        }
        kappa_table.add_row(&label, kappa_cells);
        cf1_table.add_row(&label, cf1_cells);
        disc_table.add_row(&label, disc_cells);
        eprintln!("[table5] {label} done");
    }

    println!("Table V — kappa statistic per meta-information function\n");
    println!("{}", kappa_table.render());
    println!("Table V — C-F1 per meta-information function\n");
    println!("{}", cf1_table.render());
    println!("Table V — discrimination ability per meta-information function\n");
    println!("{}", disc_table.render());
    if let Some(rep) = reporter {
        rep.finish();
    }
}
