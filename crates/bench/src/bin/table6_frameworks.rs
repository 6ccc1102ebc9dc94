//! Table VI: kappa / C-F1 / runtime of HTCD, RCD, ER, DWM, ARF and FiCSUM
//! over the nine framework-comparison datasets.

use ficsum_bench::harness::{metric, run_framework, Framework, Options};
use ficsum_bench::jsonl_out::JsonlReporter;
use ficsum_eval::{format_cell, Table};

/// The nine datasets of the paper's Table VI (columns there; rows here).
const DATASETS: [&str; 9] =
    ["AQSex", "CMC", "UCI-Wine", "RBF", "RTREE-U", "Arabic", "HPLANE-U", "QG", "STAGGER"];

fn main() {
    let opts = Options::from_args();
    let mut reporter = JsonlReporter::from_options("table6_frameworks", &opts);
    let headers: Vec<&str> =
        std::iter::once("Dataset").chain(Framework::ALL.iter().map(|f| f.name())).collect();
    let mut kappa_table = Table::new(&headers);
    let mut cf1_table = Table::new(&headers);
    let mut runtime_table = Table::new(&headers);

    for name in DATASETS {
        if !opts.selected(name) {
            continue;
        }
        let mut kappa_cells = Vec::new();
        let mut cf1_cells = Vec::new();
        let mut rt_cells = Vec::new();
        for framework in Framework::ALL {
            let results = opts.run_seeds(|seed| run_framework(name, framework, seed, &opts));
            if let Some(rep) = reporter.as_mut() {
                for r in &results {
                    rep.record(name, r);
                }
            }
            kappa_cells.push(format_cell(&metric(&results, |r| r.kappa)));
            cf1_cells.push(format_cell(&metric(&results, |r| r.c_f1)));
            rt_cells.push(format_cell(&metric(&results, |r| r.runtime_s)));
        }
        kappa_table.add_row(name, kappa_cells);
        cf1_table.add_row(name, cf1_cells);
        runtime_table.add_row(name, rt_cells);
        eprintln!("[table6] {name} done");
    }

    println!("Table VI — kappa statistic per framework\n");
    println!("{}", kappa_table.render());
    println!("Table VI — C-F1 per framework\n");
    println!("{}", cf1_table.render());
    println!("Table VI — runtime (seconds) per framework\n");
    println!("{}", runtime_table.render());
    if let Some(rep) = reporter {
        rep.finish();
    }
}
