//! Table IV: kappa statistic and C-F1 for ER / S-MI / U-MI / FiCSUM over all
//! datasets, with average ranks and Friedman/Nemenyi significance tests.

use ficsum_bench::harness::{variant_columns, Dataset, Grid, Options};

fn main() {
    let report = Grid {
        experiment: "table4_performance",
        systems: variant_columns(),
        datasets: Dataset::all(),
    }
    .run(&Options::from_args(2));
    println!("Table IV — kappa statistic\n");
    println!("{}", report.table("Dataset", |r| r.kappa).render());
    println!("Table IV — co-occurrence F1 (C-F1)\n");
    println!("{}", report.table("Dataset", |r| r.c_f1).render());
    if report.datasets.len() >= 2 {
        println!("{}", report.rank_line("kappa", |r| r.kappa));
        println!("{}", report.rank_line("C-F1", |r| r.c_f1));
    }
}
