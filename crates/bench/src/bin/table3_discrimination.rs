//! Table III: discrimination ability of ER / S-MI / U-MI / FiCSUM.
//!
//! Discrimination is measured as the mean gap between the active concept's
//! similarity and each stored concept's similarity, in units of the normal
//! similarity deviation (see `Ficsum::discrimination_probe`); the paper's
//! unbounded similarity units differ, so compare *ranks within a row*, not
//! absolute magnitudes.

use ficsum_bench::harness::{variant_columns, Dataset, Grid, Options};

fn main() {
    let report = Grid {
        experiment: "table3_discrimination",
        systems: variant_columns(),
        datasets: Dataset::all(),
    }
    .run(&Options::from_args(2));
    let table = report.table("Dataset", |r| r.discrimination.unwrap_or(0.0));
    println!("Table III — discrimination ability (mean gap to impostor concepts, sigma units)\n");
    println!("{}", table.render());
}
