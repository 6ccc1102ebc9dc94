//! Table VI: kappa / C-F1 / runtime of HTCD, RCD, ER, DWM, ARF and FiCSUM
//! over the nine framework-comparison datasets. The runs carry no recorder,
//! so every framework is timed bare; `--jsonl` rows also carry each run's
//! detection figures, from the drifts the framework reports.

use ficsum_baselines::{EnsembleSystem, Htcd, Rcd};
use ficsum_bench::harness::{Dataset, Grid, Options, System};
use ficsum_core::{FicsumConfig, Variant};

/// The nine datasets of the paper's Table VI (columns there; rows here).
const DATASETS: [&str; 9] =
    ["AQSex", "CMC", "UCI-Wine", "RBF", "RTREE-U", "Arabic", "HPLANE-U", "QG", "STAGGER"];

/// The Table VI frameworks, in paper order.
fn frameworks() -> Vec<System> {
    vec![
        System::new("HTCD", |d, k| Box::new(Htcd::new(d, k))),
        System::new("RCD", |d, k| Box::new(Rcd::new(d, k))),
        System::ficsum("ER", Variant::ErrorRate, FicsumConfig::default()),
        System::new("DWM", |d, k| Box::new(EnsembleSystem::dwm(d, k))),
        System::new("ARF", |d, k| Box::new(EnsembleSystem::arf(d, k))),
        System::ficsum("FiCSUM", Variant::Full, FicsumConfig::default()),
    ]
}

fn main() {
    let report = Grid {
        experiment: "table6_frameworks",
        systems: frameworks(),
        datasets: DATASETS.map(Dataset::named).into(),
    }
    .run(&Options::from_args(2));
    println!("Table VI — kappa statistic per framework\n");
    println!("{}", report.table("Dataset", |r| r.kappa).render());
    println!("Table VI — C-F1 per framework\n");
    println!("{}", report.table("Dataset", |r| r.c_f1).render());
    println!("Table VI — runtime (seconds) per framework\n");
    println!("{}", report.table("Dataset", |r| r.runtime_s).render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frameworks_build_for_any_shape() {
        for f in frameworks() {
            let mut sys = f.build(4, 3);
            assert!(sys.step(&[0.1, 0.2, 0.3, 0.4], 1).prediction < 3);
            assert_eq!(sys.name(), f.label);
        }
    }
}
