//! Figure 3: sensitivity of accuracy and runtime to the four FiCSUM
//! parameters (window size w, buffer ratio, P_C, P_S) on the Arabic
//! stand-in. Values are proportions relative to the base configuration
//! (w=75, ratio=0.25, P_C=3, P_S=25), exactly like the paper's plot.

use ficsum_bench::harness::{Dataset, Grid, Options, System};
use ficsum_core::{FicsumConfig, Variant};
use ficsum_eval::Table;

fn main() {
    let base = FicsumConfig::default();
    // (parameter, value shown, configuration) of each point off the base.
    let mut points = Vec::new();
    for w in [25, 50, 100, 150] {
        points.push(("window w", w.to_string(), base.with_window_size(w)));
    }
    for r in [0.05, 0.15, 0.5, 1.0] {
        points.push(("buffer ratio", format!("{r:.2}"), base.with_buffer_ratio(r)));
    }
    for p in [1, 6, 12, 24] {
        points.push(("P_C", p.to_string(), base.with_fingerprint_gap(p)));
    }
    for p in [5, 50, 100, 200] {
        points.push(("P_S", p.to_string(), base.with_repository_gap(p)));
    }
    let report = Grid {
        experiment: "fig3_sensitivity",
        systems: std::iter::once(System::ficsum("base", Variant::Full, base))
            .chain(points.iter().map(|(param, value, config)| {
                System::ficsum(format!("{param}={value}"), Variant::Full, *config)
            }))
            .collect(),
        datasets: vec![Dataset::named("Arabic")],
    }
    .run(&Options::from_args(2));
    let accuracy = |s| report.mean(0, s, |r| r.accuracy);
    let runtime = |s| report.mean(0, s, |r| r.runtime_s);
    println!(
        "base (w=75, ratio=0.25, P_C=3, P_S=25): accuracy={:.3} runtime={:.1}s\n",
        accuracy(0),
        runtime(0)
    );
    let mut table =
        Table::new(&["Parameter", "Value", "Accuracy (prop of base)", "Runtime (prop)"]);
    for (s, (param, value, _)) in points.iter().enumerate() {
        let (acc, rt) = (accuracy(s + 1) / accuracy(0), runtime(s + 1) / runtime(0));
        table.add_row(param, vec![value.clone(), format!("{acc:.3}"), format!("{rt:.3}")]);
    }
    println!("Figure 3 — parameter sensitivity on Arabic\n");
    println!("{}", table.render());
}
