//! Figure 3: sensitivity of accuracy and runtime to the four FiCSUM
//! parameters (window size w, buffer ratio, P_C, P_S) on the Arabic
//! stand-in. Values are proportions relative to the base configuration
//! (w=75, ratio=0.25, P_C=3, P_S=25), exactly like the paper's plot.

use ficsum_baselines::FicsumSystem;
use ficsum_bench::harness::{build_stream, run_options, Options};
use ficsum_bench::jsonl_out::JsonlReporter;
use ficsum_core::{FicsumConfig, Variant};
use ficsum_eval::{evaluate_with, Table};
use ficsum_stream::StreamSource;

fn run(config: FicsumConfig, opts: &Options, reporter: &mut Option<JsonlReporter>) -> (f64, f64) {
    let mut acc = 0.0;
    let mut rt = 0.0;
    let results = opts.run_seeds(|seed| {
        let mut stream = build_stream("Arabic", seed, opts);
        let (d, k) = (stream.dims(), stream.n_classes());
        let mut system = FicsumSystem::with_config(d, k, Variant::Full, config);
        evaluate_with(&mut system, &mut stream, &run_options(k, seed, opts))
    });
    for r in results {
        if let Some(rep) = reporter.as_mut() {
            rep.record("Arabic", &r);
        }
        acc += r.accuracy;
        rt += r.runtime_s;
    }
    (acc / opts.seeds as f64, rt / opts.seeds as f64)
}

fn main() {
    let opts = Options::from_args();
    let mut reporter = JsonlReporter::from_options("fig3_sensitivity", &opts);
    let base_config = FicsumConfig::default();
    let (base_acc, base_rt) = run(base_config, &opts, &mut reporter);
    println!(
        "base (w=75, ratio=0.25, P_C=3, P_S=25): accuracy={base_acc:.3} runtime={base_rt:.1}s\n"
    );

    let mut table = Table::new(&["Parameter", "Value", "Accuracy (prop of base)", "Runtime (prop)"]);
    let sweeps: Vec<(&str, Vec<FicsumConfig>)> = vec![
        (
            "window w",
            [25usize, 50, 100, 150]
                .iter()
                .map(|&w| base_config.with_window_size(w))
                .collect(),
        ),
        (
            "buffer ratio",
            [0.05f64, 0.15, 0.5, 1.0]
                .iter()
                .map(|&r| base_config.with_buffer_ratio(r))
                .collect(),
        ),
        (
            "P_C",
            [1usize, 6, 12, 24]
                .iter()
                .map(|&p| base_config.with_fingerprint_gap(p))
                .collect(),
        ),
        (
            "P_S",
            [5usize, 50, 100, 200]
                .iter()
                .map(|&p| base_config.with_repository_gap(p))
                .collect(),
        ),
    ];
    for (label, configs) in sweeps {
        for config in configs {
            let value = match label {
                "window w" => config.window_size.to_string(),
                "buffer ratio" => format!("{:.2}", config.buffer_ratio),
                "P_C" => config.fingerprint_gap.to_string(),
                _ => config.repository_gap.to_string(),
            };
            let (acc, rt) = run(config, &opts, &mut reporter);
            table.add_row(
                label,
                vec![value, format!("{:.3}", acc / base_acc), format!("{:.3}", rt / base_rt)],
            );
            eprintln!("[fig3] {label} point done");
        }
    }
    println!("Figure 3 — parameter sensitivity on Arabic\n");
    println!("{}", table.render());
    if let Some(rep) = reporter {
        rep.finish();
    }
}
