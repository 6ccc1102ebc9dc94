//! Concept tracking: compare how well different systems *identify* the
//! ground-truth concepts of a recurring stream (the paper's C-F1 measure),
//! independent of raw accuracy. An ensemble can classify well while being
//! unable to say "this is the Tuesday-rush concept again" — which is
//! exactly what Table VI shows.
//!
//! ```sh
//! cargo run --release --example concept_tracking
//! ```

use ficsum::prelude::*;

fn main() {
    let spec = ALL_DATASETS.iter().find(|s| s.name == "RTREE-U").unwrap();
    println!(
        "RTREE-U: {} concepts x 9 occurrences, drift purely in p(X)\n",
        spec.n_contexts
    );

    let systems: Vec<(&str, Box<dyn EvaluatedSystem>)> = vec![
        ("HTCD", Box::new(Htcd::new(spec.n_features, spec.n_classes))),
        ("ARF", Box::new(EnsembleSystem::arf(spec.n_features, spec.n_classes))),
        (
            "FiCSUM",
            Box::new(FicsumSystem::new(spec.n_features, spec.n_classes, Variant::Full)),
        ),
    ];

    println!(
        "{:<8} {:>7} {:>7} {:>8} {:>7} {:>9}",
        "system", "kappa", "C-F1", "models", "drifts", "delay"
    );
    for (name, mut system) in systems {
        let stream = dataset_by_name(spec.name, 7).unwrap();
        // Cap for example runtime.
        let data: Vec<_> = stream.observations().iter().take(12_000).cloned().collect();
        let mut stream = VecStream::with_classes(data, spec.n_classes);
        // Every run also counts the drifts the system reported and their
        // delay after each true change (ARF reports none).
        let r = evaluate_with(&mut system, &mut stream, &RunOptions::new(spec.n_classes));
        let delay = r.detection.mean_detection_delay.map_or("-".into(), |d| format!("{d:.0}"));
        println!(
            "{:<8} {:>7.3} {:>7.3} {:>8} {:>7} {:>9}",
            name, r.kappa, r.c_f1, r.n_models, r.detection.n_drifts, delay
        );
    }

    println!("\nARF may win kappa, but with a single evolving model its C-F1 is");
    println!("pinned at 2/(1+k): it cannot tell concepts apart. The fingerprint");
    println!("repository is what turns drift adaptation into concept *tracking*.");
}
