//! Compose a custom meta-information configuration, fingerprint a window
//! with it, then run one of the paper's variants and inspect the fingerprint
//! schema and learned weights.
//!
//! ```sh
//! cargo run --release --example custom_meta_features
//! ```

use ficsum::prelude::*;

fn main() {
    // A compact fingerprint: moments + autocorrelation only, all sources.
    let extractor = FingerprintExtractor::new(
        3,
        vec![
            MetaFunction::Mean,
            MetaFunction::StdDev,
            MetaFunction::Acf1,
            MetaFunction::TurningPointRate,
        ],
        SourceSelection::all(),
        true, // + feature-importance channels
    );
    println!("custom fingerprint dimensions ({}):", extractor.schema().len());
    for dim in &extractor.schema().dims {
        print!("  {}", dim.name());
    }
    println!("\n");

    // The stateless extractor fingerprints any window of observations;
    // here each is recorded with an oracle's prediction (its own label).
    let mut stream = ficsum::synth::stagger_stream(3);
    let window: Vec<LabeledObservation> = (0..75)
        .filter_map(|_| stream.next_observation())
        .map(|obs| LabeledObservation::new(obs.features, obs.label, obs.label))
        .collect();
    let fingerprint = extractor.extract(&window, None);
    println!("custom fingerprint of the first 75 observations:");
    for (dim, value) in extractor.schema().dims.iter().zip(&fingerprint).take(8) {
        println!("  {:<28} {value:>8.4}", dim.name());
    }
    println!();

    // A pipeline fingerprints with one of the paper's variants; the
    // supervised-only variant (S-MI) keeps the label, prediction and error
    // sources.
    let mut system = FicsumBuilder::new(3, 2)
        .variant(Variant::Supervised)
        .build()
        .expect("valid configuration");
    for _ in 0..6000 {
        let Some(obs) = stream.next_observation() else { break };
        system.process(&obs.features, obs.label);
    }

    println!("S-MI stats after 6000 observations: {:?}", system.stats());
    let schema = system.engine().schema();
    let weights = &system.weights().values;
    let mut indexed: Vec<(usize, f64)> = weights.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nfive most influential meta-features right now:");
    for (i, w) in indexed.into_iter().take(5) {
        println!("  weight {w:>7.2}  {}", schema.dims[i].name());
    }
}
