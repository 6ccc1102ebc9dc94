//! Domain scenario: a sensor network whose feature distribution shifts with
//! the season (unsupervised drift). The labelling function never changes —
//! what changes is *how the world looks* — so a purely supervised detector
//! is blind to it, while FiCSUM's unsupervised meta-features pick it up.
//!
//! ```sh
//! cargo run --release --example sensor_monitoring
//! ```

use ficsum::prelude::*;

fn main() {
    // One fixed "failure predictor" labelling function; four seasons that
    // only move the sensor distributions (mean shift + autocorrelation).
    let labeller = RandomTreeLabeller::with_pool(8, 4, 2, 4, 99);
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let seasons: Vec<Box<dyn ConceptGenerator>> = (0..4u64)
        .map(|season| {
            let channels: Vec<ChannelModulation> = (0..8)
                .map(|_| ChannelModulation {
                    shift: rng.random_range(-0.4..0.4),
                    ar_phi: rng.random_range(0.3..0.8),
                    ..ChannelModulation::identity()
                })
                .collect();
            let sampler = ModulatedSampler::new(UniformSampler::new(8, 10 + season), channels);
            Box::new(LabelledConcept::new(sampler, labeller.clone(), 0.05, 20 + season))
                as Box<dyn ConceptGenerator>
        })
        .collect();
    let mut stream = RecurringStreamBuilder::new(600, 3).with_recurrences(6).compose(seasons);

    // Compare a supervised-only system against the full fingerprint; every
    // run counts the drifts each system reported against the true season
    // changes.
    for variant in [Variant::ErrorRate, Variant::Full] {
        stream.reset();
        let mut system =
            FicsumSystem::with_config(8, 2, variant, FicsumConfig::default());
        let result = evaluate_with(&mut system, &mut stream, &RunOptions::new(2));
        println!(
            "{:<8} kappa={:.3} C-F1={:.3} models={}",
            result.system, result.kappa, result.c_f1, result.n_models
        );
        let d = &result.detection;
        println!(
            "         drifts={} detected={}/{} false_alarms={}",
            d.n_drifts, d.detected, d.n_truth_changes, d.false_alarms
        );
    }
    println!("\nThe full fingerprint tracks seasonal concepts that error-rate");
    println!("monitoring cannot distinguish (the classifier is never wrong more");
    println!("often — the *inputs* changed, not the labels).");
}
