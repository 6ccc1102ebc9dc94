//! Invariants of the observability layer: the recorder is the single
//! source of truth for traces (the legacy accessors are gone), so these
//! tests pin that the recorded signals are internally consistent, agree
//! with the pipeline's own `FicsumStats`, and are bit-reproducible
//! run-to-run.

use ficsum::prelude::*;

/// A recurring-concept STAGGER run with a shared in-memory recorder
/// attached.
fn recorded_run(n: usize) -> (Ficsum, SharedRecorder<InMemoryRecorder>) {
    let keep = shared(InMemoryRecorder::new());
    let mut system = FicsumBuilder::new(3, 2)
        .recorder(Box::new(keep.clone()))
        .build()
        .unwrap();
    let mut stream = ficsum::synth::dataset_by_name("STAGGER", 5).unwrap();
    for _ in 0..n {
        let Some(o) = stream.next_observation() else { break };
        system.process(&o.features, o.label);
    }
    (system, keep)
}

#[test]
fn drift_points_agree_with_framework_stats() {
    let (system, keep) = recorded_run(12_000);
    let rec = keep.borrow();
    let drifts = rec.drift_points();
    assert!(!drifts.is_empty(), "run must produce drifts");
    assert_eq!(drifts.len() as u64, system.stats().n_drifts);
    assert_eq!(rec.event_count("drift_detected") as u64, system.stats().n_drifts);
    assert!(drifts.windows(2).all(|w| w[0] < w[1]), "drift points strictly increase");
}

#[test]
fn similarity_trace_is_ordered_and_bounded() {
    let (_system, keep) = recorded_run(12_000);
    let rec = keep.borrow();
    let trace = rec.similarity_trace();
    assert!(!trace.is_empty(), "similarity must be observed");
    assert!(trace.windows(2).all(|w| w[0].0 < w[1].0), "timestamps strictly increase");
    assert!(
        trace.iter().all(|&(_, s)| (-1.0001..=1.0001).contains(&s)),
        "weighted cosine stays in [-1, 1]"
    );
}

#[test]
fn similarity_gauges_are_self_consistent() {
    // Each absorption carries the baseline `(mu_c, sigma_c)` it produced,
    // so a trace can recompute the drift check's z-scores. A switch
    // rebuilds the baseline from scratch: the first absorption after it is
    // the baseline's only value.
    let (_system, keep) = recorded_run(12_000);
    let rec = keep.borrow();
    let mut fresh_baseline = true;
    let (mut absorbed, mut first_after_switch) = (0, 0);
    for (t, event) in rec.events() {
        match *event {
            StreamEvent::ConceptSwitch { .. } => fresh_baseline = true,
            StreamEvent::BaselineAbsorbed { value, mean, std_dev } => {
                absorbed += 1;
                assert!(std_dev >= 0.0, "t={t}: std_dev {std_dev}");
                assert!((-1.0001..=1.0001).contains(&mean), "t={t}: mean {mean}");
                if fresh_baseline {
                    first_after_switch += 1;
                    assert_eq!(mean, value, "t={t}: first absorption sets the mean");
                    assert_eq!(std_dev, 0.0, "t={t}: one value has no spread");
                    fresh_baseline = false;
                }
            }
            _ => {}
        }
    }
    assert!(first_after_switch > 1, "baselines rebuilt after switches: {first_after_switch}");
    assert!(absorbed > first_after_switch, "baselines grow past their first value");
}

#[test]
fn recorded_signals_are_bit_reproducible() {
    let (_sys_a, keep_a) = recorded_run(12_000);
    let (_sys_b, keep_b) = recorded_run(12_000);
    let (a, b) = (keep_a.borrow(), keep_b.borrow());
    assert_eq!(a.events().len(), b.events().len());
    assert_eq!(a.drift_points(), b.drift_points());
    assert_eq!(a.similarity_trace(), b.similarity_trace());
    assert_eq!(a.concept_switches(), b.concept_switches());
}

#[test]
fn drift_and_switch_events_interleave_in_causal_order() {
    let (_system, keep) = recorded_run(12_000);
    let rec = keep.borrow();
    let drifts = rec.drift_points();
    let switches = rec.concept_switches();
    assert!(!switches.is_empty(), "recurring stream must switch concepts");
    // Every recorded switch happens at the timestamp of some drift or
    // recheck; switch timestamps are non-decreasing and each model
    // selection follows the drift that triggered it within the step.
    assert!(switches.windows(2).all(|w| w[0].0 <= w[1].0));
    for &(t, _, _) in &switches {
        assert!(
            drifts.contains(&t) || switches.iter().filter(|s| s.0 == t).count() == 1,
            "switch at {t} should coincide with a drift or be a recheck"
        );
    }
}

#[test]
fn counters_reconcile_with_event_stream() {
    let (system, keep) = recorded_run(12_000);
    let rec = keep.borrow();
    let stats = system.stats();
    assert_eq!(
        rec.event_count("concept_switch") as u64,
        stats.n_reuses + stats.n_new_concepts + stats.n_recheck_switches,
        "every switch is classified exactly once"
    );
    assert_eq!(rec.event_count("plasticity_reset") as u64, stats.n_plasticity_resets);
}

#[test]
fn steady_path_books_no_repository_work() {
    use ficsum::stream::rng::{RandomSource, Xoshiro256pp};
    // One fixed labelling function, and a run short enough that the
    // settling tree raises no false alarm: the run stays on its first
    // concept, so the repository stays empty and no post-drift work ever
    // happens. The dynamic weights are still recomputed on the fingerprint
    // cadence. The premise holds on the exact path (EMD stride 1); at the
    // default stride this seed's trajectory fires a drift.
    let keep = shared(InMemoryRecorder::new());
    let mut system = FicsumBuilder::new(3, 2)
        .recorder(Box::new(keep.clone()))
        .emd_stride(1)
        .build()
        .unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    for _ in 0..400 {
        let x: Vec<f64> = (0..3).map(|_| rng.random::<f64>()).collect();
        let y = (x[0] > 0.5) as usize;
        system.process(&x, y);
    }
    assert_eq!(system.stats().n_drifts, 0, "premise: drift-free run");
    assert!(system.repository().is_empty(), "premise: empty repository");
    let rec = keep.borrow();
    assert!(rec.event_count("weights_recomputed") > 0, "premise: weights were recomputed");
    assert!(rec.stage_histogram(Stage::Similarity).is_some());
    assert!(
        rec.stage_histogram(Stage::RepositoryReassess).is_none(),
        "steady-path work booked to repository_reassess"
    );
}
