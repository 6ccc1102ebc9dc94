//! Cross-crate integration tests: the full FiCSUM pipeline driven over
//! composed recurring-concept streams, the baseline frameworks under the
//! shared evaluation runner, and end-to-end metric sanity.

use ficsum::prelude::*;

fn run_system(mut system: impl EvaluatedSystem, name: &str, cap: usize) -> RunResult {
    let stream = dataset_by_name(name, 11).expect("dataset exists");
    let n_classes = stream.n_classes();
    let data: Vec<_> = stream.observations().iter().take(cap).cloned().collect();
    let mut stream = ficsum::stream::VecStream::with_classes(data, n_classes);
    evaluate_with(&mut system, &mut stream, &RunOptions::new(n_classes))
}

#[test]
fn ficsum_full_pipeline_on_stagger() {
    let r = run_system(FicsumSystem::new(3, 2, Variant::Full), "STAGGER", 10_000);
    assert!(r.kappa > 0.25, "kappa {}", r.kappa);
    assert!(r.c_f1 > 0.2, "c_f1 {}", r.c_f1);
    assert_eq!(r.n_observations, 10_000);
    assert!(r.n_models >= 2, "recurring STAGGER must yield multiple models");
}

#[test]
fn all_variants_complete_on_rbf() {
    for variant in [Variant::ErrorRate, Variant::Supervised, Variant::Unsupervised, Variant::Full]
    {
        let r = run_system(FicsumSystem::new(10, 3, variant), "RBF", 6_000);
        assert_eq!(r.n_observations, 6_000, "{variant:?}");
        assert!(r.kappa > -0.2, "{variant:?} kappa {}", r.kappa);
        assert!((0.0..=1.0).contains(&r.c_f1), "{variant:?} c_f1 {}", r.c_f1);
    }
}

#[test]
fn baseline_frameworks_complete_on_rtree() {
    let r = run_system(Htcd::new(10, 2), "RTREE", 6_000);
    assert!(r.kappa > 0.0, "HTCD kappa {}", r.kappa);
    let r = run_system(Rcd::new(10, 2), "RTREE", 6_000);
    assert!(r.kappa > -0.2, "RCD kappa {}", r.kappa);
    let r = run_system(EnsembleSystem::arf(10, 2), "RTREE", 6_000);
    assert!(r.kappa > 0.2, "ARF kappa {}", r.kappa);
    let r = run_system(EnsembleSystem::dwm(10, 2), "RTREE", 6_000);
    assert!(r.kappa > 0.0, "DWM kappa {}", r.kappa);
}

#[test]
fn ensembles_report_single_model_identity() {
    let r = run_system(EnsembleSystem::arf(3, 2), "STAGGER", 3_000);
    assert_eq!(r.n_models, 1, "ARF has one evolving model");
}

#[test]
fn every_dataset_runs_through_full_ficsum_briefly() {
    for spec in ALL_DATASETS {
        let mut stream = dataset_by_name(spec.name, 3).unwrap();
        let mut system = FicsumBuilder::new(stream.dims(), stream.n_classes()).build().unwrap();
        for _ in 0..1500 {
            let Some(o) = stream.next_observation() else { break };
            let out = system.process(&o.features, o.label);
            assert!(out.prediction < stream.n_classes().max(2), "{}", spec.name);
        }
    }
}

#[test]
fn drift_points_are_monotonic_and_counted() {
    let keep = shared(InMemoryRecorder::new());
    let mut stream = dataset_by_name("STAGGER", 5).unwrap();
    let mut system = FicsumBuilder::new(3, 2).recorder(Box::new(keep.clone())).build().unwrap();
    for _ in 0..12_000 {
        let Some(o) = stream.next_observation() else { break };
        system.process(&o.features, o.label);
    }
    let points = keep.borrow().drift_points();
    assert_eq!(points.len() as u64, system.stats().n_drifts);
    assert!(points.windows(2).all(|w| w[0] < w[1]), "drift points sorted");
}

#[test]
fn runner_detection_matches_the_recorded_drift_events() {
    // The runner counts drifts from `StepOutcome::drift`; the oracle is the
    // `DriftDetected` events of a recorder built into an identical pipeline.
    let mut drifts = 0;
    for name in ["STAGGER", "RTREE-U"] {
        for seed in [1, 2] {
            let full = dataset_by_name(name, seed).unwrap();
            let (d, k) = (full.dims(), full.n_classes());
            let data: Vec<_> = full.observations().iter().take(4_000).cloned().collect();
            let stream = VecStream::with_classes(data, k);
            // The runner's 1-based step of each observation whose concept
            // differs from the one before.
            let truth_changes: Vec<u64> = (1..stream.len())
                .filter(|&i| {
                    stream.observations()[i].concept != stream.observations()[i - 1].concept
                })
                .map(|i| i as u64 + 1)
                .collect();
            for stride in [1, 2] {
                let opts = RunOptions::new(k).seed(seed);
                let builder = || FicsumBuilder::new(d, k).emd_stride(stride);
                let mut plain = FicsumSystem::from_instance(builder().build().unwrap(), "FiCSUM");
                let run = evaluate_with(&mut plain, &mut stream.clone(), &opts);
                let keep = shared(InMemoryRecorder::new());
                let recorded = builder().recorder(Box::new(keep.clone())).build().unwrap();
                let mut recorded = FicsumSystem::from_instance(recorded, "FiCSUM");
                let recorded_run = evaluate_with(&mut recorded, &mut stream.clone(), &opts);
                let want = Detection::from_drifts(
                    &keep.borrow().drift_points(),
                    &truth_changes,
                    opts.grace,
                    opts.detection_window,
                );
                let at = format!("{name} seed {seed} stride {stride}");
                assert_eq!(run.detection, want, "{at}");
                assert_eq!(recorded_run.detection, want, "{at}");
                drifts += want.n_drifts;
            }
        }
    }
    assert!(drifts > 0, "the prefixes must contain drifts");
}

#[test]
fn repository_respects_capacity_bound() {
    let config = FicsumConfig::default().with_max_repository(3);
    let mut stream = dataset_by_name("STAGGER", 9).unwrap();
    let mut system = FicsumBuilder::new(3, 2).config(config).build().unwrap();
    for _ in 0..15_000 {
        let Some(o) = stream.next_observation() else { break };
        system.process(&o.features, o.label);
    }
    assert!(system.repository().len() <= 3, "repo {}", system.repository().len());
}

#[test]
fn similarity_trace_records_bounded_values() {
    let keep = shared(InMemoryRecorder::new());
    let mut stream = dataset_by_name("RBF", 2).unwrap();
    let mut system = FicsumBuilder::new(10, 3).recorder(Box::new(keep.clone())).build().unwrap();
    for _ in 0..4_000 {
        let Some(o) = stream.next_observation() else { break };
        system.process(&o.features, o.label);
    }
    let trace = keep.borrow().similarity_trace();
    assert!(!trace.is_empty());
    assert!(trace.iter().all(|(_, s)| (-1.0..=1.0).contains(s)));
}

#[test]
fn served_sessions_match_prelude_types() {
    // The serve subsystem is reachable entirely through the prelude.
    let template = SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::Full).unwrap();
    let server = StreamServer::new(template, ServeConfig::default().with_shards(2));
    let mut stream = dataset_by_name("STAGGER", 4).unwrap();
    let mut batch = Vec::new();
    for i in 0..64u64 {
        let o = stream.next_observation().unwrap();
        batch.push(Submit::new(SessionId(i % 8), o.features.clone(), o.label));
    }
    let outcomes = server.try_submit(&batch).expect("empty server accepts").wait();
    assert_eq!(outcomes.len(), 64);
    let report: ServeReport = server.shutdown();
    assert_eq!(report.snapshots.len(), 8);
}
