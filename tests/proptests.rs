//! Randomized property tests over the core data structures and invariants.
//!
//! Gated behind the off-by-default `property-tests` feature so the default
//! `cargo test -q` stays fast:
//!
//! ```sh
//! cargo test --features property-tests --test proptests
//! ```
//!
//! The suite is std-only and fully deterministic: every case is generated
//! from a seeded [`Xoshiro256pp`], so a failure reproduces exactly.
#![cfg(feature = "property-tests")]

use ficsum::core::{cosine, fingerprint_similarity, weighted_cosine, ConceptFingerprint};
use ficsum::drift::{Adwin, DriftDetector};
use ficsum::eval::KappaEvaluator;
use ficsum::meta::{
    autocorrelation, imf_entropies, kurtosis, lagged_mutual_information, mean,
    partial_autocorrelation, skewness, std_dev, turning_point_rate, EmdConfig,
    FingerprintExtractor,
};
use ficsum::stream::rng::{RandomSource, Xoshiro256pp};
use ficsum::stream::{EwStats, FrameWindows, LabeledObservation, MinMaxScaler, RunningStats};

/// Cases per property. Each case draws fresh random inputs.
const CASES: usize = 64;

/// Runs `body` over `CASES` deterministic random cases; the case index is
/// folded into the seed so every case is distinct but reproducible.
fn for_cases(name: &str, mut body: impl FnMut(&mut Xoshiro256pp)) {
    for case in 0..CASES {
        let mut rng = Xoshiro256pp::seed_from_u64(0xF1C5_0000 + case as u64);
        // The name keys the stream too, so properties don't share inputs.
        for b in name.bytes() {
            rng = Xoshiro256pp::seed_from_u64(rng.next_u64() ^ b as u64);
        }
        body(&mut rng);
    }
}

/// A random vector of finite values in `[-1e6, 1e6)`, length in `[1, max_len)`.
fn finite_vec(rng: &mut Xoshiro256pp, max_len: usize) -> Vec<f64> {
    let len = rng.random_range(1..max_len);
    (0..len).map(|_| rng.random_range(-1e6..1e6)).collect()
}

/// A random vector of values in `[lo, hi)` with length in `[min_len, max_len)`.
fn vec_in(rng: &mut Xoshiro256pp, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = rng.random_range(min_len..max_len);
    (0..len).map(|_| rng.random_range(lo..hi)).collect()
}

#[test]
fn running_stats_match_batch() {
    for_cases("running_stats_match_batch", |rng| {
        let values = finite_vec(rng, 200);
        let mut s = RunningStats::new();
        for &v in &values {
            s.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((s.variance() - var).abs() <= 1e-4 * (1.0 + var));
        assert_eq!(s.count() as usize, values.len());
    });
}

#[test]
fn running_stats_merge_is_order_independent() {
    for_cases("running_stats_merge_is_order_independent", |rng| {
        let a = finite_vec(rng, 100);
        let b = finite_vec(rng, 100);
        let fill = |vals: &[f64]| {
            let mut s = RunningStats::new();
            vals.iter().for_each(|&v| s.push(v));
            s
        };
        let mut ab = fill(&a);
        ab.merge(&fill(&b));
        let mut ba = fill(&b);
        ba.merge(&fill(&a));
        assert!((ab.mean() - ba.mean()).abs() <= 1e-6 * (1.0 + ab.mean().abs()));
        assert!((ab.variance() - ba.variance()).abs() <= 1e-4 * (1.0 + ab.variance()));
    });
}

#[test]
fn windowed_moments_match_batch_over_windows() {
    use ficsum::stream::Moments;
    for_cases("windowed_moments_match_batch_over_windows", |rng| {
        let values = finite_vec(rng, 300);
        let w = rng.random_range(2..40usize);
        let mut m = Moments::new();
        for i in 0..values.len() {
            m.push(values[i]);
            if i >= w {
                m.remove(values[i - w]);
            }
            let lo = i.saturating_sub(w - 1);
            let slice = &values[lo..=i];
            let n = slice.len() as f64;
            let mu = slice.iter().sum::<f64>() / n;
            assert!((m.mean() - mu).abs() <= 1e-6 * (1.0 + mu.abs()));
            assert!((m.skewness() - skewness(slice)).abs() <= 1e-6);
            assert!((m.kurtosis() - kurtosis(slice)).abs() <= 1e-5);
        }
    });
}

#[test]
fn minmax_scaler_stays_in_unit_interval() {
    for_cases("minmax_scaler_stays_in_unit_interval", |rng| {
        let values = finite_vec(rng, 100);
        let probe = rng.random_range(-1e6..1e6);
        let mut m = MinMaxScaler::new();
        values.iter().for_each(|&v| m.observe(v));
        let s = m.scale(probe);
        assert!((0.0..=1.0).contains(&s));
    });
}

#[test]
fn ew_stats_mean_is_bounded_by_observed_range() {
    for_cases("ew_stats_mean_is_bounded_by_observed_range", |rng| {
        let values = finite_vec(rng, 100);
        let mut s = EwStats::new(0.1);
        values.iter().for_each(|&v| s.push(v));
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(s.mean() >= lo - 1e-9 && s.mean() <= hi + 1e-9);
        assert!(s.variance() >= 0.0);
    });
}

#[test]
fn cosine_is_bounded_and_symmetric() {
    for_cases("cosine_is_bounded_and_symmetric", |rng| {
        let a = finite_vec(rng, 32);
        let b = finite_vec(rng, 32);
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let s = cosine(a, b);
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
        assert!((s - cosine(b, a)).abs() < 1e-12);
    });
}

#[test]
fn weighted_cosine_self_similarity_is_one() {
    for_cases("weighted_cosine_self_similarity_is_one", |rng| {
        let a = vec_in(rng, 0.01, 1e3, 2, 32);
        let w: Vec<f64> = (0..a.len()).map(|_| rng.random_range(0.01..10.0)).collect();
        let s = weighted_cosine(&a, &a, &w);
        assert!((s - 1.0).abs() < 1e-9, "self-sim {s}");
    });
}

#[test]
fn fingerprint_similarity_bounded_for_normalised_inputs() {
    for_cases("fingerprint_similarity_bounded_for_normalised_inputs", |rng| {
        let a = vec_in(rng, 0.0, 1.0, 1, 32);
        let n = a.len();
        let b: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        let w: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..5.0)).collect();
        let s = fingerprint_similarity(&a, &b, &w);
        assert!((0.0..=1.0).contains(&s), "sim {s}");
    });
}

#[test]
fn moment_functions_are_finite() {
    for_cases("moment_functions_are_finite", |rng| {
        let values = finite_vec(rng, 150);
        for f in [mean, std_dev, skewness, kurtosis, turning_point_rate] {
            assert!(f(&values).is_finite());
        }
        assert!(autocorrelation(&values, 1).is_finite());
        assert!(autocorrelation(&values, 2).is_finite());
        assert!(partial_autocorrelation(&values, 2).is_finite());
    });
}

#[test]
fn autocorrelation_is_bounded() {
    for_cases("autocorrelation_is_bounded", |rng| {
        let values = finite_vec(rng, 150);
        for lag in [1usize, 2] {
            let r = autocorrelation(&values, lag);
            assert!((-1.000001..=1.000001).contains(&r), "acf{lag}={r}");
        }
    });
}

#[test]
fn mutual_information_is_nonnegative() {
    for_cases("mutual_information_is_nonnegative", |rng| {
        let values = finite_vec(rng, 120);
        assert!(lagged_mutual_information(&values, 1, 8) >= 0.0);
    });
}

#[test]
fn emd_never_panics_and_entropy_is_finite() {
    for_cases("emd_never_panics_and_entropy_is_finite", |rng| {
        let values = finite_vec(rng, 120);
        let (h1, h2) = imf_entropies(&values, &EmdConfig::default());
        assert!(h1.is_finite() && h2.is_finite());
        assert!(h1 >= 0.0 && h2 >= 0.0);
    });
}

#[test]
fn extractor_output_is_finite_for_any_window() {
    for_cases("extractor_output_is_finite_for_any_window", |rng| {
        let rows = rng.random_range(5..60usize);
        let ex = FingerprintExtractor::full(3);
        let window: Vec<LabeledObservation> = (0..rows)
            .map(|_| {
                let x: Vec<f64> = (0..3).map(|_| rng.random_range(-100.0..100.0)).collect();
                LabeledObservation::new(x, rng.random_range(0..3usize), rng.random_range(0..3usize))
            })
            .collect();
        let fp = ex.extract(&window, None);
        assert_eq!(fp.len(), ex.schema().len());
        assert!(fp.iter().all(|v| v.is_finite()));
    });
}

#[test]
fn adwin_handles_arbitrary_bounded_input() {
    for_cases("adwin_handles_arbitrary_bounded_input", |rng| {
        let values = vec_in(rng, 0.0, 1.0, 1, 500);
        let mut adwin = Adwin::new(0.01);
        for &v in &values {
            adwin.add(v);
        }
        assert!(adwin.width() <= values.len() as u64);
        assert!(adwin.mean().is_finite());
        assert!(adwin.variance() >= -1e-9);
    });
}

#[test]
fn kappa_is_bounded() {
    for_cases("kappa_is_bounded", |rng| {
        let pairs = rng.random_range(1..300usize);
        let mut k = KappaEvaluator::new(3);
        for _ in 0..pairs {
            k.record(rng.random_range(0..3usize), rng.random_range(0..3usize));
        }
        let kappa = k.kappa();
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&kappa), "kappa {kappa}");
    });
}

#[test]
fn frame_windows_never_exceed_capacity() {
    for_cases("frame_windows_never_exceed_capacity", |rng| {
        let cap = rng.random_range(1..20usize);
        let delay = rng.random_range(0..10usize);
        let n = rng.random_range(0..100usize);
        let mut w = FrameWindows::new(cap, delay, 1);
        for i in 0..n {
            w.push(&[i as f64], 0, 0);
            assert!(w.a_len() <= cap);
            assert!(w.stale_len() <= cap);
            assert!(w.holding_len() <= delay);
        }
        assert_eq!(w.a_len(), n.min(cap));
        assert_eq!(w.stale_len(), n.saturating_sub(delay).min(cap));
    });
}

#[test]
fn template_sessions_replay_bit_identical_to_fresh_builds() {
    use ficsum::core::{FicsumConfig, SessionTemplate, Variant};
    // One validated template must stamp pipelines indistinguishable from a
    // freshly built one under any bounded input stream: the serving layer's
    // determinism contract reduced to its core. Fewer cases than the
    // numeric properties — each case drives two full pipelines 1k steps.
    for case in 0..8u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(0x7E3A_1000 + case);
        let config = FicsumConfig::default()
            .with_window_size(rng.random_range(30..80usize))
            .with_fingerprint_gap(rng.random_range(3..10usize))
            .with_repository_gap(rng.random_range(40..90usize));
        let template = SessionTemplate::new(3, 2, config, Variant::Full)
            .expect("sampled configs are within validated ranges");
        let mut from_template = template.instantiate();
        let mut fresh = ficsum::core::FicsumBuilder::new(3, 2)
            .config(config)
            .build()
            .expect("template accepted this config");
        for step in 0..1_000usize {
            let x: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = rng.random_range(0..2usize);
            let a = from_template.process(&x, y);
            let b = fresh.process(&x, y);
            assert_eq!(a, b, "case {case} diverged at step {step}");
        }
        assert_eq!(from_template.stats(), fresh.stats(), "case {case} stats diverged");
    }
}

#[test]
fn checkpoint_restore_replays_bit_identical_for_a_thousand_steps() {
    use ficsum::core::{FicsumConfig, SessionTemplate, Variant};
    use ficsum::meta::ExtractionMode;
    // Fault-tolerant serving's restore contract: a pipeline checkpointed at
    // an arbitrary point and rehydrated through its template must be
    // indistinguishable from the uninterrupted original — same outcomes,
    // same drift-check similarity bits, same stats — over a long shared
    // tail. Random configs and random checkpoint positions probe the
    // capture across warm-up, drift, and recurrence phases. Every EMD
    // stride is covered: above 1 the per-source re-sift cadence is session
    // state, and a restore that restarted it would shift which checks
    // re-sift. That shows in the similarity bits long before it flips an
    // outcome. `None` is the template's default stride.
    let default_stride = ExtractionMode::default().emd_stride;
    let mut strides = vec![Some(1), Some(2), Some(4)];
    if ![1, 2, 4].contains(&default_stride) {
        strides.push(None);
    }
    for stride in strides {
        for case in 0..8u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(0xC4EC_2000 + case);
            let config = FicsumConfig::default()
                .with_window_size(rng.random_range(30..80usize))
                .with_fingerprint_gap(rng.random_range(3..10usize))
                .with_repository_gap(rng.random_range(40..90usize));
            let template = SessionTemplate::new(3, 2, config, Variant::Full)
                .expect("sampled configs are within validated ranges");
            let template = match stride {
                Some(s) => template.with_emd_stride(s),
                None => template,
            };
            let stride = stride.unwrap_or(default_stride);
            let mut original = template.instantiate();
            let cut = rng.random_range(50..700usize);
            for _ in 0..cut {
                let x: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
                let y = rng.random_range(0..2usize);
                original.process(&x, y);
            }
            let checkpoint = original.checkpoint();
            assert_eq!(checkpoint.steps(), cut as u64);
            let mut restored = template
                .restore(&checkpoint)
                .expect("a checkpoint from this template always restores");
            for step in 0..1_000usize {
                let x: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
                let y = rng.random_range(0..2usize);
                let a = original.process(&x, y);
                let b = restored.process(&x, y);
                assert_eq!(a, b, "stride {stride} case {case} (cut {cut}) diverged at step {step}");
                assert_eq!(
                    original.last_similarity().map(f64::to_bits),
                    restored.last_similarity().map(f64::to_bits),
                    "stride {stride} case {case} (cut {cut}): similarity diverged at step {step}"
                );
            }
            let (a, b) = (original.stats(), restored.stats());
            assert_eq!(a, b, "stride {stride} case {case} stats diverged");
        }
    }
}

#[test]
fn concept_fingerprint_mean_is_bounded_by_inputs() {
    for_cases("concept_fingerprint_mean_is_bounded_by_inputs", |rng| {
        let rows = rng.random_range(1..50usize);
        let mut cf = ConceptFingerprint::new(4);
        for _ in 0..rows {
            let row: Vec<f64> = (0..4).map(|_| rng.random_range(0.0..1.0)).collect();
            cf.incorporate(&row);
        }
        for dim in 0..4 {
            let m = cf.mean(dim);
            assert!((0.0..=1.0).contains(&m));
            assert!(cf.std_dev(dim) <= 0.5 + 1e-9);
        }
    });
}

#[test]
fn incremental_stats_match_batch_through_evictions_and_resets() {
    use ficsum::classifiers::{Classifier, HoeffdingTree};
    use ficsum::meta::{ExtractionMode, FingerprintEngine, MetaFunction};
    use ficsum::stream::TrackedFrames;
    // The incremental-statistics tolerance contract (DESIGN.md "Incremental
    // statistics") over long randomized streams: every substituted
    // statistic must track the stateless extractor on the relabelled
    // window within 1e-9 relative across window fill, steady-state
    // evictions and buffer resets, and the discrete dimensions (lagged MI,
    // turning-point rate) plus the cached IMF entropies must stay
    // bit-exact at stride 1. Both windows are probed, re-predicted through
    // one fixed trained tree.
    for case in 0..6u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(0x14C2_3000 + case);
        let d = rng.random_range(2..5usize);
        let w = rng.random_range(20..60usize);
        let delay = rng.random_range(0..15usize);
        let ex = FingerprintExtractor::full(d);
        let mut tree = HoeffdingTree::new(d, 3);
        for _ in 0..2_000 {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-50.0..50.0)).collect();
            let y = if x[0] > 10.0 { 2 } else { (x[1] > 0.0) as usize };
            tree.train(&x, y);
        }
        let mode = ExtractionMode { incremental: true, emd_stride: 1 };
        let mut fast = FingerprintEngine::new(ex.clone()).with_mode(mode);
        let mut fw = FrameWindows::new(w, delay, d);
        fw.enable_stats(ex.mi_bins());
        let nf = MetaFunction::SEQUENCE_FUNCTIONS.len();
        let mut out_fast = Vec::new();
        let mut compared = 0usize;
        for step in 0..1_000usize {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-50.0..50.0)).collect();
            fw.push(&x, rng.random_range(0..3usize), rng.random_range(0..3usize));
            if rng.random_range(0..150usize) == 0 {
                // The drift path's stale-window restart.
                fw.clear_buffer();
            }
            if step % 13 != 0 {
                continue;
            }
            let mut check = |tracked: TrackedFrames<'_>, which: &str| {
                fast.extract_tracked_frames_repredicted_into(&tracked, &tree, &mut out_fast);
                let relabelled: Vec<LabeledObservation> = (0..tracked.len())
                    .map(|i| {
                        let x = tracked.features(i).to_vec();
                        let p = tree.predict(&x);
                        LabeledObservation::new(x, tracked.label(i), p)
                    })
                    .collect();
                let want = ex.extract(&relabelled, Some(&tree));
                assert_eq!(out_fast.len(), want.len());
                for (i, (t, b)) in out_fast.iter().zip(&want).enumerate() {
                    assert!(
                        (t - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "case {case} step {step} {which} dim {i}: batch {b} vs incremental {t}"
                    );
                }
                for s in 0..(d + 4) {
                    for f in [8usize, 9, 10, 11] {
                        assert_eq!(
                            out_fast[s * nf + f].to_bits(),
                            want[s * nf + f].to_bits(),
                            "case {case} step {step} {which} source {s} fn {f}"
                        );
                    }
                }
            };
            if fw.a_len() >= 4 {
                check(fw.a_tracked(), "active");
                compared += 1;
            }
            if fw.stale_len() >= 4 {
                check(fw.stale_tracked(), "stale");
            }
        }
        assert!(compared > 50, "case {case} barely extracted ({compared})");
    }
}

#[test]
fn incremental_stats_checkpoint_restore_replays_bit_identical() {
    use ficsum::core::{FicsumConfig, SessionTemplate, Variant};
    // The restore contract must survive the incremental-statistics mode:
    // the checkpoint carries the frame windows' stat banks verbatim and
    // `enable_stats` keeps them untouched on rehydration, so a restored
    // session replays bit-identically to the uninterrupted original. Runs
    // at the default EMD stride, whose re-sift cadence the checkpoint
    // carries too.
    for case in 0..8u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(0xE5D0_4000 + case);
        let config = FicsumConfig::default()
            .with_window_size(rng.random_range(30..80usize))
            .with_fingerprint_gap(rng.random_range(3..10usize))
            .with_repository_gap(rng.random_range(40..90usize));
        let template = SessionTemplate::new(3, 2, config, Variant::Full)
            .expect("sampled configs are within validated ranges")
            .with_incremental_stats(true);
        let mut original = template.instantiate();
        let cut = rng.random_range(50..700usize);
        for _ in 0..cut {
            let x: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = rng.random_range(0..2usize);
            original.process(&x, y);
        }
        let checkpoint = original.checkpoint();
        let mut restored = template
            .restore(&checkpoint)
            .expect("a checkpoint from this template always restores");
        for step in 0..1_000usize {
            let x: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = rng.random_range(0..2usize);
            let a = original.process(&x, y);
            let b = restored.process(&x, y);
            assert_eq!(a, b, "case {case} (cut {cut}) diverged at step {step}");
        }
        assert_eq!(original.stats(), restored.stats(), "case {case} stats diverged");
    }
}
