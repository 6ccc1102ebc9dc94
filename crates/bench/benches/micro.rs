//! Std-only micro-benchmarks for the hot paths of the FiCSUM pipeline:
//! meta-feature extraction (legacy extractor and the fingerprint engine,
//! EMD, the IMF histogram entropy, mutual information, the fused source
//! sweep), incremental stat-bank rebuilds and mutual information, the
//! ADWIN detector, Hoeffding-tree training/prediction and the weighted
//! similarity/weight computations.
//!
//! No external harness: timing comes from
//! [`ficsum_bench::throughput::time_throughput`], and randomness from the
//! repo's own [`Xoshiro256pp`]. Gated behind the off-by-default
//! `property-tests` feature so `cargo test`/`cargo bench` stay fast:
//!
//! ```text
//! cargo bench -p ficsum-bench --features property-tests
//! ```

use std::hint::black_box;

use ficsum_bench::throughput::{synthetic_window, time_throughput};
use ficsum_classifiers::{Classifier, HoeffdingTree, HoeffdingTreeConfig, LeafPrediction};
use ficsum_core::{
    weighted_cosine, ConceptFingerprint, DynamicWeights, FingerprintNormalizer, Repository,
};
use ficsum_drift::{Adwin, DriftDetector};
use ficsum_meta::emd::histogram_entropy;
use ficsum_meta::entropy::mutual_information_from_counts;
use ficsum_meta::spline::SplineScratch;
use ficsum_meta::{
    imf_entropies, imf_entropies_scratch, lagged_mutual_information, EmdConfig, EmdMemo,
    EmdScratch, ExtractionMode, FingerprintEngine, FingerprintExtractor, SourceSweep,
};
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
use ficsum_stream::{FrameWindows, SeqStats};

const SECS_PER_CASE: f64 = 0.4;

fn report(name: &str, f: impl FnMut()) {
    let t = time_throughput(SECS_PER_CASE, 1, f);
    let per = t.secs_per_iter();
    let (value, unit) = if per < 1e-6 {
        (per * 1e9, "ns")
    } else if per < 1e-3 {
        (per * 1e6, "us")
    } else {
        (per * 1e3, "ms")
    };
    println!("{name:<40} {value:>10.2} {unit}/iter  ({} iters)", t.iterations);
}

fn trained_tree(d: usize) -> HoeffdingTree {
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let mut tree = HoeffdingTree::new(d, 2);
    for _ in 0..2000 {
        let x: Vec<f64> = (0..d).map(|_| rng.random()).collect();
        let y = (x[0] > 0.5) as usize;
        tree.train(&x, y);
    }
    tree
}

/// Trains `tree` on a linear concept over all `d` features with label
/// noise: leaves stay impure, so naive Bayes beats the majority class.
fn train_noisy_linear(mut tree: HoeffdingTree, d: usize) -> HoeffdingTree {
    let mut rng = Xoshiro256pp::seed_from_u64(8);
    for _ in 0..2000 {
        let x: Vec<f64> = (0..d).map(|_| rng.random()).collect();
        let noisy = rng.random::<f64>() < 0.1;
        let y = (x.iter().sum::<f64>() > d as f64 / 2.0) as usize ^ noisy as usize;
        tree.train(&x, y);
    }
    tree
}

fn bench_extraction() {
    let w = synthetic_window(75, 10, 1);
    let tree = trained_tree(10);
    let full = FingerprintExtractor::full(10);
    report("fingerprint_extract_full_w75_d10", || {
        black_box(full.extract(black_box(&w), Some(&tree)));
    });
    let mut frames = FrameWindows::new(w.len(), 0, 10);
    for o in &w {
        frames.push(o.features(), o.label(), o.prediction);
    }
    let mut engine = FingerprintEngine::new(full.clone());
    let mut fp = Vec::new();
    report("fingerprint_engine_full_w75_d10", || {
        engine.extract_tracked_frames_repredicted_into(&frames.a_tracked(), &tree, &mut fp);
        black_box(&fp);
    });
    // A drift check: the stale window `B` (buffer b = 19) and then the
    // active window `A` through one classifier state, under one fresh
    // frame-memo key per check, so the 56 shared frames are predicted once.
    let rows = synthetic_window(75 + 19, 10, 1);
    let mut check_frames = FrameWindows::new(75, 19, 10);
    for o in &rows {
        check_frames.push(o.features(), o.label(), o.prediction);
    }
    let mut key = 0u64;
    report("engine_check_pair_w75_d10", || {
        key += 1;
        engine.extract_keyed_into(&check_frames.stale_tracked(), &tree, Some(key), &mut fp);
        black_box(&fp);
        engine.extract_keyed_into(&check_frames.a_tracked(), &tree, Some(key), &mut fp);
        black_box(&fp);
    });
    // Drift checks as a pipeline runs them: every iteration pushes `P_C`
    // = 3 fresh frames and extracts `B` (b = 19) and then `A` under one
    // key. At stride 2 with the check geometry set, `B`'s feature and
    // label sources read the IMF entropies `A`'s earlier checks recorded
    // instead of sifting them.
    let stream = synthetic_window(4096, 10, 2);
    for (name, emd_stride) in
        [("engine_check_pair_stride1_w75_d10", 1), ("engine_check_pair_stride2_w75_d10", 2)]
    {
        let mode = ExtractionMode { incremental: false, emd_stride };
        let mut engine = FingerprintEngine::new(full.clone()).with_mode(mode);
        engine.set_check_geometry(3, 19);
        let mut frames = FrameWindows::new(75, 19, 10);
        let mut rows = stream.iter().cycle();
        for o in rows.by_ref().take(75 + 19) {
            frames.push(o.features(), o.label(), o.prediction);
        }
        report(name, || {
            for o in rows.by_ref().take(3) {
                frames.push(o.features(), o.label(), o.prediction);
            }
            key += 1;
            engine.extract_keyed_into(&frames.stale_tracked(), &tree, Some(key), &mut fp);
            black_box(&fp);
            engine.extract_keyed_into(&frames.a_tracked(), &tree, Some(key), &mut fp);
            black_box(&fp);
        });
    }
    let er = FingerprintExtractor::error_rate_only(10);
    report("fingerprint_extract_er_w75_d10", || {
        black_box(er.extract(black_box(&w), None));
    });
}

fn bench_meta_functions() {
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let xs: Vec<f64> = (0..75).map(|_| rng.random()).collect();
    report("emd_imf_entropies_n75", || {
        black_box(imf_entropies(black_box(&xs), &EmdConfig::default()));
    });
    // The engine's allocation-free path, on a continuous (feature) window
    // and on a binary (error) window, whose plateaus change the extrema.
    let mut scratch = EmdScratch::new();
    report("emd_imf_entropies_scratch_n75", || {
        black_box(imf_entropies_scratch(black_box(&xs), &EmdConfig::default(), &mut scratch));
    });
    let binary: Vec<f64> = (0..75).map(|_| rng.random_range(0..2usize) as f64).collect();
    report("emd_imf_entropies_scratch_binary_n75", || {
        black_box(imf_entropies_scratch(black_box(&binary), &EmdConfig::default(), &mut scratch));
    });
    // A repeated sequence: content hash plus the full bitwise comparison
    // that confirms the hit, against the sifting it replaces.
    let mut memo = EmdMemo::new();
    memo.imf_entropies(&xs, &EmdConfig::default(), &mut scratch);
    report("emd_memo_hit_n75", || {
        black_box(memo.imf_entropies(black_box(&xs), &EmdConfig::default(), &mut scratch));
    });
    // The upper and lower envelope systems of one sifting pass, 15 knots
    // each (a 75-point window has ~13 interior extrema of each kind plus
    // the two anchors), solved in lockstep.
    let knots = |rng: &mut Xoshiro256pp| -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (0..15).map(|i| (i * 5 + rng.random_range(0..3usize)) as f64).collect();
        (xs, (0..15).map(|_| rng.random()).collect())
    };
    let (mut upper, mut lower) = (SplineScratch::new(), SplineScratch::new());
    let ((ux, uy), (lx, ly)) = (knots(&mut rng), knots(&mut rng));
    assert!(upper.load_knots(&ux, &uy) && lower.load_knots(&lx, &ly));
    report("spline_solve_pair_k15", || {
        SplineScratch::solve_pair(black_box(&mut upper), black_box(&mut lower));
    });
    // The entropy summary of one IMF: a 10-bin histogram into reused
    // counts, then the closed-form entropy of the counts.
    let mut counts = Vec::new();
    report("imf_histogram_entropy_n75", || {
        black_box(histogram_entropy(black_box(&xs), 10, &mut counts));
    });
    report("mutual_information_n75", || {
        black_box(lagged_mutual_information(black_box(&xs), 1, 8));
    });
    // Every non-EMD statistic of one source: moments, ACF/PACF, MI with
    // 8 bins and the turning-point rate.
    let mut sweep = SourceSweep::new();
    report("meta_source_sweep_n75", || {
        black_box(sweep.stats(black_box(&xs), 8));
    });
}

/// A full stat-bank rebuild of one 75-frame window column: the O(w) work
/// an incremental-mode push pays whenever a histogram edge moves. Binary
/// columns (labels, errors) hit an edge on almost every eviction.
fn bench_seqstats() {
    let mut rng = Xoshiro256pp::seed_from_u64(6);
    let continuous: Vec<f64> = (0..75).map(|_| rng.random()).collect();
    let binary: Vec<f64> = (0..75).map(|_| rng.random_range(0..2usize) as f64).collect();
    let mut stats = SeqStats::new(8);
    report("seqstats_rebuild_w75_binary", || {
        stats.rebuild(black_box(&binary));
        black_box(&stats);
    });
    report("seqstats_rebuild_w75_continuous", || {
        stats.rebuild(black_box(&continuous));
        black_box(&stats);
    });
    // The incremental path's lag-1 MI: the bank's 8x8 joint histogram of
    // a continuous window straight to the estimate.
    report("seqstats_mutual_information_w75", || {
        black_box(mutual_information_from_counts(black_box(stats.joint()), stats.bins()));
    });
}

fn bench_adwin() {
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let values: Vec<f64> = (0..10_000).map(|_| rng.random()).collect();
    report("adwin_10k_updates", || {
        let mut adwin = Adwin::new(0.002);
        for &v in &values {
            black_box(adwin.add(v));
        }
    });
}

fn bench_hoeffding() {
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let data: Vec<(Vec<f64>, usize)> = (0..5000)
        .map(|_| {
            let x: Vec<f64> = (0..10).map(|_| rng.random()).collect();
            let y = (x[0] > 0.5) as usize;
            (x, y)
        })
        .collect();
    report("hoeffding_train_5k_d10", || {
        let mut tree = HoeffdingTree::new(10, 2);
        for (x, y) in &data {
            tree.train(x, *y);
        }
        black_box(&tree);
    });
    let tree = train_noisy_linear(HoeffdingTree::new(10, 2), 10);
    let x: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
    // The default adaptive tree answers with naive Bayes only at leaves
    // where it has out-predicted the majority class (nb_correct >
    // mc_correct); an identically trained pure naive-Bayes tree must then
    // give the same probabilities.
    let nb_config =
        HoeffdingTreeConfig { leaf_prediction: LeafPrediction::NaiveBayes, ..Default::default() };
    assert_eq!(
        tree.predict_proba(&x),
        train_noisy_linear(HoeffdingTree::with_config(10, 2, nb_config), 10).predict_proba(&x),
        "hoeffding_predict_d10 must reach a leaf that answers with naive Bayes"
    );
    report("hoeffding_predict_d10", || {
        black_box(tree.predict(black_box(&x)));
    });
    report("hoeffding_contributions_d10", || {
        black_box(tree.feature_contributions(black_box(&x)));
    });
    // The engine's per-frame call: prediction and contributions in one walk.
    let (mut contrib, mut proba) = (Vec::new(), Vec::new());
    report("hoeffding_contributions_with_d10", || {
        black_box(tree.contributions_with(black_box(&x), &mut contrib, &mut proba));
    });
}

fn bench_similarity() {
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let a: Vec<f64> = (0..172).map(|_| rng.random()).collect();
    let bv: Vec<f64> = (0..172).map(|_| rng.random()).collect();
    let w: Vec<f64> = (0..172).map(|_| rng.random::<f64>() * 2.0).collect();
    report("weighted_cosine_d172", || {
        black_box(weighted_cosine(black_box(&a), black_box(&bv), black_box(&w)));
    });

    let mut active = ConceptFingerprint::new(172);
    let mut normalizer = FingerprintNormalizer::new(172);
    for _ in 0..50 {
        let v: Vec<f64> = (0..172).map(|_| rng.random()).collect();
        normalizer.observe(&v);
        active.incorporate(&v);
    }
    let repo = Repository::new(0);
    report("dynamic_weights_d172", || {
        black_box(DynamicWeights::compute(&active, &repo, &normalizer, 0.01));
    });
}

fn main() {
    println!("std-only micro-benchmarks ({SECS_PER_CASE:.1}s per case)");
    bench_extraction();
    bench_adwin();
    bench_meta_functions();
    bench_seqstats();
    bench_hoeffding();
    bench_similarity();
}
