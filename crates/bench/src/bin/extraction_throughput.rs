//! Fingerprint extraction throughput: the pre-engine framework path
//! (materialise the active window into an owned `Vec`, clone-and-relabel
//! every observation, then run [`FingerprintExtractor::extract`]) against the
//! reusable [`FingerprintEngine`] reading the [`FrameWindows`] active window
//! in place, on a 20-feature / 100-observation window.
//!
//! The two paths are timed in short interleaved rounds rather than one
//! long block each: clock-frequency drift and background scheduling noise
//! then hit both paths almost equally instead of biasing whichever path
//! happened to run during the quiet stretch.
//!
//! A third interleaved round times the engine with the observability
//! clock attached (per-source span timing on), so the cost of
//! instrumentation is measured against the disabled default in the same
//! noise environment. With no clock attached (the `NullRecorder`
//! default) the obs layer costs one branch per extraction.
//!
//! A fourth interleaved round compares steady-state *streaming* extraction
//! (push one frame, fingerprint the window) through the batch engine
//! against the incremental-statistics engine, which is the configuration
//! the CI perf gate regresses: `--out PATH` records the baseline,
//! `--check PATH` fails (exit 1) when either engine path drops more than
//! 20% below it, and `--assert-zero-alloc` (requires the `alloc-count`
//! feature) fails when the incremental steady state allocates at all.
//!
//! Usage: `extraction_throughput [--secs S] [--d D] [--window W] [--reps R]
//! [--jsonl PATH] [--out PATH] [--check PATH] [--assert-zero-alloc]`
//! (defaults: 0.25 s per round, 8 rounds per path, d = 20, w = 100).

use std::sync::Arc;

use ficsum_bench::alloc_count::alloc_sample;
use ficsum_bench::jsonl_out::JsonlReporter;
use ficsum_bench::throughput::{
    fixed, synthetic_window, time_throughput, write_baseline, Baseline, Flags, Throughput,
};
use ficsum_classifiers::{Classifier, HoeffdingTree};
use ficsum_meta::{ExtractionMode, FingerprintEngine, FingerprintExtractor};
use ficsum_obs::jsonl::{format_record, JsonValue};
use ficsum_obs::MonotonicClock;
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
use ficsum_stream::{FrameWindows, LabeledObservation};

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ficsum_bench::alloc_count::CountingAllocator =
    ficsum_bench::alloc_count::CountingAllocator;

fn interleaved(
    rounds: usize,
    secs: f64,
    units: u64,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Throughput, Throughput) {
    let mut acc_a = Throughput { iterations: 0, seconds: 0.0, units_per_iter: units };
    let mut acc_b = Throughput { iterations: 0, seconds: 0.0, units_per_iter: units };
    for _ in 0..rounds {
        let ra = time_throughput(secs, units, &mut a);
        let rb = time_throughput(secs, units, &mut b);
        acc_a.iterations += ra.iterations;
        acc_a.seconds += ra.seconds;
        acc_b.iterations += rb.iterations;
        acc_b.seconds += rb.seconds;
    }
    (acc_a, acc_b)
}

/// One line of the results table.
fn row(path: &str, t: &Throughput) {
    println!("{path:<28} {:>14.0} {:>14.3}", t.units_per_sec(), t.secs_per_iter() * 1e3);
}

fn main() {
    let flags = Flags::from_env(
        &["--secs", "--d", "--window", "--reps", "--jsonl", "--out", "--check"],
        &["--assert-zero-alloc"],
    );
    let secs = flags.get("--secs", 0.25f64);
    let d = flags.get("--d", 20usize);
    let w = flags.get("--window", 100usize);
    let reps = flags.get("--reps", 8usize);

    let mut fw = FrameWindows::new(w, 0, d);
    for obs in synthetic_window(w, d, 42) {
        fw.push(obs.features(), obs.label(), obs.prediction);
    }
    // The legacy path's first step: copy the active window out of the ring.
    let materialise = |fw: &FrameWindows| -> Vec<LabeledObservation> {
        let a = fw.a_tracked();
        (0..a.len())
            .map(|i| LabeledObservation::new(a.features(i).to_vec(), a.label(i), a.prediction(i)))
            .collect()
    };
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let mut tree = HoeffdingTree::new(d, 2);
    for _ in 0..2000 {
        let x: Vec<f64> = (0..d).map(|_| rng.random()).collect();
        tree.train(&x, (x[0] > 0.5) as usize);
    }

    let extractor = FingerprintExtractor::full(d);
    let mut engine = FingerprintEngine::new(extractor.clone());
    let mut timed_engine = FingerprintEngine::new(extractor.clone());
    timed_engine.set_clock(Some(Arc::new(MonotonicClock::new())));
    let (mut fp, mut fp_timed) = (Vec::new(), Vec::new());

    // Parity first: a benchmark comparing two paths is only meaningful if
    // they compute the same thing.
    let relabel = |win: &[LabeledObservation], clf: &HoeffdingTree| -> Vec<LabeledObservation> {
        win.iter()
            .map(|o| o.observation.clone().labeled(clf.predict(o.features())))
            .collect()
    };
    let legacy_fp = extractor.extract(&relabel(&materialise(&fw), &tree), Some(&tree));
    engine.extract_tracked_frames_repredicted_into(&fw.a_tracked(), &tree, &mut fp);
    assert_eq!(legacy_fp, fp, "engine must be bit-identical to the legacy path");

    println!(
        "extraction throughput: d = {d}, window = {w} observations, \
         {reps} interleaved rounds x {secs:.2}s per path"
    );
    println!("{:<28} {:>14} {:>14}", "path", "obs/sec", "ms/window");

    let (legacy, fast) = interleaved(
        reps,
        secs,
        w as u64,
        || {
            let relabeled = relabel(&materialise(&fw), &tree);
            std::hint::black_box(extractor.extract(&relabeled, Some(&tree)));
        },
        || {
            engine.extract_tracked_frames_repredicted_into(&fw.a_tracked(), &tree, &mut fp);
            std::hint::black_box(&fp);
        },
    );
    row("legacy (clone + relabel)", &legacy);
    row("engine (tracked window)", &fast);

    // Instrumentation cost: the same engine path with the obs clock
    // attached, interleaved against the disabled default so both see the
    // same scheduling noise. The disabled path is what every run without
    // a recorder (the `NullRecorder` default) pays.
    let (plain, timed) = interleaved(
        reps,
        secs,
        w as u64,
        || {
            engine.extract_tracked_frames_repredicted_into(&fw.a_tracked(), &tree, &mut fp);
            std::hint::black_box(&fp);
        },
        || {
            timed_engine.extract_tracked_frames_repredicted_into(&fw.a_tracked(), &tree, &mut fp_timed);
            std::hint::black_box(&fp_timed);
        },
    );
    row("engine (timing enabled)", &timed);

    let speedup = fast.units_per_sec() / legacy.units_per_sec();
    println!("speedup: {speedup:.2}x");
    let overhead_pct = 100.0 * (plain.units_per_sec() / timed.units_per_sec() - 1.0);
    println!(
        "obs timing overhead: {overhead_pct:.2}% (clock attached vs NullRecorder default)"
    );

    // Streaming steady state: each iteration pushes one frame into a ring
    // window and fingerprints it — the framework's per-extraction shape.
    // Batch engine vs incremental-statistics engine (the CI-gated mode,
    // EMD stride 4 as in the BENCH_stream incremental configuration).
    let tape: Vec<LabeledObservation> = synthetic_window(w * 4, d, 9)
        .into_iter()
        .map(|o| {
            let p = tree.predict(o.features());
            o.observation.labeled(p)
        })
        .collect();
    let mut batch_fw = FrameWindows::new(w, 0, d);
    let mut incr_fw = FrameWindows::new(w, 0, d);
    incr_fw.enable_stats(extractor.mi_bins());
    for o in tape.iter().take(w) {
        batch_fw.push(o.features(), o.label(), o.prediction);
        incr_fw.push(o.features(), o.label(), o.prediction);
    }
    let mut incr_engine = FingerprintEngine::new(extractor.clone())
        .with_mode(ExtractionMode { incremental: true, emd_stride: 4 });
    let (mut fp_b, mut fp_i) = (Vec::new(), Vec::new());
    let (mut bi, mut ii) = (0usize, 0usize);
    let mut incr_step = || {
        let o = &tape[ii % tape.len()];
        ii += 1;
        incr_fw.push(o.features(), o.label(), o.prediction);
        incr_engine.extract_tracked_frames_repredicted_into(&incr_fw.a_tracked(), &tree, &mut fp_i);
        std::hint::black_box(&fp_i);
    };
    let (stream_batch, stream_incr) = interleaved(
        reps,
        secs,
        w as u64,
        || {
            let o = &tape[bi % tape.len()];
            bi += 1;
            batch_fw.push(o.features(), o.label(), o.prediction);
            engine.extract_tracked_frames_repredicted_into(&batch_fw.a_tracked(), &tree, &mut fp_b);
            std::hint::black_box(&fp_b);
        },
        &mut incr_step,
    );
    row("stream (batch engine)", &stream_batch);
    row("stream (incremental stats)", &stream_incr);
    let incr_speedup = stream_incr.units_per_sec() / stream_batch.units_per_sec();
    println!("incremental speedup: {incr_speedup:.2}x");

    if flags.switch("--assert-zero-alloc") {
        if !cfg!(feature = "alloc-count") {
            eprintln!(
                "--assert-zero-alloc needs the alloc-count feature \
                 (cargo run --features alloc-count ...)"
            );
            std::process::exit(1);
        }
        // Warm the scratch buffers, then demand a fully allocation-free
        // steady state: push + incremental extraction must stay inside
        // reused capacity even across EMD re-sift strides.
        let iters = 256usize;
        (0..64).for_each(|_| incr_step());
        let a0 = alloc_sample();
        (0..iters).for_each(|_| incr_step());
        let allocs = alloc_sample() - a0;
        println!("zero-alloc assertion: {allocs} allocations over {iters} steady-state steps");
        if allocs != 0 {
            eprintln!(
                "ALLOC REGRESSION: incremental steady-state extraction allocated \
                 {allocs} times over {iters} steps (expected 0)"
            );
            std::process::exit(1);
        }
    }

    write_baseline(
        &flags,
        &[format_record(&[
            ("bench", JsonValue::Str("extraction_throughput")),
            ("d", JsonValue::Int(d as u64)),
            ("window", JsonValue::Int(w as u64)),
            ("legacy_obs_per_sec", fixed(legacy.units_per_sec(), 1)),
            ("engine_obs_per_sec", fixed(fast.units_per_sec(), 1)),
            ("stream_batch_obs_per_sec", fixed(stream_batch.units_per_sec(), 1)),
            ("stream_incremental_obs_per_sec", fixed(stream_incr.units_per_sec(), 1)),
            ("incremental_speedup", fixed(incr_speedup, 3)),
        ])],
    );
    if let Some(mut rep) = JsonlReporter::open("extraction_throughput", flags.value("--jsonl")) {
        rep.record_throughput("legacy", &legacy);
        rep.record_throughput("engine", &fast);
        rep.record_throughput("engine_untimed", &plain);
        rep.record_throughput("engine_timed", &timed);
        rep.record_throughput("stream_batch", &stream_batch);
        rep.record_throughput("stream_incremental", &stream_incr);
        rep.flush();
    }
    if let Some(path) = flags.value("--check") {
        let floors = [
            ("engine_obs_per_sec", fast.units_per_sec()),
            ("stream_incremental_obs_per_sec", stream_incr.units_per_sec()),
        ];
        Baseline::read(path).gate(&[], &floors, None);
    }
}
