//! The two workloads, `stagger-batch` and `rtree-incremental`: a pool of
//! independent `Ficsum` pipelines, each driven prequentially over its own
//! stream, one pipeline after another.
//!
//! A pool rather than one long stream: drift trajectories differ so much
//! from stream to stream (11 to 76 drifts over 30k STAGGER steps) that a
//! run over a single stream measures the seed more than the code.

use std::time::{Duration, Instant};

use ficsum_core::{Ficsum, FicsumBuilder, FicsumConfig, Variant};
use ficsum_eval::KappaEvaluator;

use crate::layers::{replay_layers, Tape};
use crate::report::Report;
use crate::sessions::{report_unserved, trace_served};
use crate::stats::{derive_seed, median, quantile, Confusion, Digest, StepClassifier};
use crate::trace::{check_wall_shares, StepTrace};
use crate::{alloc, calib, fits, peak_rss_mb, spread_line, Args};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    StaggerBatch,
    RtreeIncremental,
}

/// Pool builds timed before the first pass, after one untimed warm-up
/// build, each scaled by the reference blocks around it (`calib`), so
/// that `setup_s` is a median over many.
const SETUP_REPEATS: usize = 200;

impl Pipeline {
    /// The workload of that name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "stagger-batch" => Some(Self::StaggerBatch),
            "rtree-incremental" => Some(Self::RtreeIncremental),
            _ => None,
        }
    }

    fn dataset(self) -> &'static str {
        match self {
            Self::StaggerBatch => "STAGGER",
            Self::RtreeIncremental => "RTREE",
        }
    }

    /// Streams in the pool, and steps of each stream.
    fn pool(self) -> (usize, usize) {
        match self {
            Self::StaggerBatch => (48, 3_000),
            Self::RtreeIncremental => (48, 3_000),
        }
    }

    /// Builds one pipeline of the pool. This is the one place the
    /// benchmark chooses an extraction mode: the layer replays take theirs
    /// from the pipeline this returns.
    fn build(self, tape: &Tape) -> Ficsum {
        let builder = FicsumBuilder::new(tape.dims, tape.classes)
            .variant(Variant::Full)
            .config(FicsumConfig::default())
            .parallelism(1);
        let builder = match self {
            Self::StaggerBatch => builder,
            Self::RtreeIncremental => builder.incremental_stats(true).emd_stride(4),
        };
        builder.build().expect("the default configuration is valid")
    }
}

/// What one pass over the pool produced.
struct Pass {
    /// Time inside the per-stream processing loops.
    wall_s: f64,
    /// The same, in seconds of the nominal host (`calib`).
    scaled_wall_s: f64,
    /// Reference block times measured around the streams.
    reference_s: Vec<f64>,
    steps: usize,
    /// One digest per stream.
    digests: Vec<Digest>,
    /// Drifts fired per stream.
    drifts: Vec<u64>,
    /// Repository size per stream at its end.
    repository_lens: Vec<usize>,
    kappa: f64,
    /// p99 of the pass's `process` calls, each scaled like its stream's
    /// wall time (untraced passes).
    latency_p99_us: f64,
}

/// One pass over the pool. Every `process` call is timed into
/// `latencies_us` (cleared first), or, when `trace` is given, timed and
/// classified by step kind instead. A reference block is timed before the
/// first stream and after each one, and scales that stream's wall time and
/// latencies (`calib`). Processed pipelines stay alive until the pass
/// ends, so the peak resident set covers the whole pool's state.
fn run_pass(
    p: Pipeline,
    tapes: &[Tape],
    latencies_us: &mut Vec<f64>,
    mut trace: Option<&mut StepTrace>,
    report: &mut Report,
) -> Pass {
    latencies_us.clear();
    let pipelines: Vec<Ficsum> = tapes.iter().map(|t| p.build(t)).collect();
    let mut pass = Pass {
        wall_s: 0.0,
        scaled_wall_s: 0.0,
        reference_s: vec![calib::reference_s()],
        steps: 0,
        digests: Vec::new(),
        drifts: Vec::new(),
        repository_lens: Vec::new(),
        kappa: 0.0,
        latency_p99_us: 0.0,
    };
    let mut processed = Vec::with_capacity(tapes.len());
    let mut confusion = Confusion::new(tapes[0].classes);
    let mut evaluator = KappaEvaluator::new(tapes[0].classes);
    let mut predictions = Vec::new();
    for (tape, mut pipeline) in tapes.iter().zip(pipelines) {
        predictions.clear();
        let mut digest = Digest::default();
        let mut drifts = 0u64;
        let first_sample = latencies_us.len();
        let start = Instant::now();
        match trace.as_mut() {
            None => {
                for i in 0..tape.len() {
                    let (x, y) = tape.row(i);
                    let t0 = Instant::now();
                    let out = pipeline.process(x, y);
                    latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    predictions.push(out.prediction);
                    digest.push(
                        out.prediction,
                        out.drift,
                        out.concept_switched,
                        out.active_concept as u64,
                    );
                    drifts += out.drift as u64;
                }
            }
            Some(trace) => {
                let mut kinds = StepClassifier::new(&FicsumConfig::default());
                alloc::set_counting(true);
                for i in 0..tape.len() {
                    let (x, y) = tape.row(i);
                    let out = trace.process(&mut pipeline, &mut kinds, i, x, y);
                    predictions.push(out.prediction);
                    digest.push(
                        out.prediction,
                        out.drift,
                        out.concept_switched,
                        out.active_concept as u64,
                    );
                    drifts += out.drift as u64;
                }
                alloc::set_counting(false);
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let before_s = *pass
            .reference_s
            .last()
            .expect("measured before the first stream");
        let after_s = calib::reference_s();
        pass.reference_s.push(after_s);
        let scaled_s = calib::scaled(wall_s, before_s, after_s);
        for us in &mut latencies_us[first_sample..] {
            *us *= scaled_s / wall_s;
        }
        pass.wall_s += wall_s;
        pass.scaled_wall_s += scaled_s;
        pass.steps += tape.len();
        report.attempted += tape.len() as u64;
        for (i, &pred) in predictions.iter().enumerate() {
            confusion.record(tape.row(i).1, pred);
            evaluator.record(tape.row(i).1, pred);
        }
        if pipeline.stats().n_drifts != drifts {
            report.failed += tape.len() as u64;
            report.problem(format!(
                "{drifts} drift outcomes, {} in stats",
                pipeline.stats().n_drifts
            ));
        }
        pass.digests.push(digest);
        pass.drifts.push(drifts);
        pass.repository_lens.push(pipeline.repository().len());
        processed.push(pipeline);
    }
    if !latencies_us.is_empty() {
        pass.latency_p99_us = quantile(latencies_us, 0.99);
    }
    pass.kappa = confusion.kappa();
    if (pass.kappa - evaluator.kappa()).abs() > 1e-12 {
        report.problem(format!(
            "kappa {} vs evaluator {}",
            pass.kappa,
            evaluator.kappa()
        ));
    }
    pass
}

/// Counts every stream whose outcomes differ from the first pass's as
/// failed steps: the pool's inputs are the same on every pass.
fn check_repeat(pass: &Pass, first: &Pass, tapes: &[Tape], what: &str, report: &mut Report) {
    for (i, (got, want)) in pass.digests.iter().zip(&first.digests).enumerate() {
        if got != want {
            report.failed += tapes[i].len() as u64;
            report.problem(format!(
                "{what}: stream {i} digest {:x}, first pass {:x}",
                got.0, want.0
            ));
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let p = args.workload;
    let (streams, steps) = p.pool();
    let tapes: Vec<Tape> = (0..streams)
        .map(|i| Tape::generate(p.dataset(), derive_seed(args.seed, i as u64), Some(steps)))
        .collect();
    let build_pool = || tapes.iter().map(|t| p.build(t)).collect::<Vec<_>>();
    std::hint::black_box(build_pool());
    let mut before_s = calib::reference_s();
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(build_pool());
            let build_s = start.elapsed().as_secs_f64();
            let after_s = calib::reference_s();
            let scaled_s = calib::scaled(build_s, before_s, after_s);
            before_s = after_s;
            scaled_s
        })
        .collect();
    let budget = Duration::from_secs(args.seconds);
    let began = Instant::now();
    let mut latencies_us = Vec::new();
    if !args.trace {
        let mut passes: Vec<Pass> = Vec::new();
        while fits(began.elapsed(), passes.len(), budget) {
            let pass = run_pass(p, &tapes, &mut latencies_us, None, report);
            if let Some(first) = passes.first() {
                check_repeat(&pass, first, &tapes, "repeated pass", report);
            }
            passes.push(pass);
        }
        let rates: Vec<f64> = passes
            .iter()
            .map(|s| s.steps as f64 / s.scaled_wall_s)
            .collect();
        let raw: Vec<f64> = passes.iter().map(|s| s.steps as f64 / s.wall_s).collect();
        let reference_ms: Vec<f64> = passes
            .iter()
            .map(|s| median(&s.reference_s) * 1e3)
            .collect();
        println!("pool: {streams} {} streams x {steps} steps", p.dataset());
        println!(
            "passes: {}; {}",
            passes.len(),
            spread_line("steps_per_sec", &rates)
        );
        println!("unscaled: {}", spread_line("steps_per_sec", &raw));
        println!("host: {}", spread_line("reference block ms", &reference_ms));
        println!(
            "latency samples: {} process calls per pass",
            latencies_us.len()
        );
        let p99s: Vec<f64> = passes.iter().map(|s| s.latency_p99_us).collect();
        report.metric("steps_per_sec", median(&rates), "1/s");
        report.metric("latency_p99_us", median(&p99s), "us");
        report.metric("kappa", passes[0].kappa, "kappa");
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }

    // Traced run: the pool is passed untraced, then traced, until the
    // budget is spent; every pass must take the same trajectories.
    let mut trace = StepTrace::default();
    let (mut traced_wall, mut ratios) = (0.0, Vec::new());
    let mut first: Option<Pass> = None;
    while fits(began.elapsed(), ratios.len(), budget) {
        let plain = run_pass(p, &tapes, &mut latencies_us, None, report);
        let traced = run_pass(p, &tapes, &mut latencies_us, Some(&mut trace), report);
        traced_wall += traced.wall_s;
        ratios.push(traced.scaled_wall_s / plain.scaled_wall_s);
        if let Some(reference) = &first {
            check_repeat(&plain, reference, &tapes, "repeated pass", report);
        }
        check_repeat(
            &traced,
            first.get_or_insert(plain),
            &tapes,
            "traced pass",
            report,
        );
    }
    let first = first.expect("at least one pair of passes");
    println!(
        "traced: {} pairs of passes over {streams} streams x {steps} steps",
        ratios.len()
    );
    let share_sum = trace.report(traced_wall, report);
    check_wall_shares(share_sum, report);
    let repo_lens: Vec<f64> = first.repository_lens.iter().map(|&n| n as f64).collect();
    report.metric("core.repository_len", median(&repo_lens), "count");
    report.metric(
        "drift.fired",
        first.drifts.iter().sum::<u64>() as f64,
        "count",
    );
    replay_layers(
        &p.build(&tapes[0]),
        &tapes,
        &FicsumConfig::default(),
        report,
    );
    report.metric("obs.trace_overhead", median(&ratios), "ratio");
    match p {
        Pipeline::StaggerBatch => trace_served(&tapes, report),
        Pipeline::RtreeIncremental => report_unserved(report),
    }
}
