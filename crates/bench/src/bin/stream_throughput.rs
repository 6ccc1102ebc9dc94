//! End-to-end streaming throughput: `Ficsum::process` steps/sec, drift-scan
//! latency and (under `--features alloc-count`) allocations per step on a
//! default synthetic stream.
//!
//! This is the perf trajectory's anchor benchmark: `--out BENCH_stream.json`
//! records the numbers the CI perf smoke regresses against, and
//! `--check BENCH_stream.json` fails (exit 1) when end-to-end throughput
//! drops more than 20% below the committed baseline.
//!
//! Usage:
//!
//! ```sh
//! stream_throughput [--dataset NAME] [--seed S] [--steps N] [--threads T]
//!                   [--incremental] [--emd-stride K] [--repeat R]
//!                   [--out PATH] [--append PATH] [--check PATH]
//!                   [--min-ratio F]
//! ```
//!
//! Defaults: STAGGER, seed 42, the full stream once, sequential, batch
//! (bit-exact) extraction, no file output. `--incremental` switches the
//! pipeline to incremental statistic substitution (with `--emd-stride`
//! bounding IMF re-sifting); `--append` adds this run's line to an existing
//! baseline file so one file can carry both modes. `--check` compares
//! against the line in the baseline whose `mode` matches this run.
//! Latency per processed observation is sampled with a per-step monotonic
//! clock read (~tens of ns against a multi-µs step).

use std::time::Instant;

use ficsum_bench::throughput::{check_throughput_floor, read_baseline};
use ficsum_core::{FicsumBuilder, FicsumConfig, Variant};
use ficsum_stream::StreamSource;
use ficsum_synth::dataset_by_name;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ficsum_bench::alloc_count::CountingAllocator =
    ficsum_bench::alloc_count::CountingAllocator;

#[derive(Debug)]
struct Args {
    dataset: String,
    seed: u64,
    steps: usize,
    threads: usize,
    incremental: bool,
    emd_stride: u32,
    repeat: usize,
    out: Option<String>,
    append: Option<String>,
    check: Option<String>,
    min_ratio: f64,
    stages: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        dataset: "STAGGER".into(),
        seed: 42,
        steps: usize::MAX,
        threads: 1,
        incremental: false,
        emd_stride: 1,
        repeat: 3,
        out: None,
        append: None,
        check: None,
        min_ratio: 0.8,
        stages: false,
    };
    let mut i = 1;
    while i < argv.len() {
        let val = |i: usize| {
            argv.get(i + 1).unwrap_or_else(|| panic!("{} requires a value", argv[i])).clone()
        };
        match argv[i].as_str() {
            "--dataset" => a.dataset = val(i),
            "--seed" => a.seed = val(i).parse().expect("--seed"),
            "--steps" => a.steps = val(i).parse().expect("--steps"),
            "--threads" => a.threads = val(i).parse().expect("--threads"),
            "--incremental" => {
                a.incremental = true;
                i += 1;
                continue;
            }
            "--emd-stride" => a.emd_stride = val(i).parse().expect("--emd-stride"),
            "--repeat" => a.repeat = val(i).parse().expect("--repeat"),
            "--out" => a.out = Some(val(i)),
            "--append" => a.append = Some(val(i)),
            "--check" => a.check = Some(val(i)),
            "--min-ratio" => a.min_ratio = val(i).parse().expect("--min-ratio"),
            "--stages" => {
                a.stages = true;
                i += 1;
                continue;
            }
            other => panic!("unknown option {other}"),
        }
        i += 2;
    }
    a
}

#[derive(Debug, Default, Clone)]
struct Measurement {
    steps: usize,
    seconds: f64,
    drifts: usize,
    /// Wall-clock of every step that reported a drift (the repository scan
    /// plus model selection dominate these steps).
    drift_step_secs: Vec<f64>,
    accuracy: f64,
    /// Allocation calls per step over the steady-state tail (after
    /// warm-up), when the counting allocator is compiled in. Drift steps
    /// are excluded: storing/restoring concepts at a drift allocates by
    /// design (classifier clones enter the repository), and folding those
    /// event-time allocations into the per-step figure would hide
    /// regressions on the quiescent path the budget actually targets.
    steady_allocs_per_step: Option<f64>,
    /// Allocation calls per *drift* step (event-time allocations).
    drift_allocs_per_step: Option<f64>,
    /// Fraction of steady-state steps that performed *zero* allocations.
    /// The complement is structural-growth events (tree node splits,
    /// detector bucket growth), not per-step churn.
    steady_zero_frac: Option<f64>,
    /// Total allocation calls per step over the whole run.
    total_allocs_per_step: Option<f64>,
}

#[cfg(feature = "alloc-count")]
fn alloc_sample() -> u64 {
    ficsum_bench::alloc_count::allocations()
}

#[cfg(not(feature = "alloc-count"))]
fn alloc_sample() -> u64 {
    0
}

fn run_once(args: &Args) -> Measurement {
    let stream = dataset_by_name(&args.dataset, args.seed)
        .unwrap_or_else(|| panic!("unknown dataset {}", args.dataset));
    let data: Vec<_> = stream.observations().iter().take(args.steps).cloned().collect();
    let mut builder = FicsumBuilder::new(stream.dims(), stream.n_classes())
        .variant(Variant::Full)
        .config(FicsumConfig::default())
        .parallelism(args.threads)
        .incremental_stats(args.incremental)
        .emd_stride(args.emd_stride);
    if args.stages {
        builder = builder.recorder(Box::new(ficsum_obs::InMemoryRecorder::new()));
    }
    let mut system = builder.build().expect("default configuration is valid");

    // Steady state begins once windows are full and the first concepts
    // exist; everything before is warm-up for the allocation accounting.
    let warmup = 2_000.min(data.len() / 4);
    let mut m = Measurement { steps: data.len(), ..Default::default() };
    let mut correct = 0usize;
    let alloc_start = alloc_sample();
    let mut steady_allocs = 0u64;
    let mut steady_steps = 0u64;
    let mut drift_allocs = 0u64;
    let mut drift_steps = 0u64;
    let mut steady_zero = 0u64;
    let t_run = Instant::now();
    for (i, o) in data.iter().enumerate() {
        let steady = i >= warmup;
        let a0 = if steady { alloc_sample() } else { 0 };
        let t0 = Instant::now();
        let out = system.process(&o.features, o.label);
        let dt = t0.elapsed().as_secs_f64();
        if steady {
            let da = alloc_sample() - a0;
            if out.drift {
                drift_allocs += da;
                drift_steps += 1;
            } else {
                steady_allocs += da;
                steady_steps += 1;
                steady_zero += (da == 0) as u64;
            }
        }
        if out.drift {
            m.drifts += 1;
            m.drift_step_secs.push(dt);
        }
        correct += (out.prediction == o.label) as usize;
    }
    m.seconds = t_run.elapsed().as_secs_f64();
    m.accuracy = correct as f64 / m.steps.max(1) as f64;
    if args.stages {
        if let Some(rec) = system
            .recorder()
            .as_any()
            .and_then(|a| a.downcast_ref::<ficsum_obs::InMemoryRecorder>())
        {
            eprintln!("stage spans over {:.2}s wall:", m.seconds);
            let mut by_source = system.engine().source_timings();
            by_source.sort_by_key(|&(_, nanos)| std::cmp::Reverse(nanos));
            for (name, nanos) in by_source {
                eprintln!("  source {:<24} {:>8.1} ms", name, nanos as f64 / 1e6);
            }
            for (stage, h) in rec.stages() {
                eprintln!(
                    "  {:<20} {:>9} spans, total {:>8.1} ms, mean {:>7.1} us, p99 {:>7.1} us",
                    stage.name(),
                    h.count(),
                    h.sum_nanos() as f64 / 1e6,
                    h.mean_nanos() / 1e3,
                    h.quantile_nanos(0.99) as f64 / 1e3,
                );
            }
        }
    }
    if cfg!(feature = "alloc-count") {
        m.steady_allocs_per_step = Some(steady_allocs as f64 / steady_steps.max(1) as f64);
        m.drift_allocs_per_step = Some(drift_allocs as f64 / drift_steps.max(1) as f64);
        m.steady_zero_frac = Some(steady_zero as f64 / steady_steps.max(1) as f64);
        m.total_allocs_per_step =
            Some((alloc_sample() - alloc_start) as f64 / m.steps.max(1) as f64);
    }
    m
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn json_line(args: &Args, m: &Measurement, steps_per_sec: f64) -> String {
    let drift_mean_us = mean(&m.drift_step_secs) * 1e6;
    let drift_max_us = m.drift_step_secs.iter().copied().fold(0.0f64, f64::max) * 1e6;
    let mut s = format!(
        "{{\"bench\":\"stream_throughput\",\"mode\":\"{}\",\"emd_stride\":{},\
         \"dataset\":\"{}\",\"seed\":{},\"steps\":{},\
         \"threads\":{},\"steps_per_sec\":{:.1},\"drifts\":{},\
         \"drift_step_us_mean\":{:.1},\"drift_step_us_max\":{:.1},\"accuracy\":{:.6}",
        if args.incremental { "incremental" } else { "batch" },
        args.emd_stride,
        args.dataset,
        args.seed,
        m.steps,
        args.threads,
        steps_per_sec,
        m.drifts,
        drift_mean_us,
        drift_max_us,
        m.accuracy
    );
    if let (Some(steady), Some(total)) = (m.steady_allocs_per_step, m.total_allocs_per_step) {
        let drift = m.drift_allocs_per_step.unwrap_or(0.0);
        let zero = m.steady_zero_frac.unwrap_or(0.0);
        s.push_str(&format!(
            ",\"steady_allocs_per_step\":{steady:.4},\"drift_allocs_per_step\":{drift:.1},\
             \"steady_zero_frac\":{zero:.4},\"total_allocs_per_step\":{total:.4}"
        ));
    }
    s.push('}');
    s
}

/// Picks the baseline line matching this run's mode out of a (possibly
/// multi-line) baseline file. Falls back to the first non-empty line for
/// single-mode baselines written before the `mode` field existed.
fn baseline_line<'a>(contents: &'a str, mode: &str) -> Option<&'a str> {
    let key = format!("\"mode\":\"{mode}\"");
    contents
        .lines()
        .find(|l| l.contains(&key))
        .or_else(|| contents.lines().find(|l| !l.trim().is_empty()))
}

fn main() {
    let args = parse_args();
    // Best-of-R repeats: throughput noise is one-sided (scheduling stalls
    // only ever slow a run down), so the max is the honest estimate.
    let mut best: Option<(f64, Measurement)> = None;
    for _ in 0..args.repeat.max(1) {
        let m = run_once(&args);
        let sps = m.steps as f64 / m.seconds;
        if best.as_ref().is_none_or(|(b, _)| sps > *b) {
            best = Some((sps, m));
        }
    }
    let (steps_per_sec, m) = best.expect("at least one repeat");

    println!(
        "stream_throughput: {} x{} steps, threads={} -> {:.0} steps/sec, \
         {} drifts (drift-step mean {:.1} us, max {:.1} us), accuracy {:.4}",
        args.dataset,
        m.steps,
        args.threads,
        steps_per_sec,
        m.drifts,
        mean(&m.drift_step_secs) * 1e6,
        m.drift_step_secs.iter().copied().fold(0.0f64, f64::max) * 1e6,
        m.accuracy
    );
    if let Some(steady) = m.steady_allocs_per_step {
        println!(
            "allocations: steady-state {:.4}/step ({:.2}% of steps zero-alloc), \
             drift steps {:.1}/step, whole-run {:.4}/step",
            steady,
            m.steady_zero_frac.unwrap_or(0.0) * 100.0,
            m.drift_allocs_per_step.unwrap_or(0.0),
            m.total_allocs_per_step.unwrap_or(0.0)
        );
    }

    let line = json_line(&args, &m, steps_per_sec);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{line}\n")).unwrap_or_else(|e| panic!("--out {path}: {e}"));
        println!("wrote {path}");
    }
    if let Some(path) = &args.append {
        let mut contents = std::fs::read_to_string(path).unwrap_or_default();
        if !contents.is_empty() && !contents.ends_with('\n') {
            contents.push('\n');
        }
        contents.push_str(&line);
        contents.push('\n');
        std::fs::write(path, contents).unwrap_or_else(|e| panic!("--append {path}: {e}"));
        println!("appended to {path}");
    }

    if let Some(path) = &args.check {
        let contents = read_baseline(path);
        let mode = if args.incremental { "incremental" } else { "batch" };
        let baseline = baseline_line(&contents, mode)
            .unwrap_or_else(|| panic!("--check {path}: empty baseline file"));
        check_throughput_floor(path, baseline, steps_per_sec, args.min_ratio);
    }
}
