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
//!                   [--incremental] [--emd-stride K] [--stages] [--repeat R]
//!                   [--out PATH] [--append PATH] [--check PATH]
//! ```
//!
//! Defaults: STAGGER, seed 42, the full stream, best of 3, sequential,
//! batch (bit-exact) extraction, EMD stride 1, no file output. `--threads T`
//! fans each extraction's behaviour sources over T threads
//! (`FicsumBuilder::parallelism`); it pays on wide streams such as QG and
//! costs on narrow ones (DESIGN.md "Parallelism"). `--incremental`
//! switches the pipeline to incremental statistic substitution;
//! `--emd-stride K` bounds IMF re-sifting to every K-th extraction per
//! source in either mode; `--stages` prints per-source and per-stage
//! times to stderr; `--append` adds this run's line to an existing
//! baseline file so one file can carry both modes. `--check` compares
//! against the line in the baseline whose `mode` matches this run.
//! Latency per processed observation is sampled with a per-step monotonic
//! clock read (~tens of ns against a multi-µs step).

use std::time::Instant;

use ficsum_bench::alloc_count::alloc_sample;
use ficsum_bench::throughput::{best_of, fixed, write_baseline, Baseline, Flags};
use ficsum_core::{FicsumBuilder, FicsumConfig, Variant};
use ficsum_obs::jsonl::{format_record, JsonValue};
use ficsum_obs::{shared, InMemoryRecorder};
use ficsum_stream::StreamSource;
use ficsum_synth::dataset_by_name;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ficsum_bench::alloc_count::CountingAllocator =
    ficsum_bench::alloc_count::CountingAllocator;

struct Args {
    dataset: String,
    seed: u64,
    steps: usize,
    threads: usize,
    incremental: bool,
    emd_stride: u32,
    stages: bool,
}

impl Args {
    /// The baseline line's `mode` tag.
    fn mode(&self) -> &'static str {
        if self.incremental {
            "incremental"
        } else {
            "batch"
        }
    }
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
    /// Allocation rates, when the counting allocator is compiled in.
    allocs: Option<AllocRates>,
}

impl Measurement {
    fn drift_step_us_mean(&self) -> f64 {
        let secs = &self.drift_step_secs;
        secs.iter().sum::<f64>() / secs.len().max(1) as f64 * 1e6
    }

    fn drift_step_us_max(&self) -> f64 {
        self.drift_step_secs.iter().copied().fold(0.0f64, f64::max) * 1e6
    }
}

#[derive(Debug, Clone, Copy)]
struct AllocRates {
    /// Allocation calls per step over the steady-state tail (after
    /// warm-up). Drift steps are excluded: storing/restoring concepts at a
    /// drift allocates by design (classifier clones enter the repository),
    /// and folding those event-time allocations into the per-step figure
    /// would hide regressions on the quiescent path the budget actually
    /// targets.
    steady: f64,
    /// Allocation calls per *drift* step (event-time allocations).
    drift: f64,
    /// Fraction of steady-state steps that performed *zero* allocations.
    /// The complement is structural-growth events (tree node splits,
    /// detector bucket growth), not per-step churn.
    steady_zero_frac: f64,
    /// Total allocation calls per step over the whole run.
    total: f64,
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
    let stages = args.stages.then(|| shared(InMemoryRecorder::new()));
    if let Some(keep) = &stages {
        builder = builder.recorder(Box::new(keep.clone()));
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
    if let Some(keep) = &stages {
        eprintln!("stage spans over {:.2}s wall:", m.seconds);
        let mut by_source = system.engine().source_timings();
        by_source.sort_by_key(|&(_, nanos)| std::cmp::Reverse(nanos));
        for (name, nanos) in by_source {
            eprintln!("  source {:<24} {:>8.1} ms", name, nanos as f64 / 1e6);
        }
        for (stage, h) in keep.borrow().stages() {
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
    if cfg!(feature = "alloc-count") {
        m.allocs = Some(AllocRates {
            steady: steady_allocs as f64 / steady_steps.max(1) as f64,
            drift: drift_allocs as f64 / drift_steps.max(1) as f64,
            steady_zero_frac: steady_zero as f64 / steady_steps.max(1) as f64,
            total: (alloc_sample() - alloc_start) as f64 / m.steps.max(1) as f64,
        });
    }
    m
}

fn json_line(args: &Args, m: &Measurement, steps_per_sec: f64) -> String {
    let mut fields = vec![
        ("bench", JsonValue::Str("stream_throughput")),
        ("mode", JsonValue::Str(args.mode())),
        ("emd_stride", JsonValue::Int(args.emd_stride.into())),
        ("dataset", JsonValue::Str(&args.dataset)),
        ("seed", JsonValue::Int(args.seed)),
        ("steps", JsonValue::Int(m.steps as u64)),
        ("threads", JsonValue::Int(args.threads as u64)),
        ("steps_per_sec", fixed(steps_per_sec, 1)),
        ("drifts", JsonValue::Int(m.drifts as u64)),
        ("drift_step_us_mean", fixed(m.drift_step_us_mean(), 1)),
        ("drift_step_us_max", fixed(m.drift_step_us_max(), 1)),
        ("accuracy", fixed(m.accuracy, 6)),
    ];
    if let Some(a) = m.allocs {
        fields.extend([
            ("steady_allocs_per_step", fixed(a.steady, 4)),
            ("drift_allocs_per_step", fixed(a.drift, 1)),
            ("steady_zero_frac", fixed(a.steady_zero_frac, 4)),
            ("total_allocs_per_step", fixed(a.total, 4)),
        ]);
    }
    format_record(&fields)
}

fn main() {
    let flags = Flags::from_env(
        &[
            "--dataset",
            "--seed",
            "--steps",
            "--threads",
            "--emd-stride",
            "--repeat",
            "--out",
            "--append",
            "--check",
        ],
        &["--incremental", "--stages"],
    );
    let args = Args {
        dataset: flags.value("--dataset").unwrap_or("STAGGER").to_owned(),
        seed: flags.get("--seed", 42),
        steps: flags.get("--steps", usize::MAX),
        threads: flags.get("--threads", 1),
        incremental: flags.switch("--incremental"),
        emd_stride: flags.get("--emd-stride", 1),
        stages: flags.switch("--stages"),
    };
    let (steps_per_sec, m) =
        best_of(flags.get("--repeat", 3), || run_once(&args), |m| m.steps as f64 / m.seconds);

    println!(
        "stream_throughput: {} x{} steps, threads={} -> {:.0} steps/sec, \
         {} drifts (drift-step mean {:.1} us, max {:.1} us), accuracy {:.4}",
        args.dataset,
        m.steps,
        args.threads,
        steps_per_sec,
        m.drifts,
        m.drift_step_us_mean(),
        m.drift_step_us_max(),
        m.accuracy
    );
    if let Some(a) = m.allocs {
        println!(
            "allocations: steady-state {:.4}/step ({:.2}% of steps zero-alloc), \
             drift steps {:.1}/step, whole-run {:.4}/step",
            a.steady,
            a.steady_zero_frac * 100.0,
            a.drift,
            a.total
        );
    }

    write_baseline(&flags, &[json_line(&args, &m, steps_per_sec)]);
    if let Some(path) = flags.value("--check") {
        let floors = [("steps_per_sec", steps_per_sec)];
        Baseline::read(path).gate(&[("mode", args.mode())], &floors, None);
    }
}
