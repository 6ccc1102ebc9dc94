//! Shared experiment harness: CLI options, system construction, seed
//! fan-out and aggregation, stream truncation and a std-only throughput
//! timer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ficsum_baselines::{EnsembleSystem, FicsumSystem, Htcd, Rcd};
use ficsum_core::{FicsumConfig, Variant};
use ficsum_eval::{evaluate_with, EvaluatedSystem, RunOptions, RunResult};
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
use ficsum_stream::{LabeledObservation, StreamSource, VecStream};
use ficsum_synth::dataset_by_name;

/// Common experiment options parsed from `std::env::args`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Number of seeds per configuration (paper: 20; default here: 2 —
    /// single-core budget).
    pub seeds: u64,
    /// Quick mode: 1 seed and streams truncated to 12k observations.
    pub quick: bool,
    /// Optional dataset filter: comma-separated case-insensitive
    /// substrings, any of which selects a dataset.
    pub only: Option<String>,
    /// Optional JSONL output path (`-` = stdout): every run result (and,
    /// for systems that support recorders, its observability summary) is
    /// streamed as one JSON object per line.
    pub jsonl: Option<String>,
}

impl Options {
    /// Parses `--seeds N`, `--quick`, `--only NAME[,NAME...]`,
    /// `--jsonl PATH`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut opts = Options { seeds: 2, quick: false, only: None, jsonl: None };
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--seeds" => {
                    opts.seeds = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .expect("--seeds requires a number");
                    i += 1;
                }
                "--quick" => opts.quick = true,
                "--only" => {
                    opts.only = args.get(i + 1).cloned();
                    i += 1;
                }
                "--jsonl" => {
                    opts.jsonl = Some(args.get(i + 1).cloned().expect("--jsonl requires a path"));
                    i += 1;
                }
                other => {
                    panic!(
                        "unknown option {other}; supported: --seeds N, --quick, --only NAME, \
                         --jsonl PATH"
                    )
                }
            }
            i += 1;
        }
        if opts.quick {
            opts.seeds = 1;
        }
        opts
    }

    /// Effective stream cap.
    pub fn stream_cap(&self) -> usize {
        if self.quick {
            12_000
        } else {
            usize::MAX
        }
    }

    /// Whether `name` passes the dataset filter.
    pub fn selected(&self, name: &str) -> bool {
        match &self.only {
            Some(f) => {
                let name = name.to_lowercase();
                f.split(',').any(|part| name.contains(&part.trim().to_lowercase()))
            }
            None => true,
        }
    }

    /// Runs `run(seed)` for seeds `1..=self.seeds`; the results come back
    /// in seed order (see [`fan_out`]).
    pub fn run_seeds<T: Send>(&self, run: impl Fn(u64) -> T + Sync) -> Vec<T> {
        fan_out(self.seeds as usize, |i| run(i as u64 + 1))
    }
}

/// Runs `job(0)`, …, `job(n - 1)` and returns their results in index
/// order. The jobs are independent runs, so they are spread over at most
/// `available_parallelism()` scoped worker threads, each taking the next
/// unclaimed index. Each result lands in its index's slot, so the output
/// is the same whatever the worker count or the order the jobs finish in.
pub fn fan_out<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (next, job) = (&next, &job);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, job(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("an experiment run panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every job ran")).collect()
}

/// Builds a dataset stream, truncated to the option cap.
pub fn build_stream(name: &str, seed: u64, opts: &Options) -> VecStream {
    let stream = dataset_by_name(name, seed).unwrap_or_else(|| panic!("unknown dataset {name}"));
    truncate(stream, opts.stream_cap())
}

/// Truncates a stream to at most `cap` observations.
pub fn truncate(stream: VecStream, cap: usize) -> VecStream {
    if stream.len() <= cap {
        return stream;
    }
    let n_classes = stream.n_classes();
    let data: Vec<_> = stream.observations().iter().take(cap).cloned().collect();
    VecStream::with_classes(data, n_classes)
}

/// The four fingerprint variants of Tables III and IV, in paper column
/// order.
pub const VARIANT_COLUMNS: [Variant; 4] =
    [Variant::ErrorRate, Variant::Supervised, Variant::Unsupervised, Variant::Full];

/// Evaluation options for one dataset/seed run: observability is switched
/// on exactly when the run's signals will be consumed (`--jsonl`).
pub fn run_options(n_classes: usize, seed: u64, opts: &Options) -> RunOptions {
    let mut ro = RunOptions::new(n_classes).seed(seed);
    ro.observability = opts.jsonl.is_some();
    ro
}

/// Runs one FiCSUM variant over one dataset/seed.
pub fn run_variant(name: &str, variant: Variant, seed: u64, opts: &Options) -> RunResult {
    let mut stream = build_stream(name, seed, opts);
    let (d, k) = (stream.dims(), stream.n_classes());
    let mut system = FicsumSystem::with_config(d, k, variant, FicsumConfig::default());
    evaluate_with(&mut system, &mut stream, &run_options(k, seed, opts))
}

/// A framework row of Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    /// Hoeffding tree + ADWIN reset.
    Htcd,
    /// Recurring Concept Drift framework.
    Rcd,
    /// FiCSUM restricted to error rate.
    ErrorRate,
    /// Dynamic Weighted Majority.
    Dwm,
    /// Adaptive Random Forest.
    Arf,
    /// Full FiCSUM.
    Ficsum,
}

impl Framework {
    /// All Table VI rows, in paper order.
    pub const ALL: [Framework; 6] = [
        Framework::Htcd,
        Framework::Rcd,
        Framework::ErrorRate,
        Framework::Dwm,
        Framework::Arf,
        Framework::Ficsum,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Framework::Htcd => "HTCD",
            Framework::Rcd => "RCD",
            Framework::ErrorRate => "ER",
            Framework::Dwm => "DWM",
            Framework::Arf => "ARF",
            Framework::Ficsum => "FiCSUM",
        }
    }

    /// Builds the system for a `d`-feature, `k`-class stream.
    pub fn build(&self, d: usize, k: usize) -> Box<dyn EvaluatedSystem> {
        match self {
            Framework::Htcd => Box::new(Htcd::new(d, k)),
            Framework::Rcd => Box::new(Rcd::new(d, k)),
            Framework::ErrorRate => Box::new(FicsumSystem::new(d, k, Variant::ErrorRate)),
            Framework::Dwm => Box::new(EnsembleSystem::dwm(d, k)),
            Framework::Arf => Box::new(EnsembleSystem::arf(d, k)),
            Framework::Ficsum => Box::new(FicsumSystem::new(d, k, Variant::Full)),
        }
    }
}

/// Runs a framework over one dataset/seed.
pub fn run_framework(name: &str, framework: Framework, seed: u64, opts: &Options) -> RunResult {
    let mut stream = build_stream(name, seed, opts);
    let (d, k) = (stream.dims(), stream.n_classes());
    let mut system = framework.build(d, k);
    evaluate_with(&mut system, &mut stream, &run_options(k, seed, opts))
}

/// Extracts one metric across per-seed results.
pub fn metric(results: &[RunResult], f: impl Fn(&RunResult) -> f64) -> Vec<f64> {
    results.iter().map(f).collect()
}

/// Result of one [`time_throughput`] measurement.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Iterations actually timed (after warm-up).
    pub iterations: u64,
    /// Wall-clock seconds over those iterations.
    pub seconds: f64,
    /// Work units (e.g. observations) per iteration.
    pub units_per_iter: u64,
}

impl Throughput {
    /// Work units per second.
    pub fn units_per_sec(&self) -> f64 {
        self.units_per_iter as f64 * self.iterations as f64 / self.seconds
    }

    /// Mean wall-clock seconds per iteration.
    pub fn secs_per_iter(&self) -> f64 {
        self.seconds / self.iterations as f64
    }
}

/// Std-only throughput timer (no external benchmark harness): runs `f` for
/// a short warm-up, then repeatedly for at least `min_seconds` of wall
/// clock, and reports iterations, elapsed time and derived rates.
/// `units_per_iter` sets the work-unit denominator (observations per call,
/// say) so results can be read as obs/sec.
pub fn time_throughput(
    min_seconds: f64,
    units_per_iter: u64,
    mut f: impl FnMut(),
) -> Throughput {
    // Warm-up: populate caches/scratch buffers and estimate per-call cost.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed().as_secs_f64() < min_seconds * 0.1 || warm_iters < 3 {
        f();
        warm_iters += 1;
    }
    let start = Instant::now();
    let mut iterations = 0u64;
    loop {
        f();
        iterations += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_seconds {
            return Throughput { iterations, seconds: elapsed, units_per_iter };
        }
    }
}

/// Deterministic synthetic window for extraction benchmarks: `n`
/// observations of `d` uniform features, binary labels correlated with the
/// first feature and ~15% prediction errors.
pub fn synthetic_window(n: usize, d: usize, seed: u64) -> Vec<LabeledObservation> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..d).map(|_| rng.random()).collect();
            let y = (x[0] > 0.5) as usize;
            let pred = if rng.random_bool(0.15) { 1 - y } else { y };
            LabeledObservation::new(x, y, pred)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_caps_length() {
        let s = build_stream("CMC", 1, &Options { seeds: 1, quick: false, only: None, jsonl: None });
        let t = truncate(s.clone(), 100);
        assert_eq!(t.len(), 100);
        let untouched = truncate(s.clone(), usize::MAX);
        assert_eq!(untouched.len(), s.len());
    }

    #[test]
    fn frameworks_build_for_any_shape() {
        for f in Framework::ALL {
            let mut sys = f.build(4, 3);
            let (p, _) = sys.step(&[0.1, 0.2, 0.3, 0.4], 1);
            assert!(p < 3);
            assert_eq!(sys.name(), f.name());
        }
    }

    #[test]
    fn fan_out_keeps_index_order() {
        let squares = fan_out(23, |i| i * i);
        assert_eq!(squares, (0..23).map(|i| i * i).collect::<Vec<_>>());
        assert!(fan_out(0, |i| i).is_empty());
        let o = Options { seeds: 5, quick: false, only: None, jsonl: None };
        assert_eq!(o.run_seeds(|seed| seed), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn selection_filter() {
        let o = Options { seeds: 1, quick: false, only: Some("stag".into()), jsonl: None };
        assert!(o.selected("STAGGER"));
        assert!(!o.selected("RBF"));
        let both = Options { only: Some("STAGGER,rtree-u".into()), ..o };
        assert!(both.selected("STAGGER") && both.selected("RTREE-U"));
        assert!(!both.selected("RTREE"));
        let all = Options { seeds: 1, quick: false, only: None, jsonl: None };
        assert!(all.selected("anything"));
    }
}
