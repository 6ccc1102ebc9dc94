//! Shared experiment harness: the CLI options, the evaluation [`Grid`]
//! every paper-metric binary is a spec over, the [`Report`] it returns,
//! and a std-only throughput timer.
//!
//! A grid crosses labelled [`System`]s with labelled [`Dataset`]s over
//! seeds `1..=--seeds`. It runs one (dataset, system) cell at a time, its
//! seeds through [`fan_out`], so each [`RunResult`] carries kappa, C-F1,
//! discrimination, a runtime shared only with the cell's other seeds and,
//! when the grid is observed and the system accepts a recorder, the
//! detection counts (false alarms, misses, mean delay). The [`Report`]
//! gives the per-metric mean (sd) tables, average ranks with the Friedman
//! test and the Nemenyi CD, and paired sign tests against a reference
//! system. With `--jsonl PATH` the grid writes every run once, as JSON
//! lines, as each cell finishes (see [`crate::jsonl_out`]).

use std::num::NonZeroU64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ficsum_baselines::FicsumSystem;
use ficsum_core::{FicsumConfig, Variant};
use ficsum_eval::{
    evaluate_with, format_cell, friedman_test, mean_std, nemenyi_critical_difference,
    sign_test_higher, EvaluatedSystem, FriedmanOutcome, ObsSummary, RunOptions, RunResult,
    SignTest, Table,
};
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
use ficsum_stream::{LabeledObservation, StreamSource, VecStream};
use ficsum_synth::{dataset_by_name, ALL_DATASETS};

use crate::jsonl_out::JsonlReporter;

/// Common experiment options parsed from `std::env::args`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Number of seeds per (dataset, system) cell (paper: 20). Each binary
    /// sets its own default.
    pub seeds: u64,
    /// Quick mode: every stream truncated to 12k observations.
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
    /// Parses the process arguments (see [`Options::parse`]), with no
    /// flags beyond the shared ones.
    pub fn from_args(default_seeds: u64) -> Self {
        Self::parse(std::env::args().skip(1), default_seeds, &[]).0
    }

    /// Parses `--seeds N` (default `default_seeds`), `--quick`,
    /// `--only NAME[,NAME...]`, `--jsonl PATH` and, for each flag named
    /// in `extra`, that flag and its value. Returns the options and the
    /// extra flags given, in order, with their values. Panics on an
    /// unknown flag, a missing value or `--seeds 0`, which would run
    /// nothing and still print tables.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_seeds: u64,
        extra: &[&'static str],
    ) -> (Self, Vec<(&'static str, String)>) {
        let mut opts = Options { seeds: default_seeds, quick: false, only: None, jsonl: None };
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--quick" {
                opts.quick = true;
                continue;
            }
            let mut value = || args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
            match flag.as_str() {
                "--seeds" => {
                    opts.seeds =
                        value().parse::<NonZeroU64>().expect("--seeds requires a number >= 1").get()
                }
                "--only" => opts.only = Some(value()),
                "--jsonl" => opts.jsonl = Some(value()),
                other => match extra.iter().find(|&&e| e == other) {
                    Some(&e) => given.push((e, value())),
                    None => panic!(
                        "unknown option {other}; supported: --seeds N, --quick, --only NAME, \
                         --jsonl PATH{}",
                        extra.iter().map(|e| format!(", {e} VALUE")).collect::<String>()
                    ),
                },
            }
        }
        (opts, given)
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
        self.only.is_none() || self.filters().any(|part| name.to_lowercase().contains(&part))
    }

    /// The `--only` names, trimmed and lowercased; none without `--only`.
    fn filters(&self) -> impl Iterator<Item = String> + '_ {
        self.only.iter().flat_map(|f| f.split(',')).map(|part| part.trim().to_lowercase())
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

/// Truncates a stream to at most `cap` observations.
pub fn truncate(stream: VecStream, cap: usize) -> VecStream {
    if stream.len() <= cap {
        return stream;
    }
    let n_classes = stream.n_classes();
    let data: Vec<_> = stream.observations().iter().take(cap).cloned().collect();
    VecStream::with_classes(data, n_classes)
}

/// A labelled system of a grid: builds a fresh instance for a `d`-feature,
/// `k`-class stream.
pub struct System {
    /// Column (or row) label, and the run's `system` in JSONL.
    pub label: String,
    builder: Box<dyn Fn(usize, usize) -> Box<dyn EvaluatedSystem> + Sync>,
}

impl System {
    /// A system built by `builder(d, k)`.
    pub fn new(
        label: impl Into<String>,
        builder: impl Fn(usize, usize) -> Box<dyn EvaluatedSystem> + Sync + 'static,
    ) -> Self {
        Self { label: label.into(), builder: Box::new(builder) }
    }

    /// FiCSUM as `variant` with `config`.
    pub fn ficsum(label: impl Into<String>, variant: Variant, config: FicsumConfig) -> Self {
        Self::new(label, move |d, k| Box::new(FicsumSystem::with_config(d, k, variant, config)))
    }

    /// A fresh instance for a `d`-feature, `k`-class stream.
    pub fn build(&self, d: usize, k: usize) -> Box<dyn EvaluatedSystem> {
        (self.builder)(d, k)
    }
}

/// The four fingerprint variants of Tables III and IV at the default
/// configuration, in paper column order (ER, S-MI, U-MI, FiCSUM).
pub fn variant_columns() -> Vec<System> {
    [Variant::ErrorRate, Variant::Supervised, Variant::Unsupervised, Variant::Full]
        .map(|v| System::ficsum(v.name(), v, FicsumConfig::default()))
        .into()
}

/// A labelled dataset of a grid: its stream for a seed.
pub struct Dataset {
    /// Row (or column) label, matched by `--only`.
    pub label: String,
    stream: Box<dyn Fn(u64) -> VecStream + Sync>,
}

impl Dataset {
    /// A dataset whose stream for `seed` is `stream(seed)`.
    pub fn new(
        label: impl Into<String>,
        stream: impl Fn(u64) -> VecStream + Sync + 'static,
    ) -> Self {
        Self { label: label.into(), stream: Box::new(stream) }
    }

    /// A Table II dataset, by name.
    pub fn named(name: &'static str) -> Self {
        Self::new(name, move |seed| {
            dataset_by_name(name, seed).unwrap_or_else(|| panic!("unknown dataset {name}"))
        })
    }

    /// Every Table II dataset, in table order.
    pub fn all() -> Vec<Self> {
        ALL_DATASETS.map(|spec| Self::named(spec.name)).into()
    }
}

/// Systems × datasets, run over the seeds of an [`Options`].
pub struct Grid {
    /// Experiment name: the progress-line prefix and the JSONL
    /// `experiment` field.
    pub experiment: &'static str,
    /// The systems compared.
    pub systems: Vec<System>,
    /// The datasets, before `--only` filters them.
    pub datasets: Vec<Dataset>,
    /// Whether every run carries the runner's in-memory recorder, so that
    /// it reports false alarms, misses and delay. Grids that print
    /// runtimes leave it off, so that no printed time includes the
    /// recorder's cost. `--jsonl` observes every run regardless, since its
    /// rows carry the summary.
    pub observed: bool,
}

impl Grid {
    /// Runs every (dataset, system, seed) job of the datasets `--only`
    /// selects, truncated to `--quick`'s cap, one (dataset, system) cell
    /// at a time: the seeds of a cell go through [`fan_out`], so only runs
    /// of the same system share the host and a one-seed run is timed
    /// alone. Prints a progress line to stderr as each dataset completes
    /// and writes each cell's runs to `--jsonl` when given. Panics, listing
    /// the dataset labels, if an `--only` name matches none of them: a
    /// mistyped name would otherwise shrink the grid unnoticed.
    pub fn run(&self, opts: &Options) -> Report {
        let matches =
            |part: &String| self.datasets.iter().any(|d| d.label.to_lowercase().contains(part));
        if let Some(part) = opts.filters().find(|part| !matches(part)) {
            let labels: Vec<&str> = self.datasets.iter().map(|d| d.label.as_str()).collect();
            panic!("--only {part:?} matches no dataset of {}", labels.join(", "));
        }
        let datasets: Vec<&Dataset> =
            self.datasets.iter().filter(|d| opts.selected(&d.label)).collect();
        let observed = self.observed || opts.jsonl.is_some();
        let mut jsonl = JsonlReporter::from_options(self.experiment, opts);
        let mut runs = Vec::new();
        for dataset in &datasets {
            for system in &self.systems {
                let cell = fan_out(opts.seeds as usize, |i| {
                    let seed = i as u64 + 1;
                    let mut stream = truncate((dataset.stream)(seed), opts.stream_cap());
                    let k = stream.n_classes();
                    let mut run_options = RunOptions::new(k).seed(seed);
                    run_options.observability = observed;
                    evaluate_with(&mut system.build(stream.dims(), k), &mut stream, &run_options)
                });
                if let Some(out) = &mut jsonl {
                    cell.iter().for_each(|r| out.record(&dataset.label, &system.label, r));
                    out.flush();
                }
                runs.extend(cell);
            }
            eprintln!("[{}] {} done", self.experiment, dataset.label);
        }
        Report {
            datasets: datasets.iter().map(|d| d.label.clone()).collect(),
            systems: self.systems.iter().map(|s| s.label.clone()).collect(),
            seeds: opts.seeds as usize,
            runs,
        }
    }
}

/// Reads one number off a run.
pub type Metric = fn(&RunResult) -> f64;

/// Reads one detection figure off an observed run; NaN for a system
/// without a recorder, or a run that detected nothing (delay).
fn detection(r: &RunResult, f: impl Fn(&ObsSummary) -> Option<f64>) -> f64 {
    r.observability.as_ref().and_then(f).unwrap_or(f64::NAN)
}

/// Drifts fired outside every detection window.
pub fn false_alarms(r: &RunResult) -> f64 {
    detection(r, |o| Some(o.false_alarms as f64))
}

/// Ground-truth changes no drift matched.
pub fn misses(r: &RunResult) -> f64 {
    detection(r, |o| Some(o.missed as f64))
}

/// Mean observations from a ground-truth change to its matching drift.
pub fn detection_delay(r: &RunResult) -> f64 {
    detection(r, |o| o.mean_detection_delay)
}

/// Every run of a [`Grid`], indexed by dataset, then system, then seed.
pub struct Report {
    /// Labels of the datasets run (after `--only`).
    pub datasets: Vec<String>,
    /// Labels of the systems, in grid order.
    pub systems: Vec<String>,
    /// Seeds per cell.
    pub seeds: usize,
    runs: Vec<RunResult>,
}

impl Report {
    /// The runs of dataset `d` and system `s`, in seed order.
    pub fn runs(&self, d: usize, s: usize) -> &[RunResult] {
        let at = (d * self.systems.len() + s) * self.seeds;
        &self.runs[at..at + self.seeds]
    }

    /// `f` of each seed's run of dataset `d` and system `s`.
    pub fn values(&self, d: usize, s: usize, f: Metric) -> Vec<f64> {
        self.runs(d, s).iter().map(f).collect()
    }

    /// Seed mean of `f`.
    pub fn mean(&self, d: usize, s: usize, f: Metric) -> f64 {
        mean_std(&self.values(d, s, f)).0
    }

    /// Max − min of `f` over seeds.
    pub fn spread(&self, d: usize, s: usize, f: Metric) -> f64 {
        let v = self.values(d, s, f);
        v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - v.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// `mean (sd)` of `f` with a row per dataset and a column per system,
    /// under the header `corner`.
    pub fn table(&self, corner: &str, f: Metric) -> Table {
        layout(corner, &self.datasets, &self.systems, |row, col| self.values(row, col, f))
    }

    /// [`Report::table`] transposed: a row per system, a column per
    /// dataset.
    pub fn table_by_system(&self, corner: &str, f: Metric) -> Table {
        layout(corner, &self.systems, &self.datasets, |row, col| self.values(col, row, f))
    }

    /// The systems' average ranks over the datasets on the seed mean of
    /// `f` (higher ranks better) with the Friedman test, and the Nemenyi
    /// critical difference at 0.05.
    pub fn ranks(&self, f: Metric) -> (FriedmanOutcome, f64) {
        let rows: Vec<Vec<f64>> = (0..self.datasets.len())
            .map(|d| (0..self.systems.len()).map(|s| self.mean(d, s, f)).collect())
            .collect();
        (friedman_test(&rows), nemenyi_critical_difference(self.systems.len(), rows.len()))
    }

    /// [`Report::ranks`] as one line: `{metric}: avg ranks A=.. B=.. |
    /// Friedman chi2=.. p=.. | Nemenyi CD(0.05)=..`.
    pub fn rank_line(&self, metric: &str, f: Metric) -> String {
        let (outcome, cd) = self.ranks(f);
        let shown: Vec<String> = self
            .systems
            .iter()
            .zip(&outcome.average_ranks)
            .map(|(s, r)| format!("{s}={r:.2}"))
            .collect();
        format!(
            "{metric}: avg ranks {} | Friedman chi2={:.2} p={:.4} | Nemenyi CD(0.05)={cd:.2}",
            shown.join(" "),
            outcome.chi_square,
            outcome.p_value
        )
    }

    /// One-sided sign tests that system `c` has more false alarms, more
    /// misses and a longer mean detection delay than system `r`, paired
    /// on every (dataset, seed) whose stream has ground-truth changes
    /// (ties dropped). A delay pair needs a detection on both sides.
    pub fn sign_tests(&self, c: usize, r: usize) -> [(&'static str, SignTest); 3] {
        let pairs: Vec<(&RunResult, &RunResult)> = (0..self.datasets.len())
            .flat_map(|d| self.runs(d, c).iter().zip(self.runs(d, r)))
            .filter(|(_, b)| b.observability.as_ref().is_some_and(|o| o.n_truth_changes > 0))
            .collect();
        let test = |f: Metric| {
            let values = pairs.iter().map(|&(a, b)| (f(a), f(b)));
            sign_test_higher(values.filter(|(a, b)| !a.is_nan() && !b.is_nan()))
        };
        [
            ("false_alarms", test(false_alarms)),
            ("misses", test(misses)),
            ("detection_delay", test(detection_delay)),
        ]
    }
}

/// A table of `mean (sd)` cells, `cell(row, col)` giving each cell's values.
fn layout(
    corner: &str,
    rows: &[String],
    cols: &[String],
    cell: impl Fn(usize, usize) -> Vec<f64>,
) -> Table {
    let header: Vec<&str> =
        std::iter::once(corner).chain(cols.iter().map(String::as_str)).collect();
    let mut table = Table::new(&header);
    for (i, row) in rows.iter().enumerate() {
        table.add_row(row, (0..cols.len()).map(|j| format_cell(&cell(i, j))).collect());
    }
    table
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
    use ficsum_synth::{synth_stream, SynthDrift};

    fn options(seeds: u64, quick: bool) -> Options {
        Options { seeds, quick, only: None, jsonl: None }
    }

    #[test]
    fn truncate_caps_length() {
        let s = dataset_by_name("CMC", 1).unwrap();
        let t = truncate(s.clone(), 100);
        assert_eq!(t.len(), 100);
        let untouched = truncate(s.clone(), usize::MAX);
        assert_eq!(untouched.len(), s.len());
    }

    #[test]
    fn fan_out_keeps_index_order() {
        let squares = fan_out(23, |i| i * i);
        assert_eq!(squares, (0..23).map(|i| i * i).collect::<Vec<_>>());
        assert!(fan_out(0, |i| i).is_empty());
    }

    #[test]
    fn selection_filter() {
        let o = Options { only: Some("stag".into()), ..options(1, false) };
        assert!(o.selected("STAGGER"));
        assert!(!o.selected("RBF"));
        let both = Options { only: Some("STAGGER,rtree-u".into()), ..o };
        assert!(both.selected("STAGGER") && both.selected("RTREE-U"));
        assert!(!both.selected("RTREE"));
        assert!(options(1, false).selected("anything"));
    }

    #[test]
    fn quick_truncates_and_keeps_the_seed_count() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (o, extra) = Options::parse(args(&["--quick", "--seeds", "3"]), 2, &[]);
        assert_eq!((o.seeds, o.stream_cap()), (3, 12_000));
        assert!(extra.is_empty());
        let (o, _) = Options::parse(args(&["--quick"]), 5, &[]);
        assert_eq!((o.seeds, o.stream_cap()), (5, 12_000));
        let (o, extra) = Options::parse(
            args(&["--only", "CMC", "--strides", "1,2", "--seeds", "4", "--check", "X"]),
            2,
            &["--strides", "--check"],
        );
        assert_eq!((o.seeds, o.stream_cap(), o.only.as_deref()), (4, usize::MAX, Some("CMC")));
        assert_eq!(extra, vec![("--strides", "1,2".to_string()), ("--check", "X".to_string())]);
    }

    #[test]
    #[should_panic(expected = "unknown option --strides")]
    fn flags_a_binary_does_not_declare_are_refused() {
        Options::parse(["--strides".to_string(), "1".to_string()], 2, &[]);
    }

    #[test]
    #[should_panic(expected = "--seeds requires a number >= 1")]
    fn zero_seeds_are_refused() {
        Options::parse(["--seeds".to_string(), "0".to_string()], 2, &[]);
    }

    #[test]
    #[should_panic(expected = "--only \"rtree-x\" matches no dataset of STAGGER, RTREE-U")]
    fn an_only_name_matching_no_dataset_is_refused() {
        let short = |name| {
            Dataset::new(name, move |seed| truncate(dataset_by_name(name, seed).unwrap(), 300))
        };
        let grid = Grid {
            experiment: "grid_test",
            systems: vec![System::ficsum("FiCSUM", Variant::Full, FicsumConfig::default())],
            datasets: vec![short("STAGGER"), short("RTREE-U")],
            observed: false,
        };
        grid.run(&Options { only: Some("STAGGER,RTREE-X".into()), ..options(1, true) });
    }

    #[test]
    fn grid_runs_match_direct_evaluation_in_dataset_system_seed_order() {
        let grid = Grid {
            experiment: "grid_test",
            systems: vec![
                System::ficsum("ER", Variant::ErrorRate, FicsumConfig::default()),
                System::ficsum("FiCSUM", Variant::Full, FicsumConfig::default()),
            ],
            // Short streams keep the debug-build test quick.
            datasets: vec![
                Dataset::new("Synth_D", |seed| {
                    synth_stream(&SynthDrift::parse_combo("D"), 2, 60, seed)
                }),
                Dataset::new("CMC", |seed| truncate(dataset_by_name("CMC", seed).unwrap(), 800)),
            ],
            observed: true,
        };
        let opts = options(2, true);
        let report = grid.run(&opts);
        assert_eq!((&report.datasets, report.seeds), (&vec!["Synth_D".into(), "CMC".into()], 2));
        let mut truth_changes = 0;
        for (d, dataset) in grid.datasets.iter().enumerate() {
            for (s, system) in grid.systems.iter().enumerate() {
                for (i, run) in report.runs(d, s).iter().enumerate() {
                    let seed = i as u64 + 1;
                    let stream = truncate((dataset.stream)(seed), opts.stream_cap());
                    let k = stream.n_classes();
                    let direct = |options: RunOptions| {
                        let mut system = system.build(stream.dims(), k);
                        evaluate_with(&mut system, &mut stream.clone(), &options)
                    };
                    let want = direct(RunOptions::new(k).seed(seed).observed());
                    let unobserved = direct(RunOptions::new(k).seed(seed));
                    let at = format!("{} {} seed {seed}", dataset.label, system.label);
                    assert_eq!(
                        (run.seed, &run.system, run.n_observations),
                        (seed, &want.system, stream.len() as u64),
                        "{at}"
                    );
                    for other in [&want, &unobserved] {
                        assert_eq!(run.kappa.to_bits(), other.kappa.to_bits(), "{at}");
                        assert_eq!(run.c_f1.to_bits(), other.c_f1.to_bits(), "{at}");
                        assert_eq!(
                            run.discrimination.map(f64::to_bits),
                            other.discrimination.map(f64::to_bits),
                            "{at}"
                        );
                    }
                    let (got, want) = (run.observability.as_ref(), want.observability.as_ref());
                    let (got, want) = (got.expect("observed"), want.expect("observed"));
                    assert_eq!(
                        (got.n_truth_changes, got.detected, got.missed, got.false_alarms),
                        (want.n_truth_changes, want.detected, want.missed, want.false_alarms),
                        "{at}"
                    );
                    assert_eq!(
                        got.mean_detection_delay.map(f64::to_bits),
                        want.mean_detection_delay.map(f64::to_bits),
                        "{at}"
                    );
                    truth_changes += got.n_truth_changes;
                }
            }
        }
        assert!(truth_changes > 0, "the grid's streams change concept");
    }

    #[test]
    fn an_unobserved_grid_times_runs_without_a_recorder() {
        let grid = Grid {
            experiment: "grid_test",
            systems: vec![System::ficsum("FiCSUM", Variant::Full, FicsumConfig::default())],
            datasets: vec![Dataset::new("Synth_D", |seed| {
                synth_stream(&SynthDrift::parse_combo("D"), 2, 60, seed)
            })],
            observed: false,
        };
        let report = grid.run(&options(1, true));
        assert!(report.runs(0, 0)[0].observability.is_none());
        assert!(misses(&report.runs(0, 0)[0]).is_nan());
    }

    /// An observed run with the given detection figures.
    fn observed(
        truth_changes: u64,
        false_alarms: u64,
        missed: u64,
        delay: Option<f64>,
    ) -> RunResult {
        RunResult {
            system: "hand-built".into(),
            kappa: 0.0,
            accuracy: 0.0,
            c_f1: 0.0,
            discrimination: None,
            runtime_s: 0.0,
            n_observations: 0,
            n_models: 1,
            seed: 0,
            observability: Some(ObsSummary {
                n_events: 0,
                n_drifts: 0,
                n_switches: 0,
                n_truth_changes: truth_changes,
                detected: truth_changes - missed,
                missed,
                false_alarms,
                mean_detection_delay: delay,
                stage_costs: Vec::new(),
            }),
        }
    }

    #[test]
    fn sign_tests_pair_runs_with_ground_truth_changes() {
        // One dataset, systems [candidate, reference], four seeds.
        let candidate = vec![
            observed(2, 3, 1, Some(50.0)),
            observed(0, 9, 0, None), // no truth change: does not pair
            observed(1, 2, 1, None), // no detection: no delay pair
            observed(1, 0, 0, Some(10.0)),
        ];
        let reference = vec![
            observed(2, 1, 0, Some(40.0)),
            observed(0, 0, 0, None),
            observed(1, 1, 1, Some(30.0)),
            observed(1, 2, 1, Some(20.0)),
        ];
        let report = Report {
            datasets: vec!["D".into()],
            systems: vec!["candidate".into(), "reference".into()],
            seeds: 4,
            runs: candidate.into_iter().chain(reference).collect(),
        };
        let counts = report.sign_tests(0, 1).map(|(label, t)| (label, t.higher, t.lower, t.ties));
        assert_eq!(
            counts,
            [("false_alarms", 2, 1, 0), ("misses", 1, 1, 1), ("detection_delay", 1, 1, 0)]
        );
        // Swapped, every untied pair flips.
        let swapped = report.sign_tests(1, 0);
        assert_eq!((swapped[0].1.higher, swapped[0].1.lower), (1, 2));
        assert!((swapped[2].1.p_value - 0.75).abs() < 1e-12);
    }
}
