//! The perf-smoke harness the four throughput binaries
//! (`stream_throughput`, `extraction_throughput`, `serve_throughput`,
//! `net_throughput`) share, one copy of each piece: the flag parser
//! ([`Flags`], which [`crate::harness::Options::parse`] is also built on),
//! the best-of-R loop ([`best_of`]), the std-only timer
//! ([`time_throughput`]), the baseline writer ([`write_baseline`]), the
//! baseline reader and gate ([`Baseline`]), and the benches' workloads.
//!
//! A baseline is a file of single-object JSON lines, formatted by
//! [`ficsum_obs::jsonl::format_record`]: `--out PATH` replaces the file
//! and `--append PATH` adds to it. `--check PATH` reads it back: every
//! gated throughput field must reach [`MIN_RATIO`] × its baseline value,
//! and a gated p99 latency may be at most [`MAX_P99_RATIO`] × the
//! baseline's `latency_p99_us`. A failed gate prints `PERF REGRESSION:
//! ...` to stderr and exits with status 1.

use std::str::FromStr;
use std::time::Instant;

use ficsum_core::{FicsumConfig, SessionTemplate, Variant};
use ficsum_obs::jsonl::JsonValue;
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
use ficsum_stream::{LabeledObservation, StreamSource};
use ficsum_synth::dataset_by_name;

/// Lowest accepted ratio of a gated throughput field to its baseline: a
/// drop of more than 20% fails.
pub const MIN_RATIO: f64 = 0.8;

/// Highest accepted ratio of p99 latency to its baseline. Tails get more
/// headroom than throughput: serve's p99 includes residency behind earlier
/// in-flight waves, and loopback p99 is dominated by scheduling noise.
pub const MAX_P99_RATIO: f64 = 3.0;

/// Command-line flags: each valued flag takes the next argument as its
/// value, each switch takes none.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parses `args` against the `valued` flags and `switches` a binary
    /// accepts. Panics on an unknown flag, listing the supported ones, and
    /// on a valued flag without a value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Self {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&switch) = switches.iter().find(|&&s| s == arg) {
                given.push((switch, None));
                continue;
            }
            let Some(&flag) = valued.iter().find(|&&v| v == arg) else {
                let supported: Vec<String> = valued
                    .iter()
                    .map(|v| format!("{v} VALUE"))
                    .chain(switches.iter().map(|s| s.to_string()))
                    .collect();
                panic!("unknown option {arg}; supported: {}", supported.join(", "));
            };
            let value = args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
            given.push((flag, Some(value)));
        }
        Self { given }
    }

    /// [`Flags::parse`] over the process arguments.
    pub fn from_env(valued: &[&'static str], switches: &[&'static str]) -> Self {
        Self::parse(std::env::args().skip(1), valued, switches)
    }

    /// The value the valued `flag` was last given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.iter().rev().find(|(f, _)| *f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// `flag`'s value parsed, or `default` when it was not given. Panics
    /// naming the flag when the value does not parse.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.value(flag).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("{flag} requires a number, got {v:?}"))
        })
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, v)| *f == flag && v.is_none())
    }
}

/// Runs `run` `repeat` times (once when `repeat` is 0) and returns the
/// highest `rate` with the run that gave it. Throughput noise is one-sided
/// (scheduling stalls only ever slow a run down), so the best run is the
/// honest estimate.
pub fn best_of<M>(repeat: usize, mut run: impl FnMut() -> M, rate: impl Fn(&M) -> f64) -> (f64, M) {
    let mut best: Option<(f64, M)> = None;
    for _ in 0..repeat.max(1) {
        let m = run();
        let r = rate(&m);
        if best.as_ref().is_none_or(|(b, _)| r > *b) {
            best = Some((r, m));
        }
    }
    best.expect("at least one repeat")
}

/// Cores available to this process, as a baseline's `cores` field records
/// them.
pub fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as u64
}

/// `x` rounded to `places` decimals, as a baseline field: lines keep the
/// precision a figure is meaningful to.
pub fn fixed(x: f64, places: i32) -> JsonValue<'static> {
    let scale = 10f64.powi(places);
    JsonValue::Num((x * scale).round() / scale)
}

/// The baseline writer: `lines` replace the file at `--out PATH` and are
/// added after the lines already at `--append PATH` (created when
/// missing), for whichever of the two flags the binary accepts and was
/// given.
pub fn write_baseline(flags: &Flags, lines: &[String]) {
    for (flag, append) in [("--out", false), ("--append", true)] {
        let Some(path) = flags.value(flag) else { continue };
        let mut text =
            if append { std::fs::read_to_string(path).unwrap_or_default() } else { String::new() };
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(path, text).unwrap_or_else(|e| panic!("{flag} {path}: {e}"));
        println!("{} {path}", if append { "appended to" } else { "wrote" });
    }
}

/// Pulls a numeric field out of a single-object JSON line without a JSON
/// dependency (the baseline files are machine-written by the binaries).
fn json_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let at = json.find(&key)? + key.len();
    let rest = &json[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// A committed baseline file, read for `--check PATH`.
pub struct Baseline {
    path: String,
    text: String,
}

impl Baseline {
    /// Reads the baseline at `path`; panics naming the path if it cannot
    /// be read.
    pub fn read(path: &str) -> Self {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {path}: {e}"));
        Self { path: path.to_owned(), text }
    }

    /// The first line carrying every `"key":"value"` tag in `tags` (the
    /// first non-empty line when `tags` is empty); panics naming the file
    /// when no line does.
    pub fn line(&self, tags: &[(&str, &str)]) -> &str {
        let tags: Vec<String> = tags.iter().map(|(k, v)| format!("\"{k}\":\"{v}\"")).collect();
        self.text
            .lines()
            .find(|l| !l.trim().is_empty() && tags.iter().all(|t| l.contains(t.as_str())))
            .unwrap_or_else(|| panic!("--check {}: no line tagged {}", self.path, tags.join(",")))
    }

    /// The numeric `field` of `line`; panics naming the file when absent.
    pub fn field(&self, line: &str, field: &str) -> f64 {
        json_field(line, field).unwrap_or_else(|| panic!("--check {}: no {field} field", self.path))
    }

    /// The perf gate, on the line `tags` select: each `(field, value)` of
    /// `floors` must reach [`MIN_RATIO`] × the line's `field`, and
    /// `p99_us`, when given, may be at most [`MAX_P99_RATIO`] × its
    /// `latency_p99_us`. Prints one `perf check:` line per comparison;
    /// exits 1 after printing every failure.
    pub fn gate(&self, tags: &[(&str, &str)], floors: &[(&str, f64)], p99_us: Option<f64>) {
        let failures = self.regressions(self.line(tags), floors, p99_us);
        for failure in &failures {
            eprintln!("PERF REGRESSION: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
    }

    /// [`Baseline::gate`]'s comparisons on `line`: prints each and returns
    /// the failed ones.
    fn regressions(&self, line: &str, floors: &[(&str, f64)], p99_us: Option<f64>) -> Vec<String> {
        let mut failures = Vec::new();
        for &(field, value) in floors {
            let base = self.field(line, field);
            let ratio = value / base;
            println!(
                "perf check: {field} {value:.0} vs baseline {base:.0} \
                 (ratio {ratio:.2}, floor {MIN_RATIO:.2})"
            );
            if ratio < MIN_RATIO {
                failures.push(format!("{field} ratio {ratio:.2} below {MIN_RATIO:.2}"));
            }
        }
        if let Some(p99) = p99_us {
            let base = self.field(line, "latency_p99_us");
            let ratio = p99 / base;
            println!(
                "perf check: latency_p99_us {p99:.0} vs baseline {base:.0} \
                 (ratio {ratio:.2}, ceiling {MAX_P99_RATIO:.2})"
            );
            if ratio > MAX_P99_RATIO {
                failures.push(format!("latency_p99_us ratio {ratio:.2} above {MAX_P99_RATIO:.2}"));
            }
        }
        failures
    }
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

/// The serving benches' session template: default config, full FiCSUM,
/// STAGGER's 3 features and 2 classes.
pub fn serving_template() -> SessionTemplate {
    SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::Full)
        .expect("default config is valid")
}

/// One tape of STAGGER observations shared by every session: runs are
/// deterministic, and aggregate throughput divides cleanly by the
/// single-pipeline figure.
pub fn stagger_tape(seed: u64, steps: usize) -> Vec<(Vec<f64>, usize)> {
    let mut stream = dataset_by_name("STAGGER", seed).expect("STAGGER exists");
    (0..steps)
        .map(|_| {
            let o = stream.next_observation().expect("synthetic streams are infinite");
            (o.features.clone(), o.label)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_obs::jsonl::format_record;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    /// A committed baseline at the repository root.
    fn committed(name: &str) -> Baseline {
        Baseline::read(&format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR")))
    }

    /// A fresh path under the temp directory, unique to `test`.
    fn scratch_path(test: &str) -> String {
        let dir = std::env::temp_dir().join(format!("ficsum_throughput_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{test}.json"));
        std::fs::remove_file(&path).ok();
        path.to_str().unwrap().to_owned()
    }

    #[test]
    fn json_field_reads_numbers_and_misses_cleanly() {
        let line = r#"{"bench":"serve_throughput","steps_per_sec":1234.5,"latency_p99_us":88}"#;
        assert_eq!(json_field(line, "steps_per_sec"), Some(1234.5));
        assert_eq!(json_field(line, "latency_p99_us"), Some(88.0));
        assert_eq!(json_field(line, "bench"), None, "not a number");
        assert_eq!(json_field(line, "scaling"), None, "absent");
    }

    #[test]
    fn flags_take_values_and_switches_and_keep_the_last_value() {
        let flags = Flags::parse(
            args(&["--steps", "30", "--incremental", "--steps", "40", "--out", "x.json"]),
            &["--steps", "--out", "--check"],
            &["--incremental", "--stages"],
        );
        assert_eq!(flags.get("--steps", 0usize), 40);
        assert_eq!(flags.get("--seed", 42u64), 42, "absent flags keep their default");
        assert_eq!(flags.value("--out"), Some("x.json"));
        assert_eq!(flags.value("--check"), None);
        assert!(flags.switch("--incremental") && !flags.switch("--stages"));
    }

    #[test]
    #[should_panic(expected = "unknown option --min-ratio")]
    fn undeclared_flags_are_refused() {
        Flags::parse(args(&["--min-ratio", "0.8"]), &["--check"], &[]);
    }

    #[test]
    #[should_panic(expected = "--check needs a value")]
    fn a_valued_flag_without_a_value_is_refused() {
        Flags::parse(args(&["--check"]), &["--check"], &[]);
    }

    #[test]
    fn best_of_keeps_the_fastest_run_and_runs_at_least_once() {
        let mut rates = [3.0, 9.0, 5.0].into_iter();
        let (rate, run) = best_of(3, || rates.next().unwrap(), |&r| r);
        assert_eq!((rate, run), (9.0, 9.0));
        let mut calls = 0;
        best_of(0, || calls += 1, |_| 0.0);
        assert_eq!(calls, 1);
    }

    #[test]
    fn committed_baselines_carry_every_field_their_check_reads() {
        let stream = committed("BENCH_stream.json");
        for mode in ["batch", "incremental"] {
            let line = stream.line(&[("mode", mode)]);
            assert!(line.starts_with(r#"{"bench":"stream_throughput""#));
            assert!(stream.field(line, "steps_per_sec") > 0.0, "{mode}");
        }
        let extract = committed("BENCH_extract.json");
        for field in ["engine_obs_per_sec", "stream_incremental_obs_per_sec"] {
            assert!(extract.field(extract.line(&[]), field) > 0.0, "{field}");
        }
        for name in ["BENCH_serve.json", "BENCH_net.json"] {
            let baseline = committed(name);
            let line = baseline.line(&[]);
            for field in ["steps_per_sec", "latency_p99_us"] {
                assert!(baseline.field(line, field) > 0.0, "{name} {field}");
            }
        }
    }

    #[test]
    fn the_gate_passes_the_baseline_itself_and_fails_past_its_bounds() {
        let serve = committed("BENCH_serve.json");
        let line = serve.line(&[]);
        let (sps, p99) = (serve.field(line, "steps_per_sec"), serve.field(line, "latency_p99_us"));
        let floors = |sps| [("steps_per_sec", sps)];
        assert!(serve.regressions(line, &floors(sps), Some(p99)).is_empty());
        let within = serve.regressions(line, &floors(sps * 0.81), Some(p99 * 2.99));
        assert!(within.is_empty(), "{within:?}");
        let past = serve.regressions(line, &floors(sps * 0.79), Some(p99 * 3.01));
        assert_eq!(past.len(), 2, "{past:?}");
        assert!(past[0].starts_with("steps_per_sec ratio 0.79 below 0.80"), "{past:?}");
        assert!(past[1].starts_with("latency_p99_us ratio 3.01 above 3.00"), "{past:?}");
    }

    #[test]
    fn a_written_line_reads_back_with_the_same_values() {
        let path = scratch_path("written");
        let line = format_record(&[
            ("bench", JsonValue::Str("unit")),
            ("mode", JsonValue::Str("batch")),
            ("steps", JsonValue::Int(29_997)),
            ("steps_per_sec", fixed(14715.6449, 1)),
            ("accuracy", fixed(0.7266064, 6)),
        ]);
        write_baseline(&Flags::parse(args(&["--out", &path]), &["--out"], &[]), &[line]);
        let baseline = Baseline::read(&path);
        let read = baseline.line(&[("mode", "batch")]);
        assert_eq!(json_field(read, "steps"), Some(29_997.0));
        assert_eq!(json_field(read, "steps_per_sec"), Some(14715.6));
        assert_eq!(json_field(read, "accuracy"), Some(0.726606));
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_keeps_the_lines_already_in_the_file() {
        let path = scratch_path("appended");
        std::fs::write(&path, r#"{"mode":"batch","steps_per_sec":1.5}"#).unwrap();
        let line = format_record(&[
            ("mode", JsonValue::Str("incremental")),
            ("steps_per_sec", JsonValue::Num(2.5)),
        ]);
        let flags = Flags::parse(args(&["--append", &path]), &["--out", "--append"], &[]);
        write_baseline(&flags, &[line]);
        let baseline = Baseline::read(&path);
        for (mode, sps) in [("batch", 1.5), ("incremental", 2.5)] {
            assert_eq!(baseline.field(baseline.line(&[("mode", mode)]), "steps_per_sec"), sps);
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
