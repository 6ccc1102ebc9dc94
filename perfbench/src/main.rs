//! One benchmark for the FiCSUM workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stagger-batch --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Runs the named workload on inputs generated from `--seed` for about
//! `--seconds` seconds, checks the outputs, and ends its output with one
//! JSON line: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, timed from outside around calls into each
//! layer's public API. Exits 1 when a check fails and 2 on bad arguments.
//! See README.md beside this file.

mod alloc;
mod calib;
mod layers;
mod pipeline;
mod report;
mod sessions;
mod stats;
mod trace;

use std::time::Duration;

use pipeline::Pipeline;
use report::Report;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

#[derive(Debug)]
pub struct Args {
    pub workload: Pipeline,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: --workload <stagger-batch|rtree-incremental> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Pipeline::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(bad("expected a positive integer")),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Whether another iteration fits in `budget`, judging by the mean time of
/// the `done` iterations that took `spent`. The first always runs.
pub fn fits(spent: Duration, done: usize, budget: Duration) -> bool {
    done == 0 || spent + spent / done as u32 <= budget
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `name` of every pass, and their median: the run's own spread.
pub fn spread_line(name: &str, values: &[f64]) -> String {
    let each: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!(
        "{name} per pass [{}], median {:.3}",
        each.join(", "),
        stats::median(values)
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "machine: available_parallelism={cores}; workload {:?}, seed {}, {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    pipeline::run(&args, &mut report);
    let line = report.result_line();
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload rtree-incremental --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Pipeline::RtreeIncremental);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(args("--workload net-sessions --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload stagger-batch --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload stagger-batch --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 5").is_err());
    }

    #[test]
    fn budget_admits_the_first_iteration_and_predicts_the_next() {
        let s = Duration::from_secs;
        assert!(fits(s(100), 0, s(1)));
        assert!(fits(s(6), 2, s(10)));
        assert!(!fits(s(8), 2, s(10)));
    }
}
