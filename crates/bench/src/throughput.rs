//! Pieces the throughput binaries share: reading a committed baseline
//! (`--check`), the gates that compare a run against it, and the serving
//! benches' workload.
//!
//! Baselines are single-object JSON lines the binaries write themselves
//! (`--out`). A failed gate prints `PERF REGRESSION: ...` to stderr and
//! exits with status 1.

use ficsum_core::{FicsumConfig, SessionTemplate, Variant};
use ficsum_stream::StreamSource;
use ficsum_synth::dataset_by_name;

/// Pulls a numeric field out of a single-object JSON line without a JSON
/// dependency (the baseline files are machine-written by the binaries).
pub fn json_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let at = json.find(&key)? + key.len();
    let rest = &json[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Reads the `--check` baseline file at `path`; panics naming the path if
/// it cannot be read.
pub fn read_baseline(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {path}: {e}"))
}

/// Throughput floor: exits 1 when `steps_per_sec` is below `min_ratio` ×
/// the baseline line's `steps_per_sec`. `path` names the baseline in
/// messages.
pub fn check_throughput_floor(path: &str, baseline: &str, steps_per_sec: f64, min_ratio: f64) {
    let base_sps = json_field(baseline, "steps_per_sec")
        .unwrap_or_else(|| panic!("--check {path}: no steps_per_sec field"));
    let ratio = steps_per_sec / base_sps;
    println!(
        "perf check: {steps_per_sec:.0} steps/sec vs baseline {base_sps:.0} \
         (ratio {ratio:.2}, floor {min_ratio:.2})"
    );
    if ratio < min_ratio {
        eprintln!("PERF REGRESSION: throughput ratio {ratio:.2} below {min_ratio:.2}");
        std::process::exit(1);
    }
}

/// Tail-latency ceiling: when the baseline records `latency_p99_us`, exits
/// 1 if `p99_us` is above `max_ratio` × it. `ratio_name` names the ratio in
/// the failure message.
pub fn check_p99_ceiling(baseline: &str, p99_us: f64, max_ratio: f64, ratio_name: &str) {
    let Some(base_p99) = json_field(baseline, "latency_p99_us") else {
        return;
    };
    let p99_ratio = p99_us / base_p99;
    println!(
        "perf check: latency p99 {p99_us:.0} us vs baseline {base_p99:.0} \
         (ratio {p99_ratio:.2}, ceiling {max_ratio:.2})"
    );
    if p99_ratio > max_ratio {
        eprintln!("PERF REGRESSION: {ratio_name} ratio {p99_ratio:.2} above {max_ratio:.2}");
        std::process::exit(1);
    }
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

    #[test]
    fn json_field_reads_numbers_and_misses_cleanly() {
        let line = r#"{"bench":"serve_throughput","steps_per_sec":1234.5,"latency_p99_us":88}"#;
        assert_eq!(json_field(line, "steps_per_sec"), Some(1234.5));
        assert_eq!(json_field(line, "latency_p99_us"), Some(88.0));
        assert_eq!(json_field(line, "bench"), None, "not a number");
        assert_eq!(json_field(line, "scaling"), None, "absent");
    }
}
