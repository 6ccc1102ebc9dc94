//! JSONL result streaming for the experiment binaries (`--jsonl PATH`):
//! the evaluation grid writes every run through it once.
//!
//! Reuses the hand-rolled writer from `ficsum-obs` so the line format
//! matches the pipeline's own [`ficsum_obs::JsonlSink`] schema family:
//! every line is one JSON object with a `"kind"` discriminator —
//! `"result"` for one run's metrics and detection accounting, and
//! `"throughput"` for micro-benchmark measurements.

use std::fs::File;
use std::io::{BufWriter, Stdout, Write};

use ficsum_eval::RunResult;
use ficsum_obs::jsonl::{write_record, JsonValue};

use crate::throughput::Throughput;

enum Sink {
    Stdout(Stdout),
    File(BufWriter<File>),
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sink::Stdout(s) => s.write(buf),
            Sink::File(f) => f.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Sink::Stdout(s) => s.flush(),
            Sink::File(f) => f.flush(),
        }
    }
}

/// Streams experiment results as JSONL (see module docs for the schema).
pub struct JsonlReporter {
    out: Sink,
    experiment: &'static str,
}

impl JsonlReporter {
    /// A reporter for `experiment` writing to the `--jsonl` value `path`
    /// (`-` = stdout). `None` when the flag was not given.
    pub fn open(experiment: &'static str, path: Option<&str>) -> Option<Self> {
        let path = path?;
        let out = if path == "-" {
            Sink::Stdout(std::io::stdout())
        } else {
            Sink::File(BufWriter::new(
                File::create(path).unwrap_or_else(|e| panic!("--jsonl {path}: {e}")),
            ))
        };
        Some(Self { out, experiment })
    }

    /// Writes one run of `system` on `dataset`: its metrics and its
    /// detection accounting, as one `"result"` line.
    pub fn record(&mut self, dataset: &str, system: &str, result: &RunResult) {
        let detection = &result.detection;
        let _ = write_record(
            &mut self.out,
            &[
                ("kind", JsonValue::Str("result")),
                ("experiment", JsonValue::Str(self.experiment)),
                ("dataset", JsonValue::Str(dataset)),
                ("system", JsonValue::Str(system)),
                ("seed", JsonValue::Int(result.seed)),
                ("kappa", JsonValue::Num(result.kappa)),
                ("accuracy", JsonValue::Num(result.accuracy)),
                ("c_f1", JsonValue::Num(result.c_f1)),
                (
                    "discrimination",
                    JsonValue::Num(result.discrimination.unwrap_or(f64::NAN)),
                ),
                ("runtime_s", JsonValue::Num(result.runtime_s)),
                ("n_observations", JsonValue::Int(result.n_observations)),
                ("n_models", JsonValue::Int(result.n_models as u64)),
                ("drifts", JsonValue::Int(detection.n_drifts)),
                ("truth_changes", JsonValue::Int(detection.n_truth_changes)),
                ("detected", JsonValue::Int(detection.detected)),
                ("missed", JsonValue::Int(detection.missed)),
                ("false_alarms", JsonValue::Int(detection.false_alarms)),
                (
                    "mean_detection_delay",
                    JsonValue::Num(detection.mean_detection_delay.unwrap_or(f64::NAN)),
                ),
            ],
        );
    }

    /// Writes one micro-benchmark throughput measurement.
    pub fn record_throughput(&mut self, label: &str, t: &Throughput) {
        let _ = write_record(
            &mut self.out,
            &[
                ("kind", JsonValue::Str("throughput")),
                ("experiment", JsonValue::Str(self.experiment)),
                ("label", JsonValue::Str(label)),
                ("iterations", JsonValue::Int(t.iterations)),
                ("seconds", JsonValue::Num(t.seconds)),
                ("units_per_iter", JsonValue::Int(t.units_per_iter)),
                ("units_per_sec", JsonValue::Num(t.units_per_sec())),
            ],
        );
    }

    /// Flushes the sink.
    pub fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_eval::Detection;

    #[test]
    fn absent_flag_disables_reporting() {
        assert!(JsonlReporter::open("t", None).is_none());
    }

    #[test]
    fn records_are_one_json_object_per_line() {
        let dir = std::env::temp_dir().join("ficsum_jsonl_out_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let path_s = path.to_str().unwrap().to_owned();
        let mut rep = JsonlReporter::open("unit", Some(&path_s)).unwrap();
        let result = RunResult {
            system: "FiCSUM".into(),
            kappa: 0.5,
            accuracy: 0.75,
            c_f1: 0.25,
            discrimination: None,
            runtime_s: 0.1,
            n_observations: 100,
            n_models: 2,
            seed: 3,
            detection: Detection::from_drifts(&[60], &[50], 0, 100),
        };
        rep.record("STAGGER", "FiCSUM", &result);
        rep.record_throughput(
            "extract",
            &Throughput { iterations: 10, seconds: 1.0, units_per_iter: 500 },
        );
        rep.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"kind":"result","experiment":"unit","dataset":"STAGGER""#));
        assert!(lines[0].contains(r#""discrimination":null"#));
        assert!(lines[0].ends_with(
            r#""drifts":1,"truth_changes":1,"detected":1,"missed":0,"false_alarms":0,"mean_detection_delay":10.0}"#
        ));
        assert!(lines[1].starts_with(r#"{"kind":"throughput""#));
        assert!(lines[1].contains(r#""units_per_sec":5000.0"#));
        std::fs::remove_file(&path).ok();
    }
}
