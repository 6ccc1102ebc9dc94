//! JSONL result streaming for the experiment binaries (`--jsonl PATH`):
//! the evaluation grid writes every run through it once.
//!
//! Reuses the hand-rolled writer from `ficsum-obs` so the line format
//! matches the pipeline's own [`ficsum_obs::JsonlSink`] schema family:
//! every line is one JSON object with a `"kind"` discriminator —
//! `"result"` for run metrics, `"obs"` for a run's recorder-derived drift
//! accounting, `"stage_cost"` for one pipeline stage's cost in that run,
//! and `"throughput"` for micro-benchmark measurements.

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

    /// Writes one run of `system` on `dataset`: its metrics, plus its
    /// observability summary when the run was recorded.
    pub fn record(&mut self, dataset: &str, system: &str, result: &RunResult) {
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
            ],
        );
        let Some(obs) = &result.observability else { return };
        let _ = write_record(
            &mut self.out,
            &[
                ("kind", JsonValue::Str("obs")),
                ("experiment", JsonValue::Str(self.experiment)),
                ("dataset", JsonValue::Str(dataset)),
                ("system", JsonValue::Str(system)),
                ("seed", JsonValue::Int(result.seed)),
                ("n_events", JsonValue::Int(obs.n_events as u64)),
                ("drifts", JsonValue::Int(obs.n_drifts)),
                ("switches", JsonValue::Int(obs.n_switches)),
                ("truth_changes", JsonValue::Int(obs.n_truth_changes)),
                ("detected", JsonValue::Int(obs.detected)),
                ("missed", JsonValue::Int(obs.missed)),
                ("false_alarms", JsonValue::Int(obs.false_alarms)),
                (
                    "mean_detection_delay",
                    JsonValue::Num(obs.mean_detection_delay.unwrap_or(f64::NAN)),
                ),
            ],
        );
        for cost in &obs.stage_costs {
            let _ = write_record(
                &mut self.out,
                &[
                    ("kind", JsonValue::Str("stage_cost")),
                    ("experiment", JsonValue::Str(self.experiment)),
                    ("dataset", JsonValue::Str(dataset)),
                    ("system", JsonValue::Str(system)),
                    ("seed", JsonValue::Int(result.seed)),
                    ("stage", JsonValue::Str(cost.stage.name())),
                    ("count", JsonValue::Int(cost.count)),
                    ("total_nanos", JsonValue::Int(cost.total_nanos)),
                    ("mean_nanos", JsonValue::Num(cost.mean_nanos)),
                    ("p90_nanos", JsonValue::Int(cost.p90_nanos)),
                ],
            );
        }
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
            observability: None,
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
        assert!(lines[1].starts_with(r#"{"kind":"throughput""#));
        assert!(lines[1].contains(r#""units_per_sec":5000.0"#));
        std::fs::remove_file(&path).ok();
    }
}
