//! Machine-readable experiment reports (JSON export).
//!
//! Experiment binaries print human tables; this module additionally lets
//! harness code persist structured results so downstream tooling (plots,
//! regression tracking) can consume them without re-parsing text.

use crate::runner::RunResult;
use crate::stats::mean_std;

/// One (dataset, system) cell aggregated over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Dataset name.
    pub dataset: String,
    /// System / variant name.
    pub system: String,
    /// Per-seed kappa values.
    pub kappa: Vec<f64>,
    /// Per-seed accuracy values.
    pub accuracy: Vec<f64>,
    /// Per-seed C-F1 values.
    pub c_f1: Vec<f64>,
    /// Per-seed runtimes (seconds).
    pub runtime_s: Vec<f64>,
    /// Per-seed discrimination values (absent entries skipped).
    pub discrimination: Vec<f64>,
}

impl CellReport {
    /// Builds a cell from per-seed results.
    pub fn from_results(dataset: &str, results: &[RunResult]) -> Self {
        Self {
            dataset: dataset.to_string(),
            system: results.first().map(|r| r.system.clone()).unwrap_or_default(),
            kappa: results.iter().map(|r| r.kappa).collect(),
            accuracy: results.iter().map(|r| r.accuracy).collect(),
            c_f1: results.iter().map(|r| r.c_f1).collect(),
            runtime_s: results.iter().map(|r| r.runtime_s).collect(),
            discrimination: results.iter().filter_map(|r| r.discrimination).collect(),
        }
    }

    /// `(mean, std)` of the kappa values.
    pub fn kappa_summary(&self) -> (f64, f64) {
        mean_std(&self.kappa)
    }
}

/// A full experiment report (one table's worth of cells).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentReport {
    /// Experiment identifier, e.g. `"table4"`.
    pub experiment: String,
    /// Seeds used.
    pub seeds: u64,
    /// All cells.
    pub cells: Vec<CellReport>,
}

impl ExperimentReport {
    /// New empty report.
    pub fn new(experiment: &str, seeds: u64) -> Self {
        Self { experiment: experiment.to_string(), seeds, cells: Vec::new() }
    }

    /// Adds one aggregated cell.
    pub fn push(&mut self, cell: CellReport) {
        self.cells.push(cell);
    }

    /// Serialises to a JSON string (hand-rolled: the workspace deliberately
    /// avoids a JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"experiment\":\"{}\",\"seeds\":{},\"cells\":[",
            self.experiment, self.seeds
        ));
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let vec_json = |v: &[f64]| {
                let items: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
                format!("[{}]", items.join(","))
            };
            out.push_str(&format!(
                "{{\"dataset\":\"{}\",\"system\":\"{}\",\"kappa\":{},\"accuracy\":{},\"c_f1\":{},\"runtime_s\":{},\"discrimination\":{}}}",
                c.dataset,
                c.system,
                vec_json(&c.kappa),
                vec_json(&c.accuracy),
                vec_json(&c.c_f1),
                vec_json(&c.runtime_s),
                vec_json(&c.discrimination),
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(kappa: f64) -> RunResult {
        RunResult {
            system: "sys".into(),
            kappa,
            accuracy: 0.9,
            c_f1: 0.8,
            discrimination: Some(3.0),
            runtime_s: 1.5,
            n_observations: 100,
            n_models: 2,
            seed: 0,
            observability: None,
        }
    }

    #[test]
    fn cell_aggregates_seeds() {
        let cell = CellReport::from_results("DS", &[result(0.5), result(0.7)]);
        assert_eq!(cell.kappa, vec![0.5, 0.7]);
        let (m, s) = cell.kappa_summary();
        assert!((m - 0.6).abs() < 1e-12);
        assert!((s - 0.1).abs() < 1e-12);
        assert_eq!(cell.discrimination.len(), 2);
    }

    #[test]
    fn report_serialises_to_json() {
        let mut report = ExperimentReport::new("table4", 2);
        report.push(CellReport::from_results("DS", &[result(0.5)]));
        let json = report.to_json();
        assert!(json.starts_with("{\"experiment\":\"table4\""));
        assert!(json.contains("\"dataset\":\"DS\""));
        assert!(json.contains("\"kappa\":[0.500000]"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn empty_report_is_valid() {
        let report = ExperimentReport::new("t", 0);
        assert_eq!(report.to_json(), "{\"experiment\":\"t\",\"seeds\":0,\"cells\":[]}");
    }
}
