//! The result line: correctness, operation counts and named metrics.

/// What one benchmark invocation found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (pipeline steps, or session-steps submitted).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Checks beyond per-operation ones (for example the wall-share sum);
    /// each failed check is described here.
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed check of the run as a whole.
    pub fn problem(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The single-line JSON object the benchmark ends its output with.
    /// A non-finite value cannot be written as JSON; it fails the run.
    pub fn result_line(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, v, _)| format!("metric {n} is {v}"))
            .collect();
        for what in bad {
            self.problem(what);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            // A step can fail and also spoil its session's digest; the
            // count never exceeds what was attempted.
            self.failed.min(self.attempted),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("steps_per_sec", 1234.5678, "1/s");
        r.metric("setup_s", 2.5e-5, "s");
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"steps_per_sec\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 2.5e-5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("x", f64::NAN, "s");
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}
