//! Outside-timed `Ficsum::process` calls, split by the kind of work each
//! call did.

use std::time::Instant;

use ficsum_core::{Ficsum, StepOutcome};

use crate::alloc;
use crate::report::Report;
use crate::stats::{quantile, StepClassifier, StepKind};

/// Steps of a stream after which its pipeline counts as warmed up for the
/// allocation figure.
pub const WARMUP_STEPS: usize = 1_000;

/// Per-kind call times and steady-state allocations of traced calls.
#[derive(Debug, Default)]
pub struct StepTrace {
    call_us: [Vec<f64>; 4],
    busy_s: [f64; 4],
    steady_allocs: u64,
    steady_steps: u64,
}

impl StepTrace {
    /// One timed and classified `process` call; `step` is the 0-based
    /// position of the observation in its stream.
    pub fn process(
        &mut self,
        pipeline: &mut Ficsum,
        kinds: &mut StepClassifier,
        step: usize,
        x: &[f64],
        y: usize,
    ) -> StepOutcome {
        let allocs_before = alloc::allocations();
        let start = Instant::now();
        let out = pipeline.process(x, y);
        let dt = start.elapsed().as_secs_f64();
        let allocs = alloc::allocations() - allocs_before;
        let kind = kinds.classify(out.drift, pipeline.repository().len());
        self.call_us[kind.index()].push(dt * 1e6);
        self.busy_s[kind.index()] += dt;
        if step >= WARMUP_STEPS && kind != StepKind::Drift {
            self.steady_allocs += allocs;
            self.steady_steps += 1;
        }
        out
    }

    /// Writes the `core.*` step metrics. Wall shares are of `wall_s`, the
    /// wall time of the loops the calls were made in, so their sum falls
    /// short of 1 by the loops' own overhead. Returns that sum.
    pub fn report(mut self, wall_s: f64, report: &mut Report) -> f64 {
        for kind in StepKind::ALL {
            let calls = &mut self.call_us[kind.index()];
            let median = if calls.is_empty() {
                0.0
            } else {
                quantile(calls, 0.5)
            };
            report.metric(&format!("core.{}_step_us", kind.name()), median, "us");
        }
        for kind in StepKind::ALL {
            let share = self.busy_s[kind.index()] / wall_s;
            report.metric(&format!("core.wall_share.{}", kind.name()), share, "ratio");
        }
        report.metric(
            "core.allocs_per_steady_step",
            self.steady_allocs as f64 / self.steady_steps.max(1) as f64,
            "count",
        );
        self.busy_s.iter().sum::<f64>() / wall_s
    }
}

/// Fails the run when traced calls do not account for the loop's wall
/// time within 5%.
pub fn check_wall_shares(sum: f64, report: &mut Report) {
    if (sum - 1.0).abs() > 0.05 {
        report.problem(format!(
            "core.wall_share.* sums to {sum:.4}, not 1 within 5%"
        ));
    }
}
