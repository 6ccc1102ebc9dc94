//! Evaluation layer for the FiCSUM reproduction.
//!
//! Implements every quantity the paper's evaluation reports:
//!
//! * the prequential **kappa statistic** ([`kappa::KappaEvaluator`]),
//! * the **co-occurrence F1** (C-F1, Section II of the paper) measuring how
//!   well system model identities track ground-truth concepts
//!   ([`cf1::CoOccurrenceF1`]),
//! * **discrimination ability** aggregation ([`runner`]),
//! * the **Friedman test** with Nemenyi post-hoc critical differences over
//!   per-dataset ranks ([`stats`]),
//! * **detection accounting** — false alarms, misses and detection delay
//!   of the drifts a system reports ([`detection::Detection`]),
//! * a generic prequential [`runner`] driving any [`EvaluatedSystem`] over a
//!   stream and collecting all of the above, plus paper-style table
//!   formatting ([`table`]).

pub mod cf1;
pub mod detection;
pub mod kappa;
pub mod runner;
pub mod stats;
pub mod table;

pub use cf1::CoOccurrenceF1;
pub use detection::Detection;
pub use kappa::KappaEvaluator;
pub use runner::{evaluate_with, EvaluatedSystem, RunOptions, RunResult, Step};
pub use stats::{
    friedman_test, mean_std, nemenyi_critical_difference, rank_rows, sign_test_higher,
    FriedmanOutcome, SignTest,
};
pub use table::{format_cell, Table};
