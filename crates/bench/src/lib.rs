//! Experiment binaries reproducing the paper's tables and figures.
//! See the `bin/` directory. Each paper-metric binary is a spec over the
//! evaluation grid in [`harness`] ([`harness::Grid`]); the throughput
//! binaries share the perf-smoke harness in [`throughput`].

pub mod alloc_count;
pub mod harness;
pub mod jsonl_out;
pub mod throughput;
