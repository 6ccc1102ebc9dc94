//! Experiment binaries reproducing the paper's tables and figures.
//! See the `bin/` directory; shared helpers live in [`harness`].

pub mod harness;
pub mod jsonl_out;
pub mod throughput;
#[cfg(feature = "alloc-count")]
pub mod alloc_count;
