//! Observability layer for the FiCSUM reproduction.
//!
//! Every quantity the paper's analysis reads off the pipeline — similarity
//! traces, drift points, per-stage cost, weight recomputations, repository
//! churn (Section V) — flows through one interface: the [`Recorder`] trait.
//! The framework emits typed [`StreamEvent`]s and monotonic stage spans;
//! what happens to them is the recorder's business:
//!
//! * [`NullRecorder`] — the inlined no-op default. All methods are empty
//!   and [`Recorder::enabled`] returns `false`, letting hot paths skip even
//!   the clock reads that would feed a span.
//! * [`InMemoryRecorder`] — retains everything (events in arrival order,
//!   per-stage latency histograms) for tests and the bench binaries.
//! * [`JsonlSink`] — streams each signal as one JSON line to any
//!   [`std::io::Write`], for experiment binaries and offline analysis.
//!
//! Timing never reads the wall clock directly: stage spans are measured
//! against a caller-supplied [`Clock`] ([`MonotonicClock`] in production,
//! [`ManualClock`] in tests) so latency observability itself stays
//! deterministic and testable.
//!
//! The crate is dependency-free and knows nothing about the rest of the
//! workspace; every other crate depends on it, never the reverse.

pub mod clock;
pub mod event;
pub mod histogram;
pub mod jsonl;
pub mod memory;
pub mod recorder;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use event::{DriftTrigger, Stage, StreamEvent};
pub use histogram::LatencyHistogram;
pub use jsonl::JsonlSink;
pub use memory::InMemoryRecorder;
pub use recorder::{shared, NullRecorder, Recorder, SharedRecorder};
