//! Sharded multi-stream serving for FiCSUM.
//!
//! A production drift-detection deployment rarely serves one stream: it
//! serves thousands of independent sessions (one per sensor, tenant, or
//! device), each an isolated [`ficsum_core::Ficsum`] pipeline. This crate
//! turns the single-stream core into that deployment shape:
//!
//! * [`StreamServer`] owns N shard workers. Sessions are hash-partitioned
//!   across shards ([`StreamServer::shard_of`]); each shard's single thread
//!   owns its sessions outright, so per-session processing order equals
//!   submission order and served results are **bit-identical** to a
//!   standalone pipeline (pinned by `tests/net_parity.rs`).
//! * Batched [`Submit`]s enter through bounded queues with explicit
//!   backpressure, in one of two modes: [`StreamServer::try_submit`] never
//!   blocks — a full shard refuses the whole batch with
//!   [`ServeError::Overloaded`] and enqueues nothing, so the caller can
//!   retry verbatim — and [`StreamServer::submit_with_deadline`] waits for
//!   room up to a deadline. Both run the same [`validate_batch`] check,
//!   which the network client shares.
//! * Sessions are created lazily from one validated
//!   [`ficsum_core::SessionTemplate`] and evicted least-recently-used at a
//!   per-shard cap, leaving a [`SessionSnapshot`] of what they learned —
//!   including a full [`ficsum_core::SessionCheckpoint`] from which a
//!   future server rehydrates the session bit-identically
//!   ([`ServeOptions::with_restore`]).
//! * Observability rides along per shard: session and batch events flow
//!   through any [`ficsum_obs::Recorder`] built by a [`RecorderFactory`] on
//!   the shard's own thread, while request counts, queue depths and
//!   submit→reply latency histograms live in each shard's
//!   [`ShardMetrics`].
//! * Workers are **supervised**: a panicking pipeline quarantines only its
//!   own session ([`StepError::SessionPoisoned`]); a panic escaping the
//!   per-request guard restarts the worker with its session table and
//!   backlog intact. Accepted requests always complete — with an outcome
//!   or a [`StepError`] — so [`BatchReply::wait`] cannot hang, and
//!   [`BatchReply::wait_timeout`] bounds the wait itself. The
//!   `fault-injection` cargo feature (off by default, zero release
//!   overhead) adds deterministic fail points for exercising all of this in
//!   tests.
//!
//! # Threading model (the `Send` audit)
//!
//! `Ficsum` is deliberately **not** `Send`: recorders may be
//! single-threaded `Rc`-shared handles. Nothing in this crate moves a
//! pipeline between threads. What crosses the submit channel is plain data
//! — session id, features, label, a reply slot — and what shards share at
//! startup is the `Send + Sync` template; every pipeline is constructed on
//! the worker thread that will own it for its whole life. The assertions
//! below make this contract a compile-time fact.

mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod queue;
mod reply;
mod server;
mod session;
mod shard;
mod sync;

pub use error::{ServeError, StepError, StepResult};
pub use reply::BatchReply;
pub use server::{
    validate_batch, RecorderFactory, ServeConfig, ServeOptions, ServeReport, ShardMetrics,
    StreamServer, Submit,
};
pub use session::{EvictReason, SessionId, SessionSnapshot};

#[cfg(feature = "fault-injection")]
pub use fault::{FailPoint, FaultAction, FaultInjector, ScriptedFaults, SeededFaults};

// Compile-time Send audit of everything that crosses or touches the
// channel boundary.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<queue::Request>();
    assert_send::<BatchReply>();
    assert_send::<Submit>();
    assert_send::<ServeError>();
    assert_send::<SessionSnapshot>();
    assert_send::<StepError>();
    assert_send::<ficsum_core::SessionCheckpoint>();
    assert_send_sync::<ficsum_core::SessionTemplate>();
    assert_send_sync::<StreamServer>();
};
