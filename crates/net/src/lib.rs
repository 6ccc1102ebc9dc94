//! Network serving for FiCSUM: the wire protocol, the TCP front-end and
//! the client library.
//!
//! [`ficsum_serve::StreamServer`] turns one process into a multi-session
//! drift-detection service; this crate turns that service into a network
//! one, using only the standard library:
//!
//! * [`wire`] — a versioned, length-prefixed, little-endian frame
//!   protocol with stable error codes, so peers built at different times
//!   interoperate or fail loudly at handshake.
//! * [`NetServer`] — an accept loop plus per-connection handlers bridging
//!   framed requests onto shared [`ficsum_serve::StreamServer`] queues.
//!   The core's semantics cross the wire intact: backpressure is an
//!   explicit `REJECTED` answer (retry the batch verbatim), deadlines
//!   bound admission server-side, and a poisoned session fails only its
//!   own slots.
//! * [`NetClient`] — a blocking client with connection reuse and the
//!   wire's two admission modes, mirroring the in-process API: `submit`
//!   (`try_submit`) and `submit_with_deadline`. It runs the serving core's
//!   own [`ficsum_serve::validate_batch`] before sending.
//!
//! Sessions served over TCP are **bit-identical** to local pipelines
//! built from the same template — features cross the wire as IEEE-754 bit
//! patterns, and the core's per-session ordering does the rest (pinned by
//! `tests/net_parity.rs` at the workspace root).
//!
//! ```no_run
//! use std::sync::Arc;
//! use ficsum_core::{FicsumConfig, SessionTemplate, Variant};
//! use ficsum_net::{NetClient, NetServer};
//! use ficsum_serve::{ServeConfig, SessionId, StreamServer, Submit};
//!
//! let template = SessionTemplate::new(2, 2, FicsumConfig::default(), Variant::Full)?;
//! let core = Arc::new(StreamServer::new(template, ServeConfig::default()));
//! let server = NetServer::bind("127.0.0.1:0", core)?;
//!
//! let mut client = NetClient::connect(server.local_addr())?;
//! let results = client.submit(&[Submit::new(SessionId(1), vec![0.2, 0.8], 1)])?;
//! assert_eq!(results.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod client;
mod codec;
mod error;
mod metrics;
mod server;
mod snapshot;
mod submit;
pub mod wire;

pub use client::NetClient;
pub use error::{NetError, ProtocolError};
pub use metrics::{ConnRecorderFactory, NetMetrics};
pub use server::{NetOptions, NetReport, NetServer};
pub use snapshot::SnapshotSummary;
pub use submit::{RemoteOutcome, RemoteStepResult};

// Compile-time audit: the front-end is shared across its accept loop,
// handlers and the shutdown path; the client moves between threads in
// pooled callers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<NetServer>();
    assert_send::<NetClient>();
    assert_send::<NetError>();
    assert_send::<NetMetrics>();
};
