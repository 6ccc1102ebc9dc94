//! Serving errors.
//!
//! Two layers of failure, matching the two promises the server makes:
//!
//! * [`ServeError`] — the *submit* path. Returned eagerly; a rejected batch
//!   has enqueued **zero** of its requests and can be retried verbatim.
//! * [`StepError`] — the *reply* path. Once a batch is accepted every slot
//!   is guaranteed to complete, but under faults a slot may complete with
//!   an error instead of an outcome: a panicking session is quarantined
//!   ([`StepError::SessionPoisoned`]) and a shard that exhausts its restart
//!   budget fails its remaining requests ([`StepError::WorkerFailed`])
//!   rather than hanging their callers forever.

use std::fmt;

use ficsum_core::RestoreError;

use crate::session::SessionId;

/// Why a submit was rejected.
///
/// `try_submit` never blocks: when a shard queue cannot take the whole
/// batch the server refuses it instead of waiting, and the caller decides
/// whether to retry, shed load, or spill. Rejection is all-or-nothing — a
/// refused batch has enqueued **zero** of its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The named shard's queue lacks room for this batch's requests.
    /// Back off and retry; the batch was not partially enqueued.
    Overloaded {
        /// Index of the shard whose queue was full.
        shard: usize,
    },
    /// A request's feature vector does not match the template's
    /// dimensionality.
    DimensionMismatch {
        /// Features per observation the server's template was built for.
        expected: usize,
        /// Features in the offending request.
        got: usize,
    },
    /// A request's label is not one of the template's classes
    /// (`0..n_classes`).
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Classes the server's template was built for.
        n_classes: usize,
    },
    /// A request's feature vector holds a NaN or infinite value.
    NonFiniteFeature {
        /// Position of the offending request in its batch.
        request: usize,
        /// Index of the first non-finite feature in that request.
        feature: usize,
    },
    /// The server has been shut down; no further batches are accepted.
    ShutDown,
    /// The batch contained no requests.
    EmptyBatch,
    /// A blocking submit could not enqueue the batch before its deadline.
    /// Nothing was enqueued; the caller still owns the batch.
    DeadlineExceeded,
    /// A checkpoint handed to the server for restore does not fit the
    /// server's template (see [`ficsum_core::SessionTemplate::restore`]).
    IncompatibleCheckpoint {
        /// The session whose checkpoint was rejected.
        session: SessionId,
        /// Why the template refused it.
        reason: RestoreError,
    },
    /// A snapshot handed to the server for restore carries no checkpoint
    /// (its session's state was not capturable when it was taken).
    MissingCheckpoint {
        /// The session whose snapshot is stateless.
        session: SessionId,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { shard } => {
                write!(f, "shard {shard} queue is full; retry after draining")
            }
            ServeError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} features per observation, got {got}")
            }
            ServeError::LabelOutOfRange { label, n_classes } => {
                write!(f, "label {label} is not one of the {n_classes} classes")
            }
            ServeError::NonFiniteFeature { request, feature } => {
                write!(f, "request {request} has a non-finite value at feature {feature}")
            }
            ServeError::ShutDown => write!(f, "server has shut down"),
            ServeError::EmptyBatch => write!(f, "batch contains no requests"),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline passed before the batch could be enqueued")
            }
            ServeError::IncompatibleCheckpoint { session, reason } => {
                write!(f, "cannot restore {session}: {reason}")
            }
            ServeError::MissingCheckpoint { session } => {
                write!(f, "cannot restore {session}: its snapshot carries no checkpoint")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Why one accepted request completed without an outcome.
///
/// Reply slots carry [`StepResult`]s: the server's "every accepted request
/// completes" guarantee survives faults by completing a slot with an error
/// instead of never completing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StepError {
    /// The session's pipeline panicked (on this request or an earlier one)
    /// and the session is quarantined. Its last-good state was snapshotted
    /// with [`crate::EvictReason::Poisoned`] and can be rehydrated via
    /// [`ficsum_core::SessionTemplate::restore`]; other sessions on the
    /// shard are unaffected.
    SessionPoisoned {
        /// The quarantined session.
        session: SessionId,
    },
    /// The owning shard worker failed permanently (crash-restart budget
    /// exhausted) before reaching this request. Surviving sessions were
    /// snapshotted; the request itself was never processed.
    WorkerFailed {
        /// The failed shard.
        shard: usize,
    },
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::SessionPoisoned { session } => {
                write!(f, "{session} is quarantined after a pipeline panic")
            }
            StepError::WorkerFailed { shard } => {
                write!(f, "shard {shard} worker failed before processing this request")
            }
        }
    }
}

impl std::error::Error for StepError {}

/// What one reply slot resolves to: the step's outcome, or why the server
/// could not produce one.
pub type StepResult = Result<ficsum_core::StepOutcome, StepError>;
