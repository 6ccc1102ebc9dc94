//! The unified network error surface and its wire-code mapping.
//!
//! Everything a [`crate::NetClient`] call can fail with is one
//! [`NetError`]; everything a peer can refuse is a stable `u16` code from
//! [`crate::wire::code`] plus two `u64` detail operands. The mapping
//! between the in-process error enums and the wire codes lives here, in
//! one place, so the two can never drift apart silently.

use std::fmt;

use ficsum_serve::{ServeError, SessionId, StepError};

use crate::codec::{PayloadReader, PayloadWriter};
use crate::wire::code;

/// A violation of the wire protocol itself — the bytes, not the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// A hello frame did not open with the protocol magic.
    BadMagic,
    /// The peer speaks an incompatible protocol version.
    VersionMismatch {
        /// Version this build speaks.
        ours: u16,
        /// Version the peer announced.
        theirs: u16,
    },
    /// The client-declared stream schema disagrees with the server's
    /// template (reported for whichever field mismatched first).
    SchemaMismatch {
        /// Value the server template requires.
        expected: u64,
        /// Value the client declared.
        got: u64,
    },
    /// A frame's payload could not be decoded as its kind's grammar.
    MalformedFrame {
        /// Kind byte of the offending frame.
        kind: u8,
    },
    /// A structurally valid frame arrived where the conversation does not
    /// allow it.
    UnexpectedFrame {
        /// Kind byte of the offending frame.
        kind: u8,
    },
    /// A frame announced a length beyond [`crate::wire::MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The announced length.
        len: u32,
    },
    /// The stream ended mid-frame (a clean close lands *between* frames).
    Truncated,
}

impl ProtocolError {
    /// The stable wire code for this violation (for `ERROR` frames).
    pub fn code(&self) -> u16 {
        match self {
            // A bad magic is indistinguishable from a foreign protocol;
            // report it as a version problem.
            ProtocolError::BadMagic => code::VERSION_MISMATCH,
            ProtocolError::VersionMismatch { .. } => code::VERSION_MISMATCH,
            ProtocolError::SchemaMismatch { .. } => code::SCHEMA_MISMATCH,
            ProtocolError::MalformedFrame { .. } => code::MALFORMED_FRAME,
            ProtocolError::UnexpectedFrame { .. } => code::UNEXPECTED_FRAME,
            ProtocolError::FrameTooLarge { .. } => code::FRAME_TOO_LARGE,
            ProtocolError::Truncated => code::MALFORMED_FRAME,
        }
    }

    /// The `(a, b)` detail operands accompanying [`ProtocolError::code`].
    pub fn operands(&self) -> (u64, u64) {
        match self {
            ProtocolError::VersionMismatch { ours, theirs } => (*ours as u64, *theirs as u64),
            ProtocolError::SchemaMismatch { expected, got } => (*expected, *got),
            ProtocolError::MalformedFrame { kind } | ProtocolError::UnexpectedFrame { kind } => {
                (*kind as u64, 0)
            }
            ProtocolError::FrameTooLarge { len } => (*len as u64, 0),
            ProtocolError::BadMagic | ProtocolError::Truncated => (0, 0),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic => write!(f, "hello frame does not start with the magic"),
            ProtocolError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: we speak {ours}, peer speaks {theirs}")
            }
            ProtocolError::SchemaMismatch { expected, got } => {
                write!(f, "stream schema mismatch: server requires {expected}, client declared {got}")
            }
            ProtocolError::MalformedFrame { kind } => {
                write!(f, "malformed payload in frame kind {kind:#04x}")
            }
            ProtocolError::UnexpectedFrame { kind } => {
                write!(f, "frame kind {kind:#04x} not allowed here")
            }
            ProtocolError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the protocol cap")
            }
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Why a network operation failed.
///
/// Mirrors the layering of the in-process API: [`NetError::Rejected`] is
/// the submit path (nothing was enqueued; the batch can be retried
/// verbatim, exactly as with [`ficsum_serve::StreamServer::try_submit`]),
/// per-slot [`StepError`]s ride inside the successful reply vector, and
/// everything else is transport or protocol failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// The socket failed (connect, read or write).
    Io(std::io::Error),
    /// The peer violated the wire protocol, or reported that we did.
    Protocol(ProtocolError),
    /// The server refused the batch eagerly; zero requests were enqueued
    /// and the batch may be retried verbatim. A transient refusal
    /// ([`ServeError::Overloaded`]) is what
    /// [`crate::NetClient::submit_with_deadline`] waits out server-side.
    Rejected(ServeError),
    /// The peer reported an error code this build cannot map onto a
    /// typed variant (a newer peer, or a reserved code).
    Remote {
        /// The stable wire code.
        code: u16,
        /// First detail operand.
        a: u64,
        /// Second detail operand.
        b: u64,
    },
    /// The server said goodbye (front-end shutdown or orderly close)
    /// instead of answering; the connection is no longer usable.
    ServerClosed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Rejected(e) => write!(f, "batch rejected: {e}"),
            NetError::Remote { code, a, b } => {
                write!(f, "remote error code {code} (a={a}, b={b})")
            }
            NetError::ServerClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Protocol(e) => Some(e),
            NetError::Rejected(e) => Some(e),
            NetError::Remote { .. } | NetError::ServerClosed => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

/// Encodes the `[code: u16][a: u64][b: u64]` payload of a `REJECTED` or
/// `ERROR` frame.
pub(crate) fn encode_code((code, a, b): (u16, u64, u64)) -> Vec<u8> {
    let mut payload = PayloadWriter::new();
    payload.u16(code).u64(a).u64(b);
    payload.finish()
}

/// Decodes a `REJECTED` or `ERROR` payload into the error it reports; a
/// payload that is not exactly one code triple is malformed.
pub(crate) fn decode_code(kind: u8, payload: &[u8]) -> NetError {
    let read = || -> Result<NetError, NetError> {
        let mut r = PayloadReader::new(kind, payload);
        let (code, a, b) = (r.u16()?, r.u64()?, r.u64()?);
        r.expect_end()?;
        Ok(decode_rejection(code, a, b))
    };
    read().unwrap_or_else(|malformed| malformed)
}

/// Encodes a submit-path refusal as its wire `(code, a, b)` triple.
pub(crate) fn encode_serve_error(error: &ServeError) -> (u16, u64, u64) {
    match error {
        ServeError::Overloaded { shard } => (code::OVERLOADED, *shard as u64, 0),
        ServeError::DimensionMismatch { expected, got } => {
            (code::DIMENSION_MISMATCH, *expected as u64, *got as u64)
        }
        ServeError::LabelOutOfRange { label, n_classes } => {
            (code::LABEL_OUT_OF_RANGE, *label as u64, *n_classes as u64)
        }
        ServeError::NonFiniteFeature { request, feature } => {
            (code::NON_FINITE_FEATURE, *request as u64, *feature as u64)
        }
        ServeError::ShutDown => (code::SHUT_DOWN, 0, 0),
        ServeError::EmptyBatch => (code::EMPTY_BATCH, 0, 0),
        ServeError::DeadlineExceeded => (code::DEADLINE_EXCEEDED, 0, 0),
        ServeError::IncompatibleCheckpoint { session, .. } => {
            (code::INCOMPATIBLE_CHECKPOINT, session.0, 0)
        }
        ServeError::MissingCheckpoint { session } => (code::MISSING_CHECKPOINT, session.0, 0),
        // `ServeError` is non_exhaustive: map variants this build does not
        // know onto the explicit unknown code rather than failing.
        _ => (code::UNKNOWN, 0, 0),
    }
}

/// Decodes a wire `(code, a, b)` triple back into the client-facing error.
///
/// Codes that round-trip onto [`ServeError`] become
/// [`NetError::Rejected`]; anything else (including the reserved restore
/// codes, whose `RestoreError` detail does not cross the wire) surfaces as
/// [`NetError::Remote`] so no information is silently dropped.
pub(crate) fn decode_rejection(code: u16, a: u64, b: u64) -> NetError {
    match code {
        code::OVERLOADED => NetError::Rejected(ServeError::Overloaded { shard: a as usize }),
        code::DIMENSION_MISMATCH => NetError::Rejected(ServeError::DimensionMismatch {
            expected: a as usize,
            got: b as usize,
        }),
        code::LABEL_OUT_OF_RANGE => NetError::Rejected(ServeError::LabelOutOfRange {
            label: a as usize,
            n_classes: b as usize,
        }),
        code::NON_FINITE_FEATURE => NetError::Rejected(ServeError::NonFiniteFeature {
            request: a as usize,
            feature: b as usize,
        }),
        code::SHUT_DOWN => NetError::Rejected(ServeError::ShutDown),
        code::EMPTY_BATCH => NetError::Rejected(ServeError::EmptyBatch),
        code::DEADLINE_EXCEEDED => NetError::Rejected(ServeError::DeadlineExceeded),
        code::VERSION_MISMATCH => NetError::Protocol(ProtocolError::VersionMismatch {
            ours: a as u16,
            theirs: b as u16,
        }),
        code::SCHEMA_MISMATCH => {
            NetError::Protocol(ProtocolError::SchemaMismatch { expected: a, got: b })
        }
        code::MALFORMED_FRAME => {
            NetError::Protocol(ProtocolError::MalformedFrame { kind: a as u8 })
        }
        code::UNEXPECTED_FRAME => {
            NetError::Protocol(ProtocolError::UnexpectedFrame { kind: a as u8 })
        }
        code::FRAME_TOO_LARGE => NetError::Protocol(ProtocolError::FrameTooLarge { len: a as u32 }),
        other => NetError::Remote { code: other, a, b },
    }
}

/// Encodes a per-slot step failure as its wire `(code, a, b)` triple.
pub(crate) fn encode_step_error(error: &StepError) -> (u16, u64, u64) {
    match error {
        StepError::SessionPoisoned { session } => (code::SESSION_POISONED, session.0, 0),
        StepError::WorkerFailed { shard } => (code::WORKER_FAILED, *shard as u64, 0),
        _ => (code::UNKNOWN, 0, 0),
    }
}

/// Decodes a per-slot step failure; `None` when the code is not a known
/// step code (the caller surfaces it as a protocol-level problem).
pub(crate) fn decode_step_error(code: u16, a: u64, _b: u64) -> Option<StepError> {
    match code {
        code::SESSION_POISONED => Some(StepError::SessionPoisoned { session: SessionId(a) }),
        code::WORKER_FAILED => Some(StepError::WorkerFailed { shard: a as usize }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_errors_round_trip_over_the_wire() {
        let cases = [
            ServeError::Overloaded { shard: 3 },
            ServeError::DimensionMismatch { expected: 8, got: 5 },
            ServeError::LabelOutOfRange { label: 4, n_classes: 2 },
            ServeError::NonFiniteFeature { request: 6, feature: 1 },
            ServeError::ShutDown,
            ServeError::EmptyBatch,
            ServeError::DeadlineExceeded,
        ];
        for error in cases {
            let (code, a, b) = encode_serve_error(&error);
            match decode_rejection(code, a, b) {
                NetError::Rejected(back) => assert_eq!(back, error),
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn step_errors_round_trip_over_the_wire() {
        let cases = [
            StepError::SessionPoisoned { session: SessionId(42) },
            StepError::WorkerFailed { shard: 2 },
        ];
        for error in cases {
            let (code, a, b) = encode_step_error(&error);
            assert_eq!(decode_step_error(code, a, b), Some(error));
        }
        assert_eq!(decode_step_error(code::UNKNOWN, 0, 0), None);
    }

    #[test]
    fn code_payloads_round_trip_and_reject_trailing_bytes() {
        let payload = encode_code(encode_serve_error(&ServeError::Overloaded { shard: 4 }));
        match decode_code(crate::wire::kind::REJECTED, &payload) {
            NetError::Rejected(ServeError::Overloaded { shard: 4 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(matches!(
            decode_code(crate::wire::kind::ERROR, &long),
            NetError::Protocol(ProtocolError::MalformedFrame { .. })
        ));
    }

    #[test]
    fn restore_codes_surface_as_remote_not_silently_dropped() {
        let (code, a, b) =
            encode_serve_error(&ServeError::MissingCheckpoint { session: SessionId(7) });
        match decode_rejection(code, a, b) {
            NetError::Remote { code: c, a: 7, .. } => assert_eq!(c, code),
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn errors_format_and_chain() {
        let err = NetError::Rejected(ServeError::Overloaded { shard: 1 });
        assert!(err.to_string().contains("shard 1"));
        assert!(std::error::Error::source(&err).is_some());
        let err = NetError::Protocol(ProtocolError::Truncated);
        assert!(err.to_string().contains("mid-frame"));
    }
}
