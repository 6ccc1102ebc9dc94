//! The wire protocol: constants, frame kinds and stable error codes.
//!
//! ## Frame layout
//!
//! Every frame is length-prefixed, little-endian:
//!
//! ```text
//! [len: u32][kind: u8][payload: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the payload, so an empty-payload frame
//! has `len == 1`. A reader that sees EOF *between* frames has a clean
//! close; EOF *inside* a frame is a truncation error. Frames larger than
//! [`MAX_FRAME_LEN`] are refused without being read.
//!
//! ## Conversation shape
//!
//! One request is in flight per connection at a time:
//!
//! ```text
//! client                          server
//!   | -- CLIENT_HELLO ------------> |   magic, version, schema
//!   | <------------ SERVER_HELLO -- |   (or ERROR + close)
//!   | -- SUBMIT ------------------> |
//!   | <-- REPLY / REJECTED -------- |   per-slot results / eager refusal
//!   | -- SNAPSHOTS ---------------> |
//!   | <--------- SNAPSHOTS_REPLY -- |
//!   | -- GOODBYE -----------------> |
//!   | <-------------- GOODBYE ----- |   then both sides close
//! ```
//!
//! The server also sends an unsolicited `GOODBYE` when its front-end shuts
//! down, so a client mid-conversation observes an orderly close
//! ([`crate::NetError::ServerClosed`]) rather than a reset.

/// Magic bytes opening both hello frames.
pub const MAGIC: [u8; 4] = *b"FCSM";

/// Version of the frame grammar. Bumped on any incompatible change;
/// mismatches are refused at handshake with [`code::VERSION_MISMATCH`].
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on `len` (kind + payload) a peer will read: 16 MiB.
///
/// At 8 bytes per feature this admits batches of ~2M scalar features —
/// far beyond any sane submit — while bounding what a malformed or
/// malicious length prefix can make the peer allocate.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Frame kinds (the `kind` byte).
pub mod kind {
    /// Client → server: magic, protocol version, expected schema.
    pub const CLIENT_HELLO: u8 = 0x01;
    /// Server → client: magic, protocol version, authoritative schema.
    pub const SERVER_HELLO: u8 = 0x02;
    /// Client → server: one batch of observations.
    pub const SUBMIT: u8 = 0x10;
    /// Server → client: per-slot results for an accepted batch.
    pub const REPLY: u8 = 0x11;
    /// Server → client: the batch was refused eagerly (backpressure,
    /// validation, shutdown); nothing was enqueued and the client may
    /// retry the batch verbatim.
    pub const REJECTED: u8 = 0x12;
    /// Client → server: drain accumulated session snapshots.
    pub const SNAPSHOTS: u8 = 0x20;
    /// Server → client: snapshot summaries.
    pub const SNAPSHOTS_REPLY: u8 = 0x21;
    /// Either direction: orderly close. A client sends it before
    /// disconnecting; a server answers it, and also sends it unsolicited
    /// when the front-end shuts down.
    pub const GOODBYE: u8 = 0x30;
    /// Either direction: a protocol violation; the sender closes after.
    pub const ERROR: u8 = 0x40;
}

/// Stable error codes carried by `REJECTED`, `REPLY` error slots and
/// `ERROR` frames, with two optional `u64` detail operands `a`/`b`.
///
/// The code space is partitioned so a reader can classify an unknown code:
/// `1..=31` submit-path refusals ([`ficsum_serve::ServeError`]), `32..=63`
/// per-slot step failures ([`ficsum_serve::StepError`]), `128..=255`
/// protocol violations. Codes are append-only: a value is never reused
/// with a different meaning.
pub mod code {
    /// A shard queue was full (`a` = shard). Transient: back off, retry.
    pub const OVERLOADED: u16 = 1;
    /// Feature-count mismatch (`a` = expected, `b` = got).
    pub const DIMENSION_MISMATCH: u16 = 2;
    /// The serving core has shut down.
    pub const SHUT_DOWN: u16 = 3;
    /// The batch contained no requests.
    pub const EMPTY_BATCH: u16 = 4;
    /// A deadline submit timed out before the batch could be enqueued.
    pub const DEADLINE_EXCEEDED: u16 = 5;
    /// A restore checkpoint did not fit the server template (`a` =
    /// session). Not produced on the submit path; reserved.
    pub const INCOMPATIBLE_CHECKPOINT: u16 = 6;
    /// A restore snapshot carried no checkpoint (`a` = session). Not
    /// produced on the submit path; reserved.
    pub const MISSING_CHECKPOINT: u16 = 7;
    /// A request's label is not a template class (`a` = label, `b` =
    /// n_classes).
    pub const LABEL_OUT_OF_RANGE: u16 = 8;
    /// A request has a NaN or infinite feature (`a` = request position in
    /// the batch, `b` = feature index).
    pub const NON_FINITE_FEATURE: u16 = 9;

    /// The request's session is quarantined (`a` = session).
    pub const SESSION_POISONED: u16 = 32;
    /// The owning shard worker failed permanently (`a` = shard).
    pub const WORKER_FAILED: u16 = 33;

    /// Peer speaks a different protocol version (`a` = ours, `b` = theirs).
    pub const VERSION_MISMATCH: u16 = 128;
    /// Client-declared schema disagrees with the server template
    /// (`a`/`b` = expected/got of whichever field mismatched first).
    pub const SCHEMA_MISMATCH: u16 = 129;
    /// A frame's payload could not be decoded.
    pub const MALFORMED_FRAME: u16 = 130;
    /// A structurally valid frame arrived where it cannot appear.
    pub const UNEXPECTED_FRAME: u16 = 131;
    /// A frame announced a length beyond [`super::MAX_FRAME_LEN`].
    pub const FRAME_TOO_LARGE: u16 = 132;

    /// A code this build does not know (forward compatibility).
    pub const UNKNOWN: u16 = 0xFFFF;
}

/// Submit admission modes (first payload byte of a `SUBMIT` frame).
pub mod submit_mode {
    /// Non-blocking `try_submit`: a full shard refuses immediately.
    pub const TRY: u8 = 0;
    /// `submit_with_deadline`: block up to the carried budget (ms) for
    /// queue space before refusing with
    /// [`super::code::DEADLINE_EXCEEDED`].
    pub const DEADLINE: u8 = 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_space_is_partitioned() {
        // Submit-path refusals.
        for c in [
            code::OVERLOADED,
            code::DIMENSION_MISMATCH,
            code::SHUT_DOWN,
            code::EMPTY_BATCH,
            code::DEADLINE_EXCEEDED,
            code::INCOMPATIBLE_CHECKPOINT,
            code::MISSING_CHECKPOINT,
        ] {
            assert!((1..=31).contains(&c));
        }
        // Step failures.
        for c in [code::SESSION_POISONED, code::WORKER_FAILED] {
            assert!((32..=63).contains(&c));
        }
        // Protocol violations.
        for c in [
            code::VERSION_MISMATCH,
            code::SCHEMA_MISMATCH,
            code::MALFORMED_FRAME,
            code::UNEXPECTED_FRAME,
            code::FRAME_TOO_LARGE,
        ] {
            assert!((128..=255).contains(&c));
        }
    }

    #[test]
    fn frame_kinds_are_distinct() {
        let kinds = [
            kind::CLIENT_HELLO,
            kind::SERVER_HELLO,
            kind::SUBMIT,
            kind::REPLY,
            kind::REJECTED,
            kind::SNAPSHOTS,
            kind::SNAPSHOTS_REPLY,
            kind::GOODBYE,
            kind::ERROR,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
