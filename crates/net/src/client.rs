//! The blocking client: one reusable connection, the in-process submit
//! modes, typed errors.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ficsum_serve::{validate_batch, Submit};

use crate::codec::{read_frame, write_frame, Frame, PayloadReader, PayloadWriter};
use crate::error::{decode_code, NetError, ProtocolError};
use crate::snapshot::{decode_summaries, SnapshotSummary};
use crate::submit::{decode_reply, deadline_millis, encode_submit, RemoteStepResult};
use crate::wire::{kind, submit_mode, MAGIC, PROTOCOL_VERSION};

/// A blocking connection to a [`crate::NetServer`].
///
/// The connection is established (and the handshake completed) at
/// construction and reused across calls; one request is in flight at a
/// time. The two submit methods are the wire's two admission modes and
/// mirror [`ficsum_serve::StreamServer`]'s: a refused batch has enqueued
/// **zero** requests server-side and may be retried verbatim.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    n_features: usize,
    n_classes: usize,
    shards: usize,
}

impl NetClient {
    /// Connects and discovers the server's stream schema from its hello.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::handshake(addr, 0, 0)
    }

    /// Connects, declaring the schema the caller expects; the server
    /// refuses the handshake ([`ProtocolError::SchemaMismatch`]) if its
    /// template disagrees, so a misconfigured client fails at connect
    /// rather than on its first batch.
    pub fn connect_expecting(
        addr: impl ToSocketAddrs,
        n_features: usize,
        n_classes: usize,
    ) -> Result<Self, NetError> {
        Self::handshake(addr, n_features, n_classes)
    }

    fn handshake(
        addr: impl ToSocketAddrs,
        n_features: usize,
        n_classes: usize,
    ) -> Result<Self, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut hello = PayloadWriter::new();
        hello
            .bytes(&MAGIC)
            .u16(PROTOCOL_VERSION)
            .u32(n_features as u32)
            .u32(n_classes as u32);
        write_frame(&mut stream, kind::CLIENT_HELLO, &hello.finish())?;
        let frame = expect_frame(&mut stream)?;
        if frame.kind != kind::SERVER_HELLO {
            return Err(fail_frame(&frame, kind::SERVER_HELLO));
        }
        let mut r = PayloadReader::new(frame.kind, &frame.payload);
        if r.bytes(4)? != MAGIC {
            return Err(ProtocolError::BadMagic.into());
        }
        let version = r.u16()?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            }
            .into());
        }
        let n_features = r.u32()? as usize;
        let n_classes = r.u32()? as usize;
        let shards = r.u32()? as usize;
        r.expect_end()?;
        Ok(Self { stream, n_features, n_classes, shards })
    }

    /// Features per observation the server's template was built for.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Label classes the server's template was built for.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Shard workers behind the server.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Submits a batch with `try_submit` semantics: the server refuses
    /// immediately ([`NetError::Rejected`] with
    /// [`ficsum_serve::ServeError::Overloaded`]) rather than queueing behind a full
    /// shard. On success the per-request results arrive in submission
    /// order.
    pub fn submit(&mut self, batch: &[Submit]) -> Result<Vec<RemoteStepResult>, NetError> {
        self.roundtrip(submit_mode::TRY, 0, batch)
    }

    /// Submits a batch, letting the server block up to `deadline` for
    /// queue space ([`ficsum_serve::StreamServer::submit_with_deadline`]).
    /// Refused with [`ficsum_serve::ServeError::DeadlineExceeded`] when
    /// space never opened; nothing was enqueued. The deadline crosses the
    /// wire in whole milliseconds, rounded up.
    pub fn submit_with_deadline(
        &mut self,
        batch: &[Submit],
        deadline: Duration,
    ) -> Result<Vec<RemoteStepResult>, NetError> {
        self.roundtrip(submit_mode::DEADLINE, deadline_millis(deadline), batch)
    }

    /// Drains the server's accumulated session snapshots, returning their
    /// wire summaries (see [`SnapshotSummary`]; full checkpoints stay
    /// server-side). Shares the exactly-once contract of
    /// [`ficsum_serve::StreamServer::drain_snapshots`] with every other
    /// drainer of the same core.
    pub fn snapshot_summaries(&mut self) -> Result<Vec<SnapshotSummary>, NetError> {
        write_frame(&mut self.stream, kind::SNAPSHOTS, &[])?;
        let frame = expect_frame(&mut self.stream)?;
        if frame.kind != kind::SNAPSHOTS_REPLY {
            return Err(fail_frame(&frame, kind::SNAPSHOTS_REPLY));
        }
        decode_summaries(frame.kind, &frame.payload)
    }

    /// Says goodbye and closes the connection. The server keeps running;
    /// this releases only this client's handler.
    pub fn shutdown(mut self) -> Result<(), NetError> {
        write_frame(&mut self.stream, kind::GOODBYE, &[])?;
        let frame = expect_frame(&mut self.stream)?;
        if frame.kind == kind::GOODBYE {
            Ok(())
        } else {
            Err(fail_frame(&frame, kind::GOODBYE))
        }
    }

    /// One submit round trip: run the server's batch check locally (a
    /// batch it would refuse never crosses the wire), write the batch,
    /// decode `REPLY`, `REJECTED` or an unsolicited `GOODBYE` (server
    /// front-end shut down mid-conversation → [`NetError::ServerClosed`],
    /// so a client looping over batches observes an orderly end rather
    /// than a broken socket).
    fn roundtrip(
        &mut self,
        mode: u8,
        deadline_ms: u64,
        batch: &[Submit],
    ) -> Result<Vec<RemoteStepResult>, NetError> {
        validate_batch(batch, self.n_features, self.n_classes).map_err(NetError::Rejected)?;
        write_frame(&mut self.stream, kind::SUBMIT, &encode_submit(mode, deadline_ms, batch))?;
        let frame = expect_frame(&mut self.stream)?;
        match frame.kind {
            kind::REPLY => decode_reply(&frame.payload),
            kind::REJECTED => Err(decode_code(frame.kind, &frame.payload)),
            _ => Err(fail_frame(&frame, kind::REPLY)),
        }
    }
}

/// Reads one frame; EOF (server gone without goodbye) is
/// [`ProtocolError::Truncated`] at this layer — the conversation expected
/// an answer.
fn expect_frame(stream: &mut TcpStream) -> Result<Frame, NetError> {
    read_frame(stream)?.ok_or_else(|| ProtocolError::Truncated.into())
}

/// Classifies a frame that was not the `expected` kind: goodbyes and
/// error reports become their typed errors, anything else is a protocol
/// violation.
fn fail_frame(frame: &Frame, expected: u8) -> NetError {
    debug_assert_ne!(frame.kind, expected);
    match frame.kind {
        kind::GOODBYE => NetError::ServerClosed,
        kind::ERROR => decode_code(frame.kind, &frame.payload),
        other => ProtocolError::UnexpectedFrame { kind: other }.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_serve::ServeError;

    #[test]
    fn goodbye_and_error_frames_classify_typed() {
        let goodbye = Frame { kind: kind::GOODBYE, payload: vec![] };
        assert!(matches!(fail_frame(&goodbye, kind::REPLY), NetError::ServerClosed));

        let mut payload = PayloadWriter::new();
        payload.u16(crate::wire::code::SHUT_DOWN).u64(0).u64(0);
        let error = Frame { kind: kind::ERROR, payload: payload.finish() };
        assert!(matches!(
            fail_frame(&error, kind::REPLY),
            NetError::Rejected(ServeError::ShutDown)
        ));

        let junk = Frame { kind: 0x7f, payload: vec![] };
        assert!(matches!(
            fail_frame(&junk, kind::REPLY),
            NetError::Protocol(ProtocolError::UnexpectedFrame { kind: 0x7f })
        ));
    }
}
