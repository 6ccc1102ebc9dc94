//! The TCP front-end: framed requests in, serving-core replies out.
//!
//! [`NetServer`] owns an accept loop plus one handler thread per
//! connection; handlers decode [`crate::wire`] frames and bridge them onto
//! a shared [`StreamServer`]. The bridge is deliberately thin — all
//! admission semantics (all-or-nothing backpressure, deadlines, shutdown)
//! come from the serving core and are *reported over the wire* instead of
//! being re-implemented or hidden: a full shard becomes a `REJECTED` frame
//! the client can retry verbatim, exactly as an in-process caller would
//! retry [`StreamServer::try_submit`].
//!
//! The front-end holds the core behind an `Arc`, so a direct in-process
//! caller can coexist with remote clients — including racing the
//! front-end on shutdown, which [`StreamServer::shutdown_in_place`] makes
//! safe and idempotent.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ficsum_obs::{NullRecorder, Recorder, StreamEvent};
use ficsum_serve::{ServeReport, StreamServer};

use crate::codec::{read_frame, write_frame, Frame, PayloadReader, PayloadWriter};
use crate::error::{encode_code, encode_serve_error, NetError, ProtocolError};
use crate::metrics::{ConnRecorderFactory, MetricsLedger, NetMetrics};
use crate::snapshot::{encode_summaries, SnapshotSummary};
use crate::submit::{decode_submit, encode_reply, RemoteOutcome, RemoteStepResult};
use crate::wire::{kind, submit_mode, MAGIC, PROTOCOL_VERSION};

/// Optional front-end facilities.
#[derive(Default)]
pub struct NetOptions {
    recorder_factory: Option<ConnRecorderFactory>,
}

impl NetOptions {
    /// Attaches a per-connection recorder factory (see
    /// [`ConnRecorderFactory`]). Handlers emit the network
    /// [`StreamEvent`]s (`connection_opened`, `connection_closed`,
    /// `batch_rejected`), per-connection batch counters and a
    /// queue-depth gauge after each accepted batch.
    #[must_use]
    pub fn with_recorder_factory(mut self, factory: ConnRecorderFactory) -> Self {
        self.recorder_factory = Some(factory);
        self
    }
}

impl std::fmt::Debug for NetOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetOptions")
            .field("recorder_factory", &self.recorder_factory.is_some())
            .finish()
    }
}

/// Everything a network server hands back at shutdown: the serving core's
/// report plus the transport-side metrics.
#[derive(Debug)]
#[non_exhaustive]
pub struct NetReport {
    /// The wrapped core's final report (snapshots + shard metrics). When a
    /// direct caller shut the core down first, the snapshots it drained
    /// are in *its* report, not this one — exactly-once holds across both.
    pub serve: ServeReport,
    /// Final transport metrics.
    pub net: NetMetrics,
}

/// State shared between the accept loop, connection handlers and the
/// shutdown path.
struct Shared {
    inner: Arc<StreamServer>,
    shutting_down: AtomicBool,
    metrics: MetricsLedger,
    recorder_factory: Option<ConnRecorderFactory>,
    next_conn: AtomicU64,
}

/// A live connection the shutdown path can interrupt: the handler's join
/// handle plus an independently owned handle to the same socket.
struct Conn {
    wake: TcpStream,
    handle: JoinHandle<()>,
}

/// A TCP front-end serving the wire protocol over a shared
/// [`StreamServer`].
///
/// Dropping the front-end closes the listener and every connection but
/// leaves the core running (other `Arc` holders may still be serving);
/// [`NetServer::shutdown`] additionally shuts the core down and returns
/// the combined [`NetReport`].
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl NetServer {
    /// Binds `addr` and starts accepting connections for `server`.
    ///
    /// Bind to port 0 to let the OS pick; [`NetServer::local_addr`] has
    /// the resolved address.
    pub fn bind(addr: impl ToSocketAddrs, server: Arc<StreamServer>) -> io::Result<Self> {
        Self::bind_with_options(addr, server, NetOptions::default())
    }

    /// Like [`NetServer::bind`], with observability attached.
    pub fn bind_with_options(
        addr: impl ToSocketAddrs,
        server: Arc<StreamServer>,
        options: NetOptions,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            inner: server,
            shutting_down: AtomicBool::new(false),
            metrics: MetricsLedger::default(),
            recorder_factory: options.recorder_factory,
            next_conn: AtomicU64::new(0),
        });
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("ficsum-net-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))
                .expect("spawn accept loop")
        };
        Ok(Self { shared, local_addr, accept: Some(accept), conns })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The serving core this front-end bridges onto.
    pub fn server(&self) -> &Arc<StreamServer> {
        &self.shared.inner
    }

    /// Current transport metrics.
    pub fn metrics(&self) -> NetMetrics {
        self.shared.metrics.snapshot()
    }

    /// Stops accepting, says goodbye to every connection (in-flight
    /// replies are written first), shuts the serving core down and
    /// returns the combined report.
    ///
    /// Safe against a direct caller racing
    /// [`StreamServer::shutdown_in_place`] on the shared core: whichever
    /// side closes first wins the core's snapshots; this report then
    /// carries the rest (possibly none).
    pub fn shutdown(mut self) -> NetReport {
        self.close_front_end();
        let serve = self.shared.inner.shutdown_in_place();
        NetReport { serve, net: self.shared.metrics.snapshot() }
    }

    /// Stops the accept loop and joins every handler. In-flight requests
    /// complete and their replies are written; blocked reads are
    /// interrupted by shutting the sockets' read halves, after which each
    /// handler sends its goodbye.
    fn close_front_end(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking `accept` with a throwaway connection; the
        // loop re-checks the flag before handling what it accepted.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let conns = std::mem::take(&mut *lock_recover(&self.conns));
        for conn in &conns {
            // Read half only: the handler wakes with EOF, finishes any
            // reply it owes, sends GOODBYE and exits.
            let _ = conn.wake.shutdown(Shutdown::Read);
        }
        for conn in conns {
            let _ = conn.handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.close_front_end();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer").field("local_addr", &self.local_addr).finish()
    }
}

fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<Conn>>>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The wake-up connection (or a client racing shutdown).
            return;
        }
        let Ok(wake) = stream.try_clone() else {
            continue;
        };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let handler = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("ficsum-net-conn-{conn_id}"))
                .spawn(move || handle_connection(stream, conn_id, shared))
        };
        match handler {
            Ok(handle) => lock_recover(&conns).push(Conn { wake, handle }),
            Err(_) => drop(wake),
        }
    }
}

/// Runs one connection to completion: handshake, then a strict
/// request→reply loop until goodbye, disconnect, violation or shutdown.
fn handle_connection(mut stream: TcpStream, conn_id: u64, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut recorder: Box<dyn Recorder> = match &shared.recorder_factory {
        Some(factory) => factory(conn_id),
        None => Box::new(NullRecorder),
    };
    let mut batches: u64 = 0;
    let outcome = serve_connection(&mut stream, conn_id, &shared, recorder.as_mut(), &mut batches);
    // Report protocol violations to the peer before closing; for socket
    // errors there is nothing left to say.
    if let Err(NetError::Protocol(violation)) = &outcome {
        shared.metrics.update(|m| m.protocol_errors += 1);
        let (a, b) = violation.operands();
        let _ = write_frame(&mut stream, kind::ERROR, &encode_code((violation.code(), a, b)));
    }
    let _ = stream.shutdown(Shutdown::Both);
    recorder.event(batches, StreamEvent::ConnectionClosed { conn: conn_id, batches });
    shared.metrics.update(|m| m.connections_closed += 1);
}

/// The handshake plus request loop; any `Err` ends the connection (a
/// protocol error is additionally reported to the peer by the caller).
fn serve_connection(
    stream: &mut TcpStream,
    conn_id: u64,
    shared: &Shared,
    recorder: &mut dyn Recorder,
    batches: &mut u64,
) -> Result<(), NetError> {
    handshake(stream, shared)?;
    shared.metrics.update(|m| m.connections_opened += 1);
    recorder.event(0, StreamEvent::ConnectionOpened { conn: conn_id });
    loop {
        let frame = match read_frame(stream)? {
            Some(frame) => frame,
            None => {
                // EOF: the client vanished without a goodbye, or our own
                // shutdown path closed the read half. Say goodbye either
                // way; a gone peer simply won't read it.
                let _ = write_frame(stream, kind::GOODBYE, &[]);
                return Ok(());
            }
        };
        match frame.kind {
            kind::SUBMIT => {
                handle_submit(stream, &frame, conn_id, shared, recorder, batches)?;
            }
            kind::SNAPSHOTS => {
                PayloadReader::new(frame.kind, &frame.payload).expect_end()?;
                let summaries: Vec<SnapshotSummary> = shared
                    .inner
                    .drain_snapshots()
                    .iter()
                    .map(SnapshotSummary::of)
                    .collect();
                write_frame(stream, kind::SNAPSHOTS_REPLY, &encode_summaries(&summaries))?;
            }
            kind::GOODBYE => {
                let _ = write_frame(stream, kind::GOODBYE, &[]);
                return Ok(());
            }
            other => return Err(ProtocolError::UnexpectedFrame { kind: other }.into()),
        }
    }
}

/// Validates the client hello and answers with the authoritative schema.
fn handshake(stream: &mut TcpStream, shared: &Shared) -> Result<(), NetError> {
    let frame = read_frame(stream)?.ok_or(ProtocolError::Truncated)?;
    if frame.kind != kind::CLIENT_HELLO {
        return Err(ProtocolError::UnexpectedFrame { kind: frame.kind }.into());
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
    r.expect_end()?;
    let template = shared.inner.template();
    // (0, 0) lets the client discover the schema from the server hello.
    if (n_features, n_classes) != (0, 0) {
        if n_features != template.n_features() {
            return Err(ProtocolError::SchemaMismatch {
                expected: template.n_features() as u64,
                got: n_features as u64,
            }
            .into());
        }
        if n_classes != template.n_classes() {
            return Err(ProtocolError::SchemaMismatch {
                expected: template.n_classes() as u64,
                got: n_classes as u64,
            }
            .into());
        }
    }
    let mut hello = PayloadWriter::new();
    hello
        .bytes(&MAGIC)
        .u16(PROTOCOL_VERSION)
        .u32(template.n_features() as u32)
        .u32(template.n_classes() as u32)
        .u32(shared.inner.config().shards as u32);
    write_frame(stream, kind::SERVER_HELLO, &hello.finish())
}

/// Decodes one `SUBMIT`, bridges it onto the core, writes `REPLY` or
/// `REJECTED`.
fn handle_submit(
    stream: &mut TcpStream,
    frame: &Frame,
    conn_id: u64,
    shared: &Shared,
    recorder: &mut dyn Recorder,
    batches: &mut u64,
) -> Result<(), NetError> {
    let batch = decode_submit(&frame.payload)?;
    let received = Instant::now();
    let admitted = match batch.mode {
        submit_mode::TRY => shared.inner.try_submit(&batch.requests),
        submit_mode::DEADLINE => shared
            .inner
            .submit_with_deadline(&batch.requests, Duration::from_millis(batch.deadline_ms)),
        _ => return Err(ProtocolError::MalformedFrame { kind: kind::SUBMIT }.into()),
    };
    match admitted {
        Ok(reply) => {
            let results: Vec<RemoteStepResult> = reply
                .wait()
                .into_iter()
                .map(|result| result.map(|outcome| RemoteOutcome::of(&outcome)))
                .collect();
            write_frame(stream, kind::REPLY, &encode_reply(&results))?;
            let nanos = received.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            *batches += 1;
            shared.metrics.update(|m| {
                m.batches_accepted += 1;
                m.requests_served += results.len() as u64;
                m.latency.record(nanos);
            });
            recorder.counter("net.batches_accepted", 1);
            recorder.counter("net.requests_served", results.len() as u64);
            let depth: usize =
                shared.inner.metrics().iter().map(|shard| shard.queue_depth).sum();
            recorder.gauge("net.queue_depth", depth as f64);
            Ok(())
        }
        Err(refusal) => {
            let (code, a, b) = encode_serve_error(&refusal);
            write_frame(stream, kind::REJECTED, &encode_code((code, a, b)))?;
            shared.metrics.update(|m| m.batches_rejected += 1);
            recorder.counter("net.batches_rejected", 1);
            recorder.event(
                *batches,
                StreamEvent::BatchRejected { conn: conn_id, code: code as u64 },
            );
            Ok(())
        }
    }
}
