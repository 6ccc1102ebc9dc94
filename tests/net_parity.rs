//! The serving stack's headline guarantee, on both transports: a session
//! served through a sharded `StreamServer` — called in-process, or over
//! TCP through `NetServer`/`NetClient` — produces **bit-identical**
//! outcomes to a standalone pipeline stamped from the same template.
//! Concurrency and the wire change wall-clock behaviour only, never
//! results. Both drive patterns share one tape, template and reference
//! check.
//!
//! Plus each transport's contracts. In-process: `try_submit` is
//! all-or-nothing and non-blocking, and evicted sessions leave snapshots.
//! Over TCP: remote backpressure surfaces as a typed, retryable rejection
//! (never a hang), malformed and truncated streams are refused without
//! harming other connections, a client disconnect releases only that
//! client, a server shutdown mid-conversation is an orderly goodbye, and
//! the per-connection recorder sees every connection and refusal.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ficsum::net::wire::{self, kind};
use ficsum::prelude::*;

/// One parity run's shape.
struct Run {
    sessions: usize,
    shards: usize,
    steps: usize,
    /// STAGGER seed of session 0; session `s` uses `first_seed + s`.
    first_seed: u64,
}

/// In-process: every wave enqueued up front.
const IN_PROCESS: Run = Run { sessions: 16, shards: 4, steps: 1_200, first_seed: 100 };
/// Over TCP: concurrent request/reply clients.
const TCP: Run = Run { sessions: 12, shards: 3, steps: 600, first_seed: 300 };
const CLIENTS: usize = 4;

type Tape = Vec<(Vec<f64>, usize)>;

/// What a step served over TCP reports, comparable with a local
/// `StepOutcome`: prediction, drift, concept switch, active concept.
type Step = (usize, bool, bool, u64);

/// Per-session observation tapes: distinct STAGGER seeds so sessions drift
/// at different points and exercise independent repositories.
fn tapes(run: &Run) -> Vec<Tape> {
    (0..run.sessions)
        .map(|s| {
            let seed = run.first_seed + s as u64;
            let mut stream = ficsum::synth::dataset_by_name("STAGGER", seed).unwrap();
            (0..run.steps)
                .map(|_| {
                    let o = stream.next_observation().expect("synthetic streams are infinite");
                    (o.features.clone(), o.label)
                })
                .collect()
        })
        .collect()
}

fn template() -> SessionTemplate {
    let config = FicsumConfig::default().with_window_size(50).with_fingerprint_gap(5);
    SessionTemplate::new(3, 2, config, Variant::Full).unwrap()
}

fn local_step(o: &StepOutcome) -> Step {
    (o.prediction, o.drift, o.concept_switched, o.active_concept as u64)
}

fn remote_step(o: &RemoteOutcome) -> Step {
    (o.prediction, o.drift, o.concept_switched, o.active_concept)
}

/// Reference: each served session replayed standalone, same template, same
/// tape; every step, seen through `view`, must match.
fn assert_matches_reference<T: PartialEq + std::fmt::Debug>(
    template: &SessionTemplate,
    tapes: &[Tape],
    served: &[(usize, Vec<T>)],
    view: impl Fn(StepOutcome) -> T,
) {
    assert_eq!(served.len(), tapes.len(), "every session was served");
    for (s, steps) in served {
        assert_eq!(steps.len(), tapes[*s].len());
        let mut reference = template.instantiate();
        for (step, (features, label)) in tapes[*s].iter().enumerate() {
            let expected = view(reference.process(features, *label));
            assert_eq!(
                steps[step], expected,
                "session {s} diverged from the sequential reference at step {step}"
            );
        }
    }
}

/// One observation per listed session, read off each session's cursor.
fn wave<'a>(
    sessions: &[usize],
    cursors: &mut [std::slice::Iter<'a, (Vec<f64>, usize)>],
) -> Vec<Submit> {
    sessions
        .iter()
        .zip(cursors.iter_mut())
        .map(|(&s, tape)| {
            let (features, label) = tape.next().expect("tapes hold a whole run");
            Submit::new(SessionId(s as u64), features.clone(), *label)
        })
        .collect()
}

fn tcp_config() -> ServeConfig {
    ServeConfig::default()
        .with_shards(TCP.shards)
        .with_queue_capacity(TCP.sessions * TCP.steps)
        .with_max_sessions_per_shard(TCP.sessions)
}

fn bind(server: Arc<StreamServer>) -> NetServer {
    NetServer::bind("127.0.0.1:0", server).expect("bind loopback")
}

#[test]
fn served_outcomes_are_bit_identical_to_sequential_reference() {
    let run = IN_PROCESS;
    let tapes = tapes(&run);
    let template = template();
    let recorder = Arc::new(Mutex::new(InMemoryRecorder::new()));
    let rec_handle = recorder.clone();
    let server = StreamServer::with_options(
        template.clone(),
        ServeConfig::default()
            .with_shards(run.shards)
            // Room for every request of the run: lets the test enqueue all
            // waves without waiting, maximising cross-session interleaving.
            .with_queue_capacity(run.sessions * run.steps),
        ServeOptions::default().with_recorder_factory(Arc::new(move |_shard| {
            Box::new(rec_handle.clone()) as Box<dyn Recorder>
        })),
    )
    .expect("no restore snapshots");

    // Submit wave-by-wave (one observation per session per wave) without
    // awaiting replies, so shards interleave sessions as they please.
    let all: Vec<usize> = (0..run.sessions).collect();
    let mut cursors: Vec<_> = tapes.iter().map(|tape| tape.iter()).collect();
    let replies: Vec<BatchReply> = (0..run.steps)
        .map(|_| {
            let wave = wave(&all, &mut cursors);
            server.try_submit(&wave).expect("queues sized for the whole run")
        })
        .collect();
    let mut served: Vec<(usize, Vec<StepOutcome>)> =
        all.iter().map(|&s| (s, Vec::with_capacity(run.steps))).collect();
    for reply in replies {
        for (s, result) in reply.wait().into_iter().enumerate() {
            served[s].1.push(result.expect("no faults in this run"));
        }
    }
    assert_matches_reference(&template, &tapes, &served, |outcome| outcome);

    let total = (run.sessions * run.steps) as u64;
    let report = server.shutdown();
    assert_eq!(report.snapshots.len(), run.sessions, "every session snapshotted at shutdown");
    assert!(report.snapshots.iter().all(|snap| snap.steps == run.steps as u64));
    let processed: u64 = report.metrics.iter().map(|m| m.processed).sum();
    assert_eq!(processed, total);
    assert!(
        report.metrics.iter().all(|m| m.processed > 0),
        "all {} shards participated: {report:?}",
        run.shards
    );
    // The recorder saw the whole run: the shards' batch events sum to the
    // total, and each session announced its creation exactly once.
    let rec = recorder.lock().unwrap();
    let batched: u64 = rec
        .events()
        .iter()
        .map(|(_, event)| match event {
            StreamEvent::BatchProcessed { len, .. } => *len,
            _ => 0,
        })
        .sum();
    assert_eq!(batched, total);
    assert_eq!(rec.event_count("session_created"), run.sessions);
    let latency_total: u64 = report.metrics.iter().map(|m| m.latency.count()).sum();
    assert_eq!(latency_total, total);
}

#[test]
fn tcp_served_outcomes_are_bit_identical_to_sequential_reference() {
    let run = TCP;
    let tapes = tapes(&run);
    let template = template();
    let core = Arc::new(StreamServer::new(template.clone(), tcp_config()));
    let net = bind(core);
    let addr = net.local_addr();

    // N clients, each owning a disjoint set of sessions, submitting
    // concurrently over their own connections so handler threads and
    // shard workers interleave freely.
    let served: Vec<(usize, Vec<Step>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let tapes = &tapes;
                scope.spawn(move || {
                    let mut client =
                        NetClient::connect_expecting(addr, 3, 2).expect("handshake");
                    assert_eq!(client.shards(), run.shards);
                    let mine: Vec<usize> = (0..run.sessions).filter(|s| s % CLIENTS == c).collect();
                    let mut served: Vec<(usize, Vec<Step>)> =
                        mine.iter().map(|&s| (s, Vec::with_capacity(run.steps))).collect();
                    let mut cursors: Vec<_> = mine.iter().map(|&s| tapes[s].iter()).collect();
                    // Batch one observation per owned session per wave:
                    // cross-session batches fan out across shards.
                    for _ in 0..run.steps {
                        let wave = wave(&mine, &mut cursors);
                        let results = client.submit(&wave).expect("queues sized for the run");
                        for (slot, result) in results.into_iter().enumerate() {
                            let outcome = result.expect("no faults in this run");
                            served[slot].1.push(remote_step(&outcome));
                        }
                    }
                    client.shutdown().expect("orderly goodbye");
                    served
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    assert_matches_reference(&template, &tapes, &served, |outcome| local_step(&outcome));

    let metrics = net.metrics();
    assert_eq!(metrics.connections_opened, CLIENTS as u64);
    assert_eq!(metrics.batches_accepted, (CLIENTS * run.steps) as u64);
    assert_eq!(metrics.requests_served, (run.sessions * run.steps) as u64);
    assert_eq!(metrics.latency.count(), (CLIENTS * run.steps) as u64);

    let report = net.shutdown();
    assert_eq!(report.serve.snapshots.len(), run.sessions, "every session snapshotted");
    assert_eq!(report.net.connections_closed, CLIENTS as u64);
}

#[test]
fn overloaded_submit_rejects_whole_batch_and_leaves_nothing_behind() {
    let server = StreamServer::new(
        template(),
        ServeConfig::default().with_shards(1).with_queue_capacity(8),
    );
    // A batch larger than the queue can ever hold is refused regardless of
    // how fast the worker drains — deterministic backpressure coverage.
    let oversized: Vec<Submit> =
        (0..9).map(|i| Submit::new(SessionId(i % 3), vec![0.2, 0.4, 0.6], 0)).collect();
    match server.try_submit(&oversized) {
        Err(ServeError::Overloaded { shard }) => assert_eq!(shard, 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let metrics = server.metrics();
    assert_eq!(metrics[0].enqueued, 0, "rejection must not enqueue anything");
    // The refused batch is retryable verbatim once sized within capacity.
    let within: Vec<Submit> = oversized[..8].to_vec();
    let outcomes = server.try_submit(&within).expect("8 requests fit capacity 8").wait();
    assert_eq!(outcomes.len(), 8);
    assert!(outcomes.iter().all(|r| r.is_ok()));
    let report = server.shutdown();
    assert_eq!(report.metrics[0].enqueued, 8);
    assert_eq!(report.metrics[0].processed, 8);
}

#[test]
fn remote_overload_is_a_typed_rejection_not_a_hang() {
    // A queue smaller than the batch itself: admission can never succeed,
    // so the server must answer `Overloaded` immediately rather than hang
    // the connection waiting for room that will never exist.
    let config = ServeConfig::default().with_shards(1).with_queue_capacity(2);
    let core = Arc::new(StreamServer::new(template(), config));
    let net = bind(core);
    let mut client = NetClient::connect(net.local_addr()).expect("handshake");

    let batch: Vec<Submit> = (0..8)
        .map(|i| Submit::new(SessionId(i as u64), vec![0.1, 0.2, 0.3], i % 2))
        .collect();
    match client.submit(&batch) {
        Err(NetError::Rejected(ServeError::Overloaded { shard: 0 })) => {}
        other => panic!("expected remote Overloaded, got {other:?}"),
    }
    // The deadline path refuses with DeadlineExceeded — also without
    // hanging.
    match client.submit_with_deadline(&batch, Duration::from_millis(20)) {
        Err(NetError::Rejected(ServeError::DeadlineExceeded)) => {}
        other => panic!("expected remote DeadlineExceeded, got {other:?}"),
    }
    // The connection survived every refusal: a small batch still works.
    let ok = client
        .submit(&[Submit::new(SessionId(0), vec![0.1, 0.2, 0.3], 0)])
        .expect("connection usable after rejections");
    assert_eq!(ok.len(), 1);
    // Exactly the two refusals above reached the server.
    assert_eq!(net.metrics().batches_rejected, 2);
    net.shutdown();
}

#[test]
fn schema_and_dimension_mismatches_fail_typed() {
    let core = Arc::new(StreamServer::new(template(), tcp_config()));
    let net = bind(core);

    // Wrong declared schema: refused at handshake.
    match NetClient::connect_expecting(net.local_addr(), 7, 2) {
        Err(NetError::Protocol(ProtocolError::SchemaMismatch { expected: 3, got: 7 })) => {}
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }

    // Discovery still works, and the client runs the server's batch check
    // without a round trip.
    let mut client = NetClient::connect(net.local_addr()).expect("handshake");
    assert_eq!((client.n_features(), client.n_classes()), (3, 2));
    match client.submit(&[Submit::new(SessionId(0), vec![0.5], 0)]) {
        Err(NetError::Rejected(ServeError::DimensionMismatch { expected: 3, got: 1 })) => {}
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    match client.submit(&[]) {
        Err(NetError::Rejected(ServeError::EmptyBatch)) => {}
        other => panic!("expected EmptyBatch, got {other:?}"),
    }
    net.shutdown();
}

/// Reads one `[len][kind][payload]` frame off a raw socket.
fn read_raw_frame(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("frame body");
    (body[0], body[1..].to_vec())
}

/// Writes one frame of `kind` carrying `payload` to a raw socket.
fn write_raw_frame(stream: &mut TcpStream, kind: u8, payload: &[u8]) {
    let mut frame = ((payload.len() + 1) as u32).to_le_bytes().to_vec();
    frame.push(kind);
    frame.extend_from_slice(payload);
    stream.write_all(&frame).expect("write frame");
}

/// A `SUBMIT` payload in TRY mode, encoded by hand so that no client-side
/// check runs on it.
fn raw_submit(batch: &[Submit]) -> Vec<u8> {
    let mut payload = vec![wire::submit_mode::TRY];
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for submit in batch {
        payload.extend_from_slice(&submit.session_id.0.to_le_bytes());
        payload.extend_from_slice(&(submit.label as u64).to_le_bytes());
        payload.extend_from_slice(&(submit.features.len() as u32).to_le_bytes());
        for x in &submit.features {
            payload.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    payload
}

#[test]
fn invalid_labels_and_features_are_refused_and_the_session_keeps_serving() {
    let session = SessionId(5);
    let valid = |label| Submit::new(session, vec![0.1, 0.2, 0.3], label);
    // Template: 3 features, 2 classes. Each bad batch leads with a valid
    // request, so a partial enqueue would show.
    let bad: [(Vec<Submit>, ServeError); 3] = [
        (vec![valid(0), valid(2)], ServeError::LabelOutOfRange { label: 2, n_classes: 2 }),
        (
            vec![valid(1), Submit::new(session, vec![0.1, f64::NAN, 0.3], 0)],
            ServeError::NonFiniteFeature { request: 1, feature: 1 },
        ),
        (
            vec![valid(0), Submit::new(session, vec![0.1, 0.2, f64::NEG_INFINITY], 1)],
            ServeError::NonFiniteFeature { request: 1, feature: 2 },
        ),
    ];
    let enqueued = |core: &StreamServer| core.metrics().iter().map(|m| m.enqueued).sum::<u64>();

    // In process, both admission modes.
    let core = StreamServer::new(template(), tcp_config());
    assert_eq!(core.try_submit(&[valid(0)]).expect("valid batch").wait().len(), 1);
    for (batch, error) in &bad {
        assert_eq!(core.try_submit(batch).map(|_| ()), Err(*error));
        assert_eq!(
            core.submit_with_deadline(batch, Duration::from_millis(10)).map(|_| ()),
            Err(*error)
        );
    }
    assert_eq!(enqueued(&core), 1, "no bad request was enqueued");
    let served = core.try_submit(&[valid(1), valid(0)]).expect("valid batch").wait();
    assert!(served.iter().all(|r| r.is_ok()), "the session still serves: {served:?}");
    let report = core.shutdown();
    assert_eq!(report.metrics.iter().map(|m| m.sessions_poisoned).sum::<u64>(), 0);

    // Over TCP: the client refuses locally, and a peer that skips the
    // check is refused by the server with the same typed code.
    let core = Arc::new(StreamServer::new(template(), tcp_config()));
    let net = bind(core.clone());
    let mut client = NetClient::connect(net.local_addr()).expect("handshake");
    assert_eq!(client.submit(&[valid(0)]).expect("valid batch").len(), 1);
    for (batch, error) in &bad {
        match client.submit(batch) {
            Err(NetError::Rejected(got)) => assert_eq!(got, *error),
            other => panic!("expected {error:?}, got {other:?}"),
        }
    }
    let mut raw = TcpStream::connect(net.local_addr()).expect("connect");
    let mut hello = b"FCSM".to_vec();
    hello.extend_from_slice(&wire::PROTOCOL_VERSION.to_le_bytes());
    hello.extend_from_slice(&[0u8; 8]); // 0/0: discover the schema
    write_raw_frame(&mut raw, kind::CLIENT_HELLO, &hello);
    assert_eq!(read_raw_frame(&mut raw).0, kind::SERVER_HELLO);
    let codes = [
        wire::code::LABEL_OUT_OF_RANGE,
        wire::code::NON_FINITE_FEATURE,
        wire::code::NON_FINITE_FEATURE,
    ];
    for ((batch, error), code) in bad.iter().zip(codes) {
        write_raw_frame(&mut raw, kind::SUBMIT, &raw_submit(batch));
        let (frame_kind, payload) = read_raw_frame(&mut raw);
        assert_eq!(frame_kind, kind::REJECTED, "{error:?}");
        assert_eq!(u16::from_le_bytes([payload[0], payload[1]]), code, "{error:?}");
    }
    assert_eq!(enqueued(&core), 1, "no bad request was enqueued");
    assert_eq!(net.metrics().batches_rejected, 3, "only the raw peer's batches reached the server");
    write_raw_frame(&mut raw, kind::SUBMIT, &raw_submit(&[valid(1)]));
    assert_eq!(read_raw_frame(&mut raw).0, kind::REPLY, "the raw connection still serves");
    let served = client.submit(&[valid(1), valid(0)]).expect("valid batch");
    assert!(served.iter().all(|r| r.is_ok()), "the session still serves: {served:?}");
    drop(raw);
    net.shutdown();
}

#[test]
fn malformed_frames_are_refused_without_harming_other_connections() {
    let core = Arc::new(StreamServer::new(template(), tcp_config()));
    let net = bind(core);
    let addr = net.local_addr();
    let mut good = NetClient::connect(addr).expect("handshake");

    // A raw socket speaking garbage: the server reports the violation
    // (an ERROR frame) and closes that connection only.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write garbage");
    raw.flush().unwrap();
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf); // server closes after its report
    drop(raw);

    // A hello frame announcing more payload than ever arrives (the peer
    // hangs up mid-frame): truncation, counted as a protocol error.
    let mut trunc = TcpStream::connect(addr).expect("connect");
    let mut hello = Vec::new();
    hello.extend_from_slice(&11u32.to_le_bytes()); // kind + 10 payload bytes
    hello.push(kind::CLIENT_HELLO);
    hello.extend_from_slice(b"FCSM");
    hello.extend_from_slice(&wire::PROTOCOL_VERSION.to_le_bytes());
    trunc.write_all(&hello).expect("write truncated stream"); // 6 of 10, then EOF
    drop(trunc);

    // A version from the future: typed refusal at handshake.
    let mut future = TcpStream::connect(addr).expect("connect");
    let mut payload = Vec::new();
    payload.extend_from_slice(b"FCSM");
    payload.extend_from_slice(&9999u16.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut frame = ((payload.len() + 1) as u32).to_le_bytes().to_vec();
    frame.push(kind::CLIENT_HELLO);
    frame.extend_from_slice(&payload);
    future.write_all(&frame).expect("write future hello");
    let mut reply = Vec::new();
    let _ = future.read_to_end(&mut reply);
    assert!(!reply.is_empty(), "server reports the version mismatch before closing");
    assert_eq!(reply[4], kind::ERROR);
    drop(future);

    // The healthy connection is entirely unaffected.
    let results = good
        .submit(&[Submit::new(SessionId(3), vec![0.2, 0.4, 0.6], 1)])
        .expect("good client unaffected by bad peers");
    assert_eq!(results.len(), 1);
    // The garbage and truncated connections were counted; the future-
    // version one failed at handshake (also a protocol error).
    assert!(net.metrics().protocol_errors >= 2);
    net.shutdown();
}

#[test]
fn client_disconnect_releases_only_that_client() {
    let core = Arc::new(StreamServer::new(template(), tcp_config()));
    let net = bind(core);
    let addr = net.local_addr();

    let mut stayer = NetClient::connect(addr).expect("handshake");
    {
        let mut leaver = NetClient::connect(addr).expect("handshake");
        leaver
            .submit(&[Submit::new(SessionId(1), vec![0.1, 0.2, 0.3], 0)])
            .expect("submit before vanishing");
        // Dropped without a goodbye: the server sees EOF and cleans up.
    }
    // Wait for the server to observe the close.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while net.metrics().connections_closed < 1 {
        assert!(std::time::Instant::now() < deadline, "server never noticed the disconnect");
        std::thread::sleep(Duration::from_millis(5));
    }
    let results = stayer
        .submit(&[Submit::new(SessionId(2), vec![0.1, 0.2, 0.3], 1)])
        .expect("surviving client keeps its connection");
    assert_eq!(results.len(), 1);
    stayer.shutdown().expect("orderly goodbye");
    net.shutdown();
}

#[test]
fn server_shutdown_mid_conversation_is_an_orderly_goodbye() {
    let core = Arc::new(StreamServer::new(template(), tcp_config()));
    let net = bind(core.clone());
    let addr = net.local_addr();

    let mut client = NetClient::connect(addr).expect("handshake");
    client
        .submit(&[Submit::new(SessionId(0), vec![0.3, 0.6, 0.9], 1)])
        .expect("first batch served");

    // Front-end and a direct core caller race shutdown — made safe by
    // StreamServer's idempotent close. The client observes ServerClosed
    // (an unsolicited goodbye), not a reset or a hang.
    let racer = std::thread::spawn(move || core.shutdown_in_place());
    let report = net.shutdown();
    let direct = racer.join().expect("direct shutdown");
    // Exactly-once across the racing reports: one session total.
    assert_eq!(report.serve.snapshots.len() + direct.snapshots.len(), 1);

    match client.submit(&[Submit::new(SessionId(0), vec![0.3, 0.6, 0.9], 1)]) {
        // The server's unsolicited goodbye, read back as ServerClosed —
        // or, if the kernel already tore the socket down around it, the
        // close surfaces as an I/O error / EOF. Never a hang, never junk.
        Err(NetError::ServerClosed) | Err(NetError::Rejected(ServeError::ShutDown)) => {}
        Err(NetError::Io(_)) | Err(NetError::Protocol(ProtocolError::Truncated)) => {}
        other => panic!("expected orderly close, got {other:?}"),
    }
}

#[test]
fn snapshot_summaries_drain_over_the_wire() {
    // One-session shards with a one-session cap: touching a second
    // session on the same shard evicts the first, leaving a snapshot.
    let config =
        ServeConfig::default().with_shards(1).with_queue_capacity(64).with_max_sessions_per_shard(1);
    let core = Arc::new(StreamServer::new(template(), config));
    let net = bind(core);
    let mut client = NetClient::connect(net.local_addr()).expect("handshake");

    for id in 0..3u64 {
        client
            .submit(&[Submit::new(SessionId(id), vec![0.1, 0.2, 0.3], 0)])
            .expect("serve one observation per session");
    }
    let summaries = client.snapshot_summaries().expect("drain over the wire");
    assert_eq!(summaries.len(), 2, "two sessions were evicted by the cap");
    for summary in &summaries {
        assert_eq!(summary.reason, EvictReason::Capacity);
        assert_eq!(summary.steps, 1);
        assert!(summary.has_checkpoint);
    }
    // Exactly-once: a second drain is empty.
    assert!(client.snapshot_summaries().expect("second drain").is_empty());
    net.shutdown();
}

#[test]
fn net_recorder_sees_connection_lifecycle_and_refusals() {
    let recorder = Arc::new(Mutex::new(InMemoryRecorder::new()));
    let rec_handle = recorder.clone();
    let config = ServeConfig::default().with_shards(1).with_queue_capacity(2);
    let net = NetServer::bind_with_options(
        "127.0.0.1:0",
        Arc::new(StreamServer::new(template(), config)),
        NetOptions::default().with_recorder_factory(Arc::new(move |_conn| {
            Box::new(rec_handle.clone()) as Box<dyn Recorder>
        })),
    )
    .expect("bind loopback");
    let mut client = NetClient::connect(net.local_addr()).expect("handshake");

    // One accepted batch of two requests, one refusal (three requests can
    // never fit a capacity-2 queue), then a goodbye.
    let accepted: Vec<Submit> =
        (0..2).map(|i| Submit::new(SessionId(i), vec![0.1, 0.2, 0.3], 1)).collect();
    assert_eq!(client.submit(&accepted).expect("two requests fit capacity 2").len(), 2);
    let oversized: Vec<Submit> =
        (0..3).map(|i| Submit::new(SessionId(i), vec![0.1, 0.2, 0.3], 0)).collect();
    match client.submit(&oversized) {
        Err(NetError::Rejected(ServeError::Overloaded { shard: 0 })) => {}
        other => panic!("expected remote Overloaded, got {other:?}"),
    }
    client.shutdown().expect("orderly goodbye");
    // Shutdown joins every handler, so the close event is on record.
    let report = net.shutdown();

    let rec = recorder.lock().unwrap();
    assert_eq!(rec.event_count("connection_opened"), 1);
    assert_eq!(rec.event_count("connection_closed"), 1);
    assert_eq!(rec.event_count("batch_rejected"), 1);
    let rejected: Vec<&StreamEvent> = rec
        .events()
        .iter()
        .map(|(_, event)| event)
        .filter(|event| event.name() == "batch_rejected")
        .collect();
    assert_eq!(
        rejected,
        [&StreamEvent::BatchRejected { conn: 0, code: u64::from(wire::code::OVERLOADED) }]
    );
    let closed = rec.events().iter().find(|(_, event)| event.name() == "connection_closed");
    assert_eq!(
        closed.map(|(_, event)| event),
        Some(&StreamEvent::ConnectionClosed { conn: 0, batches: 1 })
    );
    // The recorder and the front-end's own metrics tell the same story.
    let processed: u64 = report.serve.metrics.iter().map(|m| m.processed).sum();
    assert_eq!(processed, 2, "only the accepted batch reached a shard");
    assert_eq!(report.net.connections_opened, 1);
    assert_eq!(report.net.connections_closed, 1);
    assert_eq!(report.net.batches_accepted, 1);
    assert_eq!(report.net.batches_rejected, 1);
    assert_eq!(report.net.requests_served, 2);
}

#[test]
fn capacity_cap_evicts_lru_sessions_with_snapshots() {
    let server = StreamServer::new(
        template(),
        ServeConfig::default().with_shards(1).with_max_sessions_per_shard(2),
    );
    // Touch sessions 0..4 in order; with a cap of 2 the older ones must be
    // snapshotted out as the newer ones arrive.
    for id in 0..4u64 {
        let batch = [Submit::new(SessionId(id), vec![0.1, 0.5, 0.9], 1)];
        server.try_submit(&batch).expect("single requests always fit").wait();
    }
    let evicted = server.drain_snapshots();
    assert_eq!(evicted.len(), 2);
    assert!(evicted.iter().all(|s| s.reason == EvictReason::Capacity && s.steps == 1));
    let evicted_ids: Vec<u64> = evicted.iter().map(|s| s.session.0).collect();
    assert_eq!(evicted_ids, vec![0, 1], "LRU order");
    let report = server.shutdown();
    let surviving: Vec<u64> = report.snapshots.iter().map(|s| s.session.0).collect();
    assert_eq!(surviving, vec![2, 3]);
    assert!(report.snapshots.iter().all(|s| s.reason == EvictReason::Shutdown));
    assert_eq!(report.metrics[0].sessions_created, 4);
    assert_eq!(report.metrics[0].sessions_evicted, 2);
}

#[test]
fn sessions_are_sticky_to_their_shard() {
    let server =
        StreamServer::new(template(), ServeConfig::default().with_shards(IN_PROCESS.shards));
    for id in 0..64u64 {
        let shard = server.shard_of(SessionId(id));
        assert!(shard < IN_PROCESS.shards);
        for _ in 0..3 {
            assert_eq!(server.shard_of(SessionId(id)), shard);
        }
    }
}
