//! Serving FiCSUM over TCP: a wire-protocol front-end on a sharded
//! server, three clients streaming their own sessions, backpressure and
//! shutdown crossing the wire as typed answers.
//!
//! The front-end adds transport, never drift: every session served here
//! produces outcomes bit-identical to a standalone pipeline stamped from
//! the same template (the run verifies one session against its local
//! reference at the end). Backpressure works the same way it does
//! in-process — a refused batch enqueued nothing and can be retried
//! verbatim; here `submit_with_deadline` has the server wait for queue room
//! instead, up to a deadline.
//!
//! ```sh
//! cargo run --release --example network_serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use ficsum::prelude::*;

const SESSIONS: u64 = 12;
const CLIENTS: usize = 3;
const STEPS: usize = 500;

fn main() {
    // One validated template stamps every session, local or remote.
    let template = SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::Full)
        .expect("default config is valid");

    // The serving core: 4 shard workers, bounded queues. The Arc lets the
    // TCP front-end and direct in-process callers share it.
    let core = Arc::new(StreamServer::new(
        template.clone(),
        ServeConfig::default().with_shards(4).with_queue_capacity(256),
    ));

    // The front-end: bind a loopback port, bridge frames onto the core.
    let server = NetServer::bind("127.0.0.1:0", core).expect("bind loopback");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // A deterministic tape per session so the parity check below can
    // replay session 0 locally.
    let tapes: Vec<Vec<(Vec<f64>, usize)>> = (0..SESSIONS)
        .map(|s| {
            let mut stream = ficsum::synth::dataset_by_name("STAGGER", 7 + s).unwrap();
            (0..STEPS)
                .map(|_| {
                    let o = stream.next_observation().expect("synthetic streams are infinite");
                    (o.features.clone(), o.label)
                })
                .collect()
        })
        .collect();

    // Three clients, each owning a third of the sessions, each on its own
    // connection. `connect_expecting` pins the schema: a client built for
    // the wrong stream fails at handshake, not on its first batch.
    let outcomes: Vec<Vec<(u64, Vec<RemoteOutcome>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let tapes = &tapes;
                scope.spawn(move || {
                    let mut client =
                        NetClient::connect_expecting(addr, 3, 2).expect("schema matches");
                    let mine: Vec<u64> =
                        (0..SESSIONS).filter(|s| *s as usize % CLIENTS == c).collect();
                    let mut results: Vec<(u64, Vec<RemoteOutcome>)> =
                        mine.iter().map(|&s| (s, Vec::new())).collect();
                    let mut cursors: Vec<_> =
                        mine.iter().map(|&s| tapes[s as usize].iter()).collect();
                    for _ in 0..STEPS {
                        // One observation per owned session per batch; a
                        // full shard queue is waited out server-side.
                        let wave: Vec<Submit> = mine
                            .iter()
                            .zip(cursors.iter_mut())
                            .map(|(&s, tape)| {
                                let (features, label) =
                                    tape.next().expect("tapes hold STEPS entries");
                                Submit::new(SessionId(s), features.clone(), *label)
                            })
                            .collect();
                        let replies = client
                            .submit_with_deadline(&wave, Duration::from_secs(10))
                            .expect("queues drain within the deadline");
                        for (slot, reply) in replies.into_iter().enumerate() {
                            results[slot].1.push(reply.expect("no faults in this run"));
                        }
                    }
                    client.shutdown().expect("orderly goodbye");
                    results
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Parity spot-check: replay session 0's tape through a local pipeline
    // and compare against what came back over the wire.
    let served_session0: &Vec<RemoteOutcome> = outcomes
        .iter()
        .flatten()
        .find(|(s, _)| *s == 0)
        .map(|(_, outcomes)| outcomes)
        .expect("session 0 was served");
    let mut reference = template.instantiate();
    let mut drifts = 0usize;
    for (step, (features, label)) in tapes[0].iter().enumerate() {
        let local = reference.process(features, *label);
        let remote = served_session0[step];
        assert_eq!(local.prediction, remote.prediction, "diverged at step {step}");
        assert_eq!(local.active_concept as u64, remote.active_concept);
        drifts += local.drift as usize;
    }
    println!(
        "session 0: {} steps over TCP, bit-identical to the local reference ({} drifts)",
        STEPS, drifts
    );

    // Shut down: clients already said goodbye; the report combines the
    // core's snapshots with the transport metrics.
    let report = server.shutdown();
    let net = &report.net;
    println!(
        "front-end: {} connections, {} batches accepted, {} rejected, \
         batch latency p50 {} us / p99 {} us",
        net.connections_opened,
        net.batches_accepted,
        net.batches_rejected,
        net.latency.quantile_nanos(0.50) / 1_000,
        net.latency.quantile_nanos(0.99) / 1_000,
    );
    println!(
        "core: {} sessions snapshotted at shutdown across {} shards",
        report.serve.snapshots.len(),
        report.serve.metrics.len()
    );
}
