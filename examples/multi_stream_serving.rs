//! Multi-stream serving: 64 independent FiCSUM sessions served over 4
//! shard workers, with deadline-bounded backpressure, a mid-run worker
//! crash, and per-shard metrics showing the recovery.
//!
//! Each session is one logical stream (think: one sensor or tenant). The
//! server hash-partitions sessions across shards, builds each pipeline
//! lazily from a shared validated template, and serves batched submits —
//! results per session are bit-identical to running that session's
//! pipeline standalone.
//!
//! Halfway through the run this example deliberately crashes one worker
//! thread (through a recorder that panics once — panics escaping the
//! per-request guard kill the worker). The supervisor restarts the worker
//! with its session table and backlog intact: no request is lost, no
//! session resets, and the final report shows `worker_restarts = 1` with
//! all 64 sessions accounted for.
//!
//! ```sh
//! cargo run --release --example multi_stream_serving
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ficsum::prelude::*;

const SESSIONS: u64 = 64;
const SHARDS: usize = 4;
const STEPS: usize = 600;

/// Forwards everything to a shared in-memory recorder, but panics exactly
/// once, after a batch-processed event, when the fuse is lit — simulating
/// a bug in observability code taking down a worker thread mid-run.
struct FusedRecorder {
    inner: Arc<Mutex<InMemoryRecorder>>,
    fuse: Arc<AtomicBool>,
}

impl Recorder for FusedRecorder {
    fn event(&mut self, t: u64, event: StreamEvent) {
        let batch_done = matches!(event, StreamEvent::BatchProcessed { .. });
        self.inner.lock().expect("recorder mutex").event(t, event);
        if batch_done && self.fuse.swap(false, Ordering::SeqCst) {
            panic!("injected recorder bug: crashing this worker");
        }
    }
}

fn main() {
    // Validate the configuration once; every session is stamped from it.
    let template = SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::Full)
        .expect("valid FiCSUM configuration");

    // One thread-safe recorder shared by all shards: batch and session
    // lifecycle events aggregate here. Totals come from the shard metrics.
    let recorder = Arc::new(Mutex::new(InMemoryRecorder::new()));
    let fuse = Arc::new(AtomicBool::new(false));
    let factory: RecorderFactory = {
        let recorder = recorder.clone();
        let fuse = fuse.clone();
        Arc::new(move |_shard| {
            Box::new(FusedRecorder { inner: recorder.clone(), fuse: fuse.clone() })
                as Box<dyn Recorder>
        })
    };
    let server = StreamServer::with_options(
        template,
        ServeConfig::default().with_shards(SHARDS).with_queue_capacity(4096),
        ServeOptions::default().with_recorder_factory(factory),
    )
    .expect("no restore snapshots to validate");

    // Each session gets its own STAGGER stream (distinct seeds → distinct
    // drift points), interleaved one observation per session per wave.
    let mut streams: Vec<_> = (0..SESSIONS)
        .map(|s| ficsum::synth::dataset_by_name("STAGGER", s).expect("STAGGER exists"))
        .collect();
    let mut pending = Vec::new();
    let mut served = 0usize;
    let mut faulted = 0usize;
    for step in 0..STEPS {
        if step == STEPS / 2 {
            // Light the fuse: the next finished batch on some shard panics
            // its recorder, killing that worker thread mid-run.
            println!("step {step}: crashing one worker...");
            fuse.store(true, Ordering::SeqCst);
        }
        let wave: Vec<Submit> = streams
            .iter_mut()
            .enumerate()
            .map(|(s, stream)| {
                let o = stream.next_observation().expect("synthetic streams are infinite");
                Submit::new(SessionId(s as u64), o.features.clone(), o.label)
            })
            .collect();
        // submit_with_deadline bounds backpressure: if a shard queue is
        // full it parks until the worker drains (or the deadline passes),
        // instead of refusing like try_submit or spinning like a retry
        // loop. Nothing is enqueued on failure.
        let reply = server
            .submit_with_deadline(&wave, Duration::from_secs(10))
            .expect("queues drain well within 10s");
        pending.push(reply);
        if pending.len() >= 64 {
            tally(&mut pending, &mut served, &mut faulted);
        }
    }
    tally(&mut pending, &mut served, &mut faulted);
    println!("served {served} observations across {SESSIONS} sessions ({faulted} faulted)\n");

    println!("per-shard metrics:");
    for m in server.metrics() {
        println!(
            "  shard {}: {} sessions, {} requests in {} drains, {} restarts, \
             latency p50 {:.0} us / p99 {:.0} us, peak queue {}",
            m.shard,
            m.live_sessions,
            m.processed,
            m.batches,
            m.worker_restarts,
            m.latency.quantile_nanos(0.50) as f64 / 1e3,
            m.latency.quantile_nanos(0.99) as f64 / 1e3,
            m.max_queue_depth,
        );
    }

    // Shutdown drains the queues, snapshots every surviving session and
    // returns the final report. The crash cost no sessions: the supervisor
    // restarted the worker over the same session table.
    let report = server.shutdown();
    let restarts: u64 = report.metrics.iter().map(|m| m.worker_restarts).sum();
    let total_steps: u64 = report.snapshots.iter().map(|s| s.steps).sum();
    let total_drifts: u64 = report.snapshots.iter().map(|s| s.stats.n_drifts).sum();
    println!(
        "\nshutdown: {} session snapshots ({} worker restart{}), \
         {} observations processed, {} drifts detected",
        report.snapshots.len(),
        restarts,
        if restarts == 1 { "" } else { "s" },
        total_steps,
        total_drifts
    );
    assert_eq!(report.snapshots.len(), SESSIONS as usize, "no session lost to the crash");
    let processed: u64 = report.metrics.iter().map(|m| m.processed).sum();
    assert_eq!(processed, SESSIONS * STEPS as u64, "bookkeeping survived the crash");
    let rec = recorder.lock().expect("recorder mutex");
    println!(
        "recorder saw {} batches, {} sessions created, {} worker restart events",
        rec.event_count("batch_processed"),
        rec.event_count("session_created"),
        rec.event_count("worker_restarted"),
    );
}

/// Awaits all pending replies, counting served outcomes and faulted slots.
fn tally(pending: &mut Vec<BatchReply>, served: &mut usize, faulted: &mut usize) {
    for reply in pending.drain(..) {
        for result in reply.wait() {
            match result {
                Ok(_) => *served += 1,
                Err(_) => *faulted += 1,
            }
        }
    }
}
