//! The shard worker loop, wrapped in a supervisor.
//!
//! One thread per shard, owning that shard's sessions outright. The worker
//! is the only consumer of its queue, so requests for a given session are
//! processed in exactly their submission order — this is what lets the
//! parity suite pin served outcomes bit-exact against a single-threaded
//! reference run. Pipelines are built *on this thread* from the shared
//! `SessionTemplate`; nothing non-`Send` ever crosses the channel.
//!
//! # Supervision
//!
//! Faults are contained at two nested levels, and at both of them every
//! affected reply slot is *completed with an error* rather than abandoned
//! — a client blocked in [`crate::BatchReply::wait`] can always return:
//!
//! 1. **Per request** — `touch`/`process` run under `catch_unwind`. A
//!    panicking pipeline quarantines only its own session
//!    ([`crate::EvictReason::Poisoned`] snapshot, further requests answered
//!    with [`StepError::SessionPoisoned`]); sibling sessions on the shard
//!    keep serving.
//! 2. **Per worker** — the serve loop itself runs under the supervisor's
//!    `catch_unwind`. If a panic escapes the per-request guard (recorder
//!    callbacks, injected worker crashes), the supervisor — which owns the
//!    session table and the backlog *outside* the guard — restarts the
//!    loop with all sessions and unprocessed requests intact, emitting a
//!    `worker_restarted` event. Restarts that make no progress are capped:
//!    after [`MAX_FRUITLESS_RESTARTS`] consecutive zero-progress crashes
//!    the shard fails permanently — its queue closes, every unprocessed
//!    request completes with [`StepError::WorkerFailed`], and surviving
//!    sessions are snapshotted.
//!
//! The ordering rule that makes restarts hang-free: a request's reply slot
//! is filled **before** any fallible post-processing (recorder events,
//! batch bookkeeping) runs for it, and a request is popped from the
//! backlog only in the same step that fills it. A crash therefore never
//! strands a popped-but-unfilled request.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use ficsum_core::{SessionCheckpoint, SessionTemplate};
use ficsum_obs::{LatencyHistogram, Recorder, StreamEvent};

use crate::error::StepError;
use crate::queue::{Request, ShardQueue};
use crate::server::RecorderFactory;
use crate::session::{SessionId, SessionSnapshot, SessionTable};
use crate::sync::lock_recover;

#[cfg(feature = "fault-injection")]
use crate::fault::{FailPoint, FaultAction, FaultInjector};

/// Consecutive worker restarts without a single completed request before
/// the shard gives up. Progress resets the counter, so a long-lived shard
/// can absorb any number of *spaced* crashes; only a tight crash loop
/// (e.g. a recorder that panics on every event) trips the cap.
pub(crate) const MAX_FRUITLESS_RESTARTS: u32 = 3;

/// Counters a worker maintains about itself; the server merges these with
/// queue-side gauges into the public `ShardMetrics`.
pub(crate) struct ShardStats {
    pub(crate) processed: u64,
    pub(crate) batches: u64,
    pub(crate) sessions_created: u64,
    pub(crate) sessions_evicted: u64,
    pub(crate) sessions_poisoned: u64,
    pub(crate) sessions_restored: u64,
    pub(crate) worker_restarts: u64,
    pub(crate) live_sessions: usize,
    /// Submit→reply latency per request, log-bucketed.
    pub(crate) latency: LatencyHistogram,
}

impl ShardStats {
    pub(crate) fn new() -> Self {
        Self {
            processed: 0,
            batches: 0,
            sessions_created: 0,
            sessions_evicted: 0,
            sessions_poisoned: 0,
            sessions_restored: 0,
            worker_restarts: 0,
            live_sessions: 0,
            latency: LatencyHistogram::new(),
        }
    }
}

pub(crate) struct ShardContext {
    pub(crate) shard: usize,
    pub(crate) queue: Arc<ShardQueue>,
    pub(crate) template: SessionTemplate,
    pub(crate) max_sessions: usize,
    pub(crate) stats: Arc<Mutex<ShardStats>>,
    pub(crate) snapshots: Arc<Mutex<Vec<SessionSnapshot>>>,
    /// Checkpointed sessions to rehydrate before serving (validated by the
    /// server against the template at construction).
    pub(crate) restore: Vec<(SessionId, u64, SessionCheckpoint)>,
    #[cfg(feature = "fault-injection")]
    pub(crate) injector: Option<Arc<dyn FaultInjector>>,
}

/// Runs a shard to completion under supervision: restores checkpointed
/// sessions, then drains the queue until it is closed *and* empty,
/// restarting the serve loop after escaped panics. `factory` builds the
/// recorder on this thread, once per incarnation (recorders need not be
/// `Send`, and the previous incarnation's recorder died with it); pass
/// `None` to serve dark.
pub(crate) fn run(mut ctx: ShardContext, factory: Option<RecorderFactory>) {
    let shard = ctx.shard as u64;
    let mut table = SessionTable::new(ctx.max_sessions);
    // Backlog of accepted-but-unprocessed requests. Owned here — outside
    // the supervised loop — so a crash mid-batch hands the unprocessed
    // remainder to the next incarnation instead of dropping it.
    let mut backlog: VecDeque<Request> = VecDeque::new();
    // Event index: requests this shard has completed, so each shard's event
    // stream is internally ordered just like a pipeline's observation
    // index. Survives restarts.
    let mut t: u64 = 0;

    // Rehydrate checkpointed sessions before serving. Checkpoints were
    // validated against the template at server construction, so restore
    // cannot fail here; the guard is belt-and-braces.
    let restore = std::mem::take(&mut ctx.restore);
    let mut restored: Vec<(u64, u64)> = Vec::new();
    for (session, steps, checkpoint) in restore {
        if let Ok(pipeline) = ctx.template.restore(&checkpoint) {
            if let Some(evicted) = table.restore(session, steps, pipeline) {
                lock_recover(&ctx.snapshots).push(evicted);
            }
            restored.push((session.0, steps));
        }
    }
    {
        let mut stats = lock_recover(&ctx.stats);
        stats.sessions_restored += restored.len() as u64;
        stats.live_sessions = table.len();
    }

    let mut incarnation: u64 = 0;
    let mut fruitless_restarts: u32 = 0;
    loop {
        let mut progress: u64 = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut recorder = factory.as_ref().map(|make| make(ctx.shard));
            if let Some(rec) = recorder.as_deref_mut() {
                if incarnation == 0 {
                    for &(session, steps) in &restored {
                        rec.event(t, StreamEvent::SessionRestored { shard, session, steps });
                    }
                } else {
                    rec.event(
                        t,
                        StreamEvent::WorkerRestarted {
                            shard,
                            incarnation,
                            sessions: table.len() as u64,
                        },
                    );
                }
            }
            serve_loop(&ctx, &mut table, &mut backlog, &mut t, &mut progress, recorder)
        }));
        match outcome {
            // Clean exit: queue closed and drained, survivors snapshotted.
            Ok(()) => return,
            Err(_) => {
                incarnation += 1;
                lock_recover(&ctx.stats).worker_restarts += 1;
                if progress > 0 {
                    fruitless_restarts = 0;
                } else {
                    fruitless_restarts += 1;
                    if fruitless_restarts >= MAX_FRUITLESS_RESTARTS {
                        give_up(&ctx, &mut table, &mut backlog);
                        return;
                    }
                }
            }
        }
    }
}

/// The supervised serve loop of one worker incarnation. Returns when the
/// queue is closed and fully drained, after snapshotting every surviving
/// session; panics escape to the supervisor.
fn serve_loop(
    ctx: &ShardContext,
    table: &mut SessionTable,
    backlog: &mut VecDeque<Request>,
    t: &mut u64,
    progress: &mut u64,
    mut recorder: Option<Box<dyn Recorder>>,
) {
    let shard = ctx.shard as u64;
    loop {
        if backlog.is_empty() {
            match ctx.queue.pop_all() {
                Some(requests) => *backlog = requests,
                None => {
                    // Shutdown epilogue. Push survivors into the store
                    // *before* emitting events: snapshots survive even if a
                    // recorder panic forces one more incarnation (which
                    // will find the table empty and re-run this epilogue
                    // as a no-op).
                    let survivors = table.drain_all();
                    let mut stats = lock_recover(&ctx.stats);
                    stats.live_sessions = 0;
                    drop(stats);
                    let ids: Vec<u64> = survivors.iter().map(|s| s.session.0).collect();
                    lock_recover(&ctx.snapshots).extend(survivors);
                    if let Some(rec) = recorder.as_deref_mut() {
                        for session in ids {
                            rec.event(*t, StreamEvent::SessionEvicted { shard, session });
                        }
                    }
                    return;
                }
            }
        }
        let len = backlog.len() as u64;
        let mut created = 0u64;
        let mut evicted = 0u64;
        let mut poisoned = 0u64;
        let mut latencies: Vec<u64> = Vec::with_capacity(backlog.len());
        // Per-request events are buffered and emitted only after the
        // request's reply slot is filled — a recorder panic can crash the
        // incarnation, but never strand a popped-yet-unfilled request.
        let mut events: Vec<StreamEvent> = Vec::new();
        while let Some(request) = backlog.pop_front() {
            if table.is_quarantined(request.session) {
                request
                    .batch
                    .fill(request.slot, Err(StepError::SessionPoisoned { session: request.session }));
                latencies.push(request.submitted_at.elapsed().as_nanos() as u64);
                *t += 1;
                *progress += 1;
                continue;
            }
            #[cfg(feature = "fault-injection")]
            let mut injected_session_panic = false;
            #[cfg(feature = "fault-injection")]
            if let Some(injector) = ctx.injector.as_deref() {
                let point = FailPoint::BeforeProcess {
                    shard: ctx.shard,
                    session: request.session.0,
                    step: *t,
                };
                match injector.decide(point) {
                    FaultAction::Proceed => {}
                    FaultAction::PanicSession => injected_session_panic = true,
                    FaultAction::CrashWorker => {
                        // The in-flight request dies with the worker — its
                        // slot must complete first so no caller hangs; the
                        // rest of the backlog survives into the restarted
                        // incarnation.
                        request
                            .batch
                            .fill(request.slot, Err(StepError::WorkerFailed { shard: ctx.shard }));
                        *t += 1;
                        panic!("fault-injection: worker crash on shard {}", ctx.shard);
                    }
                    FaultAction::Stall(duration) => std::thread::sleep(duration),
                }
            }
            let handled = catch_unwind(AssertUnwindSafe(|| {
                let touched = table.touch(request.session, &ctx.template);
                #[cfg(feature = "fault-injection")]
                if injected_session_panic {
                    // Fires after `touch` (the session exists, untrained
                    // state and all) but before `process` mutates it, so
                    // the quarantine snapshot is the clean last-good state.
                    panic!("fault-injection: session panic for {}", request.session);
                }
                let outcome = table.process(request.session, &request.features, request.label);
                (touched, outcome)
            }));
            let result = match handled {
                Ok((touched, outcome)) => {
                    if let Some(snapshot) = touched.evicted {
                        evicted += 1;
                        events.push(StreamEvent::SessionEvicted {
                            shard,
                            session: snapshot.session.0,
                        });
                        lock_recover(&ctx.snapshots).push(snapshot);
                    }
                    if touched.created {
                        created += 1;
                        events
                            .push(StreamEvent::SessionCreated { shard, session: request.session.0 });
                    }
                    Ok(outcome)
                }
                Err(_) => {
                    poisoned += 1;
                    events.push(StreamEvent::SessionPoisoned { shard, session: request.session.0 });
                    if let Some(snapshot) = table.quarantine(request.session) {
                        lock_recover(&ctx.snapshots).push(snapshot);
                    }
                    Err(StepError::SessionPoisoned { session: request.session })
                }
            };
            latencies.push(request.submitted_at.elapsed().as_nanos() as u64);
            request.batch.fill(request.slot, result);
            *t += 1;
            *progress += 1;
            if let Some(rec) = recorder.as_deref_mut() {
                for event in events.drain(..) {
                    rec.event(*t, event);
                }
            }
        }
        // Stats first — the stats lock cannot panic, so batch bookkeeping
        // stays accurate even if a recorder call below crashes this
        // incarnation.
        {
            let mut stats = lock_recover(&ctx.stats);
            stats.processed += len;
            stats.batches += 1;
            stats.sessions_created += created;
            stats.sessions_evicted += evicted;
            stats.sessions_poisoned += poisoned;
            stats.live_sessions = table.len();
            for nanos in latencies {
                stats.latency.record(nanos);
            }
        }
        if let Some(rec) = recorder.as_deref_mut() {
            rec.event(*t, StreamEvent::BatchProcessed { shard, len });
        }
    }
}

/// Permanent-failure path: the restart budget is exhausted. Close the
/// queue, complete every unprocessed request with
/// [`StepError::WorkerFailed`] (backlog first, then whatever is still
/// queued), and snapshot the surviving sessions. Other shards — and the
/// server's metrics/shutdown paths — keep working; only this shard refuses
/// further submits.
fn give_up(ctx: &ShardContext, table: &mut SessionTable, backlog: &mut VecDeque<Request>) {
    ctx.queue.close();
    let error = StepError::WorkerFailed { shard: ctx.shard };
    for request in backlog.drain(..) {
        request.batch.fill(request.slot, Err(error));
    }
    while let Some(requests) = ctx.queue.pop_all() {
        for request in requests {
            request.batch.fill(request.slot, Err(error));
        }
    }
    let survivors = table.drain_all();
    let mut stats = lock_recover(&ctx.stats);
    stats.live_sessions = 0;
    drop(stats);
    lock_recover(&ctx.snapshots).extend(survivors);
}
