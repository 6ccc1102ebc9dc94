//! The `StreamServer`: shard-partitioned, fault-tolerant, deterministic.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ficsum_core::SessionTemplate;
use ficsum_obs::{LatencyHistogram, Recorder};

use crate::error::ServeError;
use crate::queue::{self, Request, ShardQueue};
use crate::reply::{BatchReply, BatchShared};
use crate::session::{SessionId, SessionSnapshot};
use crate::shard::{self, ShardContext, ShardStats};
use crate::sync::lock_recover;

#[cfg(feature = "fault-injection")]
use crate::fault::FaultInjector;

/// Builds one recorder per shard, on the shard's own thread — recorders
/// themselves need not be `Send`. Share a single sink across shards by
/// closing over an `Arc<Mutex<R>>` (it implements [`Recorder`]). The
/// factory is also re-invoked when a crashed worker restarts (the previous
/// incarnation's recorder died with its thread), so it must be reusable.
pub type RecorderFactory = Arc<dyn Fn(usize) -> Box<dyn Recorder> + Send + Sync>;

/// A batch's requests grouped by destination shard, in ascending shard
/// order (the lock order `try_submit_all` relies on).
type ShardGroups = Vec<(usize, Vec<Request>)>;

/// Server shape: how many shards, how much queue, how many live sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Worker threads; sessions are hash-partitioned across them. Minimum 1.
    pub shards: usize,
    /// Per-shard queue capacity in *requests* (not batches). A batch whose
    /// share of a shard would exceed this is refused with
    /// [`ServeError::Overloaded`]. Minimum 1.
    pub queue_capacity: usize,
    /// Live pipelines a shard keeps before evicting least-recently-used
    /// sessions (snapshotting them first). Minimum 1.
    pub max_sessions_per_shard: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { shards: 4, queue_capacity: 1024, max_sessions_per_shard: 256 }
    }
}

impl ServeConfig {
    /// Returns the config with `shards` replaced.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the config with `queue_capacity` replaced.
    #[must_use]
    pub fn with_queue_capacity(mut self, requests: usize) -> Self {
        self.queue_capacity = requests;
        self
    }

    /// Returns the config with `max_sessions_per_shard` replaced.
    #[must_use]
    pub fn with_max_sessions_per_shard(mut self, sessions: usize) -> Self {
        self.max_sessions_per_shard = sessions;
        self
    }

    fn normalized(self) -> Self {
        Self {
            shards: self.shards.max(1),
            queue_capacity: self.queue_capacity.max(1),
            max_sessions_per_shard: self.max_sessions_per_shard.max(1),
        }
    }
}

/// Optional server facilities beyond the shape in [`ServeConfig`]:
/// observability, checkpoint restore, and (under the `fault-injection`
/// feature) deterministic fault injection.
///
/// ```ignore
/// let report = server.shutdown();
/// // ... later, possibly in a new process ...
/// let server = StreamServer::with_options(
///     template,
///     config,
///     ServeOptions::default().with_restore(report.snapshots),
/// )?;
/// ```
#[derive(Default)]
pub struct ServeOptions {
    recorder_factory: Option<RecorderFactory>,
    restore: Vec<SessionSnapshot>,
    #[cfg(feature = "fault-injection")]
    injector: Option<Arc<dyn FaultInjector>>,
}

impl ServeOptions {
    /// Attaches a per-shard recorder factory (see [`RecorderFactory`]).
    #[must_use]
    pub fn with_recorder_factory(mut self, factory: RecorderFactory) -> Self {
        self.recorder_factory = Some(factory);
        self
    }

    /// Rehydrates sessions from earlier [`SessionSnapshot`]s before the
    /// server starts accepting work. Each snapshot must carry a
    /// checkpoint compatible with the server's template;
    /// [`StreamServer::with_options`] validates all of them eagerly and
    /// refuses construction otherwise, so an incompatible checkpoint
    /// surfaces as an error at startup rather than a panic mid-serve.
    #[must_use]
    pub fn with_restore(mut self, snapshots: Vec<SessionSnapshot>) -> Self {
        self.restore = snapshots;
        self
    }

    /// Injects deterministic faults into the shard workers (tests and the
    /// fault harness only; the hook does not exist in builds without the
    /// `fault-injection` feature).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("ServeOptions");
        s.field("recorder_factory", &self.recorder_factory.is_some())
            .field("restore", &self.restore.len());
        #[cfg(feature = "fault-injection")]
        s.field("injector", &self.injector.is_some());
        s.finish()
    }
}

/// One observation addressed to one session.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// Which stream this observation belongs to.
    pub session_id: SessionId,
    /// Feature vector; length must match the server template's
    /// `n_features`.
    pub features: Vec<f64>,
    /// True label (FiCSUM is prequential: test-then-train).
    pub label: usize,
}

impl Submit {
    /// Convenience constructor.
    pub fn new(session_id: SessionId, features: Vec<f64>, label: usize) -> Self {
        Self { session_id, features, label }
    }
}

/// The admission check every transport runs before a batch is enqueued or
/// sent: the batch is non-empty, and every request has `n_features`
/// finite features and a label in `0..n_classes`. [`StreamServer`] runs it
/// on submit; `ficsum-net`'s client runs it before a round trip, so a batch
/// the server would refuse never crosses the wire. A request that fails it
/// would otherwise reach the session's pipeline and panic there, leaving
/// the session quarantined; refusing it up front leaves the session
/// serving. The first failing request, in batch order, names the error.
pub fn validate_batch(
    batch: &[Submit],
    n_features: usize,
    n_classes: usize,
) -> Result<(), ServeError> {
    if batch.is_empty() {
        return Err(ServeError::EmptyBatch);
    }
    for (request, submit) in batch.iter().enumerate() {
        if submit.features.len() != n_features {
            return Err(ServeError::DimensionMismatch {
                expected: n_features,
                got: submit.features.len(),
            });
        }
        if submit.label >= n_classes {
            return Err(ServeError::LabelOutOfRange { label: submit.label, n_classes });
        }
        if let Some(feature) = submit.features.iter().position(|x| !x.is_finite()) {
            return Err(ServeError::NonFiniteFeature { request, feature });
        }
    }
    Ok(())
}

/// Point-in-time view of one shard's health.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Requests accepted into the queue over the server's lifetime.
    pub enqueued: u64,
    /// Requests processed and replied to (including error replies for
    /// poisoned sessions).
    pub processed: u64,
    /// Queue drains (≥ 1 request each) the worker has performed.
    pub batches: u64,
    /// Sessions instantiated from the template.
    pub sessions_created: u64,
    /// Sessions evicted by the LRU capacity cap (shutdown snapshots are
    /// not counted here).
    pub sessions_evicted: u64,
    /// Sessions quarantined after their pipeline panicked.
    pub sessions_poisoned: u64,
    /// Sessions rehydrated from checkpoints at startup.
    pub sessions_restored: u64,
    /// Times the supervisor restarted this shard's serve loop after a
    /// panic escaped the per-request guard.
    pub worker_restarts: u64,
    /// Pipelines currently live.
    pub live_sessions: usize,
    /// Requests waiting in the queue right now.
    pub queue_depth: usize,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: usize,
    /// Submit→reply latency distribution (log-bucketed nanoseconds).
    pub latency: LatencyHistogram,
}

/// Everything a server hands back at shutdown.
#[derive(Debug)]
#[non_exhaustive]
pub struct ServeReport {
    /// Snapshots not previously taken via
    /// [`StreamServer::drain_snapshots`]: eviction/quarantine snapshots
    /// still in the store, plus every session live at shutdown.
    pub snapshots: Vec<SessionSnapshot>,
    /// Final per-shard metrics.
    pub metrics: Vec<ShardMetrics>,
}

/// Serves many concurrent FiCSUM sessions over a fixed pool of supervised
/// shard workers.
///
/// * **Partitioning** — each [`SessionId`] maps to one shard by a fixed
///   hash; all of a session's requests are processed by that shard's single
///   thread in submission order, so every session behaves bit-identically
///   to a standalone pipeline built from the same template.
/// * **Backpressure** — [`StreamServer::try_submit`] never blocks. If any
///   involved shard queue lacks room for the batch, the whole batch is
///   refused ([`ServeError::Overloaded`]) and nothing is enqueued.
///   [`StreamServer::submit_with_deadline`] waits for room instead, up to
///   a deadline.
/// * **Lifecycle** — sessions are created on first sight from the shared
///   template and evicted LRU at the per-shard cap; evicted and
///   shutdown-surviving sessions leave a [`SessionSnapshot`] whose
///   checkpoint can seed a future server
///   ([`ServeOptions::with_restore`]).
/// * **Fault tolerance** — a panicking pipeline quarantines only its own
///   session; a panic escaping the per-request guard restarts the worker
///   with its sessions intact. Every accepted request's reply slot always
///   completes, if necessary with a [`crate::StepError`].
pub struct StreamServer {
    template: SessionTemplate,
    config: ServeConfig,
    queues: Vec<Arc<ShardQueue>>,
    stats: Vec<Arc<Mutex<ShardStats>>>,
    snapshots: Arc<Mutex<Vec<SessionSnapshot>>>,
    /// Worker handles, drained exactly once by whichever caller closes the
    /// server first. Behind a mutex so [`StreamServer::close`] works
    /// through `&self`: a network front-end holding an `Arc<StreamServer>`
    /// and a direct caller can race on shutdown safely.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl StreamServer {
    /// Starts `config.shards` workers serving sessions stamped from
    /// `template`, with no observability attached.
    pub fn new(template: SessionTemplate, config: ServeConfig) -> Self {
        Self::with_options(template, config, ServeOptions::default())
            .expect("no restore snapshots, construction cannot fail")
    }

    /// Starts a server with the full option set: recorders, checkpoint
    /// restore, fault injection (feature-gated).
    ///
    /// Every restore snapshot is validated against `template` *before* any
    /// worker spawns: a snapshot without a checkpoint fails with
    /// [`ServeError::MissingCheckpoint`], one whose checkpoint disagrees
    /// with the template (feature count, class count, fingerprint schema,
    /// config) with [`ServeError::IncompatibleCheckpoint`]. On success each
    /// checkpointed session is rehydrated bit-identically on the shard that
    /// owns its id, and counts toward that shard's session cap.
    pub fn with_options(
        template: SessionTemplate,
        config: ServeConfig,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        let config = config.normalized();
        let mut restore: Vec<Vec<(SessionId, u64, ficsum_core::SessionCheckpoint)>> =
            (0..config.shards).map(|_| Vec::new()).collect();
        for snapshot in &options.restore {
            let session = snapshot.session;
            let checkpoint = snapshot
                .checkpoint
                .as_ref()
                .ok_or(ServeError::MissingCheckpoint { session })?;
            template
                .validate_checkpoint(checkpoint)
                .map_err(|reason| ServeError::IncompatibleCheckpoint { session, reason })?;
            let shard = shard_of_with(session, config.shards);
            restore[shard].push((session, snapshot.steps, checkpoint.clone()));
        }
        let queues: Vec<Arc<ShardQueue>> =
            (0..config.shards).map(|_| Arc::new(ShardQueue::new(config.queue_capacity))).collect();
        let stats: Vec<Arc<Mutex<ShardStats>>> =
            (0..config.shards).map(|_| Arc::new(Mutex::new(ShardStats::new()))).collect();
        let snapshots = Arc::new(Mutex::new(Vec::new()));
        let mut restore = restore.into_iter();
        let workers = (0..config.shards)
            .map(|shard| {
                let ctx = ShardContext {
                    shard,
                    queue: queues[shard].clone(),
                    template: template.clone(),
                    max_sessions: config.max_sessions_per_shard,
                    stats: stats[shard].clone(),
                    snapshots: snapshots.clone(),
                    restore: restore.next().expect("one restore list per shard"),
                    #[cfg(feature = "fault-injection")]
                    injector: options.injector.clone(),
                };
                let factory = options.recorder_factory.clone();
                std::thread::Builder::new()
                    .name(format!("ficsum-serve-{shard}"))
                    .spawn(move || shard::run(ctx, factory))
                    .expect("spawn shard worker")
            })
            .collect();
        Ok(Self { template, config, queues, stats, snapshots, workers: Mutex::new(workers) })
    }

    /// The template sessions are stamped from.
    pub fn template(&self) -> &SessionTemplate {
        &self.template
    }

    /// The (normalized) shape this server runs with.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// The shard that owns `session`. Stable for the server's lifetime and
    /// across servers with the same shard count.
    pub fn shard_of(&self, session: SessionId) -> usize {
        shard_of_with(session, self.config.shards)
    }

    /// Submits a batch of observations without blocking.
    ///
    /// On success every request is guaranteed a *completed* reply slot —
    /// the step's outcome, or a [`crate::StepError`] if a fault prevented
    /// one; await them (in submission order) through the returned
    /// [`BatchReply`]. On error **nothing** was enqueued: the caller still
    /// owns the batch and can retry it verbatim after backing off — or use
    /// [`StreamServer::submit_with_deadline`] to have the server wait for
    /// room.
    pub fn try_submit(&self, batch: &[Submit]) -> Result<BatchReply, ServeError> {
        let (shared, mut grouped) = self.prepare(batch)?;
        queue::try_submit_all(&self.queues, &mut grouped)?;
        Ok(BatchReply::new(shared, batch.len()))
    }

    /// Submits a batch, blocking up to `timeout` for queue space.
    ///
    /// Where [`StreamServer::try_submit`] refuses a full queue immediately,
    /// this parks on the contended shard's space condvar and retries when
    /// the worker drains — no spin, no sleep tuning. Fails with
    /// [`ServeError::DeadlineExceeded`] if the batch could not be accepted
    /// in time (nothing was enqueued) and [`ServeError::ShutDown`] if a
    /// needed shard closed while waiting. A batch whose share of one shard
    /// exceeds the queue capacity can never be accepted and fails with
    /// `DeadlineExceeded` at once. A `timeout` past the clock's range (such
    /// as [`Duration::MAX`]) waits without limit. The timeout bounds
    /// *admission* only; pair it with [`BatchReply::wait_timeout`] to also
    /// bound the wait for results.
    pub fn submit_with_deadline(
        &self,
        batch: &[Submit],
        timeout: Duration,
    ) -> Result<BatchReply, ServeError> {
        let deadline = Instant::now().checked_add(timeout);
        let (shared, mut grouped) = self.prepare(batch)?;
        loop {
            match queue::try_submit_all(&self.queues, &mut grouped) {
                Ok(()) => return Ok(BatchReply::new(shared, batch.len())),
                Err(ServeError::Overloaded { shard }) => {
                    let needed = grouped
                        .iter()
                        .find(|(s, _)| *s == shard)
                        .map(|(_, requests)| requests.len())
                        .unwrap_or(1);
                    // Waits until the shard has room for this batch's whole
                    // share of it, the deadline passes, or the queue closes.
                    self.queues[shard].wait_for_space(needed, deadline)?;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Validates a batch and groups it per shard; shared front half of both
    /// submit modes.
    fn prepare(&self, batch: &[Submit]) -> Result<(Arc<BatchShared>, ShardGroups), ServeError> {
        validate_batch(batch, self.template.n_features(), self.template.n_classes())?;
        let shared = BatchShared::new(batch.len());
        let now = Instant::now();
        let mut grouped: BTreeMap<usize, Vec<Request>> = BTreeMap::new();
        for (slot, submit) in batch.iter().enumerate() {
            grouped.entry(self.shard_of(submit.session_id)).or_default().push(Request {
                session: submit.session_id,
                features: submit.features.clone(),
                label: submit.label,
                slot,
                batch: shared.clone(),
                submitted_at: now,
            });
        }
        Ok((shared, grouped.into_iter().collect()))
    }

    /// Current per-shard metrics (queue gauges + worker counters).
    pub fn metrics(&self) -> Vec<ShardMetrics> {
        (0..self.config.shards)
            .map(|shard| {
                let (queue_depth, enqueued, max_queue_depth) = self.queues[shard].gauges();
                let stats = lock_recover(&self.stats[shard]);
                ShardMetrics {
                    shard,
                    enqueued,
                    processed: stats.processed,
                    batches: stats.batches,
                    sessions_created: stats.sessions_created,
                    sessions_evicted: stats.sessions_evicted,
                    sessions_poisoned: stats.sessions_poisoned,
                    sessions_restored: stats.sessions_restored,
                    worker_restarts: stats.worker_restarts,
                    live_sessions: stats.live_sessions,
                    queue_depth,
                    max_queue_depth,
                    latency: stats.latency.clone(),
                }
            })
            .collect()
    }

    /// Takes the snapshots accumulated so far (capacity evictions and
    /// quarantines) out of the store. Non-blocking with respect to the
    /// workers.
    ///
    /// **Exactly-once, with [`StreamServer::shutdown`]:** every snapshot
    /// the server ever produces is returned by exactly one
    /// `drain_snapshots` call or by the final `shutdown` report, never
    /// both. A snapshot becomes drainable only after its eviction fully
    /// completed on the worker, so a drained checkpoint is always a
    /// consistent capture.
    pub fn drain_snapshots(&self) -> Vec<SessionSnapshot> {
        std::mem::take(&mut *lock_recover(&self.snapshots))
    }

    /// Stops accepting work, drains every queue (accepted batches are
    /// still processed and replied to), snapshots all surviving sessions,
    /// and returns the final report.
    ///
    /// **Ordering guarantee:** queues close first, then every worker is
    /// joined, and only then is the snapshot store emptied — so the report
    /// contains each remaining session exactly once, with its final state.
    /// Snapshots already taken via [`StreamServer::drain_snapshots`] are
    /// not repeated (see its exactly-once contract). Dropping the server
    /// instead of calling `shutdown` still joins the workers but discards
    /// the undrained snapshots.
    pub fn shutdown(self) -> ServeReport {
        self.shutdown_in_place()
    }

    /// [`StreamServer::shutdown`] through a shared reference, for callers
    /// that cannot take the server by value — typically a network front-end
    /// holding an `Arc<StreamServer>` next to a direct in-process caller.
    ///
    /// Safe to call from several threads, and idempotent with
    /// [`StreamServer::shutdown`] and [`StreamServer::close`]: the workers
    /// are joined exactly once (later callers wait for the first join to
    /// finish, never double-join or deadlock), and every snapshot the
    /// server produced appears in exactly one returned report — a second
    /// concurrent `shutdown_in_place` gets whatever the first did not
    /// drain, usually nothing.
    pub fn shutdown_in_place(&self) -> ServeReport {
        self.close();
        let snapshots = std::mem::take(&mut *lock_recover(&self.snapshots));
        let metrics = self.metrics();
        ServeReport { snapshots, metrics }
    }

    /// Closes every shard queue and joins the workers. Idempotent and
    /// race-safe: closing an already-closed queue is a no-op, and the
    /// worker handles are drained under a lock, so exactly one caller
    /// joins each worker while concurrent callers block until the joins
    /// complete — after `close` returns, *all* serving work has finished,
    /// no matter who closed first.
    pub fn close(&self) {
        for queue in &self.queues {
            queue.close();
        }
        for worker in lock_recover(&self.workers).drain(..) {
            // Workers are supervised and exit cleanly even after panics; a
            // join error would mean the supervisor itself died, which has
            // no useful handling beyond not compounding the panic.
            let _ = worker.join();
        }
    }
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        self.close();
    }
}

fn shard_of_with(session: SessionId, shards: usize) -> usize {
    (splitmix64(session.0) % shards as u64) as usize
}

/// SplitMix64 finalizer: a fixed, well-mixed session→shard hash so the
/// partition is stable across runs (tests rely on this) without `std`'s
/// per-process-randomized hasher.
fn splitmix64(value: u64) -> u64 {
    let mut x = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StepError;
    use crate::session::EvictReason;
    use ficsum_core::{FicsumConfig, Variant};

    fn template() -> SessionTemplate {
        SessionTemplate::new(2, 2, FicsumConfig::default(), Variant::ErrorRate).unwrap()
    }

    fn outcomes(reply: BatchReply) -> Vec<ficsum_core::StepOutcome> {
        reply.wait().into_iter().map(|r| r.expect("no faults in this test")).collect()
    }

    #[test]
    fn serves_batches_across_sessions_and_returns_in_order() {
        let server = StreamServer::new(template(), ServeConfig::default().with_shards(2));
        let batch: Vec<Submit> = (0..32)
            .map(|i| Submit::new(SessionId(i % 4), vec![0.3, 0.7], (i % 2) as usize))
            .collect();
        let results = outcomes(server.try_submit(&batch).expect("queues are empty"));
        assert_eq!(results.len(), 32);
        let report = server.shutdown();
        assert_eq!(report.snapshots.len(), 4, "all four sessions snapshotted");
        assert_eq!(report.snapshots.iter().map(|s| s.steps).sum::<u64>(), 32);
        let processed: u64 = report.metrics.iter().map(|m| m.processed).sum();
        assert_eq!(processed, 32);
        assert_eq!(report.metrics.iter().map(|m| m.latency.count()).sum::<u64>(), 32);
    }

    #[test]
    fn dimension_mismatch_is_rejected_before_enqueue() {
        let server = StreamServer::new(template(), ServeConfig::default().with_shards(1));
        let bad = [Submit::new(SessionId(0), vec![1.0, 2.0, 3.0], 0)];
        assert_eq!(
            server.try_submit(&bad).map(|_| ()),
            Err(ServeError::DimensionMismatch { expected: 2, got: 3 })
        );
        assert_eq!(server.try_submit(&[]).map(|_| ()), Err(ServeError::EmptyBatch));
        assert_eq!(server.metrics()[0].enqueued, 0);
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let server = StreamServer::new(template(), ServeConfig::default().with_shards(1));
        let queues = server.queues.clone();
        drop(server);
        assert!(queues[0].pop_all().is_none(), "queue closed by drop");
    }

    #[test]
    fn shard_partition_is_stable_and_total() {
        let server = StreamServer::new(template(), ServeConfig::default().with_shards(3));
        let mut seen = [0usize; 3];
        for id in 0..300u64 {
            let shard = server.shard_of(SessionId(id));
            assert_eq!(shard, server.shard_of(SessionId(id)), "stable");
            seen[shard] += 1;
        }
        assert!(seen.iter().all(|&n| n > 50), "roughly balanced: {seen:?}");
    }

    #[test]
    fn restore_resumes_sessions_across_server_generations() {
        let config = ServeConfig::default().with_shards(2);
        let first = StreamServer::new(template(), config);
        let batch: Vec<Submit> = (0..40)
            .map(|i| Submit::new(SessionId(i % 4), vec![0.1 * (i % 7) as f64, 0.5], (i % 2) as usize))
            .collect();
        outcomes(first.try_submit(&batch).unwrap());
        let report = first.shutdown();
        assert_eq!(report.snapshots.len(), 4);

        // Second generation picks up exactly where the first stopped...
        let second = StreamServer::with_options(
            template(),
            config,
            ServeOptions::default().with_restore(report.snapshots),
        )
        .expect("checkpoints match the template");
        outcomes(second.try_submit(&batch).unwrap());
        let report = second.shutdown();
        assert_eq!(report.snapshots.len(), 4);
        // ...so step counts accumulate across generations.
        assert_eq!(report.snapshots.iter().map(|s| s.steps).sum::<u64>(), 80);
        assert_eq!(report.metrics.iter().map(|m| m.sessions_restored).sum::<u64>(), 4);
        assert!(report.metrics.iter().all(|m| m.worker_restarts == 0));

        // ...and a snapshot stripped of its checkpoint is refused up front.
        let mut snapshot = second_generation_snapshot();
        snapshot.checkpoint = None;
        let missing = StreamServer::with_options(
            template(),
            config,
            ServeOptions::default().with_restore(vec![snapshot]),
        );
        assert!(matches!(missing, Err(ServeError::MissingCheckpoint { .. })));
    }

    fn second_generation_snapshot() -> SessionSnapshot {
        let server = StreamServer::new(template(), ServeConfig::default().with_shards(1));
        outcomes(server.try_submit(&[Submit::new(SessionId(1), vec![0.2, 0.4], 0)]).unwrap());
        let mut report = server.shutdown();
        report.snapshots.pop().expect("one session")
    }

    #[test]
    fn incompatible_checkpoint_is_refused_at_construction() {
        let snapshot = second_generation_snapshot();
        let wide = SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::ErrorRate).unwrap();
        let result = StreamServer::with_options(
            wide,
            ServeConfig::default(),
            ServeOptions::default().with_restore(vec![snapshot]),
        );
        match result {
            Err(ServeError::IncompatibleCheckpoint { session, .. }) => {
                assert_eq!(session, SessionId(1));
            }
            other => panic!("expected IncompatibleCheckpoint, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn submit_with_deadline_waits_for_space_and_succeeds() {
        let server = StreamServer::new(
            template(),
            ServeConfig::default().with_shards(1).with_queue_capacity(4),
        );
        let batch: Vec<Submit> =
            (0..4).map(|i| Submit::new(SessionId(i), vec![0.3, 0.6], (i % 2) as usize)).collect();
        // Saturate, then submit more with a generous deadline: the worker
        // drains, space frees, and the blocked submit lands.
        let mut replies = Vec::new();
        for _ in 0..8 {
            replies.push(
                server
                    .submit_with_deadline(&batch, Duration::from_secs(30))
                    .expect("worker drains within the deadline"),
            );
        }
        let total: usize = replies.into_iter().map(|reply| outcomes(reply).len()).sum();
        assert_eq!(total, 32);
        // A batch that can never fit (5 > capacity 4) fails with
        // DeadlineExceeded, enqueueing nothing — even without a deadline.
        let huge: Vec<Submit> =
            (0..5).map(|_| Submit::new(SessionId(0), vec![0.3, 0.6], 0)).collect();
        for timeout in [Duration::from_millis(50), Duration::MAX] {
            let result = server.submit_with_deadline(&huge, timeout);
            assert_eq!(result.map(|_| ()), Err(ServeError::DeadlineExceeded));
        }
    }

    /// Regression: `Instant::now() + Duration::MAX` overflowed and panicked.
    /// A deadline past the clock's range now means "no deadline".
    #[test]
    fn unbounded_deadline_submit_is_served() {
        let server = StreamServer::new(template(), ServeConfig::default().with_shards(1));
        let batch = [Submit::new(SessionId(0), vec![0.3, 0.6], 1)];
        let reply = server.submit_with_deadline(&batch, Duration::MAX).expect("queue has room");
        assert_eq!(outcomes(reply).len(), 1);
    }

    #[test]
    fn drain_and_shutdown_return_each_snapshot_exactly_once() {
        let server = StreamServer::new(
            template(),
            ServeConfig::default().with_shards(1).with_max_sessions_per_shard(2),
        );
        // 5 sessions through a 2-session table: 3 capacity evictions.
        for id in 0..5u64 {
            outcomes(server.try_submit(&[Submit::new(SessionId(id), vec![0.2, 0.8], 0)]).unwrap());
        }
        let drained = server.drain_snapshots();
        assert_eq!(drained.len(), 3);
        assert!(drained.iter().all(|s| s.reason == EvictReason::Capacity));
        assert!(server.drain_snapshots().is_empty(), "store was emptied");
        let report = server.shutdown();
        assert_eq!(report.snapshots.len(), 2, "only the still-live sessions remain");
        let mut all: Vec<u64> = drained
            .iter()
            .chain(report.snapshots.iter())
            .map(|s| s.session.0)
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4], "exactly once, no loss, no duplication");
    }

    /// Regression: a network front-end holding an `Arc<StreamServer>` and
    /// a direct caller can both reach shutdown; before `close` /
    /// `shutdown_in_place` existed, shutdown consumed the server and the
    /// loser of the race had no safe path. Both callers must terminate
    /// (no deadlock, no double-join panic), and every session snapshot
    /// must appear in exactly one of the two reports.
    #[test]
    fn shutdown_is_idempotent_across_racing_callers() {
        let server = Arc::new(StreamServer::new(template(), ServeConfig::default().with_shards(2)));
        for id in 0..6u64 {
            outcomes(server.try_submit(&[Submit::new(SessionId(id), vec![0.4, 0.2], 0)]).unwrap());
        }
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || server.shutdown_in_place())
            })
            .collect();
        let reports: Vec<ServeReport> =
            racers.into_iter().map(|t| t.join().expect("no panic in shutdown race")).collect();
        let mut all: Vec<u64> = reports
            .iter()
            .flat_map(|r| r.snapshots.iter().map(|s| s.session.0))
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5], "each snapshot in exactly one report");
        // The server is fully closed: further submits are refused, and yet
        // another shutdown is a quiet no-op with an empty report.
        assert_eq!(
            server.try_submit(&[Submit::new(SessionId(0), vec![0.1, 0.2], 0)]).map(|_| ()),
            Err(ServeError::ShutDown)
        );
        let again = server.shutdown_in_place();
        assert!(again.snapshots.is_empty(), "snapshots were already drained exactly once");
    }

    /// A session whose pipeline panics poisons only itself: siblings keep
    /// serving, the panicking session's requests complete with
    /// `SessionPoisoned`, and its quarantine snapshot is reported. Runs
    /// without the fault-injection feature by planting a panicking
    /// classifier through the template's factory hook.
    #[test]
    fn panicking_session_poisons_only_itself() {
        use ficsum_classifiers::{Classifier, ClassifierFactory, GaussianNaiveBayes};

        #[derive(Clone)]
        struct PoisonPill {
            inner: GaussianNaiveBayes,
            trained: u32,
        }
        impl Classifier for PoisonPill {
            fn predict(&self, x: &[f64]) -> usize {
                self.inner.predict(x)
            }
            fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
                self.inner.predict_proba(x)
            }
            fn train(&mut self, x: &[f64], y: usize) {
                self.trained += 1;
                if self.trained > 3 {
                    panic!("poison pill classifier");
                }
                self.inner.train(x, y);
            }
            fn n_classes(&self) -> usize {
                self.inner.n_classes()
            }
            fn n_features(&self) -> usize {
                self.inner.n_features()
            }
            fn n_trained(&self) -> usize {
                self.inner.n_trained()
            }
            fn reset(&mut self) {
                self.inner.reset()
            }
            fn clone_box(&self) -> Box<dyn Classifier> {
                Box::new(self.clone())
            }
        }
        fn pill_factory() -> Box<dyn ClassifierFactory> {
            Box::new(|| {
                Box::new(PoisonPill { inner: GaussianNaiveBayes::new(2, 2), trained: 0 })
                    as Box<dyn Classifier>
            })
        }

        let template = SessionTemplate::new(2, 2, FicsumConfig::default(), Variant::ErrorRate)
            .unwrap()
            .with_classifier_factory(pill_factory);
        let server = StreamServer::new(template, ServeConfig::default().with_shards(1));
        // Two sessions on one shard; both trip their pill on the 4th learn.
        // Feed session 1 past the pill, keep session 2 healthy below it.
        let mut batch = Vec::new();
        for i in 0..6 {
            batch.push(Submit::new(SessionId(1), vec![0.2, 0.4], (i % 2) as usize));
        }
        batch.push(Submit::new(SessionId(2), vec![0.3, 0.1], 0));
        let results = server.try_submit(&batch).unwrap().wait();
        // First 3 learns succeed, 4th panics; everything after for session 1
        // is refused as poisoned, while session 2 still serves.
        assert!(results[..3].iter().all(|r| r.is_ok()));
        assert!(results[3..6]
            .iter()
            .all(|r| *r == Err(StepError::SessionPoisoned { session: SessionId(1) })));
        assert!(results[6].is_ok(), "sibling session keeps serving");
        let report = server.shutdown();
        let poisoned: Vec<_> =
            report.snapshots.iter().filter(|s| s.reason == EvictReason::Poisoned).collect();
        assert_eq!(poisoned.len(), 1);
        assert_eq!(poisoned[0].session, SessionId(1));
        assert_eq!(poisoned[0].steps, 3, "last-good state: three completed steps");
        assert_eq!(report.metrics[0].sessions_poisoned, 1);
        assert_eq!(report.metrics[0].worker_restarts, 0, "panic stayed session-scoped");
        assert_eq!(report.metrics[0].processed, 7, "every slot completed");
    }
}
