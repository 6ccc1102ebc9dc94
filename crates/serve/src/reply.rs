//! Per-batch reply handles.
//!
//! Each accepted batch gets one [`BatchReply`]. A batch's requests may fan
//! out across several shards; each worker fills the slots it owns (slot
//! index = the request's position in the submitted batch), and the handle
//! becomes ready when the last slot lands. This keeps replies ordered for
//! the caller without any cross-shard coordination beyond a shared counter.
//!
//! Slots carry [`StepResult`]s, not bare outcomes: under faults the server
//! completes a slot with an error ([`crate::StepError`]) rather than never
//! completing it, so `wait` cannot hang on a quarantined session or a
//! failed worker. [`BatchReply::wait_timeout`] additionally bounds the wait
//! itself, for callers that must make progress even if a shard stalls.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::StepResult;
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};

pub(crate) struct BatchShared {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    slots: Vec<Option<StepResult>>,
    pending: usize,
}

impl BatchShared {
    pub(crate) fn new(len: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(BatchState { slots: vec![None; len], pending: len }),
            done: Condvar::new(),
        })
    }

    /// Called by a shard worker with the result for one request. Slots are
    /// disjoint across workers, so filling never races on the same index.
    pub(crate) fn fill(&self, slot: usize, result: StepResult) {
        let mut state = lock_recover(&self.state);
        debug_assert!(state.slots[slot].is_none(), "slot {slot} filled twice");
        state.slots[slot] = Some(result);
        state.pending -= 1;
        if state.pending == 0 {
            self.done.notify_all();
        }
    }

}

/// Handle to a batch accepted by [`crate::StreamServer::try_submit`].
///
/// The server guarantees every accepted request's slot *completes* — with
/// the step's outcome, or with a [`crate::StepError`] when a fault
/// prevented one — so [`BatchReply::wait`] always terminates once the
/// batch has flowed through its shards. Use [`BatchReply::wait_timeout`]
/// to additionally bound how long "flowed through" may take.
pub struct BatchReply {
    shared: Arc<BatchShared>,
    len: usize,
}

impl BatchReply {
    pub(crate) fn new(shared: Arc<BatchShared>, len: usize) -> Self {
        Self { shared, len }
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch contained no requests (never true for accepted
    /// batches; submitting an empty batch is an error).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every request has completed (non-blocking).
    pub fn is_ready(&self) -> bool {
        lock_recover(&self.shared.state).pending == 0
    }

    /// Blocks until every request in the batch has completed and returns
    /// the per-request results in submission order.
    pub fn wait(self) -> Vec<StepResult> {
        let mut state = lock_recover(&self.shared.state);
        while state.pending > 0 {
            state = wait_recover(&self.shared.done, state);
        }
        state
            .slots
            .iter_mut()
            .map(|s| s.take().expect("completed batch has every slot filled"))
            .collect()
    }

    /// Like [`BatchReply::wait`], but gives up once `timeout` has elapsed:
    /// `Err` returns the handle itself so the caller can keep waiting
    /// later, poll [`BatchReply::is_ready`], or drop it (outstanding
    /// requests still complete inside the server; their results are simply
    /// discarded).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<StepResult>, BatchReply> {
        let deadline = Instant::now() + timeout;
        let mut state = lock_recover(&self.shared.state);
        while state.pending > 0 {
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                return Err(self);
            }
            (state, _) = wait_timeout_recover(&self.shared.done, state, deadline - now);
        }
        let results = state
            .slots
            .iter_mut()
            .map(|s| s.take().expect("completed batch has every slot filled"))
            .collect();
        drop(state);
        Ok(results)
    }
}

impl std::fmt::Debug for BatchReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchReply")
            .field("len", &self.len)
            .field("ready", &self.is_ready())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StepError;
    use crate::session::SessionId;
    use ficsum_core::{FicsumConfig, SessionTemplate, StepOutcome, Variant};

    fn outcome() -> StepOutcome {
        // Only the framework constructs `StepOutcome` (non_exhaustive), so
        // take a real one from a throwaway pipeline.
        let template =
            SessionTemplate::new(2, 2, FicsumConfig::default(), Variant::ErrorRate).unwrap();
        template.instantiate().process(&[0.0, 1.0], 0)
    }

    #[test]
    fn wait_timeout_returns_the_handle_until_complete() {
        let shared = BatchShared::new(2);
        let reply = BatchReply::new(shared.clone(), 2);
        shared.fill(0, Ok(outcome()));
        let start = Instant::now();
        let reply = reply
            .wait_timeout(Duration::from_millis(40))
            .expect_err("one slot still pending");
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert!(!reply.is_ready());
        shared.fill(1, Err(StepError::SessionPoisoned { session: SessionId(9) }));
        let results = reply.wait_timeout(Duration::from_secs(5)).expect("complete");
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(StepError::SessionPoisoned { session: SessionId(9) }));
    }

    #[test]
    fn error_fills_complete_a_batch_like_outcomes_do() {
        let shared = BatchShared::new(3);
        let reply = BatchReply::new(shared.clone(), 3);
        shared.fill(1, Ok(outcome()));
        shared.fill(0, Err(StepError::WorkerFailed { shard: 2 }));
        shared.fill(2, Err(StepError::WorkerFailed { shard: 2 }));
        let results = reply.wait();
        assert_eq!(results[0], Err(StepError::WorkerFailed { shard: 2 }));
        assert!(results[1].is_ok(), "filled slot must be preserved");
        assert_eq!(results[2], Err(StepError::WorkerFailed { shard: 2 }));
    }
}
