//! Bounded per-shard request queues (std-only MPSC).
//!
//! One queue per shard, one consumer (the shard worker) per queue. The
//! non-blocking submit path checks capacity under the queue lock and
//! refuses a full queue instead of waiting; the blocking submit path parks
//! on a dedicated `space` condvar that the worker signals whenever it
//! drains the queue — and that [`ShardQueue::close`] also signals, so a
//! submitter blocked for space during shutdown errors out promptly instead
//! of waiting on a wakeup that would never come.
//!
//! A batch that spans several shards must be all-or-nothing — enqueueing
//! half a batch and then failing would leave its [`BatchReply`] waiting on
//! slots no worker will ever fill. [`try_submit_all`] therefore locks every
//! involved queue (in ascending shard order, so concurrent submitters
//! cannot deadlock), verifies capacity on all of them, and only then
//! pushes. On failure the caller keeps the grouped batch untouched and can
//! retry it verbatim.
//!
//! [`BatchReply`]: crate::BatchReply

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::error::ServeError;
use crate::reply::BatchShared;
use crate::session::SessionId;
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};

/// One enqueued observation, addressed to a session and a reply slot.
pub(crate) struct Request {
    pub(crate) session: SessionId,
    pub(crate) features: Vec<f64>,
    pub(crate) label: usize,
    pub(crate) slot: usize,
    pub(crate) batch: Arc<BatchShared>,
    pub(crate) submitted_at: Instant,
}

pub(crate) struct QueueState {
    items: VecDeque<Request>,
    closed: bool,
    /// Total requests ever accepted (for metrics).
    enqueued: u64,
    /// High-water mark of `items.len()` (for metrics).
    max_depth: usize,
}

pub(crate) struct ShardQueue {
    state: Mutex<QueueState>,
    /// Signalled when items arrive or the queue closes (consumer side).
    ready: Condvar,
    /// Signalled when the worker drains items or the queue closes
    /// (blocking-submitter side).
    space: Condvar,
    capacity: usize,
}

impl ShardQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                enqueued: 0,
                max_depth: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Blocks until requests are available and takes all of them, or
    /// returns `None` once the queue is closed *and* drained. Draining
    /// everything in one lock acquisition is what makes the worker's
    /// per-batch bookkeeping cheap.
    pub(crate) fn pop_all(&self) -> Option<VecDeque<Request>> {
        let mut state = lock_recover(&self.state);
        loop {
            if !state.items.is_empty() {
                let items = std::mem::take(&mut state.items);
                drop(state);
                // The queue is now empty: every parked blocking submitter
                // may have room.
                self.space.notify_all();
                return Some(items);
            }
            if state.closed {
                return None;
            }
            state = wait_recover(&self.ready, state);
        }
    }

    /// Closes the queue: pending requests will still be drained, further
    /// submits are refused with [`ServeError::ShutDown`]. Wakes the
    /// consumer *and* every submitter blocked waiting for space — a closed
    /// queue never frees space again, so those waiters must error out now.
    pub(crate) fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Blocks until the queue has room for `needed` more requests, the
    /// queue closes ([`ServeError::ShutDown`]) or `deadline` passes
    /// ([`ServeError::DeadlineExceeded`]). `None` waits without a deadline;
    /// a `needed` beyond the capacity can never fit and fails at once with
    /// `DeadlineExceeded`.
    ///
    /// A successful return is advisory: the lock is released before the
    /// caller retries its submit, so the room may be gone again. The caller
    /// loops submit→wait until its deadline, which bounds the race.
    pub(crate) fn wait_for_space(
        &self,
        needed: usize,
        deadline: Option<Instant>,
    ) -> Result<(), ServeError> {
        let mut state = lock_recover(&self.state);
        loop {
            if state.closed {
                return Err(ServeError::ShutDown);
            }
            if needed > self.capacity {
                return Err(ServeError::DeadlineExceeded);
            }
            if state.items.len() + needed <= self.capacity {
                return Ok(());
            }
            state = match deadline {
                None => wait_recover(&self.space, state),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ServeError::DeadlineExceeded);
                    }
                    wait_timeout_recover(&self.space, state, deadline - now).0
                }
            };
        }
    }

    /// Current depth and lifetime counters, for metrics snapshots.
    pub(crate) fn gauges(&self) -> (usize, u64, usize) {
        let state = lock_recover(&self.state);
        (state.items.len(), state.enqueued, state.max_depth)
    }

    /// Current queue depth (the worker reports this as a gauge).
    pub(crate) fn depth(&self) -> usize {
        lock_recover(&self.state).items.len()
    }
}

/// Atomically enqueues a batch grouped per shard: either every request in
/// every group is accepted (the groups are drained), or nothing is enqueued
/// — `grouped` is left intact so the caller can retry the identical batch —
/// and the error names the first obstacle. `grouped` must be sorted by
/// ascending shard index — [`std::collections::BTreeMap`] iteration order
/// satisfies this — so that concurrent multi-shard submitters acquire locks
/// in one global order.
pub(crate) fn try_submit_all(
    queues: &[Arc<ShardQueue>],
    grouped: &mut [(usize, Vec<Request>)],
) -> Result<(), ServeError> {
    debug_assert!(grouped.windows(2).all(|w| w[0].0 < w[1].0), "groups must ascend by shard");
    let mut guards: Vec<MutexGuard<'_, QueueState>> = Vec::with_capacity(grouped.len());
    for (shard, requests) in grouped.iter() {
        let state = lock_recover(&queues[*shard].state);
        if state.closed {
            return Err(ServeError::ShutDown);
        }
        if state.items.len() + requests.len() > queues[*shard].capacity {
            return Err(ServeError::Overloaded { shard: *shard });
        }
        guards.push(state);
    }
    // Every involved queue has room; the pushes cannot fail.
    let shards: Vec<usize> = grouped.iter().map(|(shard, _)| *shard).collect();
    for (state, (_, requests)) in guards.iter_mut().zip(grouped.iter_mut()) {
        state.enqueued += requests.len() as u64;
        for request in requests.drain(..) {
            state.items.push_back(request);
        }
        state.max_depth = state.max_depth.max(state.items.len());
    }
    drop(guards);
    for shard in shards {
        queues[shard].ready.notify_one();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn request(slot: usize, batch: &Arc<BatchShared>) -> Request {
        Request {
            session: SessionId(slot as u64),
            features: vec![0.0],
            label: 0,
            slot,
            batch: batch.clone(),
            submitted_at: Instant::now(),
        }
    }

    #[test]
    fn overload_is_all_or_nothing_across_shards() {
        let queues = vec![Arc::new(ShardQueue::new(2)), Arc::new(ShardQueue::new(1))];
        let batch = BatchShared::new(3);
        // Shard 1 has capacity 1; asking it for 2 must refuse the whole
        // submit, leaving shard 0 untouched as well.
        let mut grouped = vec![
            (0usize, vec![request(0, &batch)]),
            (1usize, vec![request(1, &batch), request(2, &batch)]),
        ];
        assert_eq!(
            try_submit_all(&queues, &mut grouped),
            Err(ServeError::Overloaded { shard: 1 })
        );
        assert_eq!(queues[0].depth(), 0, "no partial enqueue");
        assert_eq!(queues[1].depth(), 0);
        // A refused batch is kept intact for verbatim retry.
        assert_eq!(grouped[0].1.len(), 1);
        assert_eq!(grouped[1].1.len(), 2);
        // A batch that fits everywhere goes through whole and is drained.
        let mut ok = vec![
            (0usize, vec![request(0, &batch)]),
            (1usize, vec![request(1, &batch)]),
        ];
        assert_eq!(try_submit_all(&queues, &mut ok), Ok(()));
        assert!(ok.iter().all(|(_, reqs)| reqs.is_empty()), "accepted batch is drained");
        assert_eq!(queues[0].depth(), 1);
        assert_eq!(queues[1].depth(), 1);
    }

    #[test]
    fn closed_queue_refuses_and_drains() {
        let queue = Arc::new(ShardQueue::new(4));
        let batch = BatchShared::new(1);
        let queues = vec![queue.clone()];
        try_submit_all(&queues, &mut [(0, vec![request(0, &batch)])]).unwrap();
        queue.close();
        assert_eq!(
            try_submit_all(&queues, &mut [(0, vec![request(0, &batch)])]),
            Err(ServeError::ShutDown)
        );
        // The request accepted before close is still delivered...
        assert_eq!(queue.pop_all().map(|items| items.len()), Some(1));
        // ...and only then does the consumer see end-of-stream.
        assert!(queue.pop_all().is_none());
    }

    #[test]
    fn wait_for_space_returns_when_the_worker_drains() {
        let queue = Arc::new(ShardQueue::new(1));
        let batch = BatchShared::new(1);
        try_submit_all(std::slice::from_ref(&queue), &mut [(0, vec![request(0, &batch)])]).unwrap();
        let waiter = {
            let queue = queue.clone();
            std::thread::spawn(move || {
                queue.wait_for_space(1, Some(Instant::now() + Duration::from_secs(10)))
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        let drained = queue.pop_all().expect("one item queued");
        assert_eq!(drained.len(), 1);
        assert_eq!(waiter.join().unwrap(), Ok(()));
    }

    /// Regression: a submitter blocked in `Condvar::wait` for space while
    /// the queue is concurrently closed must return `ShutDown` promptly —
    /// before the fix, `close` only signalled the consumer-side condvar and
    /// the submitter waited on a signal that never came.
    #[test]
    fn close_wakes_a_submitter_blocked_on_space() {
        // With a deadline and without one: neither may outlive the close.
        for deadline in [Some(Instant::now() + Duration::from_secs(30)), None] {
            let queue = Arc::new(ShardQueue::new(1));
            let batch = BatchShared::new(1);
            try_submit_all(std::slice::from_ref(&queue), &mut [(0, vec![request(0, &batch)])])
                .unwrap();
            let waiter = {
                let queue = queue.clone();
                std::thread::spawn(move || {
                    let start = Instant::now();
                    let result = queue.wait_for_space(1, deadline);
                    (result, start.elapsed())
                })
            };
            std::thread::sleep(Duration::from_millis(30));
            queue.close();
            let (result, elapsed) = waiter.join().unwrap();
            assert_eq!(result, Err(ServeError::ShutDown));
            assert!(
                elapsed < Duration::from_secs(5),
                "close must wake the space waiter promptly, took {elapsed:?}"
            );
        }
    }

    #[test]
    fn wait_for_space_honours_its_deadline() {
        let queue = Arc::new(ShardQueue::new(1));
        let batch = BatchShared::new(1);
        try_submit_all(std::slice::from_ref(&queue), &mut [(0, vec![request(0, &batch)])]).unwrap();
        // No worker will ever drain; the wait must end at the deadline.
        let start = Instant::now();
        let result = queue.wait_for_space(1, Some(Instant::now() + Duration::from_millis(50)));
        assert_eq!(result, Err(ServeError::DeadlineExceeded));
        assert!(start.elapsed() >= Duration::from_millis(50));
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
