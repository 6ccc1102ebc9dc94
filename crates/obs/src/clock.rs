//! Caller-supplied time sources for span measurement.
//!
//! The pipeline never calls [`std::time::Instant::now`] directly: it reads
//! whatever [`Clock`] it was given. Production code uses
//! [`MonotonicClock`]; tests use [`ManualClock`] and advance it explicitly,
//! so latency histograms and JSONL span records are bit-reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
///
/// `Send + Sync` so a single clock can be shared across the fingerprint
/// engine's worker threads, `Debug` so holders can stay `#[derive(Debug)]`.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds elapsed since an arbitrary (but fixed) origin.
    fn now_nanos(&self) -> u64;
}

/// Wall-clock monotonic time, anchored at construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock anchored at "now".
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic clock that only moves when told to.
///
/// Interior-mutable (atomic) so it satisfies [`Clock`]'s shared-reference
/// interface; tests hold an `Arc<ManualClock>` and call
/// [`ManualClock::advance`] between pipeline steps.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.now.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Sets the absolute time. Panics if this would move time backwards.
    pub fn set(&self, nanos: u64) {
        let prev = self.now.swap(nanos, Ordering::Relaxed);
        assert!(nanos >= prev, "ManualClock must be monotonic: {prev} -> {nanos}");
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_is_explicit() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(250);
        assert_eq!(c.now_nanos(), 250);
        c.set(1_000);
        assert_eq!(c.now_nanos(), 1_000);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn manual_clock_rejects_time_travel() {
        let c = ManualClock::new();
        c.set(500);
        c.set(100);
    }
}
