//! Deterministic fail-point injection (feature `fault-injection`).
//!
//! Fault tolerance that is only exercised by real faults is untested fault
//! tolerance. This module gives tests and the `serve_faults` harness a
//! deterministic way to make specific requests panic, crash a whole
//! worker, or stall a shard — at chosen, reproducible points.
//!
//! The entire module (and the single hook the shard loop calls) only
//! exists under the `fault-injection` cargo feature: release builds carry
//! zero fault machinery on the hot path. Decisions must be deterministic —
//! scripted ([`ScriptedFaults`]) or derived from a seed by a stateless
//! hash ([`SeededFaults`]) — so a failing fault test replays exactly.
//!
//! Injected session panics fire *after* the session is touched but
//! *before* its pipeline processes the request, so the quarantine snapshot
//! captures clean last-good state — which is what lets the harness pin
//! that a quarantined session restores bit-identically.

use std::time::Duration;

/// Where in the request lifecycle a fault decision is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FailPoint {
    /// About to process one request. `step` is the shard-local request
    /// ordinal (0-based, monotone per shard across restarts).
    BeforeProcess {
        /// Shard handling the request.
        shard: usize,
        /// Session the request addresses.
        session: u64,
        /// Shard-local request ordinal.
        step: u64,
    },
}

/// What the injector wants to happen at a fail point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// No fault; process normally.
    Proceed,
    /// Panic inside the per-request guard: the session is quarantined, the
    /// slot completes with [`crate::StepError::SessionPoisoned`], and the
    /// shard keeps serving its other sessions.
    PanicSession,
    /// Panic outside the per-request guard: the worker thread dies and the
    /// supervisor restarts it from the surviving session table.
    CrashWorker,
    /// Sleep before processing, simulating a stalled shard (slow I/O, GC
    /// pause, noisy neighbour). Requests queue up behind the stall; clients
    /// observe it through `wait_timeout` and `Overloaded`.
    Stall(Duration),
}

/// Decides, deterministically, whether a fault fires at a fail point.
///
/// Implementations must be `Send + Sync` (one injector is shared by every
/// shard) and pure enough to replay: same construction, same decisions.
pub trait FaultInjector: Send + Sync {
    /// The action to take at `point`.
    fn decide(&self, point: FailPoint) -> FaultAction;
}

/// Scripted faults: an explicit `(shard, step) → action` table.
///
/// `step` is the shard-local request ordinal, which is deterministic for a
/// fixed submission sequence — the harness scripts "the 8th request shard 0
/// processes panics its session" and gets exactly that, every run.
#[derive(Debug, Default)]
pub struct ScriptedFaults {
    script: Vec<(usize, u64, FaultAction)>,
}

impl ScriptedFaults {
    /// An empty script (every decision is [`FaultAction::Proceed`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `action` at the given shard-local request ordinal.
    #[must_use]
    pub fn at(mut self, shard: usize, step: u64, action: FaultAction) -> Self {
        self.script.push((shard, step, action));
        self
    }
}

impl FaultInjector for ScriptedFaults {
    fn decide(&self, point: FailPoint) -> FaultAction {
        let FailPoint::BeforeProcess { shard, step, .. } = point;
        self.script
            .iter()
            .find(|(s, t, _)| *s == shard && *t == step)
            .map(|(_, _, action)| *action)
            .unwrap_or(FaultAction::Proceed)
    }
}

/// Seeded pseudo-random faults: each fail point hashes `(seed, shard,
/// step)` through SplitMix64 — stateless, so decisions depend only on the
/// construction parameters, never on thread timing or call order.
#[derive(Debug, Clone, Copy)]
pub struct SeededFaults {
    seed: u64,
    /// Panic a session roughly once per this many requests (0 = never).
    panic_every: u64,
    /// Crash a worker roughly once per this many requests (0 = never).
    crash_every: u64,
}

impl SeededFaults {
    /// Faults driven by `seed`: sessions panic about once per
    /// `panic_every` requests and workers crash about once per
    /// `crash_every` requests (0 disables either).
    pub fn new(seed: u64, panic_every: u64, crash_every: u64) -> Self {
        Self { seed, panic_every, crash_every }
    }
}

impl FaultInjector for SeededFaults {
    fn decide(&self, point: FailPoint) -> FaultAction {
        let FailPoint::BeforeProcess { shard, step, .. } = point;
        let h = splitmix64(self.seed ^ (shard as u64).rotate_left(32) ^ step);
        if self.crash_every > 0 && h.is_multiple_of(self.crash_every) {
            return FaultAction::CrashWorker;
        }
        // Decorrelate from the crash draw with a second mix.
        let h2 = splitmix64(h);
        if self.panic_every > 0 && h2.is_multiple_of(self.panic_every) {
            return FaultAction::PanicSession;
        }
        FaultAction::Proceed
    }
}

/// SplitMix64 finalizer (same mix the server uses for shard hashing).
fn splitmix64(value: u64) -> u64 {
    let mut x = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_faults_fire_exactly_where_scripted() {
        let faults = ScriptedFaults::new()
            .at(0, 3, FaultAction::PanicSession)
            .at(1, 0, FaultAction::CrashWorker);
        let at = |shard, step| faults.decide(FailPoint::BeforeProcess { shard, session: 9, step });
        assert_eq!(at(0, 3), FaultAction::PanicSession);
        assert_eq!(at(0, 2), FaultAction::Proceed);
        assert_eq!(at(1, 0), FaultAction::CrashWorker);
        assert_eq!(at(2, 3), FaultAction::Proceed);
    }

    #[test]
    fn seeded_faults_are_deterministic_and_seed_sensitive() {
        let a = SeededFaults::new(42, 7, 13);
        let b = SeededFaults::new(42, 7, 13);
        let c = SeededFaults::new(43, 7, 13);
        let decisions = |f: &SeededFaults| {
            (0..200u64)
                .map(|step| f.decide(FailPoint::BeforeProcess { shard: 0, session: 0, step }))
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(&a), decisions(&b), "same seed, same faults");
        assert_ne!(decisions(&a), decisions(&c), "different seed, different faults");
        assert!(
            decisions(&a).iter().any(|d| *d != FaultAction::Proceed),
            "rates of 1/7 and 1/13 must fire within 200 draws"
        );
    }
}
