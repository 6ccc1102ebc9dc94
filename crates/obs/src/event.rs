//! Typed events and stage names emitted by the pipeline.

/// The five pipeline stages whose cost is tracked with monotonic spans.
///
/// Names are stable: they key the per-stage histograms of
/// [`crate::InMemoryRecorder`] and the `"stage"` field of the JSONL schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// The active classifier's prediction and training on the step's
    /// observation.
    Classifier,
    /// Meta-feature extraction of a window (the fingerprint engine).
    Extract,
    /// Fingerprint similarity computation and baseline maintenance,
    /// including the steady-path dynamic-weights recompute.
    Similarity,
    /// Feeding the detector and deciding whether a drift fired.
    DriftCheck,
    /// Repository work after a drift: model selection, re-checks and the
    /// periodic non-active fingerprint refresh.
    RepositoryReassess,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Classifier,
        Stage::Extract,
        Stage::Similarity,
        Stage::DriftCheck,
        Stage::RepositoryReassess,
    ];

    /// Stable snake-case name (used in the JSONL schema).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Classifier => "classifier",
            Stage::Extract => "extract",
            Stage::Similarity => "similarity",
            Stage::DriftCheck => "drift_check",
            Stage::RepositoryReassess => "repository_reassess",
        }
    }
}

/// Which mechanism confirmed a drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftTrigger {
    /// The ADWIN detector over the standardised similarity stream.
    Detector,
    /// Several consecutive checks far outside the recorded normal band.
    HardStreak,
    /// A long run of baseline-outlier windows.
    OutlierRun,
}

impl DriftTrigger {
    /// Stable snake-case name.
    pub fn name(&self) -> &'static str {
        match self {
            DriftTrigger::Detector => "detector",
            DriftTrigger::HardStreak => "hard_streak",
            DriftTrigger::OutlierRun => "outlier_run",
        }
    }
}

/// A typed event on the observation stream.
///
/// Events carry concept identifiers as plain `u64` so this crate stays
/// independent of `ficsum-core`; the framework's `ConceptId` converts
/// losslessly. The observation index `t` at which an event happened is
/// passed alongside the event in [`crate::Recorder::event`], not stored in
/// the event itself.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A concept drift was confirmed.
    DriftDetected {
        /// What confirmed it.
        trigger: DriftTrigger,
    },
    /// Model selection switched the active concept.
    ConceptSwitch {
        /// Concept active before the switch.
        from: u64,
        /// Concept active after the switch.
        to: u64,
        /// Similarity the winning concept scored during selection
        /// (`None` when a brand-new concept was created).
        similarity: Option<f64>,
    },
    /// A fingerprint was extracted from a window.
    FingerprintExtracted {
        /// Dimensions of the fingerprint vector.
        dims: u64,
    },
    /// The similarity `Sim(F_c, F_A)` fed to the drift detector.
    SimilarityObserved {
        /// The weighted-cosine similarity value.
        value: f64,
    },
    /// A buffered-window similarity was absorbed into the active concept's
    /// normal-similarity distribution `(mu_c, sigma_c)`.
    BaselineAbsorbed {
        /// The absorbed similarity value.
        value: f64,
        /// `mu_c` after absorbing `value`.
        mean: f64,
        /// `sigma_c` after absorbing `value` (unfloored; 0 after the
        /// first absorption).
        std_dev: f64,
    },
    /// The dynamic meta-feature weights were recomputed.
    WeightsRecomputed {
        /// Number of weight dimensions.
        dims: u64,
        /// `max(w) - min(w)` after mean-normalisation — how far from
        /// uniform the weighting currently is.
        spread: f64,
    },
    /// A stored concept was evicted from the bounded repository.
    RepositoryEvicted {
        /// Identifier of the evicted concept.
        id: u64,
    },
    /// Classifier-dependent fingerprint dimensions were reset after a
    /// significant classifier change (Section IV plasticity).
    PlasticityReset,
    /// A serving shard created a new session from the config template.
    SessionCreated {
        /// Shard that owns the session.
        shard: u64,
        /// Identifier of the created session.
        session: u64,
    },
    /// A serving shard evicted a session (LRU under a capacity cap, or an
    /// explicit close); a snapshot of its repository/stats was taken.
    SessionEvicted {
        /// Shard that owned the session.
        shard: u64,
        /// Identifier of the evicted session.
        session: u64,
    },
    /// A serving shard finished processing one submitted batch.
    BatchProcessed {
        /// Shard that processed the batch.
        shard: u64,
        /// Number of observations in the batch.
        len: u64,
    },
    /// A session's pipeline panicked while processing a request; the
    /// session was quarantined (its last-good checkpoint snapshotted) and
    /// the shard kept serving its other sessions.
    SessionPoisoned {
        /// Shard that owned the session.
        shard: u64,
        /// Identifier of the poisoned session.
        session: u64,
    },
    /// A crashed shard worker thread was respawned; the surviving session
    /// table carried over to the new incarnation.
    WorkerRestarted {
        /// Shard whose worker was restarted.
        shard: u64,
        /// Restart ordinal for this shard (1 = first restart).
        incarnation: u64,
        /// Sessions that survived into the new incarnation.
        sessions: u64,
    },
    /// A session was rehydrated from a checkpoint (server-startup restore
    /// or explicit re-admission of an evicted/quarantined session).
    SessionRestored {
        /// Shard that now owns the session.
        shard: u64,
        /// Identifier of the restored session.
        session: u64,
        /// Observation count the restored pipeline resumed from.
        steps: u64,
    },
    /// A network front-end accepted a client connection and completed the
    /// protocol handshake.
    ConnectionOpened {
        /// Front-end-assigned connection ordinal.
        conn: u64,
    },
    /// A network connection ended (client goodbye, disconnect, protocol
    /// violation or front-end shutdown).
    ConnectionClosed {
        /// Front-end-assigned connection ordinal.
        conn: u64,
        /// Batches the connection successfully submitted over its life.
        batches: u64,
    },
    /// A network front-end refused a submitted batch and reported the
    /// refusal to the remote client (backpressure, validation or shutdown
    /// surfaced over the wire instead of dropping the connection).
    BatchRejected {
        /// Connection whose batch was refused.
        conn: u64,
        /// Stable wire error code sent to the client.
        code: u64,
    },
}

impl StreamEvent {
    /// Stable snake-case event name (the `"event"` field of the JSONL
    /// schema and the key of [`crate::InMemoryRecorder::event_count`]).
    pub fn name(&self) -> &'static str {
        match self {
            StreamEvent::DriftDetected { .. } => "drift_detected",
            StreamEvent::ConceptSwitch { .. } => "concept_switch",
            StreamEvent::FingerprintExtracted { .. } => "fingerprint_extracted",
            StreamEvent::SimilarityObserved { .. } => "similarity_observed",
            StreamEvent::BaselineAbsorbed { .. } => "baseline_absorbed",
            StreamEvent::WeightsRecomputed { .. } => "weights_recomputed",
            StreamEvent::RepositoryEvicted { .. } => "repository_evicted",
            StreamEvent::PlasticityReset => "plasticity_reset",
            StreamEvent::SessionCreated { .. } => "session_created",
            StreamEvent::SessionEvicted { .. } => "session_evicted",
            StreamEvent::BatchProcessed { .. } => "batch_processed",
            StreamEvent::SessionPoisoned { .. } => "session_poisoned",
            StreamEvent::WorkerRestarted { .. } => "worker_restarted",
            StreamEvent::SessionRestored { .. } => "session_restored",
            StreamEvent::ConnectionOpened { .. } => "connection_opened",
            StreamEvent::ConnectionClosed { .. } => "connection_closed",
            StreamEvent::BatchRejected { .. } => "batch_rejected",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["classifier", "extract", "similarity", "drift_check", "repository_reassess"]
        );
    }

    #[test]
    fn event_names_are_snake_case() {
        let ev = StreamEvent::ConceptSwitch { from: 0, to: 1, similarity: Some(0.9) };
        assert_eq!(ev.name(), "concept_switch");
        assert_eq!(StreamEvent::DriftDetected { trigger: DriftTrigger::Detector }.name(), "drift_detected");
    }

    #[test]
    fn serving_event_names_are_stable() {
        assert_eq!(StreamEvent::SessionCreated { shard: 0, session: 1 }.name(), "session_created");
        assert_eq!(StreamEvent::SessionEvicted { shard: 0, session: 1 }.name(), "session_evicted");
        assert_eq!(StreamEvent::BatchProcessed { shard: 2, len: 64 }.name(), "batch_processed");
    }

    #[test]
    fn fault_event_names_are_stable() {
        assert_eq!(StreamEvent::SessionPoisoned { shard: 0, session: 9 }.name(), "session_poisoned");
        assert_eq!(
            StreamEvent::WorkerRestarted { shard: 1, incarnation: 1, sessions: 7 }.name(),
            "worker_restarted"
        );
        assert_eq!(
            StreamEvent::SessionRestored { shard: 0, session: 9, steps: 1000 }.name(),
            "session_restored"
        );
    }

    #[test]
    fn network_event_names_are_stable() {
        assert_eq!(StreamEvent::ConnectionOpened { conn: 3 }.name(), "connection_opened");
        assert_eq!(
            StreamEvent::ConnectionClosed { conn: 3, batches: 12 }.name(),
            "connection_closed"
        );
        assert_eq!(StreamEvent::BatchRejected { conn: 3, code: 1 }.name(), "batch_rejected");
    }
}
