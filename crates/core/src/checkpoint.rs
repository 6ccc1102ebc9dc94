//! Session checkpoints: full, dependency-free captures of a running
//! [`crate::Ficsum`] pipeline.
//!
//! The boundary is a type. [`crate::Ficsum`] keeps everything `process`
//! reads or writes across steps in one private `SessionState` — the active
//! concept as a [`ConceptEntry`], the stored repository, the frame ring, the
//! drift detector, the normaliser, the dynamic weights and every counter —
//! and a [`SessionCheckpoint`] is a clone of that value: owned, `Send +
//! Sync`, with no live borrows. A field added to the state is captured and
//! restored without touching any list. Restoring through
//! [`crate::SessionTemplate::restore`] yields a pipeline that continues
//! **bit-identically**: driven with the same observations it produces the
//! same [`crate::StepOutcome`]s as the uninterrupted original (pinned by
//! the snapshot→restore→replay tests).
//!
//! What lives outside the state, and so outside every checkpoint, is what
//! the pipeline struct holds beside it: the fingerprint engine and its
//! caches, the drift-side weighted [`crate::similarity::CachedFingerprint`],
//! extraction scratch and the shared static scan, the classifier
//! factory, and the observability recorder and clock. The caches are
//! recomputed on demand from the state, bit-identically by construction,
//! with one exception: above an `emd_stride` of 1 the EMD cache's re-sift
//! cadence restarts at the restore point (see
//! [`crate::SessionTemplate::restore`]). Recorders and clocks are
//! observers, and a restored session gets whatever the restoring template
//! attaches.
//!
//! Classifiers cross the checkpoint boundary as [`Classifier::clone_box`]
//! deep copies: the trait requires `Send + Sync`, so a checkpoint is plain
//! data that can be handed between threads, parked on a session snapshot,
//! or shipped to a fresh server — without this crate growing a
//! serialisation dependency.
//!
//! [`Classifier::clone_box`]: ficsum_classifiers::Classifier::clone_box

use ficsum_drift::Adwin;
use ficsum_stream::FrameWindows;

use crate::config::FicsumConfig;
use crate::fingerprint::FingerprintNormalizer;
use crate::framework::FicsumStats;
use crate::repository::{ConceptEntry, ConceptId, Repository};
use crate::weights::DynamicWeights;

/// Why a checkpoint cannot be restored through a given template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// The template's feature count differs from the checkpointed session's.
    FeatureCountMismatch {
        /// Features the template builds sessions for.
        template: usize,
        /// Features the checkpointed session was built for.
        checkpoint: usize,
    },
    /// The template's class count differs from the checkpointed session's.
    ClassCountMismatch {
        /// Classes the template builds sessions for.
        template: usize,
        /// Classes the checkpointed session was built for.
        checkpoint: usize,
    },
    /// The template's variant produces a different fingerprint schema.
    DimensionMismatch {
        /// Fingerprint dimensions of the template's extractor.
        template: usize,
        /// Fingerprint dimensions the checkpoint was captured with.
        checkpoint: usize,
    },
    /// The template's hyper-parameters differ from the checkpointed
    /// session's. Replaying under different hyper-parameters would diverge
    /// silently, so the mismatch is refused instead.
    ConfigMismatch,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::FeatureCountMismatch { template, checkpoint } => write!(
                f,
                "template serves {template}-feature streams but the checkpoint \
                 holds a {checkpoint}-feature session"
            ),
            RestoreError::ClassCountMismatch { template, checkpoint } => write!(
                f,
                "template serves {template}-class streams but the checkpoint \
                 holds a {checkpoint}-class session"
            ),
            RestoreError::DimensionMismatch { template, checkpoint } => write!(
                f,
                "template extractor produces {template} fingerprint dimensions \
                 but the checkpoint was captured with {checkpoint}"
            ),
            RestoreError::ConfigMismatch => {
                write!(f, "template hyper-parameters differ from the checkpointed session's")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// The delayed second model-selection pass scheduled by a drift
/// (Section III-A): due at observation `due`, and whether the incumbent it
/// will defend was created by that drift.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRecheck {
    pub(crate) due: u64,
    pub(crate) created_new: bool,
}

/// Everything a session learns or carries between steps. [`crate::Ficsum`]
/// holds one and a [`SessionCheckpoint`] is a clone of it, so this
/// declaration alone decides what a checkpoint captures.
#[derive(Clone)]
pub(crate) struct SessionState {
    pub(crate) n_features: usize,
    pub(crate) n_classes: usize,
    pub(crate) config: FicsumConfig,
    /// The active concept, held outside the repository while active. Its
    /// `last_active` is stamped when it is stored.
    pub(crate) active: ConceptEntry,
    pub(crate) repo: Repository,
    pub(crate) normalizer: FingerprintNormalizer,
    pub(crate) weights: DynamicWeights,
    /// Weight-vector generation: bumped on every actual recompute; part of
    /// the weighted similarity cache key.
    pub(crate) weights_gen: u64,
    /// `(active fingerprint, repository, normaliser)` version stamp at the
    /// last weight recompute. An equal stamp proves every input the
    /// computation reads is unchanged, so the recompute is skipped — the
    /// kept values are bit-identical to what it would produce.
    pub(crate) weights_stamp: Option<(u64, u64, u64)>,
    pub(crate) detector: Adwin,
    /// Algorithm 1's active window `A` and delayed buffer `B` as views over
    /// one shared structure-of-arrays frame ring (no per-step clones).
    pub(crate) frames: FrameWindows,
    pub(crate) t: u64,
    pub(crate) pending_recheck: Option<PendingRecheck>,
    pub(crate) stats: FicsumStats,
    pub(crate) last_similarity: Option<f64>,
    /// Consecutive extreme-deviation checks (hard drift trigger).
    pub(crate) extreme_streak: u32,
    /// Last observation index at which a plasticity reset happened.
    pub(crate) last_plasticity: u64,
    /// Consecutive buffer fingerprints skipped as outliers (robust baseline).
    pub(crate) baseline_outliers: u32,
    /// Drift checks are suppressed until `t` reaches this (post-switch
    /// cooldown while the windows still hold pre-switch observations).
    pub(crate) cooldown_until: u64,
}

/// A complete capture of one session's learned and in-flight state.
///
/// Obtain one with [`crate::Ficsum::checkpoint`]; rehydrate it with
/// [`crate::SessionTemplate::restore`]. The value is self-contained and
/// `Send + Sync` — see the module docs for what is captured and why the
/// restored pipeline replays bit-identically.
#[derive(Clone)]
pub struct SessionCheckpoint {
    pub(crate) state: SessionState,
}

impl SessionCheckpoint {
    /// Observation count at capture time.
    pub fn steps(&self) -> u64 {
        self.state.t
    }

    /// Feature dimensionality the session was built for.
    pub fn n_features(&self) -> usize {
        self.state.n_features
    }

    /// Class count the session was built for.
    pub fn n_classes(&self) -> usize {
        self.state.n_classes
    }

    /// Fingerprint dimensions of the captured representation.
    pub fn dims(&self) -> usize {
        self.state.active.fingerprint.dims()
    }

    /// The hyper-parameters the session ran with.
    pub fn config(&self) -> &FicsumConfig {
        &self.state.config
    }

    /// Concept active at capture time.
    pub fn active_concept(&self) -> ConceptId {
        self.state.active.id
    }

    /// Lifetime counters at capture time.
    pub fn stats(&self) -> FicsumStats {
        self.state.stats
    }

    /// Ids stored in the captured repository, ascending.
    pub fn stored_concepts(&self) -> Vec<ConceptId> {
        let mut ids: Vec<ConceptId> = self.state.repo.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }
}

impl std::fmt::Debug for SessionCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCheckpoint")
            .field("steps", &self.steps())
            .field("n_features", &self.n_features())
            .field("n_classes", &self.n_classes())
            .field("dims", &self.dims())
            .field("active_concept", &self.active_concept())
            .field("stored_concepts", &self.stored_concepts())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

// A checkpoint is plain data: it crosses thread boundaries in the serving
// layer (snapshot stores, restore at worker startup).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SessionCheckpoint>();
    assert_send_sync::<RestoreError>();
};

#[cfg(test)]
mod tests {
    use crate::config::FicsumConfig;
    use crate::template::SessionTemplate;
    use crate::variant::Variant;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
    use ficsum_synth::{Labeller, StaggerLabeller};

    use super::{RestoreError, SessionCheckpoint};
    use crate::framework::FicsumStats;

    fn quick_config() -> FicsumConfig {
        FicsumConfig {
            window_size: 50,
            fingerprint_gap: 5,
            repository_gap: 50,
            ..FicsumConfig::default()
        }
    }

    fn template() -> SessionTemplate {
        SessionTemplate::new(3, 2, quick_config(), Variant::Full).expect("valid config")
    }

    /// Deterministic drifting stream: STAGGER concepts alternating every
    /// `seg_len` observations.
    fn observation(rng: &mut Xoshiro256pp, step: usize, seg_len: usize) -> ([f64; 3], usize) {
        let x = [rng.random(), rng.random(), rng.random()];
        let concept = (step / seg_len) % 2;
        let y = StaggerLabeller::new(concept).label(&x);
        (x, y)
    }

    /// Drives a fresh session over the drifting stream (seed 7, segments
    /// of 400) for `cut` observations, restores a copy from its checkpoint,
    /// then feeds both the next `tail` observations and asserts identical
    /// outcomes and counters. Returns the checkpoint and the final counters.
    fn assert_replays_from(cut: usize, tail: usize) -> (SessionCheckpoint, FicsumStats) {
        let template = template();
        let mut original = template.instantiate();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for step in 0..cut {
            let (x, y) = observation(&mut rng, step, 400);
            original.process(&x, y);
        }
        let checkpoint = original.checkpoint();
        assert_eq!(checkpoint.steps(), cut as u64);
        assert_eq!(checkpoint.active_concept(), original.active_concept());
        let mut restored = template.restore(&checkpoint).expect("same template restores");
        for step in cut..cut + tail {
            let (x, y) = observation(&mut rng, step, 400);
            let a = original.process(&x, y);
            let b = restored.process(&x, y);
            assert_eq!(a, b, "cut {cut}: outcomes diverged at step {step}");
            assert_eq!(
                original.last_similarity().map(f64::to_bits),
                restored.last_similarity().map(f64::to_bits),
                "cut {cut}: drift-check similarity diverged at step {step}"
            );
        }
        assert_eq!(original.stats(), restored.stats(), "cut {cut}: counters diverged");
        (checkpoint, original.stats())
    }

    #[test]
    fn restored_session_replays_bit_identically() {
        // Cut mid-segment after a drift, so the checkpoint captures a
        // non-trivial repository; the tail crosses further drift
        // boundaries.
        let (_, stats) = assert_replays_from(1100, 1500);
        assert!(
            stats.n_drifts >= 2,
            "test must exercise drift + selection on both sides of the \
             checkpoint: {stats:?}"
        );
    }

    #[test]
    fn restore_replays_from_in_flight_points() {
        // Scout the stream for the steps whose in-flight state a
        // checkpoint most easily drops: a drift whose delayed recheck
        // switches concept, and a plasticity reset.
        let mut scout = template().instantiate();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let (mut last_drift, mut drift, mut reset) = (0, None, None);
        for step in 0..4000 {
            let (x, y) = observation(&mut rng, step, 400);
            let resets = scout.stats().n_plasticity_resets;
            let out = scout.process(&x, y);
            if out.drift {
                last_drift = step + 1;
            } else if out.concept_switched {
                drift.get_or_insert(last_drift);
            }
            if scout.stats().n_plasticity_resets > resets {
                reset.get_or_insert(step + 1);
            }
        }
        let drift = drift.expect("the stream has a recheck switch");
        let reset = reset.expect("the stream triggers a plasticity reset");

        let (at_drift, _) = assert_replays_from(drift, 500);
        let due = at_drift.state.pending_recheck.expect("a drift schedules the recheck").due;
        let (in_recheck, _) = assert_replays_from(drift + 10, 500);
        assert!(in_recheck.state.pending_recheck.is_some(), "cut inside the recheck window");
        let (in_cooldown, _) = assert_replays_from(due as usize + 1, 500);
        assert!(in_cooldown.state.pending_recheck.is_none(), "the recheck has run");
        assert!(
            in_cooldown.state.t < in_cooldown.state.cooldown_until,
            "cut inside the post-switch cooldown"
        );
        let (at_reset, _) = assert_replays_from(reset, 500);
        assert_eq!(at_reset.state.last_plasticity, reset as u64, "cut at the reset step");
        assert_replays_from(reset + 1, 500);
    }

    #[test]
    fn checkpoint_is_an_independent_deep_copy() {
        let template = template();
        let mut original = template.instantiate();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for step in 0..900 {
            let (x, y) = observation(&mut rng, step, 300);
            original.process(&x, y);
        }
        let checkpoint = original.checkpoint();
        let stats_at_capture = checkpoint.stats();
        // Mutating the original after capture must not leak into the
        // checkpoint: two restores bracketing further processing behave
        // identically.
        let mut restored_before = template.restore(&checkpoint).expect("restores");
        for step in 900..1400 {
            let (x, y) = observation(&mut rng, step, 300);
            original.process(&x, y);
        }
        let mut restored_after = template.restore(&checkpoint).expect("still restores");
        assert_eq!(checkpoint.stats(), stats_at_capture);
        let mut rng2 = Xoshiro256pp::seed_from_u64(99);
        for step in 0..600 {
            let (x, y) = observation(&mut rng2, step, 200);
            let a = restored_before.process(&x, y);
            let b = restored_after.process(&x, y);
            assert_eq!(a, b, "checkpoint mutated by original at step {step}");
        }
    }

    #[test]
    fn checkpoint_reports_repository_membership() {
        let template = template();
        let mut original = template.instantiate();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for step in 0..1700 {
            let (x, y) = observation(&mut rng, step, 400);
            original.process(&x, y);
        }
        let checkpoint = original.checkpoint();
        let mut expected: Vec<_> = original.repository().iter().map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(checkpoint.stored_concepts(), expected);
        assert_eq!(checkpoint.dims(), original.engine().schema().len());
        assert_eq!(checkpoint.n_features(), 3);
        assert_eq!(checkpoint.n_classes(), 2);
    }

    #[test]
    fn restore_validates_template_compatibility() {
        let checkpoint = {
            let mut f = template().instantiate();
            let mut rng = Xoshiro256pp::seed_from_u64(5);
            for step in 0..200 {
                let (x, y) = observation(&mut rng, step, 1000);
                f.process(&x, y);
            }
            f.checkpoint()
        };
        let wrong_features = SessionTemplate::new(4, 2, quick_config(), Variant::Full).unwrap();
        assert_eq!(
            wrong_features.restore(&checkpoint).err(),
            Some(RestoreError::FeatureCountMismatch { template: 4, checkpoint: 3 })
        );
        let wrong_classes = SessionTemplate::new(3, 3, quick_config(), Variant::Full).unwrap();
        assert_eq!(
            wrong_classes.restore(&checkpoint).err(),
            Some(RestoreError::ClassCountMismatch { template: 3, checkpoint: 2 })
        );
        let wrong_config = SessionTemplate::new(
            3,
            2,
            FicsumConfig { window_size: 80, ..quick_config() },
            Variant::Full,
        )
        .unwrap();
        assert_eq!(wrong_config.restore(&checkpoint).err(), Some(RestoreError::ConfigMismatch));
        let wrong_variant =
            SessionTemplate::new(3, 2, quick_config(), Variant::ErrorRate).unwrap();
        assert!(matches!(
            wrong_variant.restore(&checkpoint).err(),
            Some(RestoreError::DimensionMismatch { template: 1, .. })
        ));
        // And the compatible template still restores.
        assert!(template().restore(&checkpoint).is_ok());
    }
}
