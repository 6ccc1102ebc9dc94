//! The FiCSUM driver — Algorithm 1 of the paper.

use std::sync::Arc;

use ficsum_classifiers::{Classifier, ClassifierFactory};
use ficsum_drift::{Adwin, DetectorState, DriftDetector};
use ficsum_meta::{ExtractionMode, FingerprintEngine, FingerprintExtractor, StaticScan};
use ficsum_obs::{Clock, DriftTrigger, MonotonicClock, NullRecorder, Recorder, Stage, StreamEvent};
use ficsum_stream::{EwStats, FrameWindows};

use crate::checkpoint::SessionCheckpoint;
use crate::config::{ConfigError, FicsumConfig};
use crate::fingerprint::{ConceptFingerprint, FingerprintNormalizer};
use crate::repository::{ConceptEntry, ConceptId, Repository, RetainedPair};
use crate::similarity::{fingerprint_similarity, fingerprint_similarity_unit, CachedFingerprint};
use crate::weights::DynamicWeights;

/// What happened while processing one observation.
///
/// `#[non_exhaustive]`: downstream code reads fields (all `pub`) but only
/// the framework constructs values, so new per-step facts can be added
/// without a breaking release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct StepOutcome {
    /// Prequential prediction made *before* training on the observation.
    pub prediction: usize,
    /// Whether a concept drift was detected at this observation.
    pub drift: bool,
    /// Whether model selection switched the active concept (either to a
    /// stored recurrence or to a new concept).
    pub concept_switched: bool,
    /// Identifier of the concept active *after* this observation.
    pub active_concept: ConceptId,
}

/// How the last model selection resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    Reused(ConceptId),
    New(ConceptId),
}

#[derive(Debug, Clone, Copy)]
struct PendingRecheck {
    due: u64,
    created_new: bool,
}

/// Counters exposed for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FicsumStats {
    /// Drifts detected.
    pub n_drifts: u64,
    /// Model selections that reused a stored concept.
    pub n_reuses: u64,
    /// Model selections that created a new concept.
    pub n_new_concepts: u64,
    /// Second-pass corrections (new concept replaced by a recurrence).
    pub n_recheck_switches: u64,
    /// Fingerprint plasticity resets triggered by classifier growth.
    pub n_plasticity_resets: u64,
}

/// Whether a stored entry participates in the recurrence scan: its
/// selection fingerprint must be trained and it must carry either enough
/// similarity history or retained pairs to define an acceptance band.
fn is_candidate(entry: &ConceptEntry) -> bool {
    entry.sel_fingerprint.is_trained()
        && (entry.sim_stats.count() >= 3 || !entry.retained.is_empty())
}

/// Expected `(mu_s, sigma_s)` of a stored entry's within-concept
/// similarity (Section IV's record re-basing). The retained
/// `(F_c snapshot, F_B)` pairs are re-scored in selection space (unit
/// weights over today's normalisation): their mean is what a genuine
/// recurrence should score now, their spread the normal variation. Falls
/// back to the raw recorded `mu_c`/`sigma_c` when no pairs were retained.
///
/// A free function (not a method) so the parallel recurrence scan can call
/// it from worker threads against disjoint entries; `sa`/`sb`/`sims` are
/// caller-owned scratch reused across entries.
fn expected_similarity_with(
    config: &FicsumConfig,
    normalizer: &FingerprintNormalizer,
    entry: &ConceptEntry,
    sa: &mut Vec<f64>,
    sb: &mut Vec<f64>,
    sims: &mut Vec<f64>,
) -> (f64, f64) {
    if config.rebase_similarity && !entry.retained.is_empty() {
        sims.clear();
        for p in &entry.retained {
            normalizer.scale_into(&p.a, sa);
            normalizer.scale_into(&p.b, sb);
            sims.push(fingerprint_similarity_unit(sa, sb));
        }
        let mu = sims.iter().sum::<f64>() / sims.len() as f64;
        let var = sims.iter().map(|s| (s - mu) * (s - mu)).sum::<f64>() / sims.len() as f64;
        (mu, var.sqrt().max(0.02))
    } else {
        (entry.sim_stats.mean(), entry.sim_stats.std_dev().max(0.01))
    }
}

/// The FiCSUM framework instance.
///
/// Drive it prequentially with [`Ficsum::process`]; every call predicts,
/// trains, updates the concept fingerprint and runs drift detection / model
/// selection per Algorithm 1.
pub struct Ficsum {
    config: FicsumConfig,
    engine: FingerprintEngine,
    normalizer: FingerprintNormalizer,
    factory: Box<dyn ClassifierFactory>,

    // Active concept (held outside the repository while active).
    active_id: ConceptId,
    active_fp: ConceptFingerprint,
    active_fp_sel: ConceptFingerprint,
    active_clf: Box<dyn Classifier>,
    active_sim: EwStats,
    active_retained: Vec<RetainedPair>,
    active_sc: ConceptFingerprint,

    repo: Repository,
    recorder: Box<dyn Recorder>,
    clock: Arc<dyn Clock>,
    detector: Adwin,
    /// Algorithm 1's active window `A` and delayed buffer `B` as views over
    /// one shared structure-of-arrays frame ring (no per-step clones).
    frames: FrameWindows,
    weights: DynamicWeights,
    /// Weight-vector generation: bumped on every actual recompute; part of
    /// the weighted similarity cache key.
    weights_gen: u64,
    /// `(active fingerprint, repository, normaliser)` version stamp at the
    /// last weight recompute. An equal stamp proves every input the
    /// computation reads is unchanged, so the recompute is skipped — the
    /// kept values are bit-identical to what it would produce.
    weights_stamp: Option<(u64, u64, u64)>,
    /// Cached scaled+weighted side of the active fingerprint's mean (the
    /// drift-detection comparisons).
    active_cache: CachedFingerprint,
    /// Cached unit-weight side of the active *selection* fingerprint's
    /// mean; travels with the concept into and out of the repository.
    active_sel_cache: CachedFingerprint,
    /// Scratch: fingerprint extracted from the active window.
    fp_a: Vec<f64>,
    /// Scratch: fingerprint extracted from the stale window.
    fp_b: Vec<f64>,
    /// Scratch: per-entry fingerprint (F_SC refresh, recheck incumbent).
    fp_tmp: Vec<f64>,
    /// Scratch: scaled query vector for cached similarities.
    scaled_q: Vec<f64>,
    /// Scratch: class-probability buffer for allocation-free prediction.
    proba_scratch: Vec<f64>,
    /// Shared classifier-independent source scan of the window being
    /// scored. Feature and label sources do not depend on which classifier
    /// re-predicts the window, so the repository sweeps (selection, recheck
    /// and the F_SC refresh) compute them once per window and splice the
    /// results into every per-classifier extraction.
    window_scan: StaticScan,
    /// Per-worker engines for the parallel recurrence scan, built lazily on
    /// the first multi-candidate drift and invalidated when the engine's
    /// configuration changes.
    scan_pool: Vec<FingerprintEngine>,
    /// Worker threads for the recurrence scan (mirrors `FicsumBuilder::parallelism`).
    scan_threads: usize,
    t: u64,
    pending_recheck: Option<PendingRecheck>,
    stats: FicsumStats,
    n_classes: usize,
    n_features: usize,
    last_similarity: Option<f64>,
    /// Consecutive extreme-deviation checks (hard drift trigger).
    extreme_streak: u32,
    /// Last observation index at which a plasticity reset happened.
    last_plasticity: u64,
    /// Consecutive buffer fingerprints skipped as outliers (robust baseline).
    baseline_outliers: u32,
    /// Drift checks are suppressed until `t` reaches this (post-switch
    /// cooldown while the windows still hold pre-switch observations).
    cooldown_until: u64,
}

impl Ficsum {
    /// Builds a framework instance from its parts, validating the
    /// configuration. Most callers should use
    /// [`crate::variant::FicsumBuilder`] instead.
    pub fn from_parts(
        n_features: usize,
        n_classes: usize,
        config: FicsumConfig,
        extractor: FingerprintExtractor,
        mut factory: Box<dyn ClassifierFactory>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if extractor.n_features() != n_features {
            return Err(ConfigError::FeatureCountMismatch {
                stream: n_features,
                extractor: extractor.n_features(),
            });
        }
        let dims = extractor.schema().len();
        let mut repo = Repository::new(config.max_repository);
        let active_id = repo.allocate_id();
        let active_clf = factory.build();
        Ok(Self {
            normalizer: FingerprintNormalizer::new(dims),
            active_id,
            active_fp: ConceptFingerprint::new(dims),
            active_fp_sel: ConceptFingerprint::new(dims),
            active_clf,
            active_sim: EwStats::new(config.sim_alpha),
            active_retained: Vec::new(),
            active_sc: ConceptFingerprint::new(dims),
            repo,
            recorder: Box::new(NullRecorder),
            clock: Arc::new(MonotonicClock::new()),
            detector: Adwin::new(config.detector_delta),
            frames: FrameWindows::new(config.window_size, config.buffer_delay(), n_features),
            weights: DynamicWeights::uniform(dims),
            weights_gen: 0,
            weights_stamp: None,
            active_cache: CachedFingerprint::new(),
            active_sel_cache: CachedFingerprint::new(),
            fp_a: Vec::new(),
            fp_b: Vec::new(),
            fp_tmp: Vec::new(),
            scaled_q: Vec::new(),
            proba_scratch: Vec::new(),
            window_scan: StaticScan::new(),
            scan_pool: Vec::new(),
            scan_threads: 1,
            t: 0,
            pending_recheck: None,
            stats: FicsumStats::default(),
            config,
            engine: FingerprintEngine::new(extractor),
            factory,
            n_classes,
            n_features,
            last_similarity: None,
            extreme_streak: 0,
            last_plasticity: 0,
            baseline_outliers: 0,
            cooldown_until: config.new_concept_grace as u64,
        })
    }

    /// Captures the session's complete learned and in-flight state.
    ///
    /// The checkpoint is an owned deep copy: the session keeps running
    /// unaffected, and later mutations do not leak into the capture. Pure
    /// caches, scratch buffers and the recorder/clock are excluded — see
    /// the [`crate::checkpoint`] module docs for the exact boundary and the
    /// bit-identical-replay guarantee
    /// [`crate::SessionTemplate::restore`] provides.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            n_features: self.n_features,
            n_classes: self.n_classes,
            config: self.config,
            active_id: self.active_id,
            active_fp: self.active_fp.clone(),
            active_fp_sel: self.active_fp_sel.clone(),
            active_clf: self.active_clf.clone(),
            active_sim: self.active_sim,
            active_retained: self.active_retained.clone(),
            active_sc: self.active_sc.clone(),
            repo: self.repo.clone(),
            normalizer: self.normalizer.clone(),
            weights: self.weights.clone(),
            weights_gen: self.weights_gen,
            weights_stamp: self.weights_stamp,
            detector: self.detector.clone(),
            frames: self.frames.clone(),
            t: self.t,
            pending_recheck: self.pending_recheck.map(|p| (p.due, p.created_new)),
            stats: self.stats,
            last_similarity: self.last_similarity,
            extreme_streak: self.extreme_streak,
            last_plasticity: self.last_plasticity,
            baseline_outliers: self.baseline_outliers,
            cooldown_until: self.cooldown_until,
        }
    }

    /// Rehydrates a pipeline from a checkpoint. Compatibility between the
    /// checkpoint and the construction inputs is the caller's contract —
    /// [`crate::SessionTemplate::restore`] performs that validation and is
    /// the public entry point.
    ///
    /// Caches, scratch buffers and the scan pool start empty: they are pure
    /// functions of the captured state (version-keyed), so their first
    /// `ensure`/rebuild reproduces exactly what the original session held.
    /// The restored pipeline carries a [`NullRecorder`] until one is
    /// attached; recorders are observers, not state.
    pub(crate) fn from_checkpoint(
        checkpoint: &SessionCheckpoint,
        extractor: FingerprintExtractor,
        factory: Box<dyn ClassifierFactory>,
    ) -> Self {
        Self {
            config: checkpoint.config,
            engine: FingerprintEngine::new(extractor),
            normalizer: checkpoint.normalizer.clone(),
            factory,
            active_id: checkpoint.active_id,
            active_fp: checkpoint.active_fp.clone(),
            active_fp_sel: checkpoint.active_fp_sel.clone(),
            active_clf: checkpoint.active_clf.clone(),
            active_sim: checkpoint.active_sim,
            active_retained: checkpoint.active_retained.clone(),
            active_sc: checkpoint.active_sc.clone(),
            repo: checkpoint.repo.clone(),
            recorder: Box::new(NullRecorder),
            clock: Arc::new(MonotonicClock::new()),
            detector: checkpoint.detector.clone(),
            frames: checkpoint.frames.clone(),
            weights: checkpoint.weights.clone(),
            weights_gen: checkpoint.weights_gen,
            weights_stamp: checkpoint.weights_stamp,
            active_cache: CachedFingerprint::new(),
            active_sel_cache: CachedFingerprint::new(),
            fp_a: Vec::new(),
            fp_b: Vec::new(),
            fp_tmp: Vec::new(),
            scaled_q: Vec::new(),
            proba_scratch: Vec::new(),
            window_scan: StaticScan::new(),
            scan_pool: Vec::new(),
            scan_threads: 1,
            t: checkpoint.t,
            pending_recheck: checkpoint
                .pending_recheck
                .map(|(due, created_new)| PendingRecheck { due, created_new }),
            stats: checkpoint.stats,
            n_classes: checkpoint.n_classes,
            n_features: checkpoint.n_features,
            last_similarity: checkpoint.last_similarity,
            extreme_streak: checkpoint.extreme_streak,
            last_plasticity: checkpoint.last_plasticity,
            baseline_outliers: checkpoint.baseline_outliers,
            cooldown_until: checkpoint.cooldown_until,
        }
    }

    /// Sets the worker-thread count (see
    /// [`crate::variant::FicsumBuilder::parallelism`]). The fingerprint
    /// engine fans behaviour sources across the threads during extraction,
    /// and the recurrence scan at drift fans stored concepts across them
    /// (1 = sequential, the default). Both parallel paths are bit-identical
    /// to sequential, so this only changes wall-clock behaviour.
    pub(crate) fn configure_parallelism(&mut self, threads: usize) {
        self.engine.set_threads(threads);
        self.scan_threads = threads.max(1);
        self.scan_pool.clear();
    }

    /// Applies the extraction mode (see
    /// [`crate::variant::FicsumBuilder::incremental_stats`] and
    /// [`crate::variant::FicsumBuilder::emd_stride`]) to the engine and the
    /// frame windows: incremental mode switches the windows' statistic
    /// banks on at the extractor's MI resolution (a no-op for banks
    /// restored from a checkpoint at that resolution), batch mode drops
    /// them so no push pays for state nothing reads.
    pub(crate) fn configure_extraction(&mut self, mode: ExtractionMode) {
        if mode.incremental {
            self.frames.enable_stats(self.engine.extractor().mi_bins());
        } else {
            self.frames.disable_stats();
        }
        self.engine.set_mode(mode);
        self.scan_pool.clear();
    }

    /// The fingerprint engine driving extraction.
    pub fn engine(&self) -> &FingerprintEngine {
        &self.engine
    }

    /// Attaches an observability recorder: every event, counter, gauge and
    /// stage span the pipeline produces is delivered to it. The default is
    /// [`NullRecorder`], whose calls compile to nothing.
    ///
    /// Prefer configuring at construction with
    /// [`crate::variant::FicsumBuilder::recorder`]; this post-build hook
    /// exists for drivers that receive an already-built pipeline and attach
    /// observability afterwards (the `ficsum-eval` runner contract).
    ///
    /// Attaching an *enabled* recorder also switches on the fingerprint
    /// engine's per-source extraction timing (shared clock); attaching a
    /// disabled one switches it off again.
    pub fn attach_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.engine
            .set_clock(recorder.enabled().then(|| Arc::clone(&self.clock)));
        self.recorder = recorder;
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &dyn Recorder {
        self.recorder.as_ref()
    }

    /// Mutable access to the attached recorder.
    pub fn recorder_mut(&mut self) -> &mut dyn Recorder {
        self.recorder.as_mut()
    }

    /// Replaces the span-timing clock (default: a [`MonotonicClock`]
    /// anchored at construction; see
    /// [`crate::variant::FicsumBuilder::clock`]). Tests inject a
    /// [`ficsum_obs::ManualClock`] for bit-reproducible span records.
    pub(crate) fn attach_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
        if self.recorder.enabled() {
            self.engine.set_clock(Some(Arc::clone(&self.clock)));
        }
    }

    /// Single emission point for pipeline observations. `last_similarity`
    /// is maintained here as a *view over the same event stream* the
    /// recorder receives, so the accessor and an attached recorder can
    /// never disagree.
    fn emit(&mut self, event: StreamEvent) {
        if let StreamEvent::SimilarityObserved { value } = event {
            self.last_similarity = Some(value);
        }
        self.recorder.event(self.t, event);
    }

    /// Reads the clock for a span start; 0 (no clock read) when the
    /// recorder would discard the span anyway.
    fn span_start(&self) -> u64 {
        if self.recorder.enabled() {
            self.clock.now_nanos()
        } else {
            0
        }
    }

    /// Closes a stage span opened by [`Ficsum::span_start`].
    fn span_end(&mut self, stage: Stage, start: u64) {
        if self.recorder.enabled() {
            self.recorder
                .span(stage, self.clock.now_nanos().saturating_sub(start));
        }
    }

    /// Publishes the active concept's normal-similarity distribution
    /// `(mu_c, sigma_c, count)` as gauges. Callers gate on
    /// [`Recorder::enabled`].
    fn sim_gauges(&mut self) {
        self.recorder.gauge("ficsum.sim.mean", self.active_sim.mean());
        self.recorder.gauge("ficsum.sim.std_dev", self.active_sim.std_dev());
        self.recorder.gauge("ficsum.sim.count", self.active_sim.count() as f64);
    }

    /// Identifier of the currently active concept.
    pub fn active_concept(&self) -> ConceptId {
        self.active_id
    }

    /// Stored (non-active) concepts.
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> FicsumStats {
        self.stats
    }

    /// Current dynamic weight vector (recomputed when its inputs change,
    /// checked every `P_C` observations).
    pub fn weights(&self) -> &DynamicWeights {
        &self.weights
    }

    /// The most recent `Sim(F_c, F_A)` value fed to the drift detector.
    pub fn last_similarity(&self) -> Option<f64> {
        self.last_similarity
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Discrimination-ability probe (Section II-A of the paper).
    ///
    /// Treating the current active window as drawn from the active concept,
    /// returns the mean gap between the active concept's similarity and each
    /// stored concept's similarity, in units of the active concept's normal
    /// similarity deviation: `mean_i (Sim_a - Sim_i) / sigma_a`. Larger
    /// values mean the representation separates the true concept from the
    /// impostors more decisively. `None` until the window, fingerprint and
    /// repository all exist.
    pub fn discrimination_probe(&mut self) -> Option<f64> {
        if !self.frames.a_is_full()
            || !self.active_fp.is_trained()
            || self.repo.is_empty()
            || self.active_sim.count() < 5
        {
            return None;
        }
        if !self.active_fp_sel.is_trained() {
            return None;
        }
        let mut f_a = Vec::new();
        self.engine.extract_tracked_frames_repredicted_into(
            &self.frames.a_tracked(),
            self.active_clf.as_ref(),
            &mut f_a,
        );
        let sim_active = self.selection_similarity(&self.active_fp_sel.mean_vector(), &f_a);
        let sigma = self.active_sim.std_dev().max(self.config.sim_sigma_floor);
        let mut sum = 0.0;
        let mut n = 0.0;
        let mut f_as = Vec::new();
        for entry in self.repo.iter().filter(|e| e.sel_fingerprint.is_trained()) {
            self.engine.extract_tracked_frames_repredicted_into(
                &self.frames.a_tracked(),
                entry.classifier.as_ref(),
                &mut f_as,
            );
            let sim_i = self.selection_similarity(&entry.sel_fingerprint.mean_vector(), &f_as);
            sum += (sim_active - sim_i) / sigma;
            n += 1.0;
        }
        (n > 0.0).then(|| sum / n)
    }

    /// Predicts without training or advancing any state.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.active_clf.predict(x)
    }

    /// Similarity used by model selection: normalised values under *uniform*
    /// weights. The dynamic weights are tuned to make the drift detector
    /// maximally sensitive around the active concept, but they move over
    /// time, which destabilises the acceptance bands recorded for stored
    /// concepts; selection instead compares in a weight-stationary space.
    ///
    /// Diagnostics-path helper (it allocates); the selection hot path runs
    /// the same comparison through [`CachedFingerprint`] instead.
    fn selection_similarity(&self, raw_a: &[f64], raw_b: &[f64]) -> f64 {
        let a = self.normalizer.scale(raw_a);
        let b = self.normalizer.scale(raw_b);
        let ones = vec![1.0; a.len()];
        fingerprint_similarity(&a, &b, &ones)
    }

    /// Moves the active concept into the repository (classifier and all).
    /// The prepared selection-side cache travels with it; the weighted
    /// drift-side cache is dropped (the incoming active fingerprint is a
    /// different object whose version counter could collide).
    fn store_active(&mut self) {
        let dims = self.engine.schema().len();
        self.active_cache.invalidate();
        let entry = ConceptEntry {
            id: self.active_id,
            fingerprint: std::mem::replace(&mut self.active_fp, ConceptFingerprint::new(dims)),
            sel_fingerprint: std::mem::replace(
                &mut self.active_fp_sel,
                ConceptFingerprint::new(dims),
            ),
            classifier: std::mem::replace(&mut self.active_clf, self.factory.build()),
            sim_stats: std::mem::replace(
                &mut self.active_sim,
                EwStats::new(self.config.sim_alpha),
            ),
            sc_fingerprint: std::mem::replace(&mut self.active_sc, ConceptFingerprint::new(dims)),
            retained: std::mem::take(&mut self.active_retained),
            last_active: self.t,
            sel_cache: std::mem::take(&mut self.active_sel_cache),
        };
        if let Some(evicted) = self.repo.insert(entry) {
            self.emit(StreamEvent::RepositoryEvicted { id: evicted as u64 });
            self.recorder.counter("ficsum.evictions", 1);
        }
    }

    /// Makes a stored entry the active concept. The similarity baseline is
    /// rebuilt from scratch: the reused classifier immediately resumes
    /// training, so its recorded similarity level is stale, and the robust
    /// outlier filter would otherwise block the baseline from ever
    /// re-converging.
    fn activate(&mut self, id: ConceptId) {
        let entry = self.repo.take(id).expect("selection returned stored id");
        self.active_id = entry.id;
        self.active_fp = entry.fingerprint;
        self.active_fp_sel = entry.sel_fingerprint;
        self.active_clf = entry.classifier;
        self.active_sim = EwStats::new(self.config.sim_alpha);
        self.active_retained = entry.retained;
        self.active_sc = entry.sc_fingerprint;
        self.active_sel_cache = entry.sel_cache;
        self.active_cache.invalidate();
    }

    /// Starts a brand-new concept.
    fn activate_new(&mut self) {
        let dims = self.engine.schema().len();
        self.active_id = self.repo.allocate_id();
        self.active_fp = ConceptFingerprint::new(dims);
        self.active_fp_sel = ConceptFingerprint::new(dims);
        self.active_clf = self.factory.build();
        self.active_sim = EwStats::new(self.config.sim_alpha);
        self.active_retained = Vec::new();
        self.active_sc = ConceptFingerprint::new(dims);
        self.active_sel_cache.invalidate();
        self.active_cache.invalidate();
    }

    /// Grows the scan-worker engine pool to `n` single-threaded clones of
    /// the main engine (same extractor and extraction mode, no span clock —
    /// the workers' cost is attributed to the selection span).
    fn ensure_scan_pool(&mut self, n: usize) {
        while self.scan_pool.len() < n {
            let mut e = self.engine.clone();
            e.set_threads(1);
            e.set_clock(None);
            self.scan_pool.push(e);
        }
    }

    /// Finds the best stored recurrence candidate for the active window
    /// `A`.
    ///
    /// Two acceptance tiers: (1) the paper's band test; (2) when nothing
    /// passes the band, a *dominant match* — a stored concept whose
    /// similarity is at least half its expected value and clearly ahead of
    /// every other stored concept. Tier 2 recovers recurrences whose
    /// absolute similarity level has moved (frozen classifier, evolved
    /// weights) but whose relative identity is unambiguous; without it the
    /// repository fragments, which is fatal to concept tracking (C-F1).
    ///
    /// Scoring a candidate — re-predict the window through its classifier,
    /// extract, compare — is independent per candidate, so with
    /// [`crate::variant::FicsumBuilder::parallelism`] > 1 candidates are fanned across a
    /// scoped worker pool. Workers write disjoint slots that are merged in
    /// repository order, and the acceptance fold runs over the merged list
    /// exactly as the sequential loop would: the outcome is bit-identical
    /// whichever thread scored an entry.
    ///
    /// Reads `A` live from the frame ring: nothing between the drift check
    /// and the end of selection or recheck pushes a frame, and the one
    /// ring mutation on those paths, `clear_buffer`, runs after the last
    /// read and leaves `A` intact.
    fn select_best(&mut self) -> Option<(ConceptId, f64)> {
        // Shared static scan: feature and label sources of `A` are the
        // same whichever stored classifier re-predicts it, so they are
        // evaluated once here and spliced into every candidate extraction
        // (and the recheck's incumbent extraction). It runs before the
        // candidate check so its EMD cache bookkeeping does not depend on
        // the repository's contents.
        {
            let Self { engine, frames, window_scan, .. } = self;
            engine.static_scan_tracked(&frames.a_tracked(), window_scan);
        }
        let norm_v = self.normalizer.version();
        // Phase 0: refresh each candidate's cached selection side (cheap
        // version check per entry; recomputed only after the fingerprint or
        // the normaliser moved).
        {
            let Self { repo, normalizer, .. } = self;
            for entry in repo.iter_mut() {
                if is_candidate(entry) {
                    let key = (0, norm_v, entry.sel_fingerprint.version());
                    entry.sel_cache.ensure(key, &entry.sel_fingerprint, normalizer, None);
                }
            }
        }
        let n_cands = self.repo.iter().filter(|e| is_candidate(e)).count();
        if n_cands == 0 {
            return None;
        }
        // Phase 1: score every candidate -> (id, sim, mu, sigma) in
        // repository order.
        let mut scored: Vec<(ConceptId, f64, f64, f64)> = Vec::with_capacity(n_cands);
        if self.scan_threads <= 1 || n_cands < 2 {
            let Self { engine, repo, normalizer, config, window_scan, frames, .. } = self;
            let (normalizer, config, scan) = (&*normalizer, &*config, &*window_scan);
            let window = &frames.a_tracked();
            let (mut fp, mut scaled) = (Vec::new(), Vec::new());
            let (mut sa, mut sb, mut sims) = (Vec::new(), Vec::new(), Vec::new());
            for entry in repo.iter().filter(|e| is_candidate(e)) {
                engine.extract_with_scan(window, scan, entry.classifier.as_ref(), &mut fp);
                normalizer.scale_into(&fp, &mut scaled);
                let sim = entry.sel_cache.similarity_scaled(&scaled, None);
                let (mu, sigma) = expected_similarity_with(
                    config, normalizer, entry, &mut sa, &mut sb, &mut sims,
                );
                scored.push((entry.id, sim, mu, sigma));
            }
        } else {
            let n_workers = self.scan_threads.min(n_cands);
            self.ensure_scan_pool(n_workers);
            let Self { scan_pool, repo, normalizer, config, window_scan, frames, .. } = self;
            let (normalizer, config, scan) = (&*normalizer, &*config, &*window_scan);
            let window = &frames.a_tracked();
            let cands: Vec<&ConceptEntry> = repo.iter().filter(|e| is_candidate(e)).collect();
            let mut slots: Vec<Option<(ConceptId, f64, f64, f64)>> = vec![None; cands.len()];
            let per = cands.len().div_ceil(n_workers);
            std::thread::scope(|scope| {
                for (engine, (chunk, out)) in
                    scan_pool.iter_mut().zip(cands.chunks(per).zip(slots.chunks_mut(per)))
                {
                    scope.spawn(move || {
                        let (mut fp, mut scaled) = (Vec::new(), Vec::new());
                        let (mut sa, mut sb, mut sims) = (Vec::new(), Vec::new(), Vec::new());
                        for (slot, entry) in out.iter_mut().zip(chunk) {
                            engine.extract_with_scan(
                                window,
                                scan,
                                entry.classifier.as_ref(),
                                &mut fp,
                            );
                            normalizer.scale_into(&fp, &mut scaled);
                            let sim = entry.sel_cache.similarity_scaled(&scaled, None);
                            let (mu, sigma) = expected_similarity_with(
                                config, normalizer, entry, &mut sa, &mut sb, &mut sims,
                            );
                            *slot = Some((entry.id, sim, mu, sigma));
                        }
                    });
                }
            });
            scored.extend(slots.into_iter().flatten());
            debug_assert_eq!(scored.len(), n_cands, "every scan slot must be filled");
        }
        // Acceptance fold, identical to the sequential reference loop.
        let debug_on = std::env::var_os("FICSUM_DEBUG").is_some();
        let mut banded: Option<(ConceptId, f64)> = None;
        let mut all: Vec<(ConceptId, f64, f64)> = Vec::with_capacity(scored.len());
        for (id, sim, mu, sigma) in scored {
            if debug_on {
                eprintln!(
                    "  [select t={}] entry {id}: sim={sim:.4} mu={mu:.4} sigma={sigma:.4}",
                    self.t
                );
            }
            if sim >= mu - self.config.accept_sigma * sigma
                && banded.is_none_or(|(_, b)| sim > b)
            {
                banded = Some((id, sim));
            }
            all.push((id, sim, mu));
        }
        if banded.is_some() {
            return banded;
        }
        // Dominant-match fallback.
        if all.len() >= 2 {
            all.sort_by(|a, b| b.1.total_cmp(&a.1));
            let (id, best_sim, mu) = all[0];
            let second = all[1].1;
            if best_sim >= 0.5 * mu && best_sim >= 1.3 * second.max(0.0) + 0.02 {
                return Some((id, best_sim));
            }
        }
        None
    }

    /// Model selection (Algorithm 1 lines 25–35): store the incumbent, test
    /// every stored concept, and activate the best acceptor or a fresh one.
    fn model_select(&mut self) -> Selection {
        let from = self.active_id;
        self.store_active();
        let (selection, similarity) = match self.select_best() {
            Some((id, sim)) => {
                self.activate(id);
                self.stats.n_reuses += 1;
                self.recorder.counter("ficsum.reuses", 1);
                (Selection::Reused(id), Some(sim))
            }
            None => {
                self.activate_new();
                self.stats.n_new_concepts += 1;
                self.recorder.counter("ficsum.new_concepts", 1);
                (Selection::New(self.active_id), None)
            }
        };
        self.emit(StreamEvent::ConceptSwitch {
            from: from as u64,
            to: self.active_id as u64,
            similarity,
        });
        if self.recorder.enabled() {
            self.sim_gauges();
        }
        selection
    }

    /// Second model-selection pass `w` observations after every drift
    /// (Section III-A): the first pass necessarily saw a window partially
    /// drawn from before the drift; this pass re-runs selection on a window
    /// fully drawn from the emerging segment. If a stored concept now beats
    /// the incumbent, it is selected; a newly created incumbent is deleted
    /// ("the alternative is deleted"), a reused incumbent returns to the
    /// repository.
    fn run_recheck(&mut self, incumbent_new: bool) {
        let best = self.select_best();
        let Some((id, best_sim)) = best else { return };
        // Score the incumbent on the same pure window; a fresh incumbent
        // with no history scores 0 (it cannot defend itself yet).
        let incumbent_sim = if self.active_fp_sel.is_trained() {
            {
                // `select_best` just built the static scan of `A`.
                let Self { engine, frames, active_clf, fp_tmp, window_scan, .. } = self;
                engine.extract_with_scan(
                    &frames.a_tracked(),
                    &*window_scan,
                    active_clf.as_ref(),
                    fp_tmp,
                );
            }
            let key = (0, self.normalizer.version(), self.active_fp_sel.version());
            self.active_sel_cache.ensure(key, &self.active_fp_sel, &self.normalizer, None);
            self.normalizer.scale_into(&self.fp_tmp, &mut self.scaled_q);
            self.active_sel_cache.similarity_scaled(&self.scaled_q, None)
        } else {
            0.0
        };
        if best_sim <= incumbent_sim {
            return;
        }
        let from = self.active_id;
        if incumbent_new {
            // Drop the newcomer entirely.
            self.activate(id);
        } else {
            self.store_active();
            self.activate(id);
        }
        self.stats.n_recheck_switches += 1;
        self.recorder.counter("ficsum.recheck_switches", 1);
        self.emit(StreamEvent::ConceptSwitch {
            from: from as u64,
            to: self.active_id as u64,
            similarity: Some(best_sim),
        });
        if self.recorder.enabled() {
            self.sim_gauges();
        }
        self.frames.clear_buffer();
        self.detector.reset();
        self.extreme_streak = 0;
        self.cooldown_until =
            self.t + (self.config.window_size + self.config.buffer_delay()) as u64;
    }

    /// Processes one observation prequentially.
    ///
    /// Steady-state steps (no drift) are allocation-free: the observation
    /// is written into the shared frame ring, extraction and similarity run
    /// through reusable scratch buffers, and the dynamic weights are only
    /// recomputed when their version stamp shows an input changed.
    pub fn process(&mut self, x: &[f64], y: usize) -> StepOutcome {
        debug_assert_eq!(x.len(), self.n_features);
        let prediction = self.active_clf.predict_with(x, &mut self.proba_scratch);
        self.active_clf.train(x, y);
        self.frames.push(x, y, prediction);
        self.t += 1;

        // Fingerprint plasticity: a significant classifier change (a new
        // tree branch) invalidates the stored distribution of classifier-
        // dependent meta-features (Section IV).
        // Only early structural growth counts as a *significant* change
        // (Section IV): refinements of an already-large tree barely move its
        // predictions, and resetting on every one of them would keep the
        // fingerprint permanently amnesiac. Resets are also rate-limited.
        if self.config.plasticity
            && self.active_clf.take_growth_event()
            && self.active_clf.complexity() <= 8
            && self.t >= self.last_plasticity + 300
            && self.active_fp.is_trained() {
                self.last_plasticity = self.t;
                {
                    let Self { engine, active_fp, active_fp_sel, .. } = self;
                    let schema = engine.schema();
                    active_fp.reset_dims(|i| schema.dims[i].depends_on_classifier());
                    active_fp_sel.reset_dims(|i| schema.dims[i].depends_on_classifier());
                }
                self.stats.n_plasticity_resets += 1;
                self.emit(StreamEvent::PlasticityReset);
                self.recorder.counter("ficsum.plasticity_resets", 1);
                // The grown classifier re-predicts differently from here on;
                // do not let stale cached entropies bridge the change.
                self.engine.invalidate_emd_cache();
                // The reset dimensions read as empty until buffer windows
                // refill them; comparing against the half-empty fingerprint
                // would register as (false) drift.
                self.extreme_streak = 0;
                self.baseline_outliers = 0;
                self.cooldown_until = self.cooldown_until.max(
                    self.t + (self.config.window_size + self.config.buffer_delay()) as u64,
                );
            }

        let mut outcome = StepOutcome {
            prediction,
            drift: false,
            concept_switched: false,
            active_concept: self.active_id,
        };

        // Periodic fingerprint update + drift check (lines 16–24).
        if self.t.is_multiple_of(self.config.fingerprint_gap as u64) && self.frames.a_is_full() {
            let obs_on = self.recorder.enabled();
            // Epoch-gated dynamic weights: the computation is a pure
            // function of the active fingerprint, the repository and the
            // normaliser; an unchanged version stamp means the kept vector
            // is bit-identical to what a recompute would produce.
            let stamp = (
                self.active_fp.version(),
                self.repo.weights_stamp(),
                self.normalizer.version(),
            );
            if self.weights_stamp != Some(stamp) {
                // The weights exist to score similarity on this path, so
                // their recompute is booked to that stage.
                let t0 = self.span_start();
                self.weights.compute_into(
                    &self.active_fp,
                    &self.repo,
                    &self.normalizer,
                    self.config.sigma_floor,
                );
                self.span_end(Stage::Similarity, t0);
                self.weights_gen += 1;
                self.weights_stamp = Some(stamp);
                self.weights.publish_shape(&mut *self.recorder);
                if obs_on {
                    let dims = self.weights.values.len() as u64;
                    let spread = self.weights.spread();
                    self.emit(StreamEvent::WeightsRecomputed { dims, spread });
                }
            }

            let mut force_drift = false;
            if self.frames.stale_is_full() {
                // The window is re-predicted through the current classifier
                // (the paper's makeFingerprint uses the classifier, line 17):
                // re-predicted error profiles are stable within a concept and
                // jump when the labelling function moves, giving both a clean
                // detection signal and consistency with model selection.
                let t0 = self.span_start();
                {
                    let Self { engine, frames, active_clf, fp_b, .. } = self;
                    engine.extract_tracked_frames_repredicted_into(
                        &frames.stale_tracked(),
                        active_clf.as_ref(),
                        fp_b,
                    );
                }
                self.span_end(Stage::Extract, t0);
                self.emit(StreamEvent::FingerprintExtracted { dims: self.fp_b.len() as u64 });
                let t0 = self.span_start();
                self.normalizer.observe(&self.fp_b);
                let mut incorporate = true;
                if self.active_fp.is_trained() {
                    let key = (
                        self.weights_gen,
                        self.normalizer.version(),
                        self.active_fp.version(),
                    );
                    self.active_cache.ensure(
                        key,
                        &self.active_fp,
                        &self.normalizer,
                        Some(&self.weights.values),
                    );
                    self.normalizer.scale_into(&self.fp_b, &mut self.scaled_q);
                    let norm_sim = self
                        .active_cache
                        .similarity_scaled(&self.scaled_q, Some(&self.weights.values));
                    // Robust baseline: a window whose similarity is an
                    // extreme outlier is most likely drawn from a drift
                    // region — folding it into mu_c / sigma_c / F_c would
                    // blur the very representation drift is detected
                    // against. Skip it, unless outliers persist (a genuine
                    // level shift, e.g. classifier evolution), in which case
                    // start absorbing again.
                    let sigma = self.active_sim.std_dev().max(self.config.sim_sigma_floor);
                    let z = (norm_sim - self.active_sim.mean()) / sigma;
                    let outlier =
                        self.active_sim.count() >= 5 && z.abs() >= self.config.outlier_z;
                    if outlier {
                        self.baseline_outliers += 1;
                        incorporate = false;
                        // A long run of outlier windows is itself decisive
                        // evidence that the stream has left this concept.
                        if self.baseline_outliers >= 20 {
                            force_drift = true;
                        }
                    } else {
                        self.baseline_outliers = 0;
                        self.active_sim.push(norm_sim);
                        self.emit(StreamEvent::BaselineAbsorbed { value: norm_sim });
                        if obs_on {
                            self.sim_gauges();
                        }
                    }
                }
                if incorporate {
                    self.active_fp.incorporate(&self.fp_b);
                    self.active_fp_sel.incorporate(&self.fp_b);
                }
                self.span_end(Stage::Similarity, t0);
            }

            if self.active_fp.n_incorporated() >= 2 && self.t >= self.cooldown_until {
                let t0 = self.span_start();
                {
                    let Self { engine, frames, active_clf, fp_a, .. } = self;
                    engine.extract_tracked_frames_repredicted_into(
                        &frames.a_tracked(),
                        active_clf.as_ref(),
                        fp_a,
                    );
                }
                self.span_end(Stage::Extract, t0);
                self.emit(StreamEvent::FingerprintExtracted { dims: self.fp_a.len() as u64 });
                let t0 = self.span_start();
                self.normalizer.observe(&self.fp_a);
                let key = (
                    self.weights_gen,
                    self.normalizer.version(),
                    self.active_fp.version(),
                );
                self.active_cache.ensure(
                    key,
                    &self.active_fp,
                    &self.normalizer,
                    Some(&self.weights.values),
                );
                self.normalizer.scale_into(&self.fp_a, &mut self.scaled_q);
                let sim_a = self
                    .active_cache
                    .similarity_scaled(&self.scaled_q, Some(&self.weights.values));
                self.emit(StreamEvent::SimilarityObserved { value: sim_a });
                // Retain occasional selection-space pairs: the selection
                // fingerprint's mean against this window re-predicted
                // through the classifier — exactly the comparison model
                // selection performs — so re-scoring them later calibrates
                // the acceptance band (Section IV's record re-basing).
                // `scaled_q` still holds this window's scaled fingerprint,
                // which is exactly the selection query side.
                if self.t.is_multiple_of(8 * self.config.fingerprint_gap as u64)
                    && self.active_fp_sel.is_trained()
                {
                    let sel_key = (0, self.normalizer.version(), self.active_fp_sel.version());
                    self.active_sel_cache.ensure(
                        sel_key,
                        &self.active_fp_sel,
                        &self.normalizer,
                        None,
                    );
                    let sim_sel = self.active_sel_cache.similarity_scaled(&self.scaled_q, None);
                    // Ring-recycle the oldest pair's buffers once the cap is
                    // reached; steady state allocates nothing.
                    let (mut a, mut b) = if self.active_retained.len() >= 8 {
                        let p = self.active_retained.remove(0);
                        (p.a, p.b)
                    } else {
                        (Vec::new(), Vec::new())
                    };
                    self.active_fp_sel.mean_into(&mut a);
                    b.clear();
                    b.extend_from_slice(&self.fp_a);
                    self.active_retained.push(RetainedPair { a, b, sim_then: sim_sel });
                }
                self.span_end(Stage::Similarity, t0);
                let t0 = self.span_start();
                // Standardise against the recorded normal similarity
                // distribution (mu_c, sigma_c): raw cosine values are
                // compressed near 1 and their scale varies by dataset, while
                // the deviation-from-normal is what "significantly
                // different to normal" means (Section III-A).
                let (z, detector_input) = if self.active_sim.count() >= 5 {
                    let sigma = self.active_sim.std_dev().max(self.config.sim_sigma_floor);
                    let c = self.config.deviation_clamp;
                    let z = ((sim_a - self.active_sim.mean()) / sigma).clamp(-c, c);
                    (z, (z + c) / (2.0 * c))
                } else {
                    (0.0, 0.5)
                };
                // Hard trigger: several consecutive checks far outside the
                // recorded normal band.
                if z.abs() >= self.config.hard_z {
                    self.extreme_streak += 1;
                } else {
                    self.extreme_streak = 0;
                }
                let adwin_fired = self.detector.add(detector_input) == DetectorState::Drift;
                let hard_fired = self.extreme_streak >= self.config.hard_consecutive;
                self.span_end(Stage::DriftCheck, t0);
                if adwin_fired || hard_fired || force_drift {
                    self.stats.n_drifts += 1;
                    let trigger = if adwin_fired {
                        DriftTrigger::Detector
                    } else if hard_fired {
                        DriftTrigger::HardStreak
                    } else {
                        DriftTrigger::OutlierRun
                    };
                    self.emit(StreamEvent::DriftDetected { trigger });
                    self.recorder.counter("ficsum.drifts", 1);
                    outcome.drift = true;
                    let t0 = self.span_start();
                    let selection = self.model_select();
                    self.span_end(Stage::RepositoryReassess, t0);
                    // The active classifier changed: cached EMD values for
                    // prediction-dependent sources belong to the old one.
                    self.engine.invalidate_emd_cache();
                    outcome.concept_switched = true;
                    self.frames.clear_buffer();
                    self.detector.reset();
                    self.extreme_streak = 0;
                    self.baseline_outliers = 0;
                    // Suppress checks until the windows hold only
                    // post-switch observations; a brand-new classifier gets
                    // longer to settle.
                    let turnover =
                        (self.config.window_size + self.config.buffer_delay()) as u64;
                    self.cooldown_until = self.t
                        + match selection {
                            Selection::New(_) => {
                                turnover.max(self.config.new_concept_grace as u64)
                            }
                            Selection::Reused(_) => turnover,
                        };
                    self.pending_recheck = self.config.second_check.then(|| PendingRecheck {
                        due: self.t + self.config.window_size as u64,
                        created_new: matches!(selection, Selection::New(_)),
                    });
                }
            }
        }

        // Periodic non-active fingerprint update for the intra-classifier
        // weight component (lines 37–42).
        if !outcome.drift
            && self.t.is_multiple_of(self.config.repository_gap as u64)
            && self.frames.a_is_full()
            && !self.repo.is_empty()
        {
            let t0 = self.span_start();
            {
                let Self { engine, repo, frames, fp_tmp, window_scan, .. } = self;
                let tracked = frames.a_tracked();
                // One static scan of `A` serves every stored classifier:
                // only the classifier-dependent sources are re-evaluated
                // per entry.
                engine.static_scan_tracked(&tracked, window_scan);
                for entry in repo.iter_mut() {
                    engine.extract_with_scan(
                        &tracked,
                        &*window_scan,
                        entry.classifier.as_ref(),
                        fp_tmp,
                    );
                    entry.sc_fingerprint.incorporate(fp_tmp);
                }
            }
            self.span_end(Stage::RepositoryReassess, t0);
        }

        // Delayed second model-selection pass (Section III-A).
        if let Some(recheck) = self.pending_recheck {
            if self.t >= recheck.due && self.frames.a_is_full() {
                self.pending_recheck = None;
                let before = self.active_id;
                let t0 = self.span_start();
                self.run_recheck(recheck.created_new);
                self.span_end(Stage::RepositoryReassess, t0);
                if self.active_id != before {
                    outcome.concept_switched = true;
                    self.engine.invalidate_emd_cache();
                }
            }
        }

        // Periodically surface the engine's cumulative per-source extraction
        // cost (enabled recorders share the framework clock with the
        // engine, see `attach_recorder`).
        if self.recorder.enabled()
            && self.t.is_multiple_of(self.config.repository_gap as u64)
            && self.engine.timing_enabled()
        {
            for (name, nanos) in self.engine.source_timings() {
                self.recorder.gauge(&format!("ficsum.extract.src.{name}"), nanos as f64);
            }
        }

        outcome.active_concept = self.active_id;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{FicsumBuilder, Variant};
    use ficsum_synth::{stagger_stream, StaggerLabeller};
    use ficsum_stream::StreamSource;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    fn quick_config() -> FicsumConfig {
        FicsumConfig {
            window_size: 50,
            fingerprint_gap: 5,
            repository_gap: 50,
            ..FicsumConfig::default()
        }
    }

    /// Two alternating STAGGER concepts with clean labels.
    fn run_two_concepts(variant: Variant, segments: usize, seg_len: usize) -> (Ficsum, f64) {
        use ficsum_synth::{LabelledConcept, UniformSampler};
        use ficsum_synth::ConceptGenerator;
        let mut systems = FicsumBuilder::new(3, 2)
            .variant(variant)
            .config(quick_config())
            .build()
            .unwrap();
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut gens: Vec<Box<dyn ConceptGenerator>> = (0..2)
            .map(|c| {
                Box::new(LabelledConcept::new(
                    UniformSampler::new(3, 100 + c as u64),
                    StaggerLabeller::new(c),
                    0.0,
                    200 + c as u64,
                )) as Box<dyn ConceptGenerator>
            })
            .collect();
        for seg in 0..segments {
            let gen = &mut gens[seg % 2];
            for _ in 0..seg_len {
                let o = gen.generate();
                let out = systems.process(&o.features, o.label);
                total += 1;
                if out.prediction == o.label {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        (systems, acc)
    }

    #[test]
    fn detects_drift_between_stagger_concepts() {
        let (ficsum, _) = run_two_concepts(Variant::Full, 4, 800);
        assert!(
            ficsum.stats().n_drifts >= 2,
            "expected drifts at the 3 boundaries, got {:?}",
            ficsum.stats()
        );
    }

    #[test]
    fn reuses_concepts_on_recurrence() {
        let (ficsum, acc) = run_two_concepts(Variant::Full, 8, 800);
        let stats = ficsum.stats();
        assert!(
            stats.n_reuses + stats.n_recheck_switches >= 1,
            "recurring concepts should be reused at least once: {stats:?}"
        );
        assert!(acc > 0.72, "accuracy {acc} too low for clean STAGGER");
    }

    #[test]
    fn stationary_stream_stays_on_one_concept() {
        let mut ficsum = FicsumBuilder::new(3, 2).config(quick_config()).build().unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let labeller = StaggerLabeller::new(0);
        use ficsum_synth::Labeller;
        let mut correct = 0usize;
        for _ in 0..4000 {
            let x = [rng.random(), rng.random(), rng.random()];
            let y = labeller.label(&x);
            if ficsum.process(&x, y).prediction == y {
                correct += 1;
            }
        }
        // Occasional alarms caused by classifier evolution are tolerated as
        // long as model selection recovers (same concept re-selected) and
        // accuracy stays high.
        let acc = correct as f64 / 4000.0;
        assert!(acc > 0.95, "stationary accuracy {acc} too low: {:?}", ficsum.stats());
        assert!(
            ficsum.stats().n_new_concepts <= 3,
            "stationary stream should not fragment: {:?}",
            ficsum.stats()
        );
    }

    #[test]
    fn er_variant_runs_end_to_end() {
        let (ficsum, acc) = run_two_concepts(Variant::ErrorRate, 4, 600);
        assert!(acc > 0.5);
        // The framework must at least survive and produce drift checks.
        assert!(ficsum.weights().values.len() == 1);
    }

    #[test]
    fn outcome_reports_active_concept() {
        let mut ficsum = FicsumBuilder::new(3, 2).config(quick_config()).build().unwrap();
        let out = ficsum.process(&[0.1, 0.2, 0.3], 1);
        assert_eq!(out.active_concept, ficsum.active_concept());
        assert!(!out.drift);
    }

    #[test]
    fn full_dataset_run_is_stable() {
        // Smoke test over a real composed stream (reduced size).
        let mut stream = stagger_stream(3);
        let mut ficsum = FicsumBuilder::new(3, 2).config(quick_config()).build().unwrap();
        let mut correct = 0usize;
        let mut n = 0usize;
        for _ in 0..6000 {
            let Some(o) = stream.next_observation() else { break };
            let out = ficsum.process(&o.features, o.label);
            if out.prediction == o.label {
                correct += 1;
            }
            n += 1;
        }
        let acc = correct as f64 / n as f64;
        assert!(acc > 0.70, "STAGGER accuracy {acc}");
    }

    #[test]
    fn parallel_recurrence_scan_matches_sequential() {
        // Same stream, threads = 1 vs threads = 4; every step outcome must
        // be bit-identical (drifts, selections, active concept ids).
        use ficsum_synth::{ConceptGenerator, LabelledConcept, UniformSampler};
        let build = |threads: usize| {
            FicsumBuilder::new(3, 2)
                .config(quick_config())
                .parallelism(threads)
                .build()
                .unwrap()
        };
        let mut seq = build(1);
        let mut par = build(4);
        let mut gens: Vec<Box<dyn ConceptGenerator>> = (0..3)
            .map(|c| {
                Box::new(LabelledConcept::new(
                    UniformSampler::new(3, 11 + c as u64),
                    StaggerLabeller::new(c % 3),
                    0.0,
                    77 + c as u64,
                )) as Box<dyn ConceptGenerator>
            })
            .collect();
        for seg in 0..9 {
            let gen = &mut gens[seg % 3];
            for _ in 0..400 {
                let o = gen.generate();
                let a = seq.process(&o.features, o.label);
                let b = par.process(&o.features, o.label);
                assert_eq!(a, b, "outcomes diverged at t={}", seq.t);
            }
        }
        assert!(seq.stats().n_drifts >= 1, "test must exercise model selection");
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn batch_template_restore_drops_checkpointed_stat_banks() {
        use crate::template::SessionTemplate;
        let template = SessionTemplate::new(3, 2, quick_config(), Variant::Full).unwrap();
        let mut session = template.clone().with_incremental_stats(true).instantiate();
        assert!(session.frames.stats_bins().is_some());
        let mut stream = stagger_stream(3);
        for _ in 0..300 {
            let o = stream.next_observation().unwrap();
            session.process(&o.features, o.label);
        }
        let restored = template.restore(&session.checkpoint()).unwrap();
        assert!(!restored.engine().incremental_stats());
        assert_eq!(restored.frames.stats_bins(), None, "batch mode reads no stat banks");
    }
}
