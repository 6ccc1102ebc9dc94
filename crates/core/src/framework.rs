//! The FiCSUM driver — Algorithm 1 of the paper.

use std::sync::Arc;

use ficsum_classifiers::{Classifier, ClassifierFactory};
use ficsum_drift::{Adwin, DetectorState, DriftDetector};
use ficsum_meta::{
    EmdCadence, EmdCounts, ExtractionMode, FingerprintEngine, FingerprintExtractor, StaticScan,
};
use ficsum_obs::{Clock, DriftTrigger, MonotonicClock, NullRecorder, Recorder, Stage, StreamEvent};
use ficsum_stream::{EwStats, FrameWindows, TrackedFrames};

use crate::checkpoint::{PendingRecheck, SessionCheckpoint, SessionState};
use crate::config::FicsumConfig;
use crate::fingerprint::{ConceptFingerprint, FingerprintNormalizer};
use crate::repository::{ConceptEntry, ConceptId, Repository, RetainedPair};
use crate::similarity::{fingerprint_similarity_unit, CachedFingerprint};
use crate::weights::DynamicWeights;

// Detection and selection thresholds this implementation adds to the
// paper, each beside its one reader in this file. They are fixed, not
// configured: an ablation of one (ROADMAP "Detection heuristics") edits its
// line here. The numbers name the entries of DESIGN.md "As-built
// implementation deviations".

/// ADWIN confidence for the similarity drift detector (deviation 1). The
/// detector runs on the *standardised* similarity stream, whose stationary
/// variance is tame, so a larger delta than ADWIN's usual 0.002 is
/// appropriate; false alarms are cheap because model selection re-accepts
/// the incumbent concept.
const DETECTOR_DELTA: f64 = 0.05;

/// Floor on the standard deviation of the recorded similarity distribution
/// when standardising the detector input (deviation 1).
const SIM_SIGMA_FLOOR: f64 = 0.002;

/// Clamp, in standard deviations, on the standardised similarity fed to the
/// drift detector (deviation 1). Cosine similarity over many non-negative
/// dimensions is compressed near 1, so the detector monitors the
/// *deviation from the recorded normal similarity* `(sim - mu_c) /
/// sigma_c` — the quantity FiCSUM stores `mu_c`/`sigma_c` for — rather
/// than the raw value.
const DEVIATION_CLAMP: f64 = 8.0;

/// Hard drift trigger (deviation 2): a deviation beyond `HARD_Z` standard
/// deviations observed on [`HARD_CONSECUTIVE`] consecutive checks fires a
/// drift immediately. This catches the short, sharp similarity dips a
/// fast-adapting classifier produces, which are over before ADWIN's bound
/// can cut; it operationalises the paper's "similarity significantly
/// different to normal" (mu ± k sigma) directly.
const HARD_Z: f64 = 5.0;

/// Consecutive extreme checks required by the hard trigger (deviation 2).
const HARD_CONSECUTIVE: u32 = 3;

/// Outlier threshold, in standard deviations, above which a buffer window
/// is *not* absorbed into the concept fingerprint or the similarity
/// baseline (deviation 3). Lower than [`HARD_Z`]: absorption is
/// conservative about concept purity, detection is balanced. Twenty
/// consecutive skipped windows escalate to a drift (deviation 2).
const OUTLIER_Z: f64 = 3.0;

/// Drift-check suppression after a *new* concept is created, in
/// observations (deviation 2). A brand-new classifier changes behaviour
/// rapidly while it bootstraps, which looks exactly like drift; checks
/// resume once it has had this long to settle (reused concepts only get
/// the short `w + b` window-turnover cooldown).
const NEW_CONCEPT_GRACE: u64 = 300;

/// Exponential-forgetting factor of the recorded similarity distribution
/// `(mu_c, sigma_c)` (deviation 4). Larger = adapts faster, forgets the
/// classifier-training transient sooner.
const SIM_ALPHA: f64 = 0.1;

/// Acceptance band width in standard deviations (deviation 7): a stored
/// concept is a recurrence candidate when its selection-space similarity
/// is within `ACCEPT_SIGMA * sigma` of its expected mean (paper: 2).
const ACCEPT_SIGMA: f64 = 2.0;

/// Similarity records a stored concept needs, absent retained pairs, to be
/// a recurrence candidate at selection (deviation 7): fewer define no
/// acceptance band.
const CANDIDATE_MIN_RECORDS: u64 = 3;

/// Dominant-match fallback, level test (deviation 7): when no stored
/// concept passes the band test, the best-scoring one can still be
/// selected, but only if its similarity reaches this share of its expected
/// mean.
const DOMINANT_SHARE_OF_EXPECTED: f64 = 0.5;

/// Dominant-match fallback, lead test (deviation 7): the best-scoring
/// concept must also reach this multiple of the runner-up's similarity
/// (floored at 0) plus [`DOMINANT_LEAD_MARGIN`].
const DOMINANT_LEAD_RATIO: f64 = 1.3;

/// Absolute margin of the dominant-match lead test (deviation 7).
const DOMINANT_LEAD_MARGIN: f64 = 0.02;

/// Floor on the per-dimension standard deviation in the dynamic weights'
/// `w_sigma = 1/sigma` (fingerprint values are normalised to [0, 1]). The
/// paper leaves a zero spread undefined; no listed deviation.
const SIGMA_FLOOR: f64 = 0.01;

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

/// Whether a stored entry is a recurrence candidate at selection: its
/// fingerprint must be trained and it must carry either enough similarity
/// history or retained pairs to define an acceptance band.
fn is_candidate(entry: &ConceptEntry) -> bool {
    entry.fingerprint.is_trained()
        && (entry.sim_stats.count() >= CANDIDATE_MIN_RECORDS || !entry.retained.is_empty())
}

/// Expected `(mu_s, sigma_s)` of a stored entry's within-concept
/// similarity (Section IV's record re-basing). The retained
/// `(F_c snapshot, F_B)` pairs are re-scored in selection space (unit
/// weights over today's normalisation): their mean is what a genuine
/// recurrence should score now, their spread the normal variation. Falls
/// back to the raw recorded `mu_c`/`sigma_c` when no pairs were retained.
///
/// A free function (not a method) so selection can call it while it holds
/// the engine and the repository entries borrowed; `sa`/`sb`/`sims` are
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

/// One window scored in selection space: re-predicted through a
/// concept's classifier, extracted, scaled by today's normaliser and
/// compared under unit weights against the concept's prepared
/// [`CachedFingerprint`] side (see [`ensure_selection_side`]).
///
/// The one comparison behind model selection, the recheck's incumbent and
/// [`Ficsum::discrimination_probe`]. Selection compares in a
/// weight-stationary space: the dynamic weights are tuned to make the
/// drift detector sensitive around the active concept and move over time,
/// which would destabilise the acceptance bands recorded for stored
/// concepts.
struct SelectionScan<'a, 'w> {
    engine: &'a mut FingerprintEngine,
    /// The window, with its classifier-independent sources in `scan`.
    window: &'a TrackedFrames<'w>,
    scan: &'a StaticScan,
    normalizer: &'a FingerprintNormalizer,
    /// Scratch: the extracted and the scaled fingerprint.
    fp: &'a mut Vec<f64>,
    scaled: &'a mut Vec<f64>,
}

impl SelectionScan<'_, '_> {
    /// `Sim(side, F_AS)` for the window re-predicted through `classifier`.
    fn score(&mut self, classifier: &dyn Classifier, side: &CachedFingerprint) -> f64 {
        self.engine.extract_with_scan(self.window, self.scan, classifier, self.fp);
        self.normalizer.scale_into(self.fp, self.scaled);
        side.similarity_scaled(self.scaled, None)
    }
}

/// Prepares `side` as `fingerprint`'s unit-weight selection side under
/// today's `normalizer` (weights generation 0 in the cache key).
fn ensure_selection_side(
    side: &mut CachedFingerprint,
    fingerprint: &ConceptFingerprint,
    normalizer: &FingerprintNormalizer,
) {
    side.ensure((0, normalizer.version(), fingerprint.version()), fingerprint, normalizer, None);
}

/// The drift check's `Sim(F_c, query)`: the active fingerprint's side
/// under the dynamic weights (prepared in `cache`, keyed by the weights
/// generation and the normaliser and fingerprint versions) against `query`,
/// scaled into `scaled`, which keeps it for the caller.
fn check_similarity(
    state: &SessionState,
    cache: &mut CachedFingerprint,
    query: &[f64],
    scaled: &mut Vec<f64>,
) -> f64 {
    let SessionState { active, normalizer, weights, weights_gen, .. } = state;
    let key = (*weights_gen, normalizer.version(), active.fingerprint.version());
    cache.ensure(key, &active.fingerprint, normalizer, Some(&weights.values));
    normalizer.scale_into(query, scaled);
    cache.similarity_scaled(scaled, Some(&weights.values))
}

/// A brand-new concept: untrained fingerprints, no retained pairs, and a
/// similarity baseline forgetting at [`SIM_ALPHA`].
fn fresh_concept(id: ConceptId, dims: usize, classifier: Box<dyn Classifier>) -> ConceptEntry {
    ConceptEntry { sim_stats: EwStats::new(SIM_ALPHA), ..ConceptEntry::new(id, dims, classifier) }
}

/// The FiCSUM framework instance.
///
/// Drive it prequentially with [`Ficsum::process`]; every call predicts,
/// trains, updates the concept fingerprint and runs drift detection / model
/// selection per Algorithm 1.
pub struct Ficsum {
    /// Everything learned or carried between steps; a checkpoint is a clone
    /// of it. The fields below it are machinery, caches and scratch.
    state: SessionState,
    engine: FingerprintEngine,
    factory: Box<dyn ClassifierFactory>,
    recorder: Box<dyn Recorder>,
    clock: Arc<dyn Clock>,
    /// Cached scaled+weighted side of the active fingerprint's mean (the
    /// drift-detection comparisons). Invalidated whenever the active
    /// concept changes; the unit-weight selection side travels with the
    /// concept as its `sel_cache`.
    active_cache: CachedFingerprint,
    /// Scratch: fingerprint extracted from the active window.
    fp_a: Vec<f64>,
    /// Scratch: fingerprint extracted from the stale window.
    fp_b: Vec<f64>,
    /// Scratch: per-entry fingerprint (F_SC refresh, selection, recheck).
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
    /// Test-only: check-step extractions bypass the engine's frame memo.
    #[cfg(test)]
    frame_memo_off: bool,
}

impl Ficsum {
    /// A fresh session from its parts. `config` must be valid and
    /// `extractor` built for `n_features`: [`crate::SessionTemplate`], the
    /// one caller, validates the config once and derives the extractor from
    /// its variant, and it applies the extraction mode after this returns.
    pub(crate) fn from_parts(
        n_features: usize,
        n_classes: usize,
        config: FicsumConfig,
        extractor: FingerprintExtractor,
        mut factory: Box<dyn ClassifierFactory>,
    ) -> Self {
        let dims = extractor.schema().len();
        let mut repo = Repository::new(config.max_repository);
        let active = fresh_concept(repo.allocate_id(), dims, factory.build());
        let state = SessionState {
            n_features,
            n_classes,
            config,
            active,
            repo,
            normalizer: FingerprintNormalizer::new(dims),
            weights: DynamicWeights::uniform(dims),
            weights_gen: 0,
            weights_stamp: None,
            detector: Adwin::new(DETECTOR_DELTA),
            frames: FrameWindows::new(config.window_size, config.buffer_delay(), n_features),
            t: 0,
            pending_recheck: None,
            stats: FicsumStats::default(),
            last_similarity: None,
            extreme_streak: 0,
            last_plasticity: 0,
            baseline_outliers: 0,
            cooldown_until: NEW_CONCEPT_GRACE,
        };
        Self::from_state(state, EmdCadence::default(), extractor, factory)
    }

    /// Wraps `state` — fresh from [`Ficsum::from_parts`] or cloned out of a
    /// checkpoint by [`crate::SessionTemplate::restore`], which validates
    /// the pair first — in the non-state machinery, the engine carrying
    /// `emd_cadence` (empty for a fresh session).
    ///
    /// Caches and scratch buffers start empty: they are pure
    /// functions of the state (version-keyed), so their first
    /// `ensure`/rebuild reproduces exactly what the original session held.
    /// The pipeline carries a [`NullRecorder`] and a fresh
    /// [`MonotonicClock`] until others are attached; recorders are
    /// observers, not state.
    pub(crate) fn from_state(
        state: SessionState,
        emd_cadence: EmdCadence,
        extractor: FingerprintExtractor,
        factory: Box<dyn ClassifierFactory>,
    ) -> Self {
        let mut engine = FingerprintEngine::new(extractor);
        engine.set_check_geometry(state.config.fingerprint_gap, state.config.buffer_delay());
        engine.restore_emd_cadence(emd_cadence);
        Self {
            state,
            engine,
            factory,
            recorder: Box::new(NullRecorder),
            clock: Arc::new(MonotonicClock::new()),
            active_cache: CachedFingerprint::new(),
            fp_a: Vec::new(),
            fp_b: Vec::new(),
            fp_tmp: Vec::new(),
            scaled_q: Vec::new(),
            proba_scratch: Vec::new(),
            window_scan: StaticScan::new(),
            #[cfg(test)]
            frame_memo_off: false,
        }
    }

    /// Captures the session's complete learned and in-flight state: a
    /// clone of the state the pipeline runs on, plus the engine's EMD
    /// stride cadence.
    ///
    /// The checkpoint is an owned deep copy: the session keeps running
    /// unaffected, and later mutations do not leak into the capture. Pure
    /// caches, scratch buffers and the recorder/clock are excluded — see
    /// the [`crate::checkpoint`] module docs for the exact boundary and the
    /// bit-identical-replay guarantee
    /// [`crate::SessionTemplate::restore`] provides.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            state: self.state.clone(),
            emd_cadence: self.engine.emd_cadence().clone(),
        }
    }

    /// Sets the worker-thread count (see
    /// [`crate::variant::FicsumBuilder::parallelism`]): the fingerprint
    /// engine fans each extraction's behaviour sources across the threads
    /// (1 = sequential, the default). Everything else runs on the calling
    /// thread. The fan-out is bit-identical to sequential, so this only
    /// changes wall-clock behaviour.
    pub(crate) fn configure_parallelism(&mut self, threads: usize) {
        self.engine.set_threads(threads);
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
            self.state.frames.enable_stats(self.engine.extractor().mi_bins());
        } else {
            self.state.frames.disable_stats();
        }
        self.engine.set_mode(mode);
    }

    /// The fingerprint engine driving extraction.
    pub fn engine(&self) -> &FingerprintEngine {
        &self.engine
    }

    /// Attaches an observability recorder: every event, counter, gauge and
    /// stage span the pipeline produces is delivered to it. The default is
    /// [`NullRecorder`], whose calls compile to nothing. Callers outside
    /// the crate observe a pipeline through
    /// [`crate::variant::FicsumBuilder::recorder`], which calls this.
    ///
    /// Attaching an *enabled* recorder also switches on the fingerprint
    /// engine's per-source extraction timing (shared clock); attaching a
    /// disabled one switches it off again.
    pub(crate) fn attach_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.engine
            .set_clock(recorder.enabled().then(|| Arc::clone(&self.clock)));
        self.recorder = recorder;
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &dyn Recorder {
        self.recorder.as_ref()
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
            self.state.last_similarity = Some(value);
        }
        self.recorder.event(self.state.t, event);
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
        self.recorder.gauge("ficsum.sim.mean", self.state.active.sim_stats.mean());
        self.recorder.gauge("ficsum.sim.std_dev", self.state.active.sim_stats.std_dev());
        self.recorder.gauge("ficsum.sim.count", self.state.active.sim_stats.count() as f64);
    }

    /// The active concept's normal-similarity deviation `sigma_c`, floored.
    fn sim_sigma(&self) -> f64 {
        self.state.active.sim_stats.std_dev().max(SIM_SIGMA_FLOOR)
    }

    /// Observations until both windows hold only frames pushed from now on.
    fn turnover(&self) -> u64 {
        (self.state.config.window_size + self.state.config.buffer_delay()) as u64
    }

    /// Identifier of the currently active concept.
    pub fn active_concept(&self) -> ConceptId {
        self.state.active.id
    }

    /// Stored (non-active) concepts.
    pub fn repository(&self) -> &Repository {
        &self.state.repo
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> FicsumStats {
        self.state.stats
    }

    /// Current dynamic weight vector (recomputed when its inputs change,
    /// checked every `P_C` observations).
    pub fn weights(&self) -> &DynamicWeights {
        &self.state.weights
    }

    /// The most recent `Sim(F_c, F_A)` value fed to the drift detector.
    pub fn last_similarity(&self) -> Option<f64> {
        self.state.last_similarity
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.state.n_classes
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
    ///
    /// Similarities are selection-space scores, the comparison model
    /// selection makes. The probe is a pure read: it extracts through a
    /// scratch clone of the engine, so the pipeline's EMD stride cache
    /// (and with it every later step) is the same whether or not it ran.
    pub fn discrimination_probe(&self) -> Option<f64> {
        if !self.state.frames.a_is_full()
            || !self.state.active.fingerprint.is_trained()
            || self.state.repo.is_empty()
            || self.state.active.sim_stats.count() < 5
        {
            return None;
        }
        let normalizer = &self.state.normalizer;
        let window = self.state.frames.a_tracked();
        let (mut engine, mut scan) = (self.engine.clone(), StaticScan::new());
        engine.static_scan_tracked(&window, &mut scan);
        let (mut fp, mut scaled) = (Vec::new(), Vec::new());
        let mut scorer = SelectionScan {
            engine: &mut engine,
            window: &window,
            scan: &scan,
            normalizer,
            fp: &mut fp,
            scaled: &mut scaled,
        };
        let mut score = |entry: &ConceptEntry| {
            let mut side = CachedFingerprint::new();
            ensure_selection_side(&mut side, &entry.fingerprint, normalizer);
            scorer.score(entry.classifier.as_ref(), &side)
        };
        let sim_active = score(&self.state.active);
        let sigma = self.sim_sigma();
        let mut sum = 0.0;
        let mut n = 0.0;
        for entry in self.state.repo.iter().filter(|e| e.fingerprint.is_trained()) {
            sum += (sim_active - score(entry)) / sigma;
            n += 1.0;
        }
        (n > 0.0).then(|| sum / n)
    }

    /// The engine's frame-memo key for this step's extractions through the
    /// active classifier (see [`FingerprintEngine::extract_keyed_into`]):
    /// the step index. The active classifier trains exactly once per step,
    /// before the check extracts `B` and then `A`, and no frame is pushed
    /// between the two, so both see one classifier state over one ring
    /// position. Every other extraction (the repository sweeps, the
    /// recheck, [`Ficsum::discrimination_probe`]) runs another classifier
    /// or a later state and passes no key.
    fn frame_key(&self) -> Option<u64> {
        #[cfg(test)]
        if self.frame_memo_off {
            return None;
        }
        Some(self.state.t)
    }

    /// Predicts without training or advancing any state.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.state.active.classifier.predict(x)
    }

    /// Moves the active concept into the repository (classifier and all).
    /// Its prepared selection-side cache travels with it; the weighted
    /// drift-side cache is dropped (the incoming active fingerprint is a
    /// different object whose version counter could collide).
    ///
    /// A fresh placeholder holds the active slot until `activate` or
    /// `activate_new` replaces it. Its
    /// classifier is never trained, but building it keeps the factory's
    /// call sequence, which a seeded factory turns into classifier seeds,
    /// the same at every drift.
    fn store_active(&mut self) {
        self.active_cache.invalidate();
        let placeholder =
            fresh_concept(self.state.active.id, self.engine.schema().len(), self.factory.build());
        let mut entry = std::mem::replace(&mut self.state.active, placeholder);
        entry.last_active = self.state.t;
        if let Some(evicted) = self.state.repo.insert(entry) {
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
        let entry = self.state.repo.take(id).expect("selection returned stored id");
        self.state.active = ConceptEntry { sim_stats: EwStats::new(SIM_ALPHA), ..entry };
        self.active_cache.invalidate();
    }

    /// Starts a brand-new concept.
    fn activate_new(&mut self) {
        let id = self.state.repo.allocate_id();
        let classifier = self.factory.build();
        self.state.active = fresh_concept(id, self.engine.schema().len(), classifier);
        self.active_cache.invalidate();
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
    /// Each candidate is scored by [`SelectionScan::score`] in repository
    /// order, and the acceptance fold runs as it goes.
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
        self.engine.static_scan_tracked(&self.state.frames.a_tracked(), &mut self.window_scan);
        let Self { engine, state, window_scan, fp_tmp, scaled_q, .. } = self;
        let SessionState { repo, normalizer, config, frames, .. } = state;
        // Refresh each candidate's cached selection side (cheap version
        // check per entry; recomputed only after the fingerprint or the
        // normaliser moved).
        for entry in repo.iter_mut().filter(|e| is_candidate(e)) {
            ensure_selection_side(&mut entry.sel_cache, &entry.fingerprint, normalizer);
        }
        let window = frames.a_tracked();
        let mut scorer = SelectionScan {
            engine,
            window: &window,
            scan: window_scan,
            normalizer,
            fp: fp_tmp,
            scaled: scaled_q,
        };
        let (mut sa, mut sb, mut sims) = (Vec::new(), Vec::new(), Vec::new());
        let mut banded: Option<(ConceptId, f64)> = None;
        let mut all: Vec<(ConceptId, f64, f64)> = Vec::new();
        for entry in repo.iter().filter(|e| is_candidate(e)) {
            let sim = scorer.score(entry.classifier.as_ref(), &entry.sel_cache);
            let (mu, sigma) =
                expected_similarity_with(config, normalizer, entry, &mut sa, &mut sb, &mut sims);
            if sim >= mu - ACCEPT_SIGMA * sigma && banded.is_none_or(|(_, b)| sim > b) {
                banded = Some((entry.id, sim));
            }
            all.push((entry.id, sim, mu));
        }
        if banded.is_some() {
            return banded;
        }
        // Dominant-match fallback.
        if all.len() >= 2 {
            all.sort_by(|a, b| b.1.total_cmp(&a.1));
            let (id, best_sim, mu) = all[0];
            let second = all[1].1;
            if best_sim >= DOMINANT_SHARE_OF_EXPECTED * mu
                && best_sim >= DOMINANT_LEAD_RATIO * second.max(0.0) + DOMINANT_LEAD_MARGIN
            {
                return Some((id, best_sim));
            }
        }
        None
    }

    /// Model selection (Algorithm 1 lines 25–35): store the incumbent, test
    /// every stored concept, and activate the best acceptor or a fresh one.
    fn model_select(&mut self) -> Selection {
        let from = self.state.active.id;
        self.store_active();
        let (selection, similarity) = match self.select_best() {
            Some((id, sim)) => {
                self.activate(id);
                self.state.stats.n_reuses += 1;
                self.recorder.counter("ficsum.reuses", 1);
                (Selection::Reused(id), Some(sim))
            }
            None => {
                self.activate_new();
                self.state.stats.n_new_concepts += 1;
                self.recorder.counter("ficsum.new_concepts", 1);
                (Selection::New(self.state.active.id), None)
            }
        };
        self.emit(StreamEvent::ConceptSwitch {
            from: from as u64,
            to: self.state.active.id as u64,
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
        let incumbent_sim = if self.state.active.fingerprint.is_trained() {
            // `select_best` just built the static scan of `A`.
            let Self { engine, state, fp_tmp, scaled_q, window_scan, .. } = self;
            let SessionState { active, frames, normalizer, .. } = state;
            ensure_selection_side(&mut active.sel_cache, &active.fingerprint, normalizer);
            let window = frames.a_tracked();
            SelectionScan {
                engine,
                window: &window,
                scan: window_scan,
                normalizer,
                fp: fp_tmp,
                scaled: scaled_q,
            }
            .score(active.classifier.as_ref(), &active.sel_cache)
        } else {
            0.0
        };
        if best_sim <= incumbent_sim {
            return;
        }
        let from = self.state.active.id;
        if incumbent_new {
            // Drop the newcomer entirely.
            self.activate(id);
        } else {
            self.store_active();
            self.activate(id);
        }
        self.state.stats.n_recheck_switches += 1;
        self.recorder.counter("ficsum.recheck_switches", 1);
        self.emit(StreamEvent::ConceptSwitch {
            from: from as u64,
            to: self.state.active.id as u64,
            similarity: Some(best_sim),
        });
        if self.recorder.enabled() {
            self.sim_gauges();
        }
        self.state.frames.clear_buffer();
        self.state.detector.reset();
        self.state.extreme_streak = 0;
        self.state.cooldown_until = self.state.t + self.turnover();
    }

    /// Processes one observation prequentially.
    ///
    /// Steady-state steps (no drift) are allocation-free: the observation
    /// is written into the shared frame ring, extraction and similarity run
    /// through reusable scratch buffers, and the dynamic weights are only
    /// recomputed when their version stamp shows an input changed.
    pub fn process(&mut self, x: &[f64], y: usize) -> StepOutcome {
        debug_assert_eq!(x.len(), self.state.n_features);
        let config = self.state.config;
        let t0 = self.span_start();
        let prediction = self.state.active.classifier.predict_with(x, &mut self.proba_scratch);
        self.state.active.classifier.train(x, y);
        self.span_end(Stage::Classifier, t0);
        self.state.frames.push(x, y, prediction);
        self.state.t += 1;

        // Fingerprint plasticity: a significant classifier change (a new
        // tree branch) invalidates the stored distribution of classifier-
        // dependent meta-features (Section IV).
        // Only early structural growth counts as a *significant* change
        // (Section IV): refinements of an already-large tree barely move its
        // predictions, and resetting on every one of them would keep the
        // fingerprint permanently amnesiac. Resets are also rate-limited.
        if config.plasticity
            && self.state.active.classifier.take_growth_event()
            && self.state.active.classifier.complexity() <= 8
            && self.state.t >= self.state.last_plasticity + 300
            && self.state.active.fingerprint.is_trained()
        {
            self.state.last_plasticity = self.state.t;
            let schema = self.engine.schema();
            self.state.active.fingerprint.reset_dims(|i| schema.dims[i].depends_on_classifier());
            self.state.stats.n_plasticity_resets += 1;
            self.emit(StreamEvent::PlasticityReset);
            self.recorder.counter("ficsum.plasticity_resets", 1);
            // The grown classifier re-predicts differently from here on;
            // do not let stale cached entropies bridge the change.
            self.engine.invalidate_emd_cache();
            // The reset dimensions read as empty until buffer windows
            // refill them; comparing against the half-empty fingerprint
            // would register as (false) drift.
            self.state.extreme_streak = 0;
            self.state.baseline_outliers = 0;
            self.state.cooldown_until =
                self.state.cooldown_until.max(self.state.t + self.turnover());
        }

        let mut outcome = StepOutcome {
            prediction,
            drift: false,
            concept_switched: false,
            active_concept: self.state.active.id,
        };

        // Periodic fingerprint update + drift check (lines 16–24).
        if self.state.t.is_multiple_of(config.fingerprint_gap as u64)
            && self.state.frames.a_is_full()
        {
            let obs_on = self.recorder.enabled();
            // Epoch-gated dynamic weights: the computation is a pure
            // function of the active fingerprint, the repository and the
            // normaliser; an unchanged version stamp means the kept vector
            // is bit-identical to what a recompute would produce.
            let stamp = (
                self.state.active.fingerprint.version(),
                self.state.repo.weights_stamp(),
                self.state.normalizer.version(),
            );
            if self.state.weights_stamp != Some(stamp) {
                // The weights exist to score similarity on this path, so
                // their recompute is booked to that stage.
                let t0 = self.span_start();
                self.state.weights.compute_into(
                    &self.state.active.fingerprint,
                    &self.state.repo,
                    &self.state.normalizer,
                    SIGMA_FLOOR,
                );
                self.span_end(Stage::Similarity, t0);
                self.state.weights_gen += 1;
                self.state.weights_stamp = Some(stamp);
                self.state.weights.publish_shape(&mut *self.recorder);
                if obs_on {
                    let dims = self.state.weights.values.len() as u64;
                    let spread = self.state.weights.spread();
                    self.emit(StreamEvent::WeightsRecomputed { dims, spread });
                }
            }

            let mut force_drift = false;
            if self.state.frames.stale_is_full() {
                // The window is re-predicted through the current classifier
                // (the paper's makeFingerprint uses the classifier, line 17):
                // re-predicted error profiles are stable within a concept and
                // jump when the labelling function moves, giving both a clean
                // detection signal and consistency with model selection.
                let t0 = self.span_start();
                let key = self.frame_key();
                {
                    let Self { engine, state, fp_b, .. } = self;
                    engine.extract_keyed_into(
                        &state.frames.stale_tracked(),
                        state.active.classifier.as_ref(),
                        key,
                        fp_b,
                    );
                }
                self.span_end(Stage::Extract, t0);
                self.emit(StreamEvent::FingerprintExtracted { dims: self.fp_b.len() as u64 });
                let t0 = self.span_start();
                self.state.normalizer.observe(&self.fp_b);
                let mut incorporate = true;
                if self.state.active.fingerprint.is_trained() {
                    let norm_sim = check_similarity(
                        &self.state,
                        &mut self.active_cache,
                        &self.fp_b,
                        &mut self.scaled_q,
                    );
                    // Robust baseline: a window whose similarity is an
                    // extreme outlier is most likely drawn from a drift
                    // region — folding it into mu_c / sigma_c / F_c would
                    // blur the very representation drift is detected
                    // against. Skip it, unless outliers persist (a genuine
                    // level shift, e.g. classifier evolution), in which case
                    // start absorbing again.
                    let sigma = self.sim_sigma();
                    let z = (norm_sim - self.state.active.sim_stats.mean()) / sigma;
                    let outlier =
                        self.state.active.sim_stats.count() >= 5 && z.abs() >= OUTLIER_Z;
                    if outlier {
                        self.state.baseline_outliers += 1;
                        incorporate = false;
                        // A long run of outlier windows is itself decisive
                        // evidence that the stream has left this concept.
                        if self.state.baseline_outliers >= 20 {
                            force_drift = true;
                        }
                    } else {
                        self.state.baseline_outliers = 0;
                        self.state.active.sim_stats.push(norm_sim);
                        self.emit(StreamEvent::BaselineAbsorbed { value: norm_sim });
                        if obs_on {
                            self.sim_gauges();
                        }
                    }
                }
                if incorporate {
                    self.state.active.fingerprint.incorporate(&self.fp_b);
                }
                self.span_end(Stage::Similarity, t0);
            }

            if self.state.active.fingerprint.n_incorporated() >= 2
                && self.state.t >= self.state.cooldown_until
            {
                let t0 = self.span_start();
                let key = self.frame_key();
                {
                    let Self { engine, state, fp_a, .. } = self;
                    engine.extract_keyed_into(
                        &state.frames.a_tracked(),
                        state.active.classifier.as_ref(),
                        key,
                        fp_a,
                    );
                }
                self.span_end(Stage::Extract, t0);
                self.emit(StreamEvent::FingerprintExtracted { dims: self.fp_a.len() as u64 });
                let t0 = self.span_start();
                self.state.normalizer.observe(&self.fp_a);
                let sim_a = check_similarity(
                    &self.state,
                    &mut self.active_cache,
                    &self.fp_a,
                    &mut self.scaled_q,
                );
                self.emit(StreamEvent::SimilarityObserved { value: sim_a });
                // Retain an occasional (fingerprint mean, window) pair:
                // re-scoring them later calibrates the acceptance band
                // (Section IV's record re-basing). Ring-recycle the oldest
                // pair's buffers once the cap is reached; steady state
                // allocates nothing.
                if self.state.t.is_multiple_of(8 * config.fingerprint_gap as u64) {
                    let active = &mut self.state.active;
                    let (mut a, mut b) = if active.retained.len() >= 8 {
                        let p = active.retained.remove(0);
                        (p.a, p.b)
                    } else {
                        (Vec::new(), Vec::new())
                    };
                    active.fingerprint.mean_into(&mut a);
                    b.clear();
                    b.extend_from_slice(&self.fp_a);
                    active.retained.push(RetainedPair { a, b });
                }
                self.span_end(Stage::Similarity, t0);
                let t0 = self.span_start();
                // Standardise against the recorded normal similarity
                // distribution (mu_c, sigma_c): raw cosine values are
                // compressed near 1 and their scale varies by dataset, while
                // the deviation-from-normal is what "significantly
                // different to normal" means (Section III-A).
                let (z, detector_input) = if self.state.active.sim_stats.count() >= 5 {
                    let sigma = self.sim_sigma();
                    let c = DEVIATION_CLAMP;
                    let z = ((sim_a - self.state.active.sim_stats.mean()) / sigma).clamp(-c, c);
                    (z, (z + c) / (2.0 * c))
                } else {
                    (0.0, 0.5)
                };
                // Hard trigger: several consecutive checks far outside the
                // recorded normal band.
                if z.abs() >= HARD_Z {
                    self.state.extreme_streak += 1;
                } else {
                    self.state.extreme_streak = 0;
                }
                let adwin_fired = self.state.detector.add(detector_input) == DetectorState::Drift;
                let hard_fired = self.state.extreme_streak >= HARD_CONSECUTIVE;
                self.span_end(Stage::DriftCheck, t0);
                if adwin_fired || hard_fired || force_drift {
                    self.state.stats.n_drifts += 1;
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
                    self.state.frames.clear_buffer();
                    self.state.detector.reset();
                    self.state.extreme_streak = 0;
                    self.state.baseline_outliers = 0;
                    // Suppress checks until the windows hold only
                    // post-switch observations; a brand-new classifier gets
                    // longer to settle.
                    let turnover = self.turnover();
                    self.state.cooldown_until = self.state.t
                        + match selection {
                            Selection::New(_) => turnover.max(NEW_CONCEPT_GRACE),
                            Selection::Reused(_) => turnover,
                        };
                    self.state.pending_recheck = config.second_check.then(|| PendingRecheck {
                        due: self.state.t + config.window_size as u64,
                        created_new: matches!(selection, Selection::New(_)),
                    });
                }
            }
        }

        // Periodic non-active fingerprint update for the intra-classifier
        // weight component (lines 37–42).
        if !outcome.drift
            && self.state.t.is_multiple_of(config.repository_gap as u64)
            && self.state.frames.a_is_full()
            && !self.state.repo.is_empty()
        {
            let t0 = self.span_start();
            {
                let Self { engine, state, fp_tmp, window_scan, .. } = self;
                let tracked = state.frames.a_tracked();
                // One static scan of `A` serves every stored classifier:
                // only the classifier-dependent sources are re-evaluated
                // per entry.
                engine.static_scan_tracked(&tracked, window_scan);
                for entry in state.repo.iter_mut() {
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
        if let Some(recheck) = self.state.pending_recheck {
            if self.state.t >= recheck.due && self.state.frames.a_is_full() {
                self.state.pending_recheck = None;
                let before = self.state.active.id;
                let t0 = self.span_start();
                self.run_recheck(recheck.created_new);
                self.span_end(Stage::RepositoryReassess, t0);
                if self.state.active.id != before {
                    outcome.concept_switched = true;
                    self.engine.invalidate_emd_cache();
                }
            }
        }

        // Periodically surface the engine's cumulative per-source extraction
        // cost (enabled recorders share the framework clock with the
        // engine, see `attach_recorder`).
        if self.recorder.enabled()
            && self.state.t.is_multiple_of(config.repository_gap as u64)
            && self.engine.timing_enabled()
        {
            for (name, nanos) in self.engine.source_timings() {
                self.recorder.gauge(&format!("ficsum.extract.src.{name}"), nanos as f64);
            }
            for (name, EmdCounts { sifted, reused }) in self.engine.emd_counts() {
                self.recorder.gauge(&format!("ficsum.extract.emd.sifted.{name}"), sifted as f64);
                self.recorder.gauge(&format!("ficsum.extract.emd.reused.{name}"), reused as f64);
            }
        }

        outcome.active_concept = self.state.active.id;
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
        // Same stream, threads = 1 vs threads = 4 (the engine's source
        // fan-out; selection itself is sequential); every step outcome must
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
                assert_eq!(a, b, "outcomes diverged at t={}", seq.state.t);
            }
        }
        assert!(seq.stats().n_drifts >= 1, "test must exercise model selection");
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn frame_memo_does_not_change_check_extraction() {
        // A pipeline whose check steps share re-predicted frames between
        // `B` and `A` against one that predicts every frame afresh: every
        // extracted fingerprint, similarity and outcome must agree bit for
        // bit, through drifts, plasticity resets and recheck switches.
        use ficsum_synth::{ConceptGenerator, LabelledConcept, UniformSampler};
        for (incremental, stride) in [(false, 1), (true, 4)] {
            let build = |memo: bool| {
                let mut f = FicsumBuilder::new(3, 2)
                    .config(quick_config())
                    .incremental_stats(incremental)
                    .emd_stride(stride)
                    .build()
                    .unwrap();
                f.frame_memo_off = !memo;
                f
            };
            let (mut memo, mut bare) = (build(true), build(false));
            let mut gens: Vec<Box<dyn ConceptGenerator>> = (0..3)
                .map(|c| {
                    Box::new(LabelledConcept::new(
                        UniformSampler::new(3, 90 + c as u64),
                        StaggerLabeller::new(c),
                        0.05,
                        900 + c as u64,
                    )) as Box<dyn ConceptGenerator>
                })
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            for seg in 0..12 {
                let gen = &mut gens[[0, 1, 0, 2][seg % 4]];
                for _ in 0..300 {
                    let o = gen.generate();
                    let a = memo.process(&o.features, o.label);
                    let b = bare.process(&o.features, o.label);
                    let t = memo.state.t;
                    assert_eq!(a, b, "outcomes diverged at t={t}");
                    assert_eq!(bits(&memo.fp_b), bits(&bare.fp_b), "F_B diverged at t={t}");
                    assert_eq!(bits(&memo.fp_a), bits(&bare.fp_a), "F_A diverged at t={t}");
                    assert_eq!(
                        memo.last_similarity().map(f64::to_bits),
                        bare.last_similarity().map(f64::to_bits),
                        "similarity diverged at t={t}"
                    );
                }
            }
            let stats = memo.stats();
            assert_eq!(stats, bare.stats());
            assert!(!memo.fp_a.is_empty() && !memo.fp_b.is_empty(), "no check extracted");
            assert!(
                stats.n_drifts >= 2
                    && stats.n_plasticity_resets >= 1
                    && stats.n_recheck_switches >= 1,
                "the stream must drift, reset and switch on recheck: {stats:?}"
            );
        }
    }

    /// The extraction modes the probe tests cover: stride 1 batch, stride 1
    /// incremental and stride 4 (whose EMD cache a probe through the live
    /// engine would age).
    const PROBE_MODES: [(bool, u32); 3] = [(false, 1), (true, 1), (false, 4)];

    /// A pipeline for RTREE seed 3 under default hyper-parameters and
    /// `mode`.
    fn rtree_pipeline((incremental, stride): (bool, u32)) -> Ficsum {
        let stream = ficsum_synth::rtree_stream(3);
        FicsumBuilder::new(stream.dims(), stream.n_classes())
            .incremental_stats(incremental)
            .emd_stride(stride)
            .build()
            .unwrap()
    }

    #[test]
    fn discrimination_probe_leaves_the_trajectory_unchanged() {
        // A pipeline probed every 7 steps against one never probed: the
        // probe is a read, so every outcome and similarity must agree bit
        // for bit in every extraction mode.
        for mode in PROBE_MODES {
            let (mut probed, mut plain) = (rtree_pipeline(mode), rtree_pipeline(mode));
            let mut stream = ficsum_synth::rtree_stream(3);
            let mut answered = 0;
            for step in 1..=2_000 {
                let o = stream.next_observation().unwrap();
                let a = probed.process(&o.features, o.label);
                let b = plain.process(&o.features, o.label);
                assert_eq!(a, b, "{mode:?}: outcomes diverged at step {step}");
                assert_eq!(
                    probed.last_similarity().map(f64::to_bits),
                    plain.last_similarity().map(f64::to_bits),
                    "{mode:?}: similarity diverged at step {step}"
                );
                if step % 7 == 0 {
                    answered += probed.discrimination_probe().is_some() as usize;
                }
            }
            assert_eq!(probed.stats(), plain.stats());
            assert!(answered >= 20, "{mode:?}: only {answered} probes answered");
        }
    }

    /// The probe as a plain formula: each classifier's full extraction of
    /// `A`, scaled and compared under unit weights with the allocating
    /// reference similarity, through a clone of the engine.
    fn reference_probe(f: &Ficsum) -> Option<f64> {
        let s = &f.state;
        if !s.frames.a_is_full()
            || !s.active.fingerprint.is_trained()
            || s.repo.is_empty()
            || s.active.sim_stats.count() < 5
        {
            return None;
        }
        let mut engine = f.engine.clone();
        let mut sim = |entry: &ConceptEntry| {
            let mut fp = Vec::new();
            engine.extract_tracked_frames_repredicted_into(
                &s.frames.a_tracked(),
                entry.classifier.as_ref(),
                &mut fp,
            );
            let a = s.normalizer.scale(&entry.fingerprint.mean_vector());
            let b = s.normalizer.scale(&fp);
            crate::similarity::fingerprint_similarity(&a, &b, &vec![1.0; a.len()])
        };
        let sim_active = sim(&s.active);
        let sigma = f.sim_sigma();
        let (mut sum, mut n) = (0.0, 0.0);
        for entry in s.repo.iter().filter(|e| e.fingerprint.is_trained()) {
            sum += (sim_active - sim(entry)) / sigma;
            n += 1.0;
        }
        (n > 0.0).then(|| sum / n)
    }

    #[test]
    fn discrimination_probe_matches_full_extraction() {
        // At stride 1 the probe's shared static scan and cached unit-weight
        // sides reproduce the full per-classifier formula bit for bit.
        for mode in PROBE_MODES.into_iter().filter(|&(_, stride)| stride == 1) {
            let mut f = rtree_pipeline(mode);
            let mut stream = ficsum_synth::rtree_stream(3);
            let mut answered = 0;
            for step in 1..=2_000 {
                let o = stream.next_observation().unwrap();
                f.process(&o.features, o.label);
                if step % 7 == 0 {
                    let probe = f.discrimination_probe();
                    assert_eq!(
                        probe.map(f64::to_bits),
                        reference_probe(&f).map(f64::to_bits),
                        "{mode:?}: probe differs at step {step}"
                    );
                    answered += probe.is_some() as usize;
                }
            }
            assert!(answered >= 20, "{mode:?}: only {answered} probes answered");
        }
    }

    #[test]
    fn batch_template_restore_drops_checkpointed_stat_banks() {
        use crate::template::SessionTemplate;
        let template = SessionTemplate::new(3, 2, quick_config(), Variant::Full).unwrap();
        let mut session = template.clone().with_incremental_stats(true).instantiate();
        assert!(session.state.frames.stats_bins().is_some());
        let mut stream = stagger_stream(3);
        for _ in 0..300 {
            let o = stream.next_observation().unwrap();
            session.process(&o.features, o.label);
        }
        let restored = template.restore(&session.checkpoint()).unwrap();
        assert!(!restored.engine().incremental_stats());
        assert_eq!(restored.state.frames.stats_bins(), None, "batch mode reads no stat banks");
    }

    /// A clock that counts its reads.
    #[derive(Debug, Default)]
    struct CountingClock(std::sync::atomic::AtomicU64);

    impl Clock for CountingClock {
        fn now_nanos(&self) -> u64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn classifier_stage_is_timed_only_when_recording() {
        use ficsum_obs::{shared, InMemoryRecorder};
        let steps = 400u64;
        let run = |system: &mut Ficsum| {
            let mut stream = stagger_stream(5);
            for _ in 0..steps {
                let o = stream.next_observation().unwrap();
                system.process(&o.features, o.label);
            }
        };
        let quiet = Arc::new(CountingClock::default());
        let mut system =
            FicsumBuilder::new(3, 2).config(quick_config()).clock(quiet.clone()).build().unwrap();
        run(&mut system);
        assert_eq!(quiet.now_nanos(), 0, "the null recorder path read the clock");

        let keep = shared(InMemoryRecorder::new());
        let mut system = FicsumBuilder::new(3, 2)
            .config(quick_config())
            .recorder(Box::new(keep.clone()))
            .clock(Arc::new(CountingClock::default()))
            .build()
            .unwrap();
        run(&mut system);
        let rec = keep.borrow();
        let classifier = rec.stage_histogram(Stage::Classifier).expect("classifier spans");
        assert_eq!(classifier.count(), steps, "one classifier span per step");
    }

    #[test]
    fn emd_gauges_count_sifts_and_record_reuses_per_source() {
        // At the default stride an enabled recorder sees, beside the
        // per-source extraction times, each source's sifts and the record
        // reads that replaced them: the feature and label sources of `B`
        // and of the static scans read the drift check's records, the
        // prediction-dependent sources never do.
        use ficsum_obs::{shared, InMemoryRecorder};
        let keep = shared(InMemoryRecorder::new());
        let mut system = FicsumBuilder::new(3, 2).recorder(Box::new(keep.clone())).build().unwrap();
        let mut stream = stagger_stream(5);
        for _ in 0..3000 {
            let o = stream.next_observation().unwrap();
            system.process(&o.features, o.label);
        }
        let rec = keep.borrow();
        let gauge = |name: &str| {
            let found = rec.gauges().find(|(n, _)| *n == name);
            found.map(|(_, v)| v).unwrap_or_else(|| panic!("{name}"))
        };
        for (name, _) in system.engine().emd_counts() {
            let (sifted, reused) = (
                gauge(&format!("ficsum.extract.emd.sifted.{name}")),
                gauge(&format!("ficsum.extract.emd.reused.{name}")),
            );
            assert!(sifted > 0.0, "{name}: sifted {sifted}");
            match name.as_str() {
                "x0" | "x1" | "x2" | "y" => assert!(reused > 0.0, "{name} reads records"),
                _ => assert_eq!(reused, 0.0, "{name} keeps its own slots"),
            }
        }
    }
}
