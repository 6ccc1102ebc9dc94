//! The fingerprint engine: reusable, allocation-free, optionally parallel
//! meta-feature extraction.
//!
//! [`FingerprintExtractor::extract`] is a faithful but naive transcription
//! of the paper: every call materialises one `Vec` per behaviour source,
//! re-derives the four moment statistics with separate passes, and lets the
//! EMD sifting loop allocate freely. That is fine for a one-off fingerprint
//! but FiCSUM fingerprints *constantly* — every fingerprint gap, every
//! repository comparison, every recheck.
//!
//! [`FingerprintEngine`] extracts straight from a [`TrackedFrames`] window
//! of [`ficsum_stream::FrameWindows`], re-predicting every frame through
//! the classifier it is given (the paper's makeFingerprint, Algorithm 1
//! line 17), and reuses all working memory across calls:
//!
//! * **One row-major frame walk** — the pass that re-predicts the window
//!   reads every frame once and scatters its row into the per-source
//!   scratch buffers shared by every meta-function; repeated extraction
//!   allocates nothing after warm-up (EMD, MI histograms and spline
//!   fitting included).
//! * **Per-step frame memo** — a caller that extracts two overlapping
//!   windows through one classifier state (the stale and active windows
//!   of a drift check) passes a key with each call
//!   ([`FingerprintEngine::extract_keyed_into`]); frames the two windows
//!   share are re-predicted once.
//! * **Fused statistics** — all non-EMD statistics of a source come from
//!   two sweeps ([`SourceSweep`]) instead of about nine, with
//!   bit-identical results to the one-function oracles. In incremental
//!   [`ExtractionMode`] the feature and label sources instead read the
//!   window's incrementally maintained [`Moments`] and sequence statistics
//!   (`O(1)` per observation rather than `O(window)` per fingerprint).
//! * **Shared static scans** — a repository sweep scores one window under
//!   many classifiers: [`FingerprintEngine::static_scan_tracked`] evaluates
//!   the classifier-independent sources once and
//!   [`FingerprintEngine::extract_with_scan`] reuses them per classifier.
//! * **Exact EMD memo** — every worker remembers the IMF entropies of the
//!   last sequences it sifted ([`EmdMemo`]), so a source whose content
//!   repeats — across sources, windows, extractions or the classifiers of
//!   a sweep — is served without sifting, bit for bit.
//! * **Drift-check records** — above EMD stride 1 the active window's
//!   drift check records the IMF entropies of the feature and label
//!   sources it used, and the stale window and the static scans read the
//!   nearest record instead of sifting
//!   ([`FingerprintEngine::set_check_geometry`]).
//! * **Opt-in parallelism** — [`FingerprintEngine::set_threads`] fans the
//!   `d + 4` behaviour sources across a [`std::thread::scope`] worker pool.
//!   Each source's computation is independent and writes a disjoint slice
//!   of the output, so parallel extraction is bit-identical to sequential.
//!
//! [`FingerprintExtractor::extract`] is kept untouched as the reference: in
//! [`ExtractionMode::EXACT`] the engine is bit-identical to it on a copy of
//! the window whose predictions were overwritten by the classifier.

use std::sync::Arc;

use ficsum_classifiers::Classifier;
use ficsum_obs::Clock;
use ficsum_stream::{Moments, TrackedFrames};

use crate::emd::{imf_entropies_scratch, EmdConfig, EmdScratch};
use crate::extractor::{FingerprintExtractor, FingerprintSchema};
use crate::functions::MetaFunction;
use crate::incremental::{ext_vals, ExtVals};
use crate::sources::{behaviour_sources, SourceKind};
use crate::sweep::{SourceSweep, SweepStats};

/// How the engine evaluates the feature and label sources, and how often it
/// re-sifts IMF entropies — the one extraction setting a pipeline carries.
///
/// The default — what a pipeline runs unless its builder or template sets
/// a mode — is batch statistics at an EMD stride of 2: every statistic is swept
/// over the window, and a changed window's IMF entropies are re-sifted at
/// every second drift check (see [`ExtractionMode::emd_stride`] for what
/// that means for each window). The stride was chosen by the
/// `quality` bench across seeds and the Table IV datasets: stride 2 kept
/// the paper's kappa and C-F1 ranks and did not raise false alarms,
/// misses or detection delay, while strides 4 and 8 raised false alarms
/// (DESIGN.md deviation 11). [`ExtractionMode::EXACT`] (batch, stride 1)
/// is the exact oracle: its fingerprints are bit-identical to
/// [`FingerprintExtractor::extract`], the golden trajectories pin it, and a
/// bare [`FingerprintEngine::new`] starts in it.
///
/// Incremental mode substitutes the window's O(1)-per-observation state —
/// moments, ACF/PACF at lags 1–2 from rolling centered cross-sums, lagged
/// mutual information from an add/remove joint histogram and the
/// turning-point rate from an exact counter (see
/// [`ficsum_stream::SeqStats`]). The substituted values agree with the
/// batch sweep to ≤ 1e-9 relative (MI and turning points bit-identically),
/// but not bit for bit, so batch stays the default: drift trajectories are
/// feedback loops in which any numeric difference can compound. The EMD
/// stride is independent of the statistics: it applies in either mode.
///
/// Above stride 1 the per-source re-sift cadence and the drift check's
/// records are session state: a pipeline checkpoint carries them
/// ([`EmdCadence`]), so a restored session replays bit-identically at any
/// stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractionMode {
    /// Substitute incremental statistics. The windows must have them
    /// enabled ([`ficsum_stream::FrameWindows::enable_stats`] with the
    /// extractor's MI bin count); a window without a stat bank, and
    /// sources without usable state, fall back to the batch sweep.
    pub incremental: bool,
    /// EMD amortisation, in batch and incremental mode alike. Above 1, each
    /// source of each window keeps its last IMF entropies behind a content
    /// hash: an unchanged window reuses them, and a *changed* one re-sifts
    /// at most every `emd_stride`-th extraction, reusing the previous
    /// values in between.
    ///
    /// In a pipeline (which sets [`FingerprintEngine::set_check_geometry`])
    /// a stride `k` means, with `P_C` the drift-check period:
    ///
    /// * the active window `A`'s drift check re-sifts a changed source
    ///   every `k`-th check, so a value is at most `(k - 1) * P_C` frames
    ///   from the window it was sifted on;
    /// * the stale window `B` reads the feature and label sources' values
    ///   `A`'s checks recorded nearest its own window, within the same
    ///   `(k - 1) * P_C` frames, and sifts only its prediction-dependent
    ///   sources on its own every-`k`-th cadence;
    /// * the static scans of `A` (repository refresh, selection, recheck)
    ///   read those records too and leave `A`'s cadence alone;
    /// * with no record in reach (the post-drift cooldown, when `A` is not
    ///   checked) `B` and the scans fall back to their window's own
    ///   cadence.
    ///
    /// The default is `2`. `1` keeps no per-source cache and no records:
    /// every sift goes through the exact memo, faithful to the batch
    /// values. `0` counts as `1`.
    pub emd_stride: u32,
}

impl ExtractionMode {
    /// Batch statistics at stride 1: every value bit-identical to
    /// [`FingerprintExtractor::extract`]. The reference the golden
    /// trajectories pin.
    pub const EXACT: Self = Self { incremental: false, emd_stride: 1 };
}

impl Default for ExtractionMode {
    fn default() -> Self {
        Self { incremental: false, emd_stride: 2 }
    }
}

/// Statistics pre-computed by a tracked window; substituted for the batch
/// sweeps on sources whose membership the window tracks.
#[derive(Debug, Clone, Copy)]
struct TrackedVals {
    mean: f64,
    std_dev: f64,
    skewness: f64,
    kurtosis: f64,
    /// Incrementally maintained sequence statistics (ACF, PACF, lagged MI,
    /// turning-point rate); `None` = batch sweep for those functions.
    ext: Option<ExtVals>,
}

impl TrackedVals {
    fn new(m: &Moments, ext: Option<ExtVals>) -> Self {
        Self {
            mean: m.mean(),
            std_dev: m.std_dev(),
            skewness: m.skewness(),
            kurtosis: m.kurtosis(),
            ext,
        }
    }
}

/// One cached EMD result of a stride above 1: the IMF entropies of the
/// last sequence this source computed them for, keyed by a content hash so
/// an unchanged window reuses them without sifting, plus a staleness age
/// for the bounded-stride amortisation of [`ExtractionMode::emd_stride`].
/// A slot follows one source of one window across extractions; the
/// worker's [`EmdMemo`] behind it serves any source whose content repeats.
#[derive(Debug, Clone, Copy, Default)]
struct EmdSlot {
    hash: u64,
    len: usize,
    vals: (f64, f64),
    /// Consecutive stale reuses since the last fresh sifting.
    age: u32,
    /// End position ([`TrackedFrames::end_position`]) of the last window
    /// whose content the values are exact for.
    origin: u64,
    valid: bool,
}

/// One classifier-independent source's IMF entropies in a record of the
/// drift check: the values and the end position of the window whose
/// content they are exact for.
#[derive(Debug, Clone, Copy, Default)]
struct Sifted {
    origin: u64,
    vals: (f64, f64),
}

/// The drift check's records above stride 1: after each extraction of the
/// active window `A` through its cadence, the IMF entropies it used for
/// every classifier-independent source, with the position each was sifted
/// on. The other requests for those sources — the stale window `B` and the
/// static scans of `A` — read the nearest record instead of sifting (see
/// [`FingerprintEngine::set_check_geometry`]).
///
/// A fixed ring of `capacity` records of `width` entries, sized once, so
/// steady-state writes allocate nothing.
#[derive(Debug, Clone, Default)]
struct RecordRing {
    /// Record-major: record `r`'s entry for static source `s` is at
    /// `r * width + s`.
    entries: Vec<Sifted>,
    /// Entries per record: the classifier-independent sources.
    width: usize,
    /// Records written, up to the capacity.
    filled: usize,
    /// The record the next write overwrites.
    next: usize,
}

impl RecordRing {
    /// Static source `s`'s recorded entropies sifted nearest `pos`, if one
    /// lies within `reach` frames of it and closer than `len` (so a record
    /// never serves a window it shares no frame with); ties go to the later
    /// sifting, whatever the ring order.
    fn nearest(&self, s: usize, pos: u64, reach: u64, len: usize) -> Option<(f64, f64)> {
        let reach = reach.min((len as u64).saturating_sub(1));
        (0..self.filled)
            .map(|r| self.entries[r * self.width + s])
            .filter(|e| e.origin.abs_diff(pos) <= reach)
            .min_by_key(|e| (e.origin.abs_diff(pos), std::cmp::Reverse(e.origin)))
            .map(|e| e.vals)
    }

    /// Appends one record of `width` entries, overwriting the oldest once
    /// `capacity` records are held. The ring is (re)sized when its shape
    /// changes.
    fn push(&mut self, capacity: usize, width: usize, record: impl Iterator<Item = Sifted>) {
        if self.width != width || self.entries.len() != capacity * width {
            let entries = vec![Sifted::default(); capacity * width];
            *self = Self { entries, width, ..Self::default() };
        }
        let at = self.next * width;
        for (e, v) in self.entries[at..at + width].iter_mut().zip(record) {
            *e = v;
        }
        self.next = (self.next + 1) % capacity;
        self.filled = (self.filled + 1).min(capacity);
    }
}

/// The EMD stride's per-source cadence: one bank of cache slots per window
/// tag (0 = active `A`, 1 = stale `B`, so the two fingerprint cadences
/// never evict each other), each slot holding a source's last IMF
/// entropies, its staleness age and the position it was sifted on, plus
/// the drift check's records of the classifier-independent sources.
///
/// Above a stride of 1 this decides which extraction re-sifts a source and
/// which reuses stale values, so it is session state, not scratch: a
/// pipeline checkpoint carries it ([`FingerprintEngine::emd_cadence`]) and
/// a restore puts it back ([`FingerprintEngine::restore_emd_cadence`]), and
/// the restored session re-sifts on the same checks as the original. At
/// stride 1 it stays empty.
#[derive(Debug, Clone, Default)]
pub struct EmdCadence {
    banks: [Vec<EmdSlot>; 2],
    records: RecordRing,
}

/// The stride budget a cadence slot is consulted under: the stride, the
/// end position of the window being extracted, and the farthest a stale
/// value may be used from the window it was sifted on (`None`: no
/// positional bound, only the stride's age).
#[derive(Debug, Clone, Copy)]
struct Budget {
    stride: u32,
    pos: u64,
    reach: Option<u64>,
}

/// Where one source's IMF entropies come from in an extraction.
#[derive(Debug)]
enum EmdSource<'a> {
    /// The worker's exact memo: stride 1, and a scanned sweep's
    /// prediction-dependent sources.
    Memo,
    /// The source's cadence slot, under the stride budget.
    Slot(&'a mut EmdSlot, Budget),
    /// A drift-check record, read without sifting.
    Record((f64, f64)),
}

/// Per-source EMD work since the engine was built (or its timings last
/// reset): sequences sifted, and IMF entropies read from a drift-check
/// record instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmdCounts {
    /// Sequences sifted (memo misses).
    pub sifted: u64,
    /// Extractions served by a drift-check record.
    pub reused: u64,
}

/// One work item of the source sweep: the source sequence, its tracked
/// substitutes, where its EMD comes from, the disjoint output chunk it
/// fills, and its per-source timing slot and sift counter.
type SourceTask<'a> = (
    &'a [f64],
    Option<TrackedVals>,
    EmdSource<'a>,
    &'a mut [f64],
    &'a mut u64,
    &'a mut u64,
);

/// Per-worker scratch: everything one behaviour source needs.
#[derive(Debug, Clone, Default)]
struct SourceScratch {
    emd: EmdScratch,
    memo: EmdMemo,
    sweep: SourceSweep,
}

/// Entries an [`EmdMemo`] holds.
const EMD_MEMO_CAPACITY: usize = 16;

/// One remembered sifting: the sequence, its content hash and its IMF
/// entropies.
#[derive(Debug, Clone, Default)]
struct MemoEntry {
    hash: u64,
    seq: Vec<f64>,
    vals: (f64, f64),
}

/// A bounded, exact memo of IMF entropies, addressed by sequence content.
///
/// Sifting is a pure, deterministic function of the sequence and the
/// [`EmdConfig`], so a sequence sifted before can reuse its entropies
/// bit for bit. Repeats are common: the labels window is unchanged between
/// two fingerprints of a quiet stream, two classifiers of a repository
/// sweep make the same errors, and an error-free window leaves the error
/// sources constant.
///
/// Each entry is keyed by a 64-bit content hash and confirmed by comparing
/// the length and every value's bits, so a hash collision can cost a sift
/// but never return another sequence's entropies. The memo keeps the last
/// 16 distinct sequences sifted under one configuration
/// (first in, first out; a different configuration empties it), and
/// preallocates every entry to the longest sequence seen, so a steady
/// stream of fixed-length windows memoises without allocating.
///
/// The memo is keyed by content alone, so it stays valid across
/// classifier switches ([`FingerprintEngine::invalidate_emd_cache`] leaves
/// it alone) and holds no session state: a checkpoint does not carry it,
/// and a restored session starts with an empty one.
#[derive(Debug, Clone, Default)]
pub struct EmdMemo {
    /// Up to [`EMD_MEMO_CAPACITY`] entries, allocated on first use.
    entries: Vec<MemoEntry>,
    /// Entries holding a sequence (the first `filled` of `entries`).
    filled: usize,
    /// The entry the next insertion overwrites.
    next: usize,
    /// Capacity every entry's sequence buffer is grown to.
    width: usize,
    /// The configuration the entries were sifted under.
    config: Option<EmdConfig>,
    /// Test-only bypass: every lookup misses and nothing is remembered.
    #[cfg(test)]
    bypass: bool,
}

impl EmdMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The IMF entropies of `xs` (as [`imf_entropies_scratch`] computes
    /// them): remembered ones when the memo holds exactly `xs`, otherwise
    /// sifted in `scratch` and remembered.
    pub fn imf_entropies(
        &mut self,
        xs: &[f64],
        config: &EmdConfig,
        scratch: &mut EmdScratch,
    ) -> (f64, f64) {
        self.lookup_or_sift(xs, hash_seq(xs), config, scratch, &mut 0)
    }

    /// [`EmdMemo::imf_entropies`] with `xs`'s [`hash_seq`] already known;
    /// a sifting adds one to `sifts`.
    fn lookup_or_sift(
        &mut self,
        xs: &[f64],
        hash: u64,
        config: &EmdConfig,
        scratch: &mut EmdScratch,
        sifts: &mut u64,
    ) -> (f64, f64) {
        #[cfg(test)]
        if self.bypass {
            *sifts += 1;
            return imf_entropies_scratch(xs, config, scratch);
        }
        if self.config != Some(*config) {
            self.config = Some(*config);
            self.filled = 0;
            self.next = 0;
        }
        if let Some(vals) = self.get(xs, hash) {
            return vals;
        }
        *sifts += 1;
        let vals = imf_entropies_scratch(xs, config, scratch);
        self.insert(xs, hash, vals);
        vals
    }

    /// The remembered entropies of exactly `xs`, if any.
    fn get(&self, xs: &[f64], hash: u64) -> Option<(f64, f64)> {
        self.entries[..self.filled]
            .iter()
            .find(|e| {
                e.hash == hash
                    && e.seq.len() == xs.len()
                    && e.seq.iter().zip(xs).all(|(a, b)| a.to_bits() == b.to_bits())
            })
            .map(|e| e.vals)
    }

    /// Remembers `xs`, overwriting the oldest entry once the memo is full.
    fn insert(&mut self, xs: &[f64], hash: u64, vals: (f64, f64)) {
        if self.entries.is_empty() {
            self.entries.resize_with(EMD_MEMO_CAPACITY, MemoEntry::default);
        }
        if xs.len() > self.width {
            self.width = xs.len();
            for e in &mut self.entries {
                e.seq.reserve_exact(self.width - e.seq.len());
            }
        }
        let e = &mut self.entries[self.next];
        e.hash = hash;
        e.seq.clear();
        e.seq.extend_from_slice(xs);
        e.vals = vals;
        self.next = (self.next + 1) % EMD_MEMO_CAPACITY;
        self.filled = (self.filled + 1).min(EMD_MEMO_CAPACITY);
    }
}

/// One memoised frame re-prediction: the key it was made under, the label,
/// and how many feature contributions the classifier attributed it with
/// (`None`: it gave none, and the frame fell back to `predict_with`).
#[derive(Debug, Clone, Copy, Default)]
struct FramePrediction {
    key: Option<u64>,
    label: usize,
    contribs: Option<usize>,
}

/// The re-predictions of one key's extractions, addressed by frame age
/// (0 = newest), so the stale and active windows of one ring position
/// find each other's frames. An entry is valid only under the key it was
/// made with; a new key makes every entry stale without clearing any.
#[derive(Debug, Clone, Default)]
struct FrameMemo {
    frames: Vec<FramePrediction>,
    /// Age `a`'s contributions, at `a * n_features..`.
    contrib: Vec<f64>,
}

/// The classifier-independent half of one window's repredicted extraction.
///
/// A repository sweep scores *one* window under *many* classifiers. The
/// feature and label behaviour sources do not depend on the classifier, yet
/// a plain extraction re-evaluates their meta-functions (EMD sifting,
/// mutual information, autocorrelation, the moment sweep) once per
/// classifier. [`FingerprintEngine::static_scan_tracked`] evaluates those
/// sources once into this cache; [`FingerprintEngine::extract_with_scan`]
/// then copies the cached dimensions and computes only the
/// prediction-dependent sources and the importance tail per classifier.
///
/// Bit-exactness: the cached dimensions are produced by the very same
/// per-source evaluation on the very same cached sequences as
/// [`FingerprintEngine::extract_tracked_frames_repredicted_into`], and copying an `f64` preserves its bits. Validity is the caller's
/// contract — a scan must be rebuilt whenever the window contents change.
/// The cache is `Sync` (plain data), so one scan can feed parallel workers.
#[derive(Debug, Clone, Default)]
pub struct StaticScan {
    /// Evaluated function blocks for the whole source section, aligned with
    /// the engine's source order; only the chunks of classifier-independent
    /// sources hold meaningful values.
    vals: Vec<f64>,
    ready: bool,
}

impl StaticScan {
    /// An empty (not yet scanned) cache.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which behaviour sources one evaluation pass covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Every source: one plain extraction.
    All,
    /// The classifier-independent sources, into a [`StaticScan`].
    Static,
    /// One classifier's prediction-dependent sources in a scanned sweep.
    Dynamic,
}

impl Pass {
    fn covers(self, kind: SourceKind) -> bool {
        match self {
            Pass::All => true,
            Pass::Static => kind_is_static(kind),
            Pass::Dynamic => !kind_is_static(kind),
        }
    }
}

/// Reusable, optionally parallel fingerprint extraction.
///
/// Wraps a [`FingerprintExtractor`] configuration and produces its
/// fingerprints from [`TrackedFrames`] windows — allocation-free after
/// warm-up and, in [`ExtractionMode::EXACT`], bit-identical to the
/// extractor. See the module docs for the full design.
#[derive(Debug, Clone)]
pub struct FingerprintEngine {
    extractor: FingerprintExtractor,
    /// Selected behaviour sources in schema order (empty when the extractor
    /// is importance-only).
    kinds: Vec<SourceKind>,
    /// Worker threads for the per-source fan-out; 1 = sequential.
    threads: usize,
    /// Batch or incremental evaluation of the feature and label sources.
    mode: ExtractionMode,
    /// Which EMD cache bank the current extraction uses (`None` = caching
    /// off for this call).
    active_bank: Option<usize>,
    /// End position and length of the window the current extraction reads.
    window_at: (u64, usize),
    /// The drift check's period `P_C` and the stale window's delay `b`,
    /// once set ([`FingerprintEngine::set_check_geometry`]); `None` keeps
    /// the drift-check records off.
    check_geometry: Option<(u64, u64)>,
    /// Per-source EMD cache slots of the stride above 1, and the drift
    /// check's records.
    emd_cadence: EmdCadence,
    /// Each source's entry in a drift-check record, aligned with `kinds`
    /// (`None`: the source depends on the classifier and has none).
    record_index: Vec<Option<usize>>,
    /// Per-source sifting and record-reuse counts, aligned with `kinds`.
    emd_counts: Vec<EmdCounts>,
    /// One cached sequence buffer per selected source.
    seqs: Vec<Vec<f64>>,
    /// Incremental substitutes, aligned with `kinds` (`None` = batch).
    tracked: Vec<Option<TrackedVals>>,
    /// The window's labels as re-predicted by the extraction's classifier.
    preds: Vec<usize>,
    /// The window's ground-truth labels, read by the frame walk.
    labels: Vec<usize>,
    /// Re-predictions shared by the keyed extractions of one step.
    frame_memo: FrameMemo,
    /// Probability scratch for allocation-free classifier calls.
    proba: Vec<f64>,
    /// Contribution scratch for the feature-importance tail.
    contrib: Vec<f64>,
    workers: Vec<SourceScratch>,
    /// Span clock for per-source timing; `None` = timing off (zero cost).
    clock: Option<Arc<dyn Clock>>,
    /// Cumulative nanoseconds spent evaluating each source, aligned with
    /// `kinds`. Parallel workers write disjoint slots, so sequential and
    /// parallel attribution use identical bookkeeping.
    source_nanos: Vec<u64>,
    /// Extractions measured since the last [`FingerprintEngine::reset_timings`].
    timed_extractions: u64,
}

impl FingerprintEngine {
    /// Sequential engine around `extractor`, in [`ExtractionMode::EXACT`]:
    /// bit-identical to the extractor until [`FingerprintEngine::set_mode`]
    /// says otherwise.
    pub fn new(extractor: FingerprintExtractor) -> Self {
        let kinds = if extractor.functions().is_empty() {
            Vec::new()
        } else {
            behaviour_sources(extractor.n_features())
                .into_iter()
                .filter(|&k| extractor.sources().includes(k))
                .collect()
        };
        let n_sources = kinds.len();
        let record_index = kinds
            .iter()
            .scan(0, |next, &k| {
                Some(kind_is_static(k).then(|| {
                    *next += 1;
                    *next - 1
                }))
            })
            .collect();
        Self {
            extractor,
            kinds,
            threads: 1,
            mode: ExtractionMode::EXACT,
            active_bank: None,
            window_at: (0, 0),
            check_geometry: None,
            emd_cadence: EmdCadence::default(),
            record_index,
            emd_counts: vec![EmdCounts::default(); n_sources],
            seqs: vec![Vec::new(); n_sources],
            tracked: Vec::new(),
            preds: Vec::new(),
            labels: Vec::new(),
            frame_memo: FrameMemo::default(),
            proba: Vec::new(),
            contrib: Vec::new(),
            workers: vec![SourceScratch::default()],
            clock: None,
            source_nanos: vec![0; n_sources],
            timed_extractions: 0,
        }
    }

    /// Sets the number of worker threads the per-source fan-out may use.
    /// `0` and `1` both mean sequential. Parallel extraction is guaranteed
    /// bit-identical to sequential: sources are computed by identical code
    /// on disjoint output slices, whichever thread runs them.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Current worker-thread setting.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Builder-style variant of [`FingerprintEngine::set_mode`].
    pub fn with_mode(mut self, mode: ExtractionMode) -> Self {
        self.set_mode(mode);
        self
    }

    /// Sets the extraction mode (see [`ExtractionMode`]).
    pub fn set_mode(&mut self, mode: ExtractionMode) {
        self.mode = ExtractionMode { emd_stride: mode.emd_stride.max(1), ..mode };
    }

    /// The extraction mode.
    pub fn mode(&self) -> ExtractionMode {
        self.mode
    }

    /// Whether incremental statistics substitute for the batch sweeps.
    pub fn incremental_stats(&self) -> bool {
        self.mode.incremental
    }

    /// Drops every cached per-source EMD result. The framework calls this
    /// when the active classifier changes (model switch, plasticity
    /// reset): the prediction-dependent sources' sequences change meaning,
    /// so stale reuse across the switch would mix classifiers. The
    /// workers' [`EmdMemo`]s are kept: they return entropies only for the
    /// exact sequence they were sifted from, whichever classifier produced
    /// it. So are the drift check's records: they hold only the
    /// classifier-independent sources, whose content no classifier
    /// changes, and each serves only windows within its reach (see
    /// [`FingerprintEngine::set_check_geometry`]).
    pub fn invalidate_emd_cache(&mut self) {
        for bank in &mut self.emd_cadence.banks {
            bank.iter_mut().for_each(|s| s.valid = false);
        }
    }

    /// Tells the engine how a pipeline schedules its extractions: the
    /// drift check extracts the active window `A` every `check_gap` (`P_C`)
    /// pushes, and the stale window `B` lags `A` by `delay` (`b`) frames.
    /// A bare engine has no geometry, and every extraction then follows
    /// its own window's cadence.
    ///
    /// Above stride 1 the geometry makes the drift check's extraction of
    /// `A` the one writer of the classifier-independent sources' IMF
    /// entropies. Each such extraction records, per feature and label
    /// source, the values it used and the window position they were
    /// sifted on. The other requests for those sources — an extraction of
    /// `B` and a static scan of `A` — read the recorded values sifted
    /// nearest their own window instead of sifting, provided they lie
    /// within `(emd_stride - 1) * check_gap` frames of it: the bound the
    /// stride already sets on `A`'s own stale reuse. A request with no
    /// record in reach — `B` during the post-drift cooldown, when `A` is
    /// not checked — falls back to its window's own cadence slot. `B`'s
    /// slot honours the same bound by position, since records serve `B`
    /// without aging its slot; a scan's fallback ages `A`'s slot as
    /// before. The prediction-dependent sources always keep their own
    /// slots, and stride 1 never reads or writes a record.
    pub fn set_check_geometry(&mut self, check_gap: usize, delay: usize) {
        self.check_geometry = (check_gap > 0).then_some((check_gap as u64, delay as u64));
    }

    /// How far from its window a drift-check record may serve a request,
    /// in frames, and how many records the ring keeps: enough to reach
    /// back over `B`'s delay. `None` at stride 1 or without a geometry.
    fn record_reach(&self) -> Option<(u64, usize)> {
        let (gap, delay) = self.check_geometry?;
        let reach = u64::from(self.mode.emd_stride.checked_sub(1).filter(|&k| k > 0)?) * gap;
        Some((reach, ((delay + reach) / gap) as usize + 2))
    }

    /// Per-source sifting and record-reuse counts, as `(source name,
    /// counts)` in schema order. Zeroed by
    /// [`FingerprintEngine::reset_timings`].
    pub fn emd_counts(&self) -> Vec<(String, EmdCounts)> {
        self.kinds.iter().zip(&self.emd_counts).map(|(k, &c)| (k.name(), c)).collect()
    }

    /// The EMD stride's per-source cadence, for a session checkpoint.
    pub fn emd_cadence(&self) -> &EmdCadence {
        &self.emd_cadence
    }

    /// Puts back a cadence captured with [`FingerprintEngine::emd_cadence`]
    /// from an engine of the same schema, so the next extractions re-sift
    /// exactly where the capturing engine's would have.
    pub fn restore_emd_cadence(&mut self, cadence: EmdCadence) {
        self.emd_cadence = cadence;
    }

    /// Enables per-source extraction timing against `clock` (pass `None` to
    /// disable — the default, with zero cost on the extraction path). The
    /// clock is shared, not owned, so the framework, engine and tests can
    /// observe one coherent timeline; the parallel fan-out reads the same
    /// clock from every worker, which is why [`Clock`] is `Send + Sync`.
    pub fn set_clock(&mut self, clock: Option<Arc<dyn Clock>>) {
        self.clock = clock;
    }

    /// Whether per-source timing is active.
    pub fn timing_enabled(&self) -> bool {
        self.clock.is_some()
    }

    /// Cumulative nanoseconds spent evaluating each behaviour source since
    /// timing was enabled (or last reset), as `(source name, nanos)` in
    /// schema order. Empty when timing is off.
    pub fn source_timings(&self) -> Vec<(String, u64)> {
        if self.clock.is_none() {
            return Vec::new();
        }
        self.kinds
            .iter()
            .zip(&self.source_nanos)
            .map(|(k, &n)| (k.name(), n))
            .collect()
    }

    /// Number of extractions measured since the last reset.
    pub fn timed_extractions(&self) -> u64 {
        self.timed_extractions
    }

    /// Zeroes the per-source timing accumulators and EMD counts.
    pub fn reset_timings(&mut self) {
        self.source_nanos.iter_mut().for_each(|n| *n = 0);
        self.emd_counts.iter_mut().for_each(|c| *c = EmdCounts::default());
        self.timed_extractions = 0;
    }

    /// The wrapped configuration.
    pub fn extractor(&self) -> &FingerprintExtractor {
        &self.extractor
    }

    /// The vector layout produced by extraction (same as the extractor's).
    pub fn schema(&self) -> &FingerprintSchema {
        self.extractor.schema()
    }

    /// Number of input features the engine was built for.
    pub fn n_features(&self) -> usize {
        self.extractor.n_features()
    }

    /// Computes the fingerprint of `window` as seen by `classifier` into
    /// `out` (cleared first): every frame is re-predicted, and the
    /// prediction-dependent sources (predictions, errors, error distances)
    /// are built from those fresh labels. In [`ExtractionMode::EXACT`] the
    /// result is bit-identical to [`FingerprintExtractor::extract`] on a
    /// copy of the window whose predictions were overwritten by
    /// `classifier`; in incremental mode the feature and label sources read
    /// the window's incremental state instead, and above stride 1 the IMF
    /// entropies may be stale (see [`ExtractionMode`]).
    pub fn extract_tracked_frames_repredicted_into(
        &mut self,
        window: &TrackedFrames<'_>,
        classifier: &dyn Classifier,
        out: &mut Vec<f64>,
    ) {
        self.extract_keyed_into(window, classifier, None, out);
    }

    /// [`FingerprintEngine::extract_tracked_frames_repredicted_into`] with
    /// a frame-memo key. Every frame this call re-predicts is remembered
    /// by its age under `key`, and a frame the memo already holds under
    /// `key` is not re-predicted: two overlapping windows extracted under
    /// one key predict each shared frame once. `None` bypasses the memo.
    ///
    /// The key is the caller's promise, never checked: every call made
    /// under one key passes the same classifier, in the same state, over
    /// the same ring position (no frame pushed in between). A key used
    /// before must not be reused once any of that changed. The output is
    /// bit-identical to the memo-free call: a memoised frame contributes
    /// the very label and contributions it was predicted with, in window
    /// order.
    pub fn extract_keyed_into(
        &mut self,
        window: &TrackedFrames<'_>,
        classifier: &dyn Classifier,
        key: Option<u64>,
        out: &mut Vec<f64>,
    ) {
        self.fill_tracked_vals(window);
        self.set_active_bank(window);
        out.clear();
        out.resize(self.extractor.schema().len(), 0.0);
        self.walk_frames(window, Some((classifier, key)), Pass::All, out);
        self.fill_dynamic_sequences();
        let src_len = self.kinds.len() * self.extractor.functions().len();
        self.eval_sources(&mut out[..src_len], Pass::All);
        if self.active_bank == Some(0) {
            self.write_record();
        }
    }

    /// Records the IMF entropies an extraction of `A` just used for its
    /// classifier-independent sources, with the positions they were sifted
    /// on (see [`FingerprintEngine::set_check_geometry`]).
    fn write_record(&mut self) {
        let Some((_, capacity)) = self.record_reach() else { return };
        if !self.needs_emd() {
            return;
        }
        let width = self.record_index.iter().flatten().count();
        let EmdCadence { banks, records } = &mut self.emd_cadence;
        let record = banks[0]
            .iter()
            .zip(&self.record_index)
            .filter(|(_, r)| r.is_some())
            .map(|(slot, _)| Sifted { origin: slot.origin, vals: slot.vals });
        records.push(capacity, width, record);
    }

    /// Evaluates the classifier-independent sources of `window` into
    /// `scan`, for a sweep that scores one window under many classifiers
    /// via [`FingerprintEngine::extract_with_scan`]. The incremental
    /// substitutes apply exactly as in
    /// [`FingerprintEngine::extract_tracked_frames_repredicted_into`].
    pub fn static_scan_tracked(&mut self, window: &TrackedFrames<'_>, scan: &mut StaticScan) {
        self.fill_tracked_vals(window);
        self.set_active_bank(window);
        self.walk_frames(window, None, Pass::Static, &mut []);
        scan.vals.clear();
        scan.vals.resize(self.kinds.len() * self.extractor.functions().len(), 0.0);
        scan.ready = true;
        self.eval_sources(&mut scan.vals, Pass::Static);
    }

    /// One classifier's fingerprint of the window previously scanned into
    /// `scan`: the cached classifier-independent dimensions are copied, and
    /// only the prediction-dependent sources plus the importance tail are
    /// computed. Bit-identical to
    /// [`FingerprintEngine::extract_tracked_frames_repredicted_into`] on
    /// the same window in [`ExtractionMode::EXACT`] — `window` must hold
    /// exactly the contents the scan was built from.
    pub fn extract_with_scan(
        &mut self,
        window: &TrackedFrames<'_>,
        scan: &StaticScan,
        classifier: &dyn Classifier,
        out: &mut Vec<f64>,
    ) {
        debug_assert!(scan.ready, "extract_with_scan before static_scan_tracked");
        out.clear();
        out.resize(self.extractor.schema().len(), 0.0);
        self.walk_frames(window, Some((classifier, None)), Pass::Dynamic, out);
        self.fill_dynamic_sequences();
        let nf = self.extractor.functions().len();
        let src_len = self.kinds.len() * nf;
        debug_assert_eq!(scan.vals.len(), src_len, "scan built for another schema");
        for (i, &kind) in self.kinds.iter().enumerate() {
            if kind_is_static(kind) {
                out[i * nf..(i + 1) * nf].copy_from_slice(&scan.vals[i * nf..(i + 1) * nf]);
            }
        }
        self.eval_sources(&mut out[..src_len], Pass::Dynamic);
    }

    /// Populates the incremental substitutes for the feature and label
    /// sources from the window's stat bank; in batch mode, or for a
    /// window without a bank, `tracked` stays empty and every source takes
    /// the batch sweep. Each substitute carries the window's moments and,
    /// when its statistic state can honour the tolerance contract, the
    /// evaluated sequence statistics (see [`crate::incremental`]). The
    /// prediction-dependent sources always take the batch sweep: they are
    /// rebuilt from the classifier's fresh predictions on every call.
    fn fill_tracked_vals(&mut self, window: &TrackedFrames<'_>) {
        self.tracked.clear();
        let Some(bank) = window.bank().filter(|_| self.mode.incremental) else { return };
        let n = window.len();
        let mi_bins = self.extractor.mi_bins();
        let Self { kinds, tracked, .. } = self;
        for &kind in kinds.iter() {
            tracked.push(match kind {
                SourceKind::Feature(j) => {
                    let m = bank.feature_moments(j);
                    let get = |i: usize| window.features(i)[j];
                    let ext = ext_vals(bank.feature_stats(j), m, n, mi_bins, get);
                    Some(TrackedVals::new(m, ext))
                }
                SourceKind::Labels => {
                    let m = bank.label_moments();
                    let get = |i: usize| window.label(i) as f64;
                    let ext = ext_vals(bank.label_stats(), m, n, mi_bins, get);
                    Some(TrackedVals::new(m, ext))
                }
                _ => None,
            });
        }
    }

    /// Selects (and lazily sizes) the EMD cache bank for an extraction
    /// from `window`; `None` at stride 1, where every sift goes through the
    /// exact memo instead.
    fn set_active_bank(&mut self, window: &TrackedFrames<'_>) {
        self.window_at = (window.end_position(), window.len());
        self.active_bank = if self.mode.emd_stride > 1 {
            let tag = window.window_tag().min(1);
            let n = self.kinds.len();
            let bank = &mut self.emd_cadence.banks[tag];
            if bank.len() != n {
                *bank = vec![EmdSlot::default(); n];
            }
            Some(tag)
        } else {
            None
        };
    }

    /// The one pass over the frames of `window`, oldest first: collects the
    /// labels, scatters each frame's row into the sequences of the
    /// classifier-independent sources `pass` covers and, given a
    /// classifier, re-predicts the frame into `preds`.
    ///
    /// When the extractor includes feature importance, the classifier's
    /// mean absolute per-feature contribution over the window is
    /// accumulated into the last `n_features` slots of `out` (zeroed by the
    /// caller). A learner that attributes its prediction returns the label
    /// with the contributions, so each frame walks the classifier once;
    /// otherwise the frame falls back to `predict_with`. With a memo key,
    /// a frame already predicted under it is read back from the
    /// [`FrameMemo`] instead (see
    /// [`FingerprintEngine::extract_keyed_into`]).
    fn walk_frames(
        &mut self,
        window: &TrackedFrames<'_>,
        predict: Option<(&dyn Classifier, Option<u64>)>,
        pass: Pass,
        out: &mut [f64],
    ) {
        let Self { kinds, seqs, preds, labels, frame_memo, contrib, proba, extractor, .. } = self;
        let n = window.len();
        let d = extractor.n_features();
        let scatter = pass != Pass::Dynamic;
        for (seq, &kind) in seqs.iter_mut().zip(kinds.iter()) {
            if scatter && kind_is_static(kind) {
                seq.clear();
            }
        }
        labels.clear();
        preds.clear();
        let importance_on = extractor.includes_feature_importance() && predict.is_some();
        let tail = out.len() - if importance_on { d } else { 0 };
        let importance = &mut out[tail..];
        let key = predict.and_then(|(_, key)| key);
        if key.is_some() {
            let ages = window.newest_age() + n;
            if frame_memo.frames.len() < ages {
                frame_memo.frames.resize(ages, FramePrediction::default());
                if importance_on {
                    frame_memo.contrib.resize(ages * d, 0.0);
                }
            }
        }
        let mut counted = 0usize;
        for i in 0..n {
            let x = window.features(i);
            let y = window.label(i);
            labels.push(y);
            if scatter {
                for (seq, &kind) in seqs.iter_mut().zip(kinds.iter()) {
                    match kind {
                        SourceKind::Feature(j) => seq.push(x[j]),
                        SourceKind::Labels => seq.push(y as f64),
                        _ => {}
                    }
                }
            }
            let Some((classifier, _)) = predict else {
                continue;
            };
            let (label, contributions) = match key {
                None => predict_frame(classifier, x, importance_on, contrib, proba),
                Some(k) => {
                    let age = window.newest_age() + n - 1 - i;
                    let at = age * d;
                    let entry = &mut frame_memo.frames[age];
                    if entry.key != Some(k) {
                        let (label, c) =
                            predict_frame(classifier, x, importance_on, contrib, proba);
                        let contribs = c.map(|c| {
                            let m = c.len().min(d);
                            frame_memo.contrib[at..at + m].copy_from_slice(&c[..m]);
                            m
                        });
                        *entry = FramePrediction { key, label, contribs };
                    }
                    (entry.label, entry.contribs.map(|m| &frame_memo.contrib[at..at + m]))
                }
            };
            preds.push(label);
            if let Some(c) = contributions {
                for (acc, c) in importance.iter_mut().zip(c) {
                    *acc += c.abs();
                }
                counted += 1;
            }
        }
        if counted > 0 {
            for acc in importance.iter_mut() {
                *acc /= counted as f64;
            }
        }
    }

    /// Materialises the prediction-dependent sources (predictions, errors,
    /// error distances) from the walked `preds` and `labels`.
    fn fill_dynamic_sequences(&mut self) {
        let Self { kinds, seqs, preds, labels, .. } = self;
        for (seq, &kind) in seqs.iter_mut().zip(kinds.iter()) {
            match kind {
                SourceKind::Feature(_) | SourceKind::Labels => continue,
                SourceKind::Predictions => {
                    seq.clear();
                    seq.extend(preds.iter().map(|&p| p as f64));
                }
                SourceKind::Errors => {
                    seq.clear();
                    seq.extend(preds.iter().zip(labels.iter()).map(|(p, y)| (p != y) as u8 as f64));
                }
                SourceKind::ErrorDistances => {
                    seq.clear();
                    let mut last: Option<usize> = None;
                    for (i, (p, y)) in preds.iter().zip(labels.iter()).enumerate() {
                        if p != y {
                            if let Some(prev) = last {
                                seq.push((i - prev) as f64);
                            }
                            last = Some(i);
                        }
                    }
                }
            }
        }
    }

    /// Whether the extractor asks for IMF entropies at all.
    fn needs_emd(&self) -> bool {
        self.extractor
            .functions()
            .iter()
            .any(|f| matches!(f, MetaFunction::ImfEntropy1 | MetaFunction::ImfEntropy2))
    }

    /// Evaluates every (source, function) dimension of the sources `pass`
    /// covers into `out`, fanning sources across the worker pool when
    /// `threads > 1`.
    fn eval_sources(&mut self, out: &mut [f64], pass: Pass) {
        let functions = self.extractor.functions();
        let nf = functions.len();
        if nf == 0 || self.kinds.is_empty() {
            return;
        }
        let needs_emd = self.needs_emd();
        let emd_cfg = *self.extractor.emd_config();
        // A sweep without the MI function skips the histogram.
        let mi_bins = if functions.contains(&MetaFunction::MutualInformation) {
            self.extractor.mi_bins()
        } else {
            0
        };
        // A scanned sweep scores many classifiers on one window: their
        // prediction-dependent sources have no incremental substitutes,
        // and an EMD cache slot would carry one classifier's entropies
        // over to the next.
        let stateful = pass != Pass::Dynamic;
        let bank = self.active_bank.filter(|_| stateful);
        // The drift check's extraction of `A` writes the records (see
        // `set_check_geometry`); every other stateful request reads them.
        let (pos, len) = self.window_at;
        let reach = self.record_reach().filter(|_| needs_emd).map(|(reach, _)| reach);
        let reads_records = bank.is_some() && !(bank == Some(0) && pass == Pass::All);
        // `B`'s slot is not aged while records serve it, so its stale reuse
        // is bounded by position as well; `A`'s slot is aged by every check.
        let slot_reach = reach.filter(|_| bank == Some(1));
        let budget = Budget { stride: self.mode.emd_stride, pos, reach: slot_reach };
        let kinds = &self.kinds;
        let tracked = &self.tracked;
        let seqs = &self.seqs;
        let record_index = &self.record_index;
        let clock = self.clock.as_deref();
        let nanos = &mut self.source_nanos;
        if pass != Pass::Static && self.timed_extractions < u64::MAX {
            self.timed_extractions += clock.is_some() as u64;
        }
        let EmdCadence { banks, records } = &mut self.emd_cadence;
        let records = &*records;
        // The bank holds one slot per source; without it, no source has one.
        let slots = bank
            .map(|b| &mut banks[b])
            .into_iter()
            .flatten()
            .map(Some)
            .chain(std::iter::repeat_with(|| None));
        // One work item per covered source; each owns a disjoint slice of
        // `out` (and its own timing, counting and EMD cache slots), so no
        // synchronisation is needed and the result cannot depend on
        // which worker runs it. Records are looked up here, in source
        // order, before any worker runs.
        let tasks = seqs
            .iter()
            .zip(out.chunks_mut(nf))
            .zip(nanos.iter_mut())
            .zip(self.emd_counts.iter_mut())
            .zip(slots)
            .enumerate()
            .filter(|(i, _)| pass.covers(kinds[*i]))
            .map(|(i, ((((seq, chunk), nano), counts), slot))| {
                let tv = if stateful { tracked.get(i).copied().flatten() } else { None };
                let record = match (reach, record_index[i]) {
                    (Some(reach), Some(s)) if reads_records => records.nearest(s, pos, reach, len),
                    _ => None,
                };
                let emd = match (record, slot) {
                    (Some(vals), _) => {
                        counts.reused += 1;
                        EmdSource::Record(vals)
                    }
                    (None, Some(slot)) => EmdSource::Slot(slot, budget),
                    (None, None) => EmdSource::Memo,
                };
                (seq.as_slice(), tv, emd, chunk, nano, &mut counts.sifted)
            });
        let run = |worker: &mut SourceScratch, task: SourceTask<'_>| {
            let (seq, tv, emd, chunk, nano, sifts) = task;
            let t0 = clock.map(Clock::now_nanos);
            eval_source_into(
                seq, functions, needs_emd, &emd_cfg, mi_bins, tv, emd, worker, chunk, sifts,
            );
            if let (Some(c), Some(t0)) = (clock, t0) {
                *nano += c.now_nanos().saturating_sub(t0);
            }
        };
        let covered = kinds.iter().filter(|&&k| pass.covers(k)).count();
        let n_workers = self.threads.min(covered).max(1);
        if self.workers.len() < n_workers {
            self.workers.resize_with(n_workers, SourceScratch::default);
        }
        if n_workers == 1 {
            let worker = &mut self.workers[0];
            tasks.for_each(|task| run(worker, task));
            return;
        }
        // Round-robin the covered sources over the workers.
        let mut batches: Vec<Vec<SourceTask<'_>>> = (0..n_workers).map(|_| Vec::new()).collect();
        for (k, task) in tasks.enumerate() {
            batches[k % n_workers].push(task);
        }
        let run = &run;
        std::thread::scope(|scope| {
            for (worker, batch) in self.workers.iter_mut().zip(batches) {
                scope.spawn(move || batch.into_iter().for_each(|task| run(worker, task)));
            }
        });
    }
}

/// Re-predicts one frame through `classifier`: the label and, when
/// `importance` is on and the classifier attributes its prediction, the
/// per-feature contributions (written into `contrib`).
fn predict_frame<'c>(
    classifier: &dyn Classifier,
    x: &[f64],
    importance: bool,
    contrib: &'c mut Vec<f64>,
    proba: &mut Vec<f64>,
) -> (usize, Option<&'c [f64]>) {
    if importance {
        if let Some(label) = classifier.contributions_with(x, contrib, proba) {
            return (label, Some(contrib));
        }
    }
    (classifier.predict_with(x, proba), None)
}

/// Whether `kind`'s behaviour sequence is independent of the classifier
/// (and therefore cacheable across a repository sweep).
fn kind_is_static(kind: SourceKind) -> bool {
    matches!(kind, SourceKind::Feature(_) | SourceKind::Labels)
}

/// FNV-1a over the IEEE-754 bit patterns of a sequence, one 64-bit word
/// per value, folding the high half down after each multiply. Identifies
/// unchanged window contents for EMD reuse; a collision between two
/// *different* windows of equal length is the only way the exact-reuse
/// path can misfire.
///
/// The fold matters for integer-valued sources (labels, predictions,
/// errors): small integers have all-zero low mantissa bits, and a multiply
/// only carries information upward, so without it such sequences would
/// differ in the top 12 hash bits alone and collide about once in 4,096
/// comparisons.
fn hash_seq(seq: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in seq {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 32;
    }
    h ^ seq.len() as u64
}

/// EMD with the per-source cache: an unchanged sequence (by content hash)
/// reuses the previous sifting exactly; a changed one reuses the stale
/// values while the slot is within its stride budget (fewer than
/// `stride - 1` stale reuses so far, and sifted within `reach` frames of
/// this window), and is looked up in the worker's memo, sifted only if it
/// is not there, otherwise.
fn cached_imf(
    seq: &[f64],
    emd_cfg: &EmdConfig,
    scratch: &mut SourceScratch,
    slot: &mut EmdSlot,
    budget: Budget,
    sifts: &mut u64,
) -> (f64, f64) {
    let hash = hash_seq(seq);
    if slot.valid && slot.len == seq.len() && slot.hash == hash {
        slot.origin = budget.pos;
        return slot.vals;
    }
    let near = budget.reach.is_none_or(|r| slot.origin.abs_diff(budget.pos) <= r);
    if slot.valid && slot.age + 1 < budget.stride && near {
        slot.age += 1;
        return slot.vals;
    }
    let vals = scratch.memo.lookup_or_sift(seq, hash, emd_cfg, &mut scratch.emd, sifts);
    *slot = EmdSlot { hash, len: seq.len(), vals, age: 0, origin: budget.pos, valid: true };
    vals
}

/// Evaluates one behaviour source's function block into `out`
/// (`out.len() == functions.len()`).
///
/// The sequence statistics come from one fused [`SourceSweep`], unless the
/// tracked substitutes cover every function asked for: the substituted
/// moments and the incrementally evaluated sequence statistics override
/// the swept values they cover. EMD comes from `emd` (counting siftings
/// in `sifts`). With no substitutes and [`EmdSource::Memo`], every value is
/// bit-identical to the corresponding [`FingerprintExtractor::extract`]
/// dimension.
#[allow(clippy::too_many_arguments)]
fn eval_source_into(
    seq: &[f64],
    functions: &[MetaFunction],
    needs_emd: bool,
    emd_cfg: &EmdConfig,
    mi_bins: usize,
    tracked: Option<TrackedVals>,
    emd: EmdSource<'_>,
    scratch: &mut SourceScratch,
    out: &mut [f64],
    sifts: &mut u64,
) {
    let imf = needs_emd.then(|| match emd {
        EmdSource::Memo => {
            scratch.memo.lookup_or_sift(seq, hash_seq(seq), emd_cfg, &mut scratch.emd, sifts)
        }
        EmdSource::Slot(slot, budget) => cached_imf(seq, emd_cfg, scratch, slot, budget, sifts),
        EmdSource::Record(vals) => vals,
    });
    let ext = tracked.and_then(|t| t.ext);
    let needs_sweep = functions.iter().any(|f| match f {
        MetaFunction::Mean | MetaFunction::StdDev | MetaFunction::Skew | MetaFunction::Kurtosis => {
            tracked.is_none()
        }
        MetaFunction::Acf1
        | MetaFunction::Acf2
        | MetaFunction::Pacf1
        | MetaFunction::Pacf2
        | MetaFunction::MutualInformation
        | MetaFunction::TurningPointRate => ext.is_none(),
        _ => false,
    });
    let s = if needs_sweep { scratch.sweep.stats(seq, mi_bins) } else { SweepStats::default() };
    for (slot, &function) in out.iter_mut().zip(functions) {
        *slot = match function {
            MetaFunction::Mean => tracked.map_or(s.mean, |t| t.mean),
            MetaFunction::StdDev => tracked.map_or(s.std_dev, |t| t.std_dev),
            MetaFunction::Skew => tracked.map_or(s.skewness, |t| t.skewness),
            MetaFunction::Kurtosis => tracked.map_or(s.kurtosis, |t| t.kurtosis),
            MetaFunction::Acf1 => ext.map_or(s.acf1, |e| e.acf1),
            MetaFunction::Acf2 => ext.map_or(s.acf2, |e| e.acf2),
            // Durbin–Levinson: pacf(1) is acf(1).
            MetaFunction::Pacf1 => ext.map_or(s.acf1, |e| e.pacf1),
            MetaFunction::Pacf2 => ext.map_or(s.pacf2, |e| e.pacf2),
            MetaFunction::MutualInformation => ext.map_or(s.mi, |e| e.mi),
            MetaFunction::TurningPointRate => ext.map_or(s.tpr, |e| e.tpr),
            MetaFunction::ImfEntropy1 => imf.map_or(0.0, |(a, _)| a),
            MetaFunction::ImfEntropy2 => imf.map_or(0.0, |(_, b)| b),
            MetaFunction::FeatureImportance => {
                unreachable!("feature importance is not a sequence function")
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autocorr::autocorrelation;
    use crate::extractor::SourceSelection;
    use ficsum_classifiers::HoeffdingTree;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
    use ficsum_stream::{FrameWindows, LabeledObservation};

    fn window(rng: &mut Xoshiro256pp, n: usize, d: usize, classes: usize) -> Vec<LabeledObservation> {
        (0..n)
            .map(|_| {
                let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
                let y = rng.random_range(0..classes);
                let l = rng.random_range(0..classes);
                LabeledObservation::new(x, y, l)
            })
            .collect()
    }

    /// Frame windows whose active window `A` holds the last `w` rows of
    /// `rows` (all of them when `w == rows.len()`).
    fn frames_of(rows: &[LabeledObservation], w: usize) -> FrameWindows {
        let mut fw = FrameWindows::new(w, 0, rows[0].features().len());
        for o in rows {
            fw.push(o.features(), o.label(), o.prediction);
        }
        fw
    }

    /// The reference: the stateless extractor on a copy of `rows` whose
    /// predictions were overwritten by `clf`.
    fn relabelled_oracle(
        ex: &FingerprintExtractor,
        rows: &[LabeledObservation],
        clf: &dyn Classifier,
    ) -> Vec<f64> {
        let relabelled: Vec<LabeledObservation> = rows
            .iter()
            .map(|o| {
                let mut o = o.clone();
                o.prediction = clf.predict(o.features());
                o
            })
            .collect();
        ex.extract(&relabelled, Some(clf))
    }

    fn extract(engine: &mut FingerprintEngine, fw: &FrameWindows, clf: &dyn Classifier) -> Vec<f64> {
        let mut out = Vec::new();
        engine.extract_tracked_frames_repredicted_into(&fw.a_tracked(), clf, &mut out);
        out
    }

    fn trained_tree(rng: &mut Xoshiro256pp, d: usize) -> HoeffdingTree {
        let mut tree = HoeffdingTree::new(d, 2);
        for _ in 0..2000 {
            let y = rng.random_range(0..2usize);
            let mut x: Vec<f64> = (0..d).map(|_| rng.random()).collect();
            x[0] += 2.0 * y as f64;
            tree.train(&x, y);
        }
        tree
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn incremental(emd_stride: u32) -> ExtractionMode {
        ExtractionMode { incremental: true, emd_stride }
    }

    #[test]
    fn batch_mode_matches_extractor_on_relabelled_window() {
        // Windows that have evicted rows as well as freshly filled ones.
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let ex = FingerprintExtractor::full(4);
        let mut engine = FingerprintEngine::new(ex.clone());
        let tree = trained_tree(&mut rng, 4);
        for trial in 0..5 {
            let rows = window(&mut rng, 60 + trial * 17, 4, 2);
            let w = 40 + trial * 10;
            let fw = frames_of(&rows, w);
            let want = relabelled_oracle(&ex, &rows[rows.len() - w..], &tree);
            assert_eq!(extract(&mut engine, &fw, &tree), want, "trial {trial}: bit-identical");
        }
    }

    #[test]
    fn batch_mode_matches_extractor_on_ablation_variants() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let variants = [
            FingerprintExtractor::error_rate_only(3),
            FingerprintExtractor::single_function(3, MetaFunction::Skew),
            FingerprintExtractor::single_function(3, MetaFunction::FeatureImportance),
            FingerprintExtractor::new(
                3,
                MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
                SourceSelection::unsupervised_only(),
                false,
            ),
            FingerprintExtractor::new(
                3,
                MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
                SourceSelection::supervised_only(),
                false,
            ),
        ];
        let tree = trained_tree(&mut rng, 3);
        for ex in variants {
            let mut engine = FingerprintEngine::new(ex.clone());
            let rows = window(&mut rng, 60, 3, 2);
            let fw = frames_of(&rows, rows.len());
            assert_eq!(extract(&mut engine, &fw, &tree), relabelled_oracle(&ex, &rows, &tree));
        }
    }

    #[test]
    fn scanned_sweep_matches_plain_extraction() {
        // The repository-sweep fast path: one static scan of a window,
        // reused across several classifiers, must reproduce the plain
        // extraction bit-for-bit — including when the scan is consumed by
        // a *different* engine instance (the parallel workers).
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let ex = FingerprintExtractor::full(4);
        let mut engine = FingerprintEngine::new(ex.clone());
        let mut worker = FingerprintEngine::new(ex);
        let trees: Vec<HoeffdingTree> = (0..4).map(|_| trained_tree(&mut rng, 4)).collect();
        let mut scan = StaticScan::new();
        for trial in 0..3 {
            let rows = window(&mut rng, 30 + trial * 25, 4, 2);
            let fw = frames_of(&rows, rows.len());
            engine.static_scan_tracked(&fw.a_tracked(), &mut scan);
            for tree in &trees {
                let plain = extract(&mut engine, &fw, tree);
                let mut scanned = Vec::new();
                engine.extract_with_scan(&fw.a_tracked(), &scan, tree, &mut scanned);
                assert_eq!(plain, scanned, "trial {trial}: owner engine diverged");
                let mut other = Vec::new();
                worker.extract_with_scan(&fw.a_tracked(), &scan, tree, &mut other);
                assert_eq!(plain, other, "trial {trial}: worker engine diverged");
            }
        }
    }

    #[test]
    fn sequential_and_parallel_are_bit_identical() {
        // A 20-feature synthetic stream window, extracted sequentially and
        // with a worker pool, must agree on every bit — plain extraction,
        // static scans and scanned sweeps alike.
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let d = 20;
        let mut seq_engine = FingerprintEngine::new(FingerprintExtractor::full(d));
        let mut par_engine = FingerprintEngine::new(FingerprintExtractor::full(d));
        par_engine.set_threads(4);
        assert_eq!(par_engine.threads(), 4);
        let tree = trained_tree(&mut rng, d);
        let (mut seq_scan, mut par_scan) = (StaticScan::new(), StaticScan::new());
        for trial in 0..3 {
            let rows: Vec<LabeledObservation> = (0..100)
                .map(|i| {
                    let x: Vec<f64> = (0..d)
                        .map(|j| (i as f64 * 0.1 + j as f64).sin() + rng.random::<f64>() * 0.3)
                        .collect();
                    let y = rng.random_range(0..2usize);
                    let l = rng.random_range(0..2usize);
                    LabeledObservation::new(x, y, l)
                })
                .collect();
            let fw = frames_of(&rows, rows.len());
            let sequential = extract(&mut seq_engine, &fw, &tree);
            let parallel = extract(&mut par_engine, &fw, &tree);
            assert_eq!(sequential, parallel, "trial {trial}");
            seq_engine.static_scan_tracked(&fw.a_tracked(), &mut seq_scan);
            par_engine.static_scan_tracked(&fw.a_tracked(), &mut par_scan);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            seq_engine.extract_with_scan(&fw.a_tracked(), &seq_scan, &tree, &mut a);
            par_engine.extract_with_scan(&fw.a_tracked(), &par_scan, &tree, &mut b);
            assert_eq!(a, b, "scanned trial {trial}");
            assert_eq!(a, sequential, "scanned vs plain, trial {trial}");
        }
    }

    #[test]
    fn worker_pool_is_sized_from_the_covered_sources() {
        // A scanned sweep evaluates only the 3 prediction-dependent
        // sources, so an 8-thread engine runs it on 3 workers; a plain
        // extraction of d + 4 = 10 sources uses all 8.
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let d = 6;
        let fw = frames_of(&window(&mut rng, 80, d, 2), 80);
        let tree = trained_tree(&mut rng, d);
        let mut scan = StaticScan::new();
        FingerprintEngine::new(FingerprintExtractor::full(d))
            .static_scan_tracked(&fw.a_tracked(), &mut scan);
        let mut engine = FingerprintEngine::new(FingerprintExtractor::full(d));
        engine.set_threads(8);
        let mut out = Vec::new();
        engine.extract_with_scan(&fw.a_tracked(), &scan, &tree, &mut out);
        assert_eq!(engine.workers.len(), 3);
        assert_eq!(out, extract(&mut engine, &fw, &tree), "scanned vs plain");
        assert_eq!(engine.workers.len(), 8);
    }

    #[test]
    fn incremental_stats_match_batch_closely() {
        let mut rng = Xoshiro256pp::seed_from_u64(41);
        let d = 3;
        let ex = FingerprintExtractor::full(d);
        let mut fast = FingerprintEngine::new(ex.clone()).with_mode(incremental(1));
        let mut batch = FingerprintEngine::new(ex);
        let tree = trained_tree(&mut rng, d);
        let mut fw = FrameWindows::new(50, 10, d);
        fw.enable_stats(8);
        let mut out_fast = Vec::new();
        let mut out_batch = Vec::new();
        for step in 0..220 {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
            fw.push(&x, rng.random_range(0..2usize), rng.random_range(0..2usize));
            if step % 13 != 0 || step < 5 {
                continue;
            }
            for tag in 0..2 {
                let tracked = if tag == 0 {
                    fw.a_tracked()
                } else {
                    if fw.stale_len() == 0 {
                        continue;
                    }
                    fw.stale_tracked()
                };
                fast.extract_tracked_frames_repredicted_into(&tracked, &tree, &mut out_fast);
                batch.extract_tracked_frames_repredicted_into(&tracked, &tree, &mut out_batch);
                assert_eq!(out_fast.len(), out_batch.len());
                for (i, (t, b)) in out_fast.iter().zip(&out_batch).enumerate() {
                    assert!(
                        (t - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "step {step} tag {tag} dim {i}: batch {b} vs incremental {t}"
                    );
                }
                let nf = MetaFunction::SEQUENCE_FUNCTIONS.len();
                // The substituted MI / turning-point dims and the cached
                // (stride-1) EMD dims must be bit-identical, per source.
                for s in 0..(d + 4) {
                    for f in [8usize, 9, 10, 11] {
                        assert_eq!(
                            out_fast[s * nf + f].to_bits(),
                            out_batch[s * nf + f].to_bits(),
                            "step {step} tag {tag} source {s} fn {f}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_stats_parallel_matches_sequential() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let d = 4;
        let ex = FingerprintExtractor::full(d);
        let tree = trained_tree(&mut rng, d);
        let mut seq_engine = FingerprintEngine::new(ex.clone()).with_mode(incremental(3));
        let mut par_engine = FingerprintEngine::new(ex).with_mode(incremental(3));
        par_engine.set_threads(3);
        let rows = window(&mut rng, 60, d, 2);
        let mut fw = FrameWindows::new(40, 5, d);
        fw.enable_stats(8);
        for o in &rows {
            fw.push(o.features(), o.label(), o.prediction);
        }
        for _ in 0..10 {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
            fw.push(&x, rng.random_range(0..2usize), 0);
            let a = extract(&mut seq_engine, &fw, &tree);
            let b = extract(&mut par_engine, &fw, &tree);
            assert_eq!(a, b, "cache decisions must be scheduling-independent");
        }
    }

    #[test]
    fn emd_stride_reuses_then_refreshes() {
        let mut rng = Xoshiro256pp::seed_from_u64(43);
        let d = 2;
        let stride = 3u32;
        let ex = FingerprintExtractor::full(d);
        let tree = trained_tree(&mut rng, d);
        let mut engine = FingerprintEngine::new(ex.clone()).with_mode(incremental(stride));
        assert_eq!(engine.mode(), incremental(stride));
        assert!(engine.incremental_stats());
        let mut batch = FingerprintEngine::new(ex);
        let mut fw = FrameWindows::new(30, 0, d);
        fw.enable_stats(8);
        for _ in 0..40 {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
            fw.push(&x, rng.random_range(0..2usize), 0);
        }
        let nf = MetaFunction::SEQUENCE_FUNCTIONS.len();
        let emd_dims: Vec<usize> =
            (0..d + 4).flat_map(|s| [s * nf + 10, s * nf + 11]).collect();
        let first = extract(&mut engine, &fw, &tree);
        let mut refreshed = false;
        for round in 1..=(stride as usize) {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
            fw.push(&x, rng.random_range(0..2usize), 0);
            let out = extract(&mut engine, &fw, &tree);
            let fresh = extract(&mut batch, &fw, &tree);
            let stale = emd_dims.iter().all(|&i| out[i].to_bits() == first[i].to_bits());
            let exact = emd_dims.iter().all(|&i| out[i].to_bits() == fresh[i].to_bits());
            if round < stride as usize {
                assert!(stale, "round {round}: within budget, entropies must be reused");
            } else {
                assert!(exact, "round {round}: stride exhausted, entropies must refresh");
                refreshed = true;
            }
            // Non-EMD dims always track the live window.
            assert!(
                out.iter().zip(&fresh).enumerate().all(|(i, (a, b))| {
                    emd_dims.contains(&i) || (a - b).abs() <= 1e-9 * (1.0 + b.abs())
                }),
                "round {round}: substituted stats must track the window"
            );
        }
        assert!(refreshed);
        // After invalidation the very next extraction re-sifts.
        let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
        fw.push(&x, rng.random_range(0..2usize), 0);
        engine.invalidate_emd_cache();
        let out = extract(&mut engine, &fw, &tree);
        let fresh = extract(&mut batch, &fw, &tree);
        for &i in &emd_dims {
            assert_eq!(out[i].to_bits(), fresh[i].to_bits(), "dim {i} after invalidate");
        }
    }

    #[test]
    fn content_hash_separates_integer_valued_windows() {
        // Every binary window of length 16: with only the top 12 hash bits
        // depending on the data, these would collide by pigeonhole.
        let mut seen = std::collections::HashSet::new();
        for bits in 0u32..1 << 16 {
            let seq: Vec<f64> = (0..16).map(|i| ((bits >> i) & 1) as f64).collect();
            assert!(seen.insert(hash_seq(&seq)), "collision at {bits:#x}");
        }
    }

    /// `engine` with `workers` worker scratches whose memos are bypassed:
    /// every EMD is sifted afresh.
    fn without_memo(mut engine: FingerprintEngine, workers: usize) -> FingerprintEngine {
        engine.workers = (0..workers)
            .map(|_| SourceScratch {
                memo: EmdMemo { bypass: true, ..EmdMemo::default() },
                ..SourceScratch::default()
            })
            .collect();
        engine
    }

    /// Overwrites the entropies of every entry the engine's memos hold
    /// with `marker`, so an extraction that reads the memo shows it.
    fn poison_memos(engine: &mut FingerprintEngine, marker: (f64, f64)) -> usize {
        let mut n = 0;
        for w in &mut engine.workers {
            for e in &mut w.memo.entries[..w.memo.filled] {
                e.vals = marker;
                n += 1;
            }
        }
        n
    }

    /// Indices of the two IMF-entropy dimensions of source `s` in a full
    /// extractor's output.
    fn emd_dims_of(s: usize) -> [usize; 2] {
        let nf = MetaFunction::SEQUENCE_FUNCTIONS.len();
        [s * nf + 10, s * nf + 11]
    }

    #[test]
    fn memo_never_returns_a_colliding_entry() {
        let mut rng = Xoshiro256pp::seed_from_u64(51);
        let config = EmdConfig::default();
        let mut scratch = EmdScratch::new();
        for n in [2usize, 9, 75] {
            let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0..3usize) as f64).collect();
            let mut other = xs.clone();
            other[n / 2] += 1.0;
            let want = imf_entropies_scratch(&xs, &config, &mut scratch);
            // Plant `other` under `xs`'s hash and length, with entropies no
            // sifting produces; then the exact entry with a marker.
            let mut memo = EmdMemo { config: Some(config), ..EmdMemo::new() };
            memo.insert(&other, hash_seq(&xs), (-7.0, -7.0));
            let got = memo.imf_entropies(&xs, &config, &mut scratch);
            assert_eq!((got.0.to_bits(), got.1.to_bits()), (want.0.to_bits(), want.1.to_bits()));
            let mut memo = EmdMemo { config: Some(config), ..EmdMemo::new() };
            memo.insert(&xs, hash_seq(&xs), (-7.0, -7.0));
            assert_eq!(memo.imf_entropies(&xs, &config, &mut scratch), (-7.0, -7.0), "n {n}");
            // The same content under another configuration is sifted again.
            let coarse = EmdConfig { entropy_bins: 4, ..config };
            let fresh = imf_entropies_scratch(&xs, &coarse, &mut scratch);
            assert_eq!(memo.imf_entropies(&xs, &coarse, &mut scratch), fresh, "n {n}");
        }
    }

    #[test]
    fn memo_is_bounded_and_first_in_first_out() {
        let config = EmdConfig::default();
        let mut scratch = EmdScratch::new();
        let mut memo = EmdMemo::new();
        // Distinct by their first value.
        let seqs: Vec<Vec<f64>> = (0..EMD_MEMO_CAPACITY + 3)
            .map(|k| (0..20).map(|i| if i == 0 { k as f64 } else { (i % 5) as f64 }).collect())
            .collect();
        for seq in &seqs {
            memo.imf_entropies(seq, &config, &mut scratch);
        }
        assert_eq!(memo.entries.len(), EMD_MEMO_CAPACITY);
        assert_eq!(memo.filled, EMD_MEMO_CAPACITY);
        // The three oldest were overwritten; the rest are still held.
        for (k, seq) in seqs.iter().enumerate() {
            assert_eq!(memo.get(seq, hash_seq(seq)).is_some(), k >= 3, "sequence {k}");
        }
        assert!(memo.entries.iter().all(|e| e.seq.capacity() >= 20));
    }

    #[test]
    fn memo_does_not_change_extraction() {
        let mut rng = Xoshiro256pp::seed_from_u64(52);
        let d = 4;
        let ex = FingerprintExtractor::full(d);
        let trees: Vec<HoeffdingTree> = (0..3).map(|_| trained_tree(&mut rng, d)).collect();
        for threads in [1usize, 3] {
            let mut memo = FingerprintEngine::new(ex.clone());
            let mut bare = without_memo(FingerprintEngine::new(ex.clone()), threads);
            memo.set_threads(threads);
            bare.set_threads(threads);
            let (mut scan_m, mut scan_b) = (StaticScan::new(), StaticScan::new());
            let mut fw = frames_of(&window(&mut rng, 50, d, 2), 50);
            for trial in 0..6 {
                // Odd trials repeat the previous window, so the memo serves
                // whole extractions as well as single sources.
                if trial % 2 == 0 {
                    let rows = window(&mut rng, 50 + trial * 5, d, 2);
                    fw = frames_of(&rows, rows.len());
                }
                for tree in &trees {
                    let (a, b) = (extract(&mut memo, &fw, tree), extract(&mut bare, &fw, tree));
                    assert_eq!(bits(&a), bits(&b), "threads {threads}, trial {trial}");
                }
                memo.static_scan_tracked(&fw.a_tracked(), &mut scan_m);
                bare.static_scan_tracked(&fw.a_tracked(), &mut scan_b);
                for tree in &trees {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    memo.extract_with_scan(&fw.a_tracked(), &scan_m, tree, &mut a);
                    bare.extract_with_scan(&fw.a_tracked(), &scan_b, tree, &mut b);
                    assert_eq!(bits(&a), bits(&b), "scanned, threads {threads}, trial {trial}");
                }
            }
            assert!(memo.workers.iter().any(|w| w.memo.filled > 0));
            assert!(bare.workers.iter().all(|w| w.memo.filled == 0));
        }
    }

    #[test]
    fn memo_does_not_change_incremental_extraction() {
        let mut rng = Xoshiro256pp::seed_from_u64(53);
        let d = 3;
        let ex = FingerprintExtractor::full(d);
        let tree = trained_tree(&mut rng, d);
        for threads in [1usize, 2] {
            let mode = incremental(4);
            let mut memo = FingerprintEngine::new(ex.clone()).with_mode(mode);
            let mut bare =
                without_memo(FingerprintEngine::new(ex.clone()), threads).with_mode(mode);
            memo.set_threads(threads);
            bare.set_threads(threads);
            let mut fw = FrameWindows::new(40, 8, d);
            fw.enable_stats(8);
            for step in 0..160 {
                // Runs of repeated rows make whole windows recur.
                let x: Vec<f64> = (0..d).map(|j| ((step / 3 + j) % 4) as f64).collect();
                fw.push(&x, (step / 5) % 2, 0);
                if step % 7 != 0 {
                    continue;
                }
                if step % 21 == 0 {
                    memo.invalidate_emd_cache();
                    bare.invalidate_emd_cache();
                }
                let (a, b) = (extract(&mut memo, &fw, &tree), extract(&mut bare, &fw, &tree));
                assert_eq!(bits(&a), bits(&b), "threads {threads}, step {step}");
            }
        }
    }

    #[test]
    fn every_sift_path_consults_the_memo_and_invalidation_keeps_it() {
        let mut rng = Xoshiro256pp::seed_from_u64(54);
        let d = 2;
        let ex = FingerprintExtractor::full(d);
        let tree = trained_tree(&mut rng, d);
        let marker = (-3.0, -4.0);
        let rows = window(&mut rng, 60, d, 2);
        let fw = frames_of(&rows, rows.len());
        let is_marked = |out: &[f64], s: usize| {
            let [i, j] = emd_dims_of(s);
            (out[i], out[j]) == marker
        };
        // Batch extraction.
        let mut engine = FingerprintEngine::new(ex.clone());
        let _ = extract(&mut engine, &fw, &tree);
        assert!(poison_memos(&mut engine, marker) > 0);
        let out = extract(&mut engine, &fw, &tree);
        assert!((0..d + 4).all(|s| is_marked(&out, s)), "batch path must read the memo");
        // A scanned sweep's prediction-dependent sources.
        let mut scan = StaticScan::new();
        let mut engine = FingerprintEngine::new(ex.clone());
        engine.static_scan_tracked(&fw.a_tracked(), &mut scan);
        let mut out = Vec::new();
        engine.extract_with_scan(&fw.a_tracked(), &scan, &tree, &mut out);
        poison_memos(&mut engine, marker);
        engine.extract_with_scan(&fw.a_tracked(), &scan, &tree, &mut out);
        assert!((d + 1..d + 4).all(|s| is_marked(&out, s)), "dynamic pass must read the memo");
        assert!((0..d + 1).all(|s| !is_marked(&out, s)), "static dims come from the scan");
        // Incremental mode: an unchanged window is served by its slots;
        // after invalidation the slots miss and the kept memo serves it.
        let mut fw = FrameWindows::new(60, 0, d);
        fw.enable_stats(8);
        for o in &rows {
            fw.push(o.features(), o.label(), o.prediction);
        }
        let mut engine = FingerprintEngine::new(ex).with_mode(incremental(4));
        let first = extract(&mut engine, &fw, &tree);
        poison_memos(&mut engine, marker);
        assert_eq!(bits(&extract(&mut engine, &fw, &tree)), bits(&first), "slots hit first");
        engine.invalidate_emd_cache();
        let out = extract(&mut engine, &fw, &tree);
        assert!((0..d + 4).all(|s| is_marked(&out, s)), "memo must survive invalidation");
    }

    #[test]
    fn per_source_timing_covers_sequential_and_parallel_paths() {
        use ficsum_obs::MonotonicClock;
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let d = 6;
        let fw = frames_of(&window(&mut rng, 80, d, 2), 80);
        let tree = trained_tree(&mut rng, d);
        for threads in [1, 3] {
            let mut engine = FingerprintEngine::new(FingerprintExtractor::full(d));
            engine.set_threads(threads);
            assert!(!engine.timing_enabled());
            assert!(engine.source_timings().is_empty());
            engine.set_clock(Some(Arc::new(MonotonicClock::new())));
            assert!(engine.timing_enabled());
            let _ = extract(&mut engine, &fw, &tree);
            let _ = extract(&mut engine, &fw, &tree);
            assert_eq!(engine.timed_extractions(), 2, "threads={threads}");
            let timings = engine.source_timings();
            assert_eq!(timings.len(), d + 4, "one slot per behaviour source");
            assert!(
                timings.iter().any(|(_, n)| *n > 0),
                "threads={threads}: wall clock must attribute some cost"
            );
            engine.reset_timings();
            assert_eq!(engine.timed_extractions(), 0);
            assert!(engine.source_timings().iter().all(|(_, n)| *n == 0));
        }
    }

    #[test]
    fn timing_does_not_perturb_extraction_values() {
        use ficsum_obs::ManualClock;
        let mut rng = Xoshiro256pp::seed_from_u64(22);
        let fw = frames_of(&window(&mut rng, 60, 3, 2), 60);
        let tree = trained_tree(&mut rng, 3);
        let mut plain = FingerprintEngine::new(FingerprintExtractor::full(3));
        let mut timed = FingerprintEngine::new(FingerprintExtractor::full(3));
        timed.set_clock(Some(Arc::new(ManualClock::new())));
        assert_eq!(extract(&mut plain, &fw, &tree), extract(&mut timed, &fw, &tree));
    }

    /// A Hoeffding tree that counts the frames it is asked to predict.
    #[derive(Clone)]
    struct Counting {
        tree: HoeffdingTree,
        calls: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Counting {
        fn calls(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }

        fn count(&self) {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Classifier for Counting {
        fn predict(&self, x: &[f64]) -> usize {
            self.count();
            self.tree.predict(x)
        }
        fn predict_with(&self, x: &[f64], proba: &mut Vec<f64>) -> usize {
            self.count();
            self.tree.predict_with(x, proba)
        }
        fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
            self.tree.predict_proba(x)
        }
        fn train(&mut self, x: &[f64], y: usize) {
            self.tree.train(x, y);
        }
        fn n_classes(&self) -> usize {
            self.tree.n_classes()
        }
        fn n_features(&self) -> usize {
            self.tree.n_features()
        }
        fn n_trained(&self) -> usize {
            self.tree.n_trained()
        }
        fn reset(&mut self) {
            self.tree.reset();
        }
        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(self.clone())
        }
        fn contributions_with(
            &self,
            x: &[f64],
            out: &mut Vec<f64>,
            proba: &mut Vec<f64>,
        ) -> Option<usize> {
            self.count();
            self.tree.contributions_with(x, out, proba)
        }
    }

    #[test]
    fn keyed_check_pairs_match_memo_free_extraction() {
        // Drift checks as the framework makes them: each step pushes a
        // frame and trains the classifier, and every third step extracts
        // `B` then `A` under that step's key. Between the two, unkeyed
        // extractions through another classifier must leave the memo be.
        let mut rng = Xoshiro256pp::seed_from_u64(71);
        let d = 3;
        let (w, b) = (40usize, 10usize);
        let without_importance = FingerprintExtractor::new(
            d,
            MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
            SourceSelection::all(),
            false,
        );
        for ex in [FingerprintExtractor::full(d), without_importance] {
            let mut keyed = FingerprintEngine::new(ex.clone());
            let mut bare = FingerprintEngine::new(ex.clone());
            let mut clf =
                Counting { tree: trained_tree(&mut rng, d), calls: Arc::new(Default::default()) };
            let other = trained_tree(&mut rng, d);
            let mut scan = StaticScan::new();
            let mut fw = FrameWindows::new(w, b, d);
            let (mut kb, mut ka, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
            let mut pairs = 0;
            for step in 0..400u64 {
                let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
                let y = rng.random_range(0..2usize);
                fw.push(&x, y, 0);
                clf.train(&x, y);
                if step % 3 != 0 || !fw.stale_is_full() {
                    continue;
                }
                let before = clf.calls();
                keyed.extract_keyed_into(&fw.stale_tracked(), &clf, Some(step), &mut kb);
                keyed.extract_tracked_frames_repredicted_into(
                    &fw.a_tracked(),
                    &other,
                    &mut scratch,
                );
                keyed.static_scan_tracked(&fw.a_tracked(), &mut scan);
                keyed.extract_with_scan(&fw.a_tracked(), &scan, &other, &mut scratch);
                keyed.extract_keyed_into(&fw.a_tracked(), &clf, Some(step), &mut ka);
                assert_eq!(clf.calls() - before, w + b, "step {step}: one prediction per frame");
                let want_b = {
                    bare.extract_tracked_frames_repredicted_into(
                        &fw.stale_tracked(),
                        &clf,
                        &mut scratch,
                    );
                    bits(&scratch)
                };
                assert_eq!(bits(&kb), want_b, "step {step}: B");
                bare.extract_tracked_frames_repredicted_into(&fw.a_tracked(), &clf, &mut scratch);
                assert_eq!(bits(&ka), bits(&scratch), "step {step}: A");
                pairs += 1;
            }
            assert!(pairs > 100);
        }
    }

    #[test]
    fn repeated_key_reuses_every_frame_and_a_new_key_none() {
        let mut rng = Xoshiro256pp::seed_from_u64(72);
        let d = 2;
        let clf = Counting { tree: trained_tree(&mut rng, d), calls: Arc::new(Default::default()) };
        let rows = window(&mut rng, 70, d, 2);
        let mut fw = FrameWindows::new(50, 20, d);
        for o in &rows {
            fw.push(o.features(), o.label(), o.prediction);
        }
        let mut engine = FingerprintEngine::new(FingerprintExtractor::full(d));
        let mut out = Vec::new();
        engine.extract_keyed_into(&fw.a_tracked(), &clf, Some(1), &mut out);
        assert_eq!(clf.calls(), 50);
        let first = bits(&out);
        engine.extract_keyed_into(&fw.a_tracked(), &clf, Some(1), &mut out);
        assert_eq!((clf.calls(), bits(&out)), (50, first.clone()), "same key: all memoised");
        engine.extract_keyed_into(&fw.stale_tracked(), &clf, Some(1), &mut out);
        assert_eq!(clf.calls(), 70, "only B's 20 frames older than A are new");
        engine.extract_keyed_into(&fw.a_tracked(), &clf, Some(2), &mut out);
        assert_eq!((clf.calls(), bits(&out)), (120, first), "a new key predicts afresh");
        engine.extract_keyed_into(&fw.a_tracked(), &clf, None, &mut out);
        assert_eq!(clf.calls(), 170, "no key, no memo");
    }

    #[test]
    fn degenerate_window_policy() {
        // DESIGN.md "Degenerate windows": what every meta-function returns
        // on windows too short or too flat to measure, through the engine
        // and the stateless extractor alike. The classifier always
        // predicts class 0, so the labels fix the error sources.
        use ficsum_classifiers::MajorityClass;
        let clf = MajorityClass::new(1, 2);
        let ex = FingerprintExtractor::full(1);
        let nf = MetaFunction::SEQUENCE_FUNCTIONS.len();
        // Sources of a one-feature extractor.
        let (x0, y, l, err, dist) = (0usize, 1, 2, 3, 4);
        const ALL: [usize; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        // Function indices: 0 mean, 1 std, 2 skew, 3 kurtosis, 4 acf1,
        // 5 acf2, 6 pacf1, 7 pacf2, 8 mi, 9 tpr, 10 imf1, 11 imf2.
        let rows = |xs: &[f64], labels: &[usize]| -> Vec<LabeledObservation> {
            xs.iter().zip(labels).map(|(&x, &y)| LabeledObservation::new(vec![x], y, 0)).collect()
        };
        let ramp: Vec<f64> = (0..20).map(|i| ((i * 7) % 5) as f64 - 1.5).collect();
        let mut two_errors = vec![0usize; 20];
        (two_errors[3], two_errors[10]) = (1, 1);
        let mut one_error = vec![0usize; 20];
        one_error[7] = 1;
        let r1_of_3 = autocorrelation(&[1.0, 4.0, 2.0], 1);
        // (case, window, [(source, functions, value)]): every listed
        // function of the source must read exactly `value`.
        type Expect = (usize, &'static [usize], f64);
        let cases: Vec<(&str, Vec<LabeledObservation>, Vec<Expect>)> = vec![
            (
                "n = 1",
                rows(&[2.5], &[1]),
                vec![
                    (x0, &[0], 2.5),
                    (x0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0),
                    (dist, &ALL, 0.0),
                ],
            ),
            (
                "n = 2",
                rows(&[1.0, 4.0], &[0, 1]),
                vec![
                    (x0, &[0], 2.5),
                    (x0, &[1], 1.5),
                    (x0, &[2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0),
                ],
            ),
            (
                "n = 3",
                rows(&[1.0, 4.0, 2.0], &[0, 1, 0]),
                vec![
                    (x0, &[3, 5, 8, 10, 11], 0.0),
                    (x0, &[4, 6], r1_of_3),
                    (x0, &[7], -(r1_of_3 * r1_of_3) / (1.0 - r1_of_3 * r1_of_3)),
                    (x0, &[9], 1.0),
                ],
            ),
            (
                "constant 3.5",
                rows(&[3.5; 20], &[0; 20]),
                vec![(x0, &[0], 3.5), (x0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0)],
            ),
            (
                "constant -0.0",
                rows(&[-0.0; 20], &[0; 20]),
                vec![(x0, &[0], -0.0), (x0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0)],
            ),
            (
                "constant 1e6",
                rows(&[1e6; 20], &[0; 20]),
                vec![(x0, &[0], 1e6), (x0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0)],
            ),
            // Every label 1 against a class-0 classifier: labels and
            // errors constant 1, error distances 19 ones, predictions
            // constant 0.
            (
                "one class, every frame wrong",
                rows(&ramp, &[1; 20]),
                vec![
                    (y, &[0], 1.0),
                    (y, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0),
                    (l, &ALL, 0.0),
                    (err, &[0], 1.0),
                    (err, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0),
                    (dist, &[0], 1.0),
                    (dist, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0),
                ],
            ),
            (
                "no error",
                rows(&ramp, &[0; 20]),
                vec![(y, &ALL, 0.0), (err, &ALL, 0.0), (dist, &ALL, 0.0)],
            ),
            ("one error", rows(&ramp, &one_error), vec![(dist, &ALL, 0.0)]),
            (
                "two errors",
                rows(&ramp, &two_errors),
                vec![(dist, &[0], 7.0), (dist, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0)],
            ),
        ];
        let mut engine = FingerprintEngine::new(ex.clone());
        for (case, window, expect) in &cases {
            let fw = frames_of(window, window.len());
            let paths = [
                ("engine", extract(&mut engine, &fw, &clf)),
                ("extractor", relabelled_oracle(&ex, window, &clf)),
            ];
            for (path, out) in &paths {
                for &(source, functions, value) in expect {
                    for &f in functions {
                        let got = out[source * nf + f];
                        assert_eq!(
                            got.to_bits(),
                            value.to_bits(),
                            "{case}, {path}: source {source} function {f} is {got}, want {value}"
                        );
                    }
                }
            }
        }
        // A zero `1 - r1^2` PACF denominator: no finite window reaches
        // |r1| = 1 (the sum of squares exceeds the lag-1 sum by half of
        // d0^2 + dn^2 + the squared steps), so the gate is pinned here.
        for r2 in [0.3, -1.0, 1.0] {
            assert_eq!(crate::autocorr::pacf2_from(1.0, r2), 0.0);
            assert_eq!(crate::autocorr::pacf2_from(-1.0, r2), 0.0);
        }
    }

    /// The drift-check period the record tests schedule extractions at.
    const GAP: usize = 3;

    fn stride(emd_stride: u32) -> ExtractionMode {
        ExtractionMode { incremental: false, emd_stride }
    }

    /// The IMF-entropy bits of the classifier-independent sources (the `d`
    /// features, then the labels) of a full extractor's source section.
    fn static_imf(out: &[f64], d: usize) -> Vec<[u64; 2]> {
        (0..=d).map(|s| emd_dims_of(s).map(|i| out[i].to_bits())).collect()
    }

    /// The same bits sifted exactly from `window`'s own sequences.
    fn sifted_imf(window: &TrackedFrames<'_>, config: &EmdConfig) -> Vec<[u64; 2]> {
        let mut scratch = EmdScratch::new();
        let d = window.dims();
        (0..=d)
            .map(|s| {
                let seq: Vec<f64> = (0..window.len())
                    .map(|i| if s < d { window.features(i)[s] } else { window.label(i) as f64 })
                    .collect();
                let (a, b) = imf_entropies_scratch(&seq, config, &mut scratch);
                [a.to_bits(), b.to_bits()]
            })
            .collect()
    }

    fn reused(engine: &FingerprintEngine) -> Vec<u64> {
        engine.emd_counts().iter().map(|(_, c)| c.reused).collect()
    }

    /// Whether static source `s`'s `got` bits were sifted on a window
    /// ending within `reach` frames of `pos` (`by_end[p]` holds the exact
    /// bits of the window ending at `p`).
    fn sifted_within(
        by_end: &[Vec<[u64; 2]>],
        pos: u64,
        reach: u64,
        s: usize,
        got: [u64; 2],
    ) -> bool {
        let lo = pos.saturating_sub(reach).max(1);
        let hi = (pos + reach).min(by_end.len() as u64 - 1);
        (lo..=hi).any(|p| by_end[p as usize][s] == got)
    }

    #[test]
    fn records_keep_every_value_within_the_stride_bound() {
        // The framework's schedule: a check every `GAP` pushes extracts `B`
        // (once full) and then `A` (outside the cooldown); every 25 pushes
        // a static scan of `A`; now and then a drift clears the buffer,
        // invalidates the cadence and starts a `w + b` cooldown. Every
        // static IMF value `B` uses, and every one a scan reads from a
        // record, must equal the exact sifting of a window ending within
        // `(stride - 1) * GAP` frames of the window it serves.
        for emd_stride in [2u32, 4] {
            let mut rng = Xoshiro256pp::seed_from_u64(80 + emd_stride as u64);
            let (d, w, b) = (2, 30, 7);
            let reach = u64::from(emd_stride - 1) * GAP as u64;
            let ex = FingerprintExtractor::full(d);
            let tree = trained_tree(&mut rng, d);
            let mut engine = FingerprintEngine::new(ex.clone()).with_mode(stride(emd_stride));
            engine.set_check_geometry(GAP, b);
            let mut fw = FrameWindows::new(w, b, d);
            let mut by_end: Vec<Vec<[u64; 2]>> = vec![Vec::new()];
            let (mut out, mut scan) = (Vec::new(), StaticScan::new());
            let (mut cooldown_until, mut b_checks, mut b_stale, mut scan_reads) = (0, 0, 0, 0);
            for t in 1..=700u64 {
                let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
                fw.push(&x, rng.random_range(0..2usize), 0);
                by_end.push(sifted_imf(&fw.a_tracked(), ex.emd_config()));
                let check = t.is_multiple_of(GAP as u64);
                if check && fw.stale_is_full() {
                    let window = fw.stale_tracked();
                    engine.extract_keyed_into(&window, &tree, Some(t), &mut out);
                    let q = window.end_position();
                    for (s, got) in static_imf(&out, d).into_iter().enumerate() {
                        let near = sifted_within(&by_end, q, reach, s, got);
                        assert!(near, "stride {emd_stride}, t {t}: B source {s}");
                        b_stale += (by_end[q as usize][s] != got) as usize;
                    }
                    b_checks += 1;
                }
                if check && t >= cooldown_until {
                    engine.extract_keyed_into(&fw.a_tracked(), &tree, Some(t), &mut out);
                }
                if t.is_multiple_of(25) {
                    let before = reused(&engine);
                    engine.static_scan_tracked(&fw.a_tracked(), &mut scan);
                    let after = reused(&engine);
                    for (s, got) in static_imf(&scan.vals, d).into_iter().enumerate() {
                        if after[s] > before[s] {
                            scan_reads += 1;
                            let near = sifted_within(&by_end, t, reach, s, got);
                            assert!(near, "stride {emd_stride}, t {t}: scan source {s}");
                        }
                    }
                }
                if t > 100 && rng.random_range(0..150usize) == 0 {
                    engine.invalidate_emd_cache();
                    fw.clear_buffer();
                    cooldown_until = t + (w + b) as u64;
                }
            }
            assert!(
                b_checks > 150 && b_stale > 0 && scan_reads > 0,
                "stride {emd_stride}: {b_checks} {b_stale} {scan_reads}"
            );
            let dynamic_reads = reused(&engine).iter().skip(d + 1).sum::<u64>();
            assert_eq!(dynamic_reads, 0, "dynamic sources keep their slots");
        }
    }

    #[test]
    fn stride_one_never_reads_or_writes_a_record() {
        // A check geometry changes nothing at stride 1: every extraction of
        // `B` and `A`, keyed, scanned or plain, stays bit-identical to the
        // stateless extractor on the relabelled window.
        let mut rng = Xoshiro256pp::seed_from_u64(81);
        let (d, w, b) = (2, 30, 7);
        let ex = FingerprintExtractor::full(d);
        let tree = trained_tree(&mut rng, d);
        let mut engine = FingerprintEngine::new(ex.clone());
        engine.set_check_geometry(GAP, b);
        let mut fw = FrameWindows::new(w, b, d);
        let mut rows = Vec::new();
        let (mut out, mut scan) = (Vec::new(), StaticScan::new());
        for t in 1..=120u64 {
            let o = window(&mut rng, 1, d, 2).pop().unwrap();
            fw.push(o.features(), o.label(), o.prediction);
            rows.push(o);
            if !t.is_multiple_of(GAP as u64) || !fw.stale_is_full() {
                continue;
            }
            let n = rows.len();
            engine.extract_keyed_into(&fw.stale_tracked(), &tree, Some(t), &mut out);
            assert_eq!(bits(&out), bits(&relabelled_oracle(&ex, &rows[n - b - w..n - b], &tree)));
            let want_a = bits(&relabelled_oracle(&ex, &rows[n - w..], &tree));
            engine.extract_keyed_into(&fw.a_tracked(), &tree, Some(t), &mut out);
            assert_eq!(bits(&out), want_a, "t {t}: A");
            engine.static_scan_tracked(&fw.a_tracked(), &mut scan);
            engine.extract_with_scan(&fw.a_tracked(), &scan, &tree, &mut out);
            assert_eq!(bits(&out), want_a, "t {t}: scanned A");
        }
        assert_eq!(engine.emd_cadence.records.filled, 0, "no record written");
        assert!(reused(&engine).iter().all(|&n| n == 0), "no record read");
    }

    #[test]
    fn b_without_a_record_in_reach_follows_its_own_cadence() {
        // After a drift (cadence invalidated, buffer cleared) `A` is not
        // checked, so `B` refills with no record in reach: it must re-sift
        // and reuse on its own slot's cadence, exactly as an engine with
        // no records at all does under the same calls.
        let mut rng = Xoshiro256pp::seed_from_u64(82);
        let (d, w, b) = (2, 30, 7);
        let ex = FingerprintExtractor::full(d);
        let tree = trained_tree(&mut rng, d);
        let mut engine = FingerprintEngine::new(ex.clone()).with_mode(stride(2));
        engine.set_check_geometry(GAP, b);
        let mut plain = FingerprintEngine::new(ex).with_mode(stride(2));
        let mut fw = FrameWindows::new(w, b, d);
        let (mut out, mut want, mut prev) = (Vec::new(), Vec::new(), Vec::new());
        let (mut differed, mut cooldown_checks, mut cooldown_reuses) = (false, 0, 0);
        let drift_at = 150u64;
        for t in 1..=drift_at + 120 {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
            fw.push(&x, rng.random_range(0..2usize), 0);
            if t == drift_at {
                for e in [&mut engine, &mut plain] {
                    e.invalidate_emd_cache();
                }
                fw.clear_buffer();
            }
            if !t.is_multiple_of(GAP as u64) {
                continue;
            }
            let reused_before = reused(&engine);
            if fw.stale_is_full() {
                engine.extract_keyed_into(&fw.stale_tracked(), &tree, Some(t), &mut out);
                plain.extract_keyed_into(&fw.stale_tracked(), &tree, Some(t), &mut want);
                if t < drift_at {
                    differed |= bits(&out) != bits(&want);
                } else {
                    assert_eq!(bits(&out), bits(&want), "t {t}: cooldown B follows its own slot");
                    assert_eq!(reused(&engine), reused_before, "t {t}: no record read");
                    cooldown_reuses += (static_imf(&out, d) == static_imf(&prev, d)) as usize;
                    cooldown_checks += 1;
                }
                prev.clone_from(&out);
            }
            if t < drift_at {
                engine.extract_keyed_into(&fw.a_tracked(), &tree, Some(t), &mut out);
                plain.extract_keyed_into(&fw.a_tracked(), &tree, Some(t), &mut want);
            }
        }
        assert!(differed, "before the drift B read A's records");
        assert!(cooldown_checks > 10 && cooldown_reuses > 0, "{cooldown_checks} {cooldown_reuses}");
    }

    #[test]
    fn invalidation_keeps_the_records() {
        // Static content does not depend on the classifier, so a classifier
        // switch leaves the drift check's records readable: right after
        // `invalidate_emd_cache`, a scan of the same `A` reads the record
        // its check just wrote, sifting nothing.
        let mut rng = Xoshiro256pp::seed_from_u64(83);
        let d = 2;
        let tree = trained_tree(&mut rng, d);
        let mut engine = FingerprintEngine::new(FingerprintExtractor::full(d)).with_mode(stride(2));
        engine.set_check_geometry(GAP, 5);
        let fw = frames_of(&window(&mut rng, 60, d, 2), 40);
        let mut out = Vec::new();
        engine.extract_keyed_into(&fw.a_tracked(), &tree, Some(1), &mut out);
        engine.invalidate_emd_cache();
        let sifted: Vec<u64> = engine.emd_counts().iter().map(|(_, c)| c.sifted).collect();
        let mut scan = StaticScan::new();
        engine.static_scan_tracked(&fw.a_tracked(), &mut scan);
        assert_eq!(static_imf(&scan.vals, d), static_imf(&out, d));
        assert_eq!(reused(&engine)[..=d], vec![1; d + 1]);
        let after: Vec<u64> = engine.emd_counts().iter().map(|(_, c)| c.sifted).collect();
        assert_eq!(sifted, after, "a record read sifts nothing");
    }

    #[test]
    fn repeated_extraction_reuses_buffers() {
        // Not a direct allocation count (no custom allocator available),
        // but the scratch buffers must retain capacity between calls.
        let mut rng = Xoshiro256pp::seed_from_u64(16);
        let mut engine = FingerprintEngine::new(FingerprintExtractor::full(2));
        let fw = frames_of(&window(&mut rng, 80, 2, 2), 80);
        let tree = trained_tree(&mut rng, 2);
        let _ = extract(&mut engine, &fw, &tree);
        let caps: Vec<usize> = engine.seqs.iter().map(Vec::capacity).collect();
        let _ = extract(&mut engine, &fw, &tree);
        let caps_after: Vec<usize> = engine.seqs.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps_after, "sequence buffers must be reused");
    }
}
