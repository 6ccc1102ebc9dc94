//! Structure-of-arrays frame storage: the hot-path replacement for
//! per-observation `LabeledObservation` clones.
//!
//! Algorithm 1 pushes every observation into the active window `A` *and*
//! the delayed buffer `B`. Storing each window as a `VecDeque` of owned
//! observations costs two heap-allocated feature vectors per step plus the
//! clone traffic itself — none of which the algorithm needs, because both
//! windows are views over the same most-recent `b + w` frames of the
//! stream.
//!
//! [`FrameStore`] keeps exactly those frames once, as three parallel
//! columns (a flat row-major `f64` feature arena, labels, predictions) in a
//! fixed ring. [`FrameWindows`] layers the two windows of Algorithm 1 over
//! it as *views by age* and maintains the incremental feature/label
//! [`Moments`] (and, optionally, per-sequence [`SeqStats`]) the
//! fingerprint engine substitutes in incremental mode. [`FrameSource`] is
//! the read interface shared by plain ring views and the moment-carrying
//! [`TrackedFrames`].

use crate::stats::Moments;
use crate::winstats::SeqStats;

/// Read access to a window of frames, index `0` = oldest, `len - 1` =
/// newest — the iteration order every extraction pass uses.
pub trait FrameSource {
    /// Number of frames.
    fn len(&self) -> usize;

    /// Feature dimensionality of each frame (0 when empty and unknown).
    fn dims(&self) -> usize;

    /// Feature row of frame `i` (oldest-first indexing).
    fn features(&self, i: usize) -> &[f64];

    /// Ground-truth label of frame `i`.
    fn label(&self, i: usize) -> usize;

    /// Prequential prediction recorded with frame `i`.
    fn prediction(&self, i: usize) -> usize;

    /// Whether the source holds no frames.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fixed-capacity ring of the most recent frames, stored as parallel
/// columns: features in one flat row-major `f64` arena, labels and
/// predictions alongside. Rows are addressed by *age* (0 = newest).
#[derive(Debug, Clone)]
pub struct FrameStore {
    dims: usize,
    rows: usize,
    /// Ring slot the next frame will be written to.
    head: usize,
    /// Total frames ever pushed.
    pushed: u64,
    features: Vec<f64>,
    labels: Vec<usize>,
    preds: Vec<usize>,
}

impl FrameStore {
    /// Ring keeping the `rows` most recent frames of `dims` features each.
    pub fn new(rows: usize, dims: usize) -> Self {
        assert!(rows > 0, "frame store capacity must be positive");
        Self {
            dims,
            rows,
            head: 0,
            pushed: 0,
            features: vec![0.0; rows * dims],
            labels: vec![0; rows],
            preds: vec![0; rows],
        }
    }

    /// Overwrites the oldest slot with a new frame.
    pub fn push(&mut self, x: &[f64], label: usize, prediction: usize) {
        debug_assert_eq!(x.len(), self.dims);
        let at = self.head * self.dims;
        self.features[at..at + self.dims].copy_from_slice(x);
        self.labels[self.head] = label;
        self.preds[self.head] = prediction;
        self.head = (self.head + 1) % self.rows;
        self.pushed += 1;
    }

    /// Frames currently resident (`min(pushed, capacity)`).
    pub fn len(&self) -> usize {
        self.pushed.min(self.rows as u64) as usize
    }

    /// Whether no frame has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Total frames ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Feature dimensionality per frame.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Ring capacity in rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn slot_of_age(&self, age: usize) -> usize {
        debug_assert!(age < self.len(), "age {age} out of {} resident rows", self.len());
        (self.head + self.rows - 1 - age) % self.rows
    }

    /// Feature row of the frame `age` pushes ago (0 = newest).
    pub fn features_at_age(&self, age: usize) -> &[f64] {
        let at = self.slot_of_age(age) * self.dims;
        &self.features[at..at + self.dims]
    }

    /// Label of the frame `age` pushes ago.
    pub fn label_at_age(&self, age: usize) -> usize {
        self.labels[self.slot_of_age(age)]
    }

    /// Prediction of the frame `age` pushes ago.
    pub fn prediction_at_age(&self, age: usize) -> usize {
        self.preds[self.slot_of_age(age)]
    }

    /// A borrowed window over the frames with ages
    /// `[newest_age, newest_age + len)`.
    pub fn view(&self, newest_age: usize, len: usize) -> FrameView<'_> {
        debug_assert!(len == 0 || newest_age + len <= self.len());
        FrameView { store: self, newest_age, len }
    }
}

/// A borrowed, age-addressed window over a [`FrameStore`]; cheap to copy
/// and safe to share across scan worker threads.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    store: &'a FrameStore,
    newest_age: usize,
    len: usize,
}

impl FrameView<'_> {
    fn age_of(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        self.newest_age + self.len - 1 - i
    }
}

impl FrameSource for FrameView<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn dims(&self) -> usize {
        self.store.dims
    }

    fn features(&self, i: usize) -> &[f64] {
        self.store.features_at_age(self.age_of(i))
    }

    fn label(&self, i: usize) -> usize {
        self.store.label_at_age(self.age_of(i))
    }

    fn prediction(&self, i: usize) -> usize {
        self.store.prediction_at_age(self.age_of(i))
    }
}

/// A frame view paired with its window's incremental moments (and, when
/// enabled, its incremental sequence statistics) — what the fingerprint
/// engine extracts from.
#[derive(Debug, Clone, Copy)]
pub struct TrackedFrames<'a> {
    view: FrameView<'a>,
    feat: &'a [Moments],
    label: &'a Moments,
    stats: Option<&'a StatBank>,
    tag: usize,
}

impl FrameSource for TrackedFrames<'_> {
    fn len(&self) -> usize {
        self.view.len()
    }

    fn dims(&self) -> usize {
        self.view.dims()
    }

    fn features(&self, i: usize) -> &[f64] {
        self.view.features(i)
    }

    fn label(&self, i: usize) -> usize {
        self.view.label(i)
    }

    fn prediction(&self, i: usize) -> usize {
        self.view.prediction(i)
    }
}

impl TrackedFrames<'_> {
    /// Moment accumulator for feature dimension `j`.
    pub fn feature_moments(&self, j: usize) -> &Moments {
        &self.feat[j]
    }

    /// Moment accumulator for the label sequence.
    pub fn label_moments(&self) -> &Moments {
        self.label
    }

    /// Sequence statistics for feature dimension `j`, `None` unless the
    /// windows have statistics enabled
    /// ([`FrameWindows::enable_stats`]).
    pub fn feature_stats(&self, j: usize) -> Option<&SeqStats> {
        self.stats.map(|b| &b.feat[j])
    }

    /// Sequence statistics for the label sequence, when enabled.
    pub fn label_stats(&self) -> Option<&SeqStats> {
        self.stats.map(|b| &b.label)
    }

    /// Which window of Algorithm 1 this is (0 = active `A`, 1 = stale
    /// `B`); keys the engine's per-window result caches.
    pub fn window_tag(&self) -> usize {
        self.tag
    }
}

/// One window's bank of incremental sequence statistics: one [`SeqStats`]
/// per feature dimension plus one for the label sequence. Only these
/// classifier-independent sequences are banked: extraction re-predicts
/// every window through the current classifier, so push-time predictions
/// and errors are never read.
#[derive(Debug, Clone)]
pub struct StatBank {
    feat: Vec<SeqStats>,
    label: SeqStats,
}

impl StatBank {
    fn new(dims: usize, bins: usize) -> Self {
        Self { feat: vec![SeqStats::new(bins); dims], label: SeqStats::new(bins) }
    }

    fn reset(&mut self) {
        for s in &mut self.feat {
            s.reset();
        }
        self.label.reset();
    }
}

/// Both windows' stat banks, boxed so disabled pipelines pay one pointer.
#[derive(Debug, Clone)]
struct WindowStats {
    bins: usize,
    a: StatBank,
    s: StatBank,
}

/// Algorithm 1's two windows as views over one shared [`FrameStore`].
///
/// * the active window `A` — the `w` newest frames (ages `[0, w)`),
/// * the stale window `B` — graduates of the delay buffer, frames between
///   `b` and `b + w` steps old (ages `[b, b + w)`),
/// * the holding buffer — the `≤ b` newest frames not yet graduated.
///
/// The windows share one arena of `b + w` rows; pushing a frame is one
/// ring write plus O(d) moment updates, with no per-observation
/// allocation. Moments are updated on admit and evict and rebuilt from
/// the resident frames every [`FrameWindows::REBUILD_INTERVAL`] evictions
/// per window. Clearing the buffer after a drift is a logical restart:
/// frames pushed before the clear never graduate.
#[derive(Debug, Clone)]
pub struct FrameWindows {
    store: FrameStore,
    window: usize,
    delay: usize,
    /// `pushed` count at the last buffer clear; frames older than this
    /// never graduate into the stale window.
    s_start: u64,
    a_feat: Vec<Moments>,
    a_label: Moments,
    a_evictions: usize,
    s_feat: Vec<Moments>,
    s_label: Moments,
    s_evictions: usize,
    stats: Option<Box<WindowStats>>,
}

impl FrameWindows {
    /// Evictions between full rebuilds of a window's moment accumulators:
    /// downdating is exact in infinite precision but accretes rounding
    /// error over unbounded insert/evict cycles.
    pub const REBUILD_INTERVAL: usize = 4096;

    /// Windows of `window` frames with a graduation delay of `delay`
    /// frames, over `dims`-dimensional observations.
    pub fn new(window: usize, delay: usize, dims: usize) -> Self {
        assert!(window > 0, "window capacity must be positive");
        Self {
            store: FrameStore::new(window + delay, dims),
            window,
            delay,
            s_start: 0,
            a_feat: vec![Moments::new(); dims],
            a_label: Moments::new(),
            a_evictions: 0,
            s_feat: vec![Moments::new(); dims],
            s_label: Moments::new(),
            s_evictions: 0,
            stats: None,
        }
    }

    /// Configured window size `w`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Configured delay `b`.
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// Frames currently in the active window `A`.
    pub fn a_len(&self) -> usize {
        self.store.pushed.min(self.window as u64) as usize
    }

    /// Whether `A` has reached capacity.
    pub fn a_is_full(&self) -> bool {
        self.a_len() == self.window
    }

    /// Frames currently in the stale window `B`.
    pub fn stale_len(&self) -> usize {
        (self.store.pushed - self.s_start)
            .saturating_sub(self.delay as u64)
            .min(self.window as u64) as usize
    }

    /// Whether `B` has reached capacity.
    pub fn stale_is_full(&self) -> bool {
        self.stale_len() == self.window
    }

    /// Frames held back in the delay buffer (not yet graduated).
    pub fn holding_len(&self) -> usize {
        (self.store.pushed - self.s_start).min(self.delay as u64) as usize
    }

    /// The backing frame arena.
    pub fn store(&self) -> &FrameStore {
        &self.store
    }

    /// Pushes one frame into the shared arena, updating both windows'
    /// membership and moments. Ring reads of outgoing frames happen before
    /// the slot overwrite; moments admit the new frame, then retire the
    /// outgoing one.
    pub fn push(&mut self, x: &[f64], label: usize, prediction: usize) {
        let (w, b) = (self.window, self.delay);
        let n_a = self.a_len();
        let s_len = self.stale_len();
        let graduates = self.store.pushed - self.s_start >= b as u64;

        for (m, &v) in self.a_feat.iter_mut().zip(x) {
            m.push(v);
        }
        self.a_label.push(label as f64);
        if n_a == w {
            let out = self.store.features_at_age(w - 1);
            for (m, &v) in self.a_feat.iter_mut().zip(out) {
                m.remove(v);
            }
            self.a_label.remove(self.store.label_at_age(w - 1) as f64);
            self.a_evictions += 1;
        }

        if graduates {
            // The frame crossing age `b` enters the stale window; with a
            // zero delay that is the incoming frame itself.
            if b == 0 {
                for (m, &v) in self.s_feat.iter_mut().zip(x) {
                    m.push(v);
                }
                self.s_label.push(label as f64);
            } else {
                let g = self.store.features_at_age(b - 1);
                for (m, &v) in self.s_feat.iter_mut().zip(g) {
                    m.push(v);
                }
                self.s_label.push(self.store.label_at_age(b - 1) as f64);
            }
            if s_len == w {
                let out = self.store.features_at_age(b + w - 1);
                for (m, &v) in self.s_feat.iter_mut().zip(out) {
                    m.remove(v);
                }
                self.s_label.remove(self.store.label_at_age(b + w - 1) as f64);
                self.s_evictions += 1;
            }
        }

        if self.stats.is_some() {
            self.step_stats(x, label, n_a, s_len, graduates);
        }

        self.store.push(x, label, prediction);

        if self.a_evictions >= Self::REBUILD_INTERVAL {
            self.rebuild_a();
        }
        if self.s_evictions >= Self::REBUILD_INTERVAL {
            self.rebuild_s();
        }
        if self.stats.is_some() {
            self.refresh_stats();
        }
    }

    /// Enables incremental per-sequence statistics over both windows with
    /// a `bins x bins` mutual-information histogram, building the state
    /// from the frames already resident.
    ///
    /// Idempotent when already enabled with the same `bins`: the
    /// continuously-maintained state is kept untouched, which
    /// checkpoint-restore relies on (rebuilding would perturb the
    /// cross-sums' accumulation order and break bit-identical replay).
    pub fn enable_stats(&mut self, bins: usize) {
        assert!(bins >= 2, "mutual-information histogram needs at least 2 bins");
        if let Some(ws) = &self.stats {
            if ws.bins == bins {
                return;
            }
        }
        let dims = self.store.dims();
        let mut ws = Box::new(WindowStats {
            bins,
            a: StatBank::new(dims, bins),
            s: StatBank::new(dims, bins),
        });
        rebuild_bank(&self.store, 0, self.a_len(), &mut ws.a);
        rebuild_bank(&self.store, self.delay, self.stale_len(), &mut ws.s);
        self.stats = Some(ws);
    }

    /// Drops the incremental sequence statistics; tracked views fall back
    /// to reporting no stats and consumers use the batch sweeps.
    pub fn disable_stats(&mut self) {
        self.stats = None;
    }

    /// Histogram resolution of the enabled stat banks, `None` when off.
    pub fn stats_bins(&self) -> Option<usize> {
        self.stats.as_deref().map(|ws| ws.bins)
    }

    /// O(1) stat-bank maintenance for one incoming frame. Ring reads use
    /// pre-push ages: the caller runs this before the slot overwrite, so
    /// the outgoing rows are still readable. The neighbour plumbing
    /// mirrors the membership rules of [`FrameWindows::push`] exactly:
    /// for the active window the post-append sequence is
    /// `[x_0 .. x_{w-1}, v]`, so for tiny windows the evicted value's
    /// successors fall back to the incoming value itself.
    fn step_stats(&mut self, x: &[f64], label: usize, n_a: usize, s_len: usize, graduates: bool) {
        let (w, b) = (self.window, self.delay);
        let ws = self.stats.as_deref_mut().expect("caller checked stats are enabled");
        let store = &self.store;

        // Active window A: the incoming frame enters, age w-1 leaves.
        {
            let p1 = (n_a >= 1).then(|| store.features_at_age(0));
            let p2 = (n_a >= 2).then(|| store.features_at_age(1));
            let ev = (n_a == w).then(|| {
                (
                    store.features_at_age(w - 1),
                    (w >= 2).then(|| store.features_at_age(w - 2)),
                    (w >= 3).then(|| store.features_at_age(w - 3)),
                )
            });
            for (j, s) in ws.a.feat.iter_mut().enumerate() {
                let v = x[j];
                let evict = ev.map(|(x0, x1, x2)| {
                    let x1 = x1.map_or(Some(v), |r| Some(r[j]));
                    let x2 = x2.map(|r| r[j]).or((w == 2).then_some(v));
                    (x0[j], x1, x2)
                });
                s.step(v, p1.map(|r| r[j]), p2.map(|r| r[j]), evict);
            }
            let v = label as f64;
            let evict = (n_a == w).then(|| {
                let x1 =
                    if w >= 2 { Some(store.label_at_age(w - 2) as f64) } else { Some(v) };
                let x2 = if w >= 3 {
                    Some(store.label_at_age(w - 3) as f64)
                } else {
                    (w == 2).then_some(v)
                };
                (store.label_at_age(w - 1) as f64, x1, x2)
            });
            ws.a.label.step(
                v,
                (n_a >= 1).then(|| store.label_at_age(0) as f64),
                (n_a >= 2).then(|| store.label_at_age(1) as f64),
                evict,
            );
        }

        // Stale window B: the graduating frame enters (the incoming frame
        // itself when the delay is zero), age b + w - 1 leaves.
        if graduates {
            let gfeat = (b > 0).then(|| store.features_at_age(b - 1));
            let p1 = (s_len >= 1).then(|| store.features_at_age(b));
            let p2 = (s_len >= 2).then(|| store.features_at_age(b + 1));
            let ev = (s_len == w).then(|| {
                (
                    store.features_at_age(b + w - 1),
                    (w >= 2).then(|| store.features_at_age(b + w - 2)),
                    (w >= 3).then(|| store.features_at_age(b + w - 3)),
                )
            });
            for (j, s) in ws.s.feat.iter_mut().enumerate() {
                let g = gfeat.map_or(x[j], |r| r[j]);
                let evict = ev.map(|(x0, x1, x2)| {
                    let x1 = x1.map_or(Some(g), |r| Some(r[j]));
                    let x2 = x2.map(|r| r[j]).or((w == 2).then_some(g));
                    (x0[j], x1, x2)
                });
                s.step(g, p1.map(|r| r[j]), p2.map(|r| r[j]), evict);
            }
            let g = if b == 0 { label as f64 } else { store.label_at_age(b - 1) as f64 };
            let evict = (s_len == w).then(|| {
                let x1 = if w >= 2 {
                    Some(store.label_at_age(b + w - 2) as f64)
                } else {
                    Some(g)
                };
                let x2 = if w >= 3 {
                    Some(store.label_at_age(b + w - 3) as f64)
                } else {
                    (w == 2).then_some(g)
                };
                (store.label_at_age(b + w - 1) as f64, x1, x2)
            });
            ws.s.label.step(
                g,
                (s_len >= 1).then(|| store.label_at_age(b) as f64),
                (s_len >= 2).then(|| store.label_at_age(b + 1) as f64),
                evict,
            );
        }
    }

    /// Post-push pass: rebuilds any stat that requested it (histogram
    /// edge moved, non-finite values just left the window) and resummates
    /// any whose shift reference drifted too far from the window mean.
    fn refresh_stats(&mut self) {
        let a_len = self.a_len();
        let s_len = self.stale_len();
        let delay = self.delay;
        let Some(ws) = self.stats.as_deref_mut() else { return };
        refresh_bank(&self.store, 0, a_len, &mut ws.a, &self.a_feat, &self.a_label);
        refresh_bank(&self.store, delay, s_len, &mut ws.s, &self.s_feat, &self.s_label);
    }

    /// Logically empties the delay buffer and stale window (the ring keeps
    /// its frames; they simply never graduate). The active window is
    /// untouched.
    pub fn clear_buffer(&mut self) {
        self.s_start = self.store.pushed;
        for m in &mut self.s_feat {
            m.reset();
        }
        self.s_label.reset();
        self.s_evictions = 0;
        if let Some(ws) = self.stats.as_deref_mut() {
            ws.s.reset();
        }
    }

    /// View over the active window `A`, oldest first.
    pub fn a_view(&self) -> FrameView<'_> {
        self.store.view(0, self.a_len())
    }

    /// View over the stale window `B`, oldest first.
    pub fn stale_view(&self) -> FrameView<'_> {
        self.store.view(self.delay, self.stale_len())
    }

    /// The active window paired with its incremental moments.
    pub fn a_tracked(&self) -> TrackedFrames<'_> {
        TrackedFrames {
            view: self.a_view(),
            feat: &self.a_feat,
            label: &self.a_label,
            stats: self.stats.as_deref().map(|ws| &ws.a),
            tag: 0,
        }
    }

    /// The stale window paired with its incremental moments.
    pub fn stale_tracked(&self) -> TrackedFrames<'_> {
        TrackedFrames {
            view: self.stale_view(),
            feat: &self.s_feat,
            label: &self.s_label,
            stats: self.stats.as_deref().map(|ws| &ws.s),
            tag: 1,
        }
    }

    fn rebuild_a(&mut self) {
        for m in &mut self.a_feat {
            m.reset();
        }
        self.a_label.reset();
        let len = self.a_len();
        let view = self.store.view(0, len);
        for i in 0..view.len() {
            for (m, &v) in self.a_feat.iter_mut().zip(view.features(i)) {
                m.push(v);
            }
            self.a_label.push(view.label(i) as f64);
        }
        self.a_evictions = 0;
        // Scheduled resummation of the stat bank rides the same cadence,
        // refreshing the cross-sums' shift reference to the current mean.
        if let Some(ws) = self.stats.as_deref_mut() {
            rebuild_bank(&self.store, 0, len, &mut ws.a);
        }
    }

    fn rebuild_s(&mut self) {
        for m in &mut self.s_feat {
            m.reset();
        }
        self.s_label.reset();
        let len = self.stale_len();
        let view = self.store.view(self.delay, len);
        for i in 0..view.len() {
            for (m, &v) in self.s_feat.iter_mut().zip(view.features(i)) {
                m.push(v);
            }
            self.s_label.push(view.label(i) as f64);
        }
        self.s_evictions = 0;
        if let Some(ws) = self.stats.as_deref_mut() {
            rebuild_bank(&self.store, self.delay, len, &mut ws.s);
        }
    }
}

/// Exact rebuild of every stat in `bank` from the window with the given
/// ring coordinates.
fn rebuild_bank(store: &FrameStore, newest_age: usize, len: usize, bank: &mut StatBank) {
    for (j, s) in bank.feat.iter_mut().enumerate() {
        let view = store.view(newest_age, len);
        s.rebuild(len, |i| view.features(i)[j]);
    }
    let view = store.view(newest_age, len);
    bank.label.rebuild(len, |i| view.label(i) as f64);
}

/// Rebuilds the stats in `bank` that request it and resummates those whose
/// shift reference drifted ≥ 16 sigma from the window mean (see
/// [`SeqStats::shift_drifted`]).
fn refresh_bank(
    store: &FrameStore,
    newest_age: usize,
    len: usize,
    bank: &mut StatBank,
    feat_moments: &[Moments],
    label_moments: &Moments,
) {
    for (j, s) in bank.feat.iter_mut().enumerate() {
        let m = &feat_moments[j];
        if s.needs_rebuild() || (s.is_valid() && s.shift_drifted(m.mean(), m.sum_sq_dev())) {
            let view = store.view(newest_age, len);
            s.rebuild(len, |i| view.features(i)[j]);
        }
    }
    let m = label_moments;
    let s = &mut bank.label;
    if s.needs_rebuild() || (s.is_valid() && s.shift_drifted(m.mean(), m.sum_sq_dev())) {
        let view = store.view(newest_age, len);
        s.rebuild(len, |i| view.label(i) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Row = (Vec<f64>, usize, usize);

    fn obs(i: usize) -> Row {
        (vec![i as f64, (i as f64 * 0.7).sin()], i % 3, (i + 1) % 3)
    }

    /// Plain-`Vec` reference for Algorithm 1's windows: every frame ever
    /// pushed, in order. `A` is the last `w` rows; the stale window is the
    /// `w` rows before the newest `b`, never reaching back past the last
    /// buffer clear.
    struct History {
        rows: Vec<Row>,
        cleared_at: usize,
        w: usize,
        b: usize,
    }

    impl History {
        fn new(w: usize, b: usize) -> Self {
            Self { rows: Vec::new(), cleared_at: 0, w, b }
        }

        fn push(&mut self, row: Row) {
            self.rows.push(row);
        }

        fn clear_buffer(&mut self) {
            self.cleared_at = self.rows.len();
        }

        fn a(&self) -> &[Row] {
            &self.rows[self.rows.len().saturating_sub(self.w)..]
        }

        fn stale(&self) -> &[Row] {
            let end = self.rows.len().saturating_sub(self.b).max(self.cleared_at);
            let start = end.saturating_sub(self.w).max(self.cleared_at);
            &self.rows[start..end]
        }

        fn holding_len(&self) -> usize {
            (self.rows.len() - self.cleared_at).min(self.b)
        }
    }

    fn assert_rows(view: &FrameView<'_>, rows: &[Row], what: &str) {
        assert_eq!(view.len(), rows.len(), "{what}: length");
        for (j, (x, y, p)) in rows.iter().enumerate() {
            assert_eq!(view.features(j), &x[..], "{what}: row {j} features");
            assert_eq!(view.label(j), *y, "{what}: row {j} label");
            assert_eq!(view.prediction(j), *p, "{what}: row {j} prediction");
        }
    }

    /// Checks a window's incremental moments against a batch sweep of the
    /// same rows: every feature column, then the label sequence.
    fn assert_moments(tracked: &TrackedFrames<'_>, rows: &[Row], what: &str) {
        let d = tracked.dims();
        for j in 0..=d {
            let m = if j < d { tracked.feature_moments(j) } else { tracked.label_moments() };
            let xs: Vec<f64> =
                rows.iter().map(|(x, y, _)| if j < d { x[j] } else { *y as f64 }).collect();
            assert_eq!(m.count() as usize, xs.len(), "{what}: column {j} count");
            if xs.is_empty() {
                continue;
            }
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let ssd: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
            assert!((m.mean() - mean).abs() < 1e-10, "{what}: column {j} mean");
            assert!((m.sum_sq_dev() - ssd).abs() < 1e-9 * (1.0 + ssd), "{what}: column {j} ssd");
        }
    }

    /// Membership, order, moments and fill state of both windows against
    /// the `Vec` history at every step, across a buffer clear.
    #[test]
    fn windows_match_vec_history() {
        for &(w, b) in &[(5usize, 3usize), (6, 4), (1, 0), (3, 0), (2, 5)] {
            let d = 2;
            let mut frames = FrameWindows::new(w, b, d);
            let mut history = History::new(w, b);
            for i in 0..60 {
                let (x, y, p) = obs(i);
                frames.push(&x, y, p);
                history.push((x, y, p));
                if i == 17 {
                    frames.clear_buffer();
                    history.clear_buffer();
                }
                let at = format!("w{w} b{b} step {i}");
                assert_rows(&frames.a_view(), history.a(), &format!("{at} A"));
                assert_rows(&frames.stale_view(), history.stale(), &format!("{at} B"));
                assert_moments(&frames.a_tracked(), history.a(), &format!("{at} A"));
                assert_moments(&frames.stale_tracked(), history.stale(), &format!("{at} B"));
                assert_eq!(frames.holding_len(), history.holding_len(), "{at}: holding");
                assert_eq!(frames.a_is_full(), history.a().len() == w, "{at}");
                assert_eq!(frames.stale_is_full(), history.stale().len() == w, "{at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FrameWindows::new(0, 2, 1);
    }

    #[test]
    fn stale_window_delays_by_b() {
        let mut frames = FrameWindows::new(3, 2, 1);
        for i in 0..2 {
            frames.push(&[i as f64], 0, 0);
        }
        // Nothing has graduated yet: both frames are at most b old.
        assert_eq!(frames.stale_len(), 0);
        assert_eq!(frames.holding_len(), 2);
        frames.push(&[2.0], 0, 0);
        // Frame 0 is now b steps old and graduates.
        assert_eq!(frames.stale_len(), 1);
        assert_eq!(frames.stale_view().features(0), &[0.0]);
    }

    #[test]
    fn stale_window_caps_at_w() {
        let mut frames = FrameWindows::new(2, 1, 1);
        for i in 0..6 {
            frames.push(&[i as f64], 0, 0);
        }
        // Five graduates; the stale window keeps the latest two.
        let view = frames.stale_view();
        let vals: Vec<f64> = (0..view.len()).map(|i| view.features(i)[0]).collect();
        assert_eq!(vals, vec![3.0, 4.0]);
        // The active window evicts oldest-first.
        let view = frames.a_view();
        let vals: Vec<f64> = (0..view.len()).map(|i| view.features(i)[0]).collect();
        assert_eq!(vals, vec![4.0, 5.0]);
    }

    #[test]
    fn zero_delay_graduates_immediately() {
        let mut frames = FrameWindows::new(4, 0, 1);
        frames.push(&[1.0], 0, 0);
        assert_eq!(frames.stale_len(), 1);
        assert_eq!(frames.holding_len(), 0);
        assert_eq!(frames.stale_view().features(0), &[1.0]);
    }

    #[test]
    fn clear_buffer_restarts_the_stale_side_only() {
        let mut frames = FrameWindows::new(3, 3, 1);
        for i in 0..10 {
            frames.push(&[i as f64], 0, 0);
        }
        frames.clear_buffer();
        assert_eq!(frames.stale_len(), 0);
        assert_eq!(frames.holding_len(), 0);
        assert_eq!(frames.stale_tracked().feature_moments(0).count(), 0);
        assert_eq!(frames.stale_tracked().label_moments().count(), 0);
        assert!(frames.a_is_full(), "the active window survives the clear");
        for i in 10..14 {
            frames.push(&[i as f64], 0, 0);
        }
        // Only frames pushed after the clear graduate.
        assert_eq!(frames.stale_len(), 1);
        assert_eq!(frames.stale_tracked().feature_moments(0).mean(), 10.0);
    }

    /// Re-centers a maintained cross-sum around the exact window mean —
    /// the same correction the engine applies at evaluation time.
    fn centered_num(s: &SeqStats, view: &FrameView<'_>, dim: usize, lag: usize) -> f64 {
        let n = view.len();
        let get = |i: usize| view.features(i)[dim];
        let mean = (0..n).map(get).sum::<f64>() / n as f64;
        let k = s.shift();
        let d = mean - k;
        let head: f64 = (0..lag.min(n)).map(|i| get(i) - k).sum();
        let tail: f64 = (n.saturating_sub(lag)..n).map(|i| get(i) - k).sum();
        s.cross_sum(lag) - d * (2.0 * n as f64 * d - head - tail) + (n - lag) as f64 * d * d
    }

    /// The continuously maintained banks must agree with a from-scratch
    /// rebuild at every step — this exercises the neighbour plumbing in
    /// `step_stats` (ring ages, graduation, tiny-window fallbacks) that
    /// the `winstats` unit tests cannot see.
    #[test]
    fn stat_banks_match_fresh_rebuilds_every_step() {
        use crate::rng::{RandomSource, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        for &(w, b) in &[(1usize, 0usize), (2, 1), (3, 2), (6, 4), (8, 0)] {
            let d = 2;
            let mut frames = FrameWindows::new(w, b, d);
            frames.enable_stats(4);
            for i in 0..300 {
                let x = vec![rng.random_range(-3.0..3.0), rng.random_range(0.0..1.0)];
                let y = rng.random_range(0..3usize);
                frames.push(&x, y, 0);
                if i == 140 {
                    frames.clear_buffer();
                }
                for (tracked, view, len) in [
                    (frames.a_tracked(), frames.a_view(), frames.a_len()),
                    (frames.stale_tracked(), frames.stale_view(), frames.stale_len()),
                ] {
                    for j in 0..d {
                        let got = tracked.feature_stats(j).expect("stats enabled");
                        assert!(got.is_valid(), "w{w} b{b} step {i} dim {j}");
                        assert_eq!(got.count(), len, "w{w} b{b} step {i} dim {j}");
                        let mut want = SeqStats::new(4);
                        want.rebuild(len, |i| view.features(i)[j]);
                        assert_eq!(got.turning_points(), want.turning_points());
                        assert_eq!(got.edges(), want.edges(), "w{w} b{b} step {i} dim {j}");
                        assert_eq!(got.joint(), want.joint(), "w{w} b{b} step {i} dim {j}");
                        if len > 2 {
                            for lag in [1usize, 2] {
                                let a = centered_num(got, &view, j, lag);
                                let e = centered_num(&want, &view, j, lag);
                                assert!(
                                    (a - e).abs() <= 1e-9 * (1.0 + e.abs()),
                                    "w{w} b{b} step {i} dim {j} lag {lag}: {a} vs {e}"
                                );
                            }
                        }
                    }
                    let got = tracked.label_stats().expect("stats enabled");
                    let mut want = SeqStats::new(4);
                    want.rebuild(len, |i| view.label(i) as f64);
                    assert_eq!(got.turning_points(), want.turning_points());
                    assert_eq!(got.joint(), want.joint(), "w{w} b{b} step {i} labels");
                }
            }
        }
    }

    #[test]
    fn enable_stats_is_idempotent_and_disable_drops() {
        let mut frames = FrameWindows::new(4, 2, 1);
        for i in 0..10 {
            frames.push(&[i as f64 * 0.3], i % 2, 0);
        }
        frames.enable_stats(8);
        let before = frames.a_tracked().feature_stats(0).unwrap().clone();
        // Re-enabling with the same resolution must not touch the state.
        frames.enable_stats(8);
        assert_eq!(frames.a_tracked().feature_stats(0).unwrap(), &before);
        assert_eq!(frames.stats_bins(), Some(8));
        frames.disable_stats();
        assert!(frames.a_tracked().feature_stats(0).is_none());
        assert!(frames.stale_tracked().label_stats().is_none());
        assert_eq!(frames.stats_bins(), None);
        assert_eq!(frames.a_tracked().window_tag(), 0);
        assert_eq!(frames.stale_tracked().window_tag(), 1);
    }

    #[test]
    fn rebuild_keeps_moments_consistent() {
        // Force many evictions through a tiny window to cross the rebuild
        // interval; the moments must stay equal to a batch recompute.
        let mut frames = FrameWindows::new(10, 1, 1);
        for i in 0..(FrameWindows::REBUILD_INTERVAL + 50) {
            frames.push(&[(i as f64 * 0.13).sin()], i % 2, 0);
        }
        let view = frames.a_view();
        let mean: f64 =
            (0..view.len()).map(|i| view.features(i)[0]).sum::<f64>() / view.len() as f64;
        assert!((frames.a_tracked().feature_moments(0).mean() - mean).abs() < 1e-9);
    }
}
