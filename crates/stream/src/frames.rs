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
//! it as *views by age*. Only when statistics are enabled does it also
//! keep, per window, a [`StatBank`]: the incremental feature/label
//! [`Moments`] and [`SeqStats`] the fingerprint engine substitutes in
//! incremental mode. Batch windows keep neither, so their push is one ring
//! write. [`TrackedFrames`] is the one read view of a window: its frames by
//! age, paired with the window's bank when there is one.

use crate::stats::Moments;
use crate::winstats::SeqStats;

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
    fn features_at_age(&self, age: usize) -> &[f64] {
        let at = self.slot_of_age(age) * self.dims;
        &self.features[at..at + self.dims]
    }

    /// Label of the frame `age` pushes ago.
    fn label_at_age(&self, age: usize) -> usize {
        self.labels[self.slot_of_age(age)]
    }

    /// Prediction of the frame `age` pushes ago.
    fn prediction_at_age(&self, age: usize) -> usize {
        self.preds[self.slot_of_age(age)]
    }

    /// The ring slots holding ages `[newest_age, newest_age + len)`,
    /// oldest first, as at most two contiguous slot ranges (the second is
    /// non-empty only when the window wraps past the end of the ring).
    fn slot_ranges(&self, newest_age: usize, len: usize) -> [std::ops::Range<usize>; 2] {
        if len == 0 {
            return [0..0, 0..0];
        }
        let start = self.slot_of_age(newest_age + len - 1);
        let first_end = (start + len).min(self.rows);
        [start..first_end, 0..len - (first_end - start)]
    }

    /// Feature `j` of the frames with ages `[newest_age, newest_age +
    /// len)`, oldest first, written into `out` (cleared first). Walks the
    /// ring slots directly: one index computation per call, not per frame.
    pub fn gather_feature(&self, newest_age: usize, len: usize, j: usize, out: &mut Vec<f64>) {
        debug_assert!(j < self.dims);
        out.clear();
        for slots in self.slot_ranges(newest_age, len) {
            out.extend(slots.map(|slot| self.features[slot * self.dims + j]));
        }
    }

    /// Labels of the frames with ages `[newest_age, newest_age + len)`,
    /// oldest first, as `f64`, written into `out` (cleared first).
    pub fn gather_labels(&self, newest_age: usize, len: usize, out: &mut Vec<f64>) {
        out.clear();
        for slots in self.slot_ranges(newest_age, len) {
            out.extend(self.labels[slots].iter().map(|&y| y as f64));
        }
    }
}

/// A borrowed, age-addressed window over a [`FrameStore`], paired with its
/// window's statistic bank when the windows keep one — what the
/// fingerprint engine extracts from. Index `0` = oldest, `len - 1` =
/// newest: the iteration order every extraction pass uses. Cheap to copy
/// and safe to share across threads.
#[derive(Debug, Clone, Copy)]
pub struct TrackedFrames<'a> {
    store: &'a FrameStore,
    newest_age: usize,
    len: usize,
    bank: Option<&'a StatBank>,
    tag: usize,
}

impl<'a> TrackedFrames<'a> {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feature dimensionality of each frame.
    pub fn dims(&self) -> usize {
        self.store.dims
    }

    fn age_of(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        self.newest_age + self.len - 1 - i
    }

    /// Feature row of frame `i` (oldest-first indexing).
    pub fn features(&self, i: usize) -> &'a [f64] {
        self.store.features_at_age(self.age_of(i))
    }

    /// Ground-truth label of frame `i`.
    pub fn label(&self, i: usize) -> usize {
        self.store.label_at_age(self.age_of(i))
    }

    /// Prequential prediction recorded with frame `i`.
    pub fn prediction(&self, i: usize) -> usize {
        self.store.prediction_at_age(self.age_of(i))
    }

    /// The window's incremental moments and sequence statistics, `None`
    /// unless the windows keep them ([`FrameWindows::enable_stats`]).
    pub fn bank(&self) -> Option<&'a StatBank> {
        self.bank
    }

    /// Age of the window's newest frame (0 for `A`, `b` for `B`): frame `i`
    /// is `newest_age() + len() - 1 - i` pushes old, so two windows of one
    /// ring position address a shared frame by the same age.
    pub fn newest_age(&self) -> usize {
        self.newest_age
    }

    /// The window's end position in the stream: how many frames had been
    /// pushed when its newest frame arrived (`pushed - newest_age`). `A`
    /// and `B` of one ring position end `b` apart, and `B` now ends where
    /// `A` ended `b` pushes ago, so positions compare windows across
    /// steps. 0 for a `B` that no frame has reached yet.
    pub fn end_position(&self) -> u64 {
        self.store.pushed().saturating_sub(self.newest_age as u64)
    }

    /// Which window of Algorithm 1 this is (0 = active `A`, 1 = stale
    /// `B`); keys the engine's per-window result caches.
    pub fn window_tag(&self) -> usize {
        self.tag
    }
}

/// One sequence's incremental state: its [`Moments`] and its
/// [`SeqStats`], stepped and rebuilt together.
#[derive(Debug, Clone)]
struct Tracked {
    moments: Moments,
    stats: SeqStats,
}

impl Tracked {
    fn new(bins: usize) -> Self {
        Self { moments: Moments::new(), stats: SeqStats::new(bins) }
    }

    fn reset(&mut self) {
        self.moments.reset();
        self.stats.reset();
    }

    /// Admits `v` and retires `evict`'s outgoing value (see
    /// [`SeqStats::step`] for the arguments).
    fn step(
        &mut self,
        v: f64,
        p1: Option<f64>,
        p2: Option<f64>,
        evict: Option<(f64, Option<f64>, Option<f64>)>,
    ) {
        self.moments.push(v);
        if let Some((x0, _, _)) = evict {
            self.moments.remove(x0);
        }
        self.stats.step(v, p1, p2, evict);
    }

    /// Exact rebuild from the window's values, oldest first.
    fn rebuild(&mut self, col: &[f64]) {
        self.moments.reset();
        for &v in col {
            self.moments.push(v);
        }
        self.stats.rebuild(col);
    }

    /// Whether the statistics asked for a rebuild (histogram edge moved,
    /// non-finite values just left the window) or their shift reference
    /// drifted ≥ 16 sigma from the window mean (see
    /// [`SeqStats::shift_drifted`]).
    fn stats_stale(&self) -> bool {
        let (s, m) = (&self.stats, &self.moments);
        s.needs_rebuild() || (s.is_valid() && s.shift_drifted(m.mean(), m.sum_sq_dev()))
    }
}

/// One window's bank of incremental statistics: [`Moments`] and
/// [`SeqStats`] for each feature dimension and for the label sequence.
/// Only these classifier-independent sequences are banked: extraction
/// re-predicts every window through the current classifier, so push-time
/// predictions and errors are never read.
#[derive(Debug, Clone)]
pub struct StatBank {
    feat: Vec<Tracked>,
    label: Tracked,
    /// Evictions since the last full rebuild.
    evictions: usize,
}

impl StatBank {
    fn new(dims: usize, bins: usize) -> Self {
        Self { feat: vec![Tracked::new(bins); dims], label: Tracked::new(bins), evictions: 0 }
    }

    fn reset(&mut self) {
        for t in &mut self.feat {
            t.reset();
        }
        self.label.reset();
        self.evictions = 0;
    }

    /// Moment accumulator for feature dimension `j`.
    pub fn feature_moments(&self, j: usize) -> &Moments {
        &self.feat[j].moments
    }

    /// Moment accumulator for the label sequence.
    pub fn label_moments(&self) -> &Moments {
        &self.label.moments
    }

    /// Sequence statistics for feature dimension `j`.
    pub fn feature_stats(&self, j: usize) -> &SeqStats {
        &self.feat[j].stats
    }

    /// Sequence statistics for the label sequence.
    pub fn label_stats(&self) -> &SeqStats {
        &self.label.stats
    }

    /// O(1) maintenance for one frame entering this window of capacity
    /// `w`, whose `len` frames sit at ages `[newest_age, newest_age + len)`:
    /// the row `g` with label `g_label` enters at the newest end and, when
    /// the window is full, the frame `newest_age + w - 1` pushes old
    /// leaves. Ring reads use pre-push ages, so the outgoing rows are
    /// still readable. The post-append sequence is `[x_0 .. x_{w-1}, g]`,
    /// so for tiny windows the evicted value's successors fall back to the
    /// incoming value itself.
    fn step(
        &mut self,
        store: &FrameStore,
        w: usize,
        newest_age: usize,
        len: usize,
        g: &[f64],
        g_label: usize,
    ) {
        let o = newest_age;
        let p1 = (len >= 1).then(|| store.features_at_age(o));
        let p2 = (len >= 2).then(|| store.features_at_age(o + 1));
        let ev = (len == w).then(|| {
            (
                store.features_at_age(o + w - 1),
                (w >= 2).then(|| store.features_at_age(o + w - 2)),
                (w >= 3).then(|| store.features_at_age(o + w - 3)),
            )
        });
        for (j, t) in self.feat.iter_mut().enumerate() {
            let v = g[j];
            let evict = ev.map(|(x0, x1, x2)| {
                let x1 = x1.map_or(Some(v), |r| Some(r[j]));
                let x2 = x2.map(|r| r[j]).or((w == 2).then_some(v));
                (x0[j], x1, x2)
            });
            t.step(v, p1.map(|r| r[j]), p2.map(|r| r[j]), evict);
        }
        let v = g_label as f64;
        let evict = (len == w).then(|| {
            let x1 = if w >= 2 { Some(store.label_at_age(o + w - 2) as f64) } else { Some(v) };
            let x2 = if w >= 3 {
                Some(store.label_at_age(o + w - 3) as f64)
            } else {
                (w == 2).then_some(v)
            };
            (store.label_at_age(o + w - 1) as f64, x1, x2)
        });
        self.label.step(
            v,
            (len >= 1).then(|| store.label_at_age(o) as f64),
            (len >= 2).then(|| store.label_at_age(o + 1) as f64),
            evict,
        );
        self.evictions += usize::from(len == w);
    }

    /// Exact rebuild of every sequence from the window with the given ring
    /// coordinates, gathering each column into `col` first.
    fn rebuild(&mut self, store: &FrameStore, newest_age: usize, len: usize, col: &mut Vec<f64>) {
        for (j, t) in self.feat.iter_mut().enumerate() {
            store.gather_feature(newest_age, len, j, col);
            t.rebuild(col);
        }
        store.gather_labels(newest_age, len, col);
        self.label.rebuild(col);
        self.evictions = 0;
    }

    /// Post-push pass: the scheduled full rebuild every
    /// [`FrameWindows::REBUILD_INTERVAL`] evictions (downdating is exact in
    /// infinite precision but accretes rounding error over unbounded
    /// insert/evict cycles, and the rebuild also refreshes the cross-sums'
    /// shift reference), then a rebuild of each stale statistic.
    fn refresh(&mut self, store: &FrameStore, newest_age: usize, len: usize, col: &mut Vec<f64>) {
        if self.evictions >= FrameWindows::REBUILD_INTERVAL {
            self.rebuild(store, newest_age, len, col);
        }
        for (j, t) in self.feat.iter_mut().enumerate() {
            if t.stats_stale() {
                store.gather_feature(newest_age, len, j, col);
                t.stats.rebuild(col);
            }
        }
        if self.label.stats_stale() {
            store.gather_labels(newest_age, len, col);
            self.label.stats.rebuild(col);
        }
    }
}

/// Both windows' stat banks, boxed so disabled pipelines pay one pointer.
#[derive(Debug, Clone)]
struct WindowStats {
    bins: usize,
    a: StatBank,
    s: StatBank,
    /// One gathered window column, reused by every bank rebuild.
    column: Vec<f64>,
}

/// Algorithm 1's two windows as views over one shared [`FrameStore`].
///
/// * the active window `A` — the `w` newest frames (ages `[0, w)`),
/// * the stale window `B` — graduates of the delay buffer, frames between
///   `b` and `b + w` steps old (ages `[b, b + w)`),
/// * the holding buffer — the `≤ b` newest frames not yet graduated.
///
/// The windows share one arena of `b + w` rows; pushing a frame is one
/// ring write, with no per-observation allocation. Windows with
/// statistics enabled also step each window's [`StatBank`] on admit and
/// evict. Clearing the buffer after a drift is a logical restart: frames
/// pushed before the clear never graduate.
#[derive(Debug, Clone)]
pub struct FrameWindows {
    store: FrameStore,
    window: usize,
    delay: usize,
    /// `pushed` count at the last buffer clear; frames older than this
    /// never graduate into the stale window.
    s_start: u64,
    stats: Option<Box<WindowStats>>,
}

impl FrameWindows {
    /// Evictions between full rebuilds of a window's stat bank.
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

    /// Pushes one frame into the shared arena, moving both windows
    /// forward. With statistics enabled, each bank admits its incoming
    /// value and retires its outgoing one before the slot overwrite, and
    /// is refreshed after it.
    pub fn push(&mut self, x: &[f64], label: usize, prediction: usize) {
        if self.stats.is_some() {
            self.step_stats(x, label);
        }
        self.store.push(x, label, prediction);
        if self.stats.is_some() {
            self.refresh_stats();
        }
    }

    /// Enables incremental moments and per-sequence statistics over both
    /// windows with a `bins x bins` mutual-information histogram, building
    /// the state from the frames already resident.
    ///
    /// Idempotent when already enabled with the same `bins`: the
    /// continuously-maintained state is kept untouched, which
    /// checkpoint-restore relies on (rebuilding would perturb the
    /// accumulation order and break bit-identical replay).
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
            column: Vec::with_capacity(self.window),
        });
        ws.a.rebuild(&self.store, 0, self.a_len(), &mut ws.column);
        ws.s.rebuild(&self.store, self.delay, self.stale_len(), &mut ws.column);
        self.stats = Some(ws);
    }

    /// Drops the statistic banks; tracked views then carry no bank and
    /// consumers use the batch sweeps.
    pub fn disable_stats(&mut self) {
        self.stats = None;
    }

    /// Histogram resolution of the enabled stat banks, `None` when off.
    pub fn stats_bins(&self) -> Option<usize> {
        self.stats.as_deref().map(|ws| ws.bins)
    }

    /// O(1) stat-bank maintenance for one incoming frame: `A` admits the
    /// frame itself, `B` the frame graduating past age `b` (the incoming
    /// frame when the delay is zero). Runs before the slot overwrite.
    fn step_stats(&mut self, x: &[f64], label: usize) {
        let (w, b) = (self.window, self.delay);
        let (n_a, s_len) = (self.a_len(), self.stale_len());
        let graduates = self.store.pushed - self.s_start >= b as u64;
        let ws = self.stats.as_deref_mut().expect("caller checked stats are enabled");
        let store = &self.store;
        ws.a.step(store, w, 0, n_a, x, label);
        if graduates {
            let (g, g_label) = if b == 0 {
                (x, label)
            } else {
                (store.features_at_age(b - 1), store.label_at_age(b - 1))
            };
            ws.s.step(store, w, b, s_len, g, g_label);
        }
    }

    /// Post-push pass over both banks (see `StatBank::refresh`).
    fn refresh_stats(&mut self) {
        let (a_len, s_len, delay) = (self.a_len(), self.stale_len(), self.delay);
        let Some(ws) = self.stats.as_deref_mut() else { return };
        let WindowStats { a, s, column, .. } = ws;
        a.refresh(&self.store, 0, a_len, column);
        s.refresh(&self.store, delay, s_len, column);
    }

    /// Logically empties the delay buffer and stale window (the ring keeps
    /// its frames; they simply never graduate). The active window is
    /// untouched.
    pub fn clear_buffer(&mut self) {
        self.s_start = self.store.pushed;
        if let Some(ws) = self.stats.as_deref_mut() {
            ws.s.reset();
        }
    }

    /// The active window `A`, oldest first, paired with its stat bank.
    pub fn a_tracked(&self) -> TrackedFrames<'_> {
        self.tracked(0, self.a_len(), self.stats.as_deref().map(|ws| &ws.a), 0)
    }

    /// The stale window `B`, oldest first, paired with its stat bank.
    pub fn stale_tracked(&self) -> TrackedFrames<'_> {
        self.tracked(self.delay, self.stale_len(), self.stats.as_deref().map(|ws| &ws.s), 1)
    }

    fn tracked<'a>(
        &'a self,
        newest_age: usize,
        len: usize,
        bank: Option<&'a StatBank>,
        tag: usize,
    ) -> TrackedFrames<'a> {
        debug_assert!(len == 0 || newest_age + len <= self.store.len());
        TrackedFrames { store: &self.store, newest_age, len, bank, tag }
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

    fn assert_rows(view: &TrackedFrames<'_>, rows: &[Row], what: &str) {
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
        let bank = tracked.bank().expect("stats enabled");
        for j in 0..=d {
            let m = if j < d { bank.feature_moments(j) } else { bank.label_moments() };
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
            frames.enable_stats(4);
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
                assert_rows(&frames.a_tracked(), history.a(), &format!("{at} A"));
                assert_rows(&frames.stale_tracked(), history.stale(), &format!("{at} B"));
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
        assert_eq!(frames.stale_tracked().features(0), &[0.0]);
    }

    #[test]
    fn stale_window_ends_where_the_active_window_ended_b_pushes_ago() {
        let (w, b) = (4, 3);
        let mut frames = FrameWindows::new(w, b, 1);
        let mut a_at = Vec::new();
        for i in 0..20u64 {
            frames.push(&[i as f64], 0, 0);
            let (a, s) = (frames.a_tracked(), frames.stale_tracked());
            assert_eq!(a.end_position(), i + 1, "A ends at the newest push");
            assert_eq!(s.end_position(), (i + 1).saturating_sub(b as u64));
            a_at.push((0..a.len()).map(|k| a.features(k)[0]).collect::<Vec<_>>());
            if frames.stale_is_full() {
                let stale: Vec<f64> = (0..s.len()).map(|k| s.features(k)[0]).collect();
                assert_eq!(stale, a_at[s.end_position() as usize - 1], "push {i}");
            }
        }
    }

    #[test]
    fn stale_window_caps_at_w() {
        let mut frames = FrameWindows::new(2, 1, 1);
        for i in 0..6 {
            frames.push(&[i as f64], 0, 0);
        }
        // Five graduates; the stale window keeps the latest two.
        let view = frames.stale_tracked();
        let vals: Vec<f64> = (0..view.len()).map(|i| view.features(i)[0]).collect();
        assert_eq!(vals, vec![3.0, 4.0]);
        // The active window evicts oldest-first.
        let view = frames.a_tracked();
        let vals: Vec<f64> = (0..view.len()).map(|i| view.features(i)[0]).collect();
        assert_eq!(vals, vec![4.0, 5.0]);
    }

    #[test]
    fn zero_delay_graduates_immediately() {
        let mut frames = FrameWindows::new(4, 0, 1);
        frames.push(&[1.0], 0, 0);
        assert_eq!(frames.stale_len(), 1);
        assert_eq!(frames.holding_len(), 0);
        assert_eq!(frames.stale_tracked().features(0), &[1.0]);
    }

    #[test]
    fn clear_buffer_restarts_the_stale_side_only() {
        let mut frames = FrameWindows::new(3, 3, 1);
        frames.enable_stats(4);
        for i in 0..10 {
            frames.push(&[i as f64], 0, 0);
        }
        frames.clear_buffer();
        assert_eq!(frames.stale_len(), 0);
        assert_eq!(frames.holding_len(), 0);
        let bank = frames.stale_tracked().bank().expect("stats enabled");
        assert_eq!(bank.feature_moments(0).count(), 0);
        assert_eq!(bank.label_moments().count(), 0);
        assert!(frames.a_is_full(), "the active window survives the clear");
        for i in 10..14 {
            frames.push(&[i as f64], 0, 0);
        }
        // Only frames pushed after the clear graduate.
        assert_eq!(frames.stale_len(), 1);
        let bank = frames.stale_tracked().bank().expect("stats enabled");
        assert_eq!(bank.feature_moments(0).mean(), 10.0);
    }

    /// Re-centers a maintained cross-sum around the exact window mean —
    /// the same correction the engine applies at evaluation time.
    fn centered_num(s: &SeqStats, view: &TrackedFrames<'_>, dim: usize, lag: usize) -> f64 {
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
                    (frames.a_tracked(), frames.a_tracked(), frames.a_len()),
                    (frames.stale_tracked(), frames.stale_tracked(), frames.stale_len()),
                ] {
                    let bank = tracked.bank().expect("stats enabled");
                    for j in 0..d {
                        let got = bank.feature_stats(j);
                        assert!(got.is_valid(), "w{w} b{b} step {i} dim {j}");
                        assert_eq!(got.count(), len, "w{w} b{b} step {i} dim {j}");
                        let col: Vec<f64> = (0..len).map(|i| view.features(i)[j]).collect();
                        let mut want = SeqStats::new(4);
                        want.rebuild(&col);
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
                    let got = bank.label_stats();
                    let labels: Vec<f64> = (0..len).map(|i| view.label(i) as f64).collect();
                    let mut want = SeqStats::new(4);
                    want.rebuild(&labels);
                    assert_eq!(got.turning_points(), want.turning_points());
                    assert_eq!(got.joint(), want.joint(), "w{w} b{b} step {i} labels");
                }
            }
        }
    }

    /// Column gathers read exactly what the age-addressed view reads, for
    /// every window position and length, including windows that wrap past
    /// the end of the ring and windows that start on its first slot.
    #[test]
    fn column_gathers_match_view_reads_across_ring_wrap() {
        let (rows, d) = (7usize, 3usize);
        let mut store = FrameStore::new(rows, d);
        let (mut col, mut labels) = (Vec::new(), Vec::new());
        for step in 0..3 * rows {
            let x: Vec<f64> = (0..d).map(|j| step as f64 + 0.25 * j as f64).collect();
            store.push(&x, step % 4, 0);
            let resident = store.len();
            for newest_age in 0..resident {
                for len in 0..=resident - newest_age {
                    let view = TrackedFrames { store: &store, newest_age, len, bank: None, tag: 0 };
                    let at = format!("step {step} age {newest_age} len {len}");
                    for j in 0..d {
                        store.gather_feature(newest_age, len, j, &mut col);
                        let want: Vec<u64> =
                            (0..len).map(|i| view.features(i)[j].to_bits()).collect();
                        let got: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "{at} dim {j}");
                    }
                    store.gather_labels(newest_age, len, &mut labels);
                    let want: Vec<f64> = (0..len).map(|i| view.label(i) as f64).collect();
                    assert_eq!(labels, want, "{at} labels");
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
        let before = frames.a_tracked().bank().unwrap().feature_stats(0).clone();
        // Re-enabling with the same resolution must not touch the state.
        frames.enable_stats(8);
        assert_eq!(frames.a_tracked().bank().unwrap().feature_stats(0), &before);
        assert_eq!(frames.stats_bins(), Some(8));
        frames.disable_stats();
        assert!(frames.a_tracked().bank().is_none());
        assert!(frames.stale_tracked().bank().is_none());
        assert_eq!(frames.stats_bins(), None);
        assert_eq!(frames.a_tracked().window_tag(), 0);
        assert_eq!(frames.stale_tracked().window_tag(), 1);
    }

    /// Windows without statistics carry no bank. Enabling statistics on
    /// windows that already hold frames builds each bank's moments from
    /// the resident frames, oldest first, bit for bit — after a buffer
    /// clear and across ring wraps alike.
    #[test]
    fn enable_stats_builds_moments_from_resident_frames() {
        let (w, b, d) = (5usize, 3usize, 2usize);
        // The ring holds 8 rows: 19 and 23 pushes wrap it twice. A clear
        // at step 17 leaves the stale window empty after 19 pushes and
        // partly refilled after 23.
        for (pushes, clear_at) in [(4, None), (23, None), (19, Some(17)), (23, Some(17))] {
            let mut frames = FrameWindows::new(w, b, d);
            for i in 0..pushes {
                let (x, y, p) = obs(i);
                frames.push(&x, y, p);
                if Some(i) == clear_at {
                    frames.clear_buffer();
                }
            }
            assert!(frames.a_tracked().bank().is_none(), "batch windows keep no bank");
            assert!(frames.stale_tracked().bank().is_none(), "batch windows keep no bank");
            frames.enable_stats(4);
            for (tracked, view) in [
                (frames.a_tracked(), frames.a_tracked()),
                (frames.stale_tracked(), frames.stale_tracked()),
            ] {
                let bank = tracked.bank().expect("stats enabled");
                for j in 0..=d {
                    let mut want = Moments::new();
                    for i in 0..view.len() {
                        want.push(if j < d { view.features(i)[j] } else { view.label(i) as f64 });
                    }
                    let got = if j < d { bank.feature_moments(j) } else { bank.label_moments() };
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{pushes} pushes, clear {clear_at:?}, tag {}, column {j}",
                        tracked.window_tag()
                    );
                }
            }
        }
    }

    #[test]
    fn rebuild_keeps_moments_consistent() {
        // Force many evictions through a tiny window to cross the rebuild
        // interval; the moments must stay equal to a batch recompute.
        let mut frames = FrameWindows::new(10, 1, 1);
        frames.enable_stats(4);
        for i in 0..(FrameWindows::REBUILD_INTERVAL + 50) {
            frames.push(&[(i as f64 * 0.13).sin()], i % 2, 0);
        }
        let view = frames.a_tracked();
        let mean: f64 =
            (0..view.len()).map(|i| view.features(i)[0]).sum::<f64>() / view.len() as f64;
        let bank = frames.a_tracked().bank().expect("stats enabled");
        assert!((bank.feature_moments(0).mean() - mean).abs() < 1e-9);
    }
}
