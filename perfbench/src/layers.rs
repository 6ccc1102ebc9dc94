//! Input tapes and the per-layer replays of the traced run.
//!
//! Each replay times calls into one layer's public API from outside, on a
//! workload's own tape: the classifier's `predict_with` + `train`, the
//! frame windows' `push`, and the fingerprint engine's extraction call the
//! pipeline makes at every fingerprint check.

use std::sync::Arc;
use std::time::Instant;

use ficsum_classifiers::{Classifier, HoeffdingTree};
use ficsum_core::{Ficsum, FicsumConfig};
use ficsum_obs::MonotonicClock;
use ficsum_stream::{FrameWindows, StreamSource};
use ficsum_synth::dataset_by_name;

use crate::report::Report;
use crate::stats::{median, quantile};

/// One stream's observations, features stored row-major in one buffer.
#[derive(Debug, Clone)]
pub struct Tape {
    pub dims: usize,
    pub classes: usize,
    features: Vec<f64>,
    labels: Vec<usize>,
}

impl Tape {
    /// The first `steps` observations (all of them when `None`) of the
    /// named dataset generated from `seed`.
    pub fn generate(dataset: &str, seed: u64, steps: Option<usize>) -> Tape {
        let stream = dataset_by_name(dataset, seed).expect("benchmark datasets exist");
        let rows = &stream.observations()[..steps.unwrap_or(usize::MAX).min(stream.len())];
        Tape {
            dims: stream.dims(),
            classes: stream.n_classes(),
            features: rows
                .iter()
                .flat_map(|o| o.features.iter().copied())
                .collect(),
            labels: rows.iter().map(|o| o.label).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn row(&self, i: usize) -> (&[f64], usize) {
        (
            &self.features[i * self.dims..(i + 1) * self.dims],
            self.labels[i],
        )
    }
}

/// Repeats of the classifier and window replays; the median is reported.
const REPEATS: usize = 5;

/// Observations each replay walks, taken from the workload's tapes in
/// order: thousands of extractions while keeping the traced run short.
const REPLAY_STEPS: usize = 9_000;

/// The leading tapes covering about `REPLAY_STEPS` observations.
fn replay_tapes(tapes: &[Tape]) -> &[Tape] {
    let mut steps = 0;
    let covering = tapes.iter().position(|t| {
        steps += t.len();
        steps >= REPLAY_STEPS
    });
    &tapes[..covering.map_or(tapes.len(), |i| i + 1)]
}

/// `classifiers.step_ns`: a prequential `predict_with` + `train` on a
/// fresh Hoeffding tree per tape, per observation. Also returns the
/// replay's predictions, tape by tape, for the window replay.
fn classifier_replay(tapes: &[Tape]) -> (f64, Vec<Vec<usize>>) {
    let steps: usize = tapes.iter().map(Tape::len).sum();
    let mut per_step = Vec::with_capacity(REPEATS);
    let mut predictions = Vec::new();
    for _ in 0..REPEATS {
        predictions = tapes
            .iter()
            .map(|t| Vec::with_capacity(t.len()))
            .collect::<Vec<_>>();
        let mut scratch = Vec::new();
        let start = Instant::now();
        for (tape, preds) in tapes.iter().zip(&mut predictions) {
            let mut clf = HoeffdingTree::new(tape.dims, tape.classes);
            for i in 0..tape.len() {
                let (x, y) = tape.row(i);
                preds.push(clf.predict_with(std::hint::black_box(x), &mut scratch));
                clf.train(x, y);
            }
        }
        per_step.push(start.elapsed().as_nanos() as f64 / steps as f64);
    }
    (median(&per_step), predictions)
}

/// `stream.push_ns`: one `FrameWindows::push` per observation into fresh
/// windows per tape, with the statistic banks on exactly when the
/// pipeline's engine reads them.
fn push_replay(
    tapes: &[Tape],
    config: &FicsumConfig,
    stat_bins: Option<usize>,
    predictions: &[Vec<usize>],
) -> f64 {
    let steps: usize = tapes.iter().map(Tape::len).sum();
    let mut per_push = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let mut windows: Vec<FrameWindows> = tapes
            .iter()
            .map(|t| frame_windows(t, config, stat_bins))
            .collect();
        let start = Instant::now();
        for ((tape, preds), frames) in tapes.iter().zip(predictions).zip(&mut windows) {
            for (i, &p) in preds.iter().enumerate() {
                let (x, y) = tape.row(i);
                frames.push(std::hint::black_box(x), y, p);
            }
        }
        per_push.push(start.elapsed().as_nanos() as f64 / steps as f64);
        std::hint::black_box(&windows);
    }
    median(&per_push)
}

fn frame_windows(tape: &Tape, config: &FicsumConfig, stat_bins: Option<usize>) -> FrameWindows {
    let mut frames = FrameWindows::new(config.window_size, config.buffer_delay(), tape.dims);
    if let Some(bins) = stat_bins {
        frames.enable_stats(bins);
    }
    frames
}

/// Behaviour-source groups the extraction shares are reported under, with
/// the source name each group's sources carry.
const SOURCE_GROUPS: [(&str, &str); 5] = [
    ("features", "x"),
    ("labels", "y"),
    ("predictions", "l"),
    ("errors", "err"),
    ("error_distances", "errdist"),
];

fn source_group(name: &str) -> &'static str {
    if name.starts_with('x') && name.len() > 1 && name[1..].chars().all(|c| c.is_ascii_digit()) {
        return "features";
    }
    SOURCE_GROUPS
        .iter()
        .find(|(_, src)| *src == name)
        .map_or("other", |(group, _)| group)
}

/// `meta.extract_us` and `meta.src_share.*`: the extraction call the
/// pipeline makes at a fingerprint check, on the stale and the active
/// window, through a clone of `pipeline`'s engine (same extractor and
/// extraction mode) with per-source timing switched on.
fn extraction_replay(
    pipeline: &Ficsum,
    tapes: &[Tape],
    config: &FicsumConfig,
    report: &mut Report,
) {
    let mut engine = pipeline.engine().clone();
    engine.set_clock(Some(Arc::new(MonotonicClock::new())));
    engine.reset_timings();
    let (mut scratch, mut fp, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    for tape in tapes {
        let mut frames = frame_windows(tape, config, stat_bins(pipeline));
        let mut clf = HoeffdingTree::new(tape.dims, tape.classes);
        engine.invalidate_emd_cache();
        for i in 0..tape.len() {
            let (x, y) = tape.row(i);
            let p = clf.predict_with(x, &mut scratch);
            clf.train(x, y);
            frames.push(x, y, p);
            if !(i + 1).is_multiple_of(config.fingerprint_gap) || !frames.stale_is_full() {
                continue;
            }
            let start = Instant::now();
            engine.extract_tracked_frames_repredicted_into(&frames.stale_tracked(), &clf, &mut fp);
            calls.push(start.elapsed().as_nanos() as f64 / 1e3);
            let start = Instant::now();
            engine.extract_tracked_frames_repredicted_into(&frames.a_tracked(), &clf, &mut fp);
            calls.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    report.metric("meta.extract_us", quantile(&mut calls, 0.5), "us");
    let timings = engine.source_timings();
    let total: u64 = timings.iter().map(|(_, ns)| ns).sum();
    for (group, _) in SOURCE_GROUPS {
        let ns: u64 = timings
            .iter()
            .filter(|(n, _)| source_group(n) == group)
            .map(|(_, ns)| ns)
            .sum();
        report.metric(
            &format!("meta.src_share.{group}"),
            ns as f64 / total.max(1) as f64,
            "ratio",
        );
    }
}

/// Statistic-bank resolution of the frame windows feeding `pipeline`'s
/// engine: the MI bin count when the engine reads incremental statistics.
fn stat_bins(pipeline: &Ficsum) -> Option<usize> {
    let engine = pipeline.engine();
    engine
        .incremental_stats()
        .then(|| engine.extractor().mi_bins())
}

/// Runs the three layer replays over the leading `tapes`, with the
/// extraction mode and windows of `pipeline` (a freshly built instance of
/// the workload's pipeline), into `report`.
pub fn replay_layers(
    pipeline: &Ficsum,
    tapes: &[Tape],
    config: &FicsumConfig,
    report: &mut Report,
) {
    let tapes = replay_tapes(tapes);
    let (step_ns, predictions) = classifier_replay(tapes);
    report.metric("classifiers.step_ns", step_ns, "ns");
    let push_ns = push_replay(tapes, config, stat_bins(pipeline), &predictions);
    report.metric("stream.push_ns", push_ns, "ns");
    extraction_replay(pipeline, tapes, config, report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_fall_into_their_groups() {
        assert_eq!(source_group("x0"), "features");
        assert_eq!(source_group("x12"), "features");
        assert_eq!(source_group("y"), "labels");
        assert_eq!(source_group("l"), "predictions");
        assert_eq!(source_group("err"), "errors");
        assert_eq!(source_group("errdist"), "error_distances");
        assert_eq!(source_group("xyz"), "other");
    }

    #[test]
    fn replays_cover_enough_leading_tapes() {
        let tapes: Vec<Tape> = (0..5)
            .map(|s| Tape::generate("STAGGER", s, Some(4_000)))
            .collect();
        assert_eq!(replay_tapes(&tapes).len(), 3);
        assert_eq!(replay_tapes(&tapes[..1]).len(), 1);
    }

    #[test]
    fn tapes_are_reproducible_rows() {
        let a = Tape::generate("STAGGER", 7, Some(50));
        let b = Tape::generate("STAGGER", 7, Some(50));
        assert_eq!((a.len(), a.dims, a.classes), (50, 3, 2));
        assert!((0..50).all(|i| a.row(i) == b.row(i)));
    }
}
