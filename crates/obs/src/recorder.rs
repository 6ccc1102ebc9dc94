//! The `Recorder` trait and its no-op / shared adapters.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use crate::event::{Stage, StreamEvent};

/// Sink for everything the pipeline can observe about itself.
///
/// Four signal kinds, mirroring what the paper's analysis consumes
/// (Section V) and what a production deployment would scrape:
///
/// * **events** — typed [`StreamEvent`]s tagged with the observation index
///   `t` at which they happened,
/// * **counters** — monotonically increasing named totals,
/// * **gauges** — last-value-wins named readings,
/// * **spans** — nanosecond durations of the five pipeline [`Stage`]s,
///   aggregated into log-bucketed histograms by retaining recorders.
///
/// All methods have empty default bodies, so a custom recorder implements
/// only what it cares about. [`Recorder::enabled`] lets emitters skip the
/// *preparation* of a signal (clock reads, derived statistics) when the
/// recorder would discard it anyway; correctness must never depend on a
/// signal being delivered.
pub trait Recorder {
    /// Records a typed event at observation index `t`.
    fn event(&mut self, t: u64, event: StreamEvent) {
        let _ = (t, event);
    }

    /// Adds `delta` to the named counter.
    fn counter(&mut self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the named gauge to `value`.
    fn gauge(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records one `stage` execution that took `nanos` nanoseconds.
    fn span(&mut self, stage: Stage, nanos: u64) {
        let _ = (stage, nanos);
    }

    /// Whether this recorder retains anything. Emitters may use `false` to
    /// skip preparing signals (most importantly clock reads for spans).
    fn enabled(&self) -> bool {
        true
    }

    /// Downcasting hook for recorders that expose their retained state
    /// (e.g. [`crate::InMemoryRecorder`]); `None` for write-only sinks.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// The inlined no-op default: records nothing, reports itself disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn event(&mut self, _t: u64, _event: StreamEvent) {}
    #[inline(always)]
    fn counter(&mut self, _name: &str, _delta: u64) {}
    #[inline(always)]
    fn gauge(&mut self, _name: &str, _value: f64) {}
    #[inline(always)]
    fn span(&mut self, _stage: Stage, _nanos: u64) {}
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// A recorder handle that can be held by both the caller and the pipeline:
/// attach `Box::new(shared.clone())` and keep `shared` to inspect results.
pub type SharedRecorder<R> = Rc<RefCell<R>>;

/// Builds a [`SharedRecorder`] around `recorder`.
pub fn shared<R: Recorder>(recorder: R) -> SharedRecorder<R> {
    Rc::new(RefCell::new(recorder))
}

impl<R: Recorder + 'static> Recorder for SharedRecorder<R> {
    fn event(&mut self, t: u64, event: StreamEvent) {
        self.borrow_mut().event(t, event);
    }

    fn counter(&mut self, name: &str, delta: u64) {
        self.borrow_mut().counter(name, delta);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.borrow_mut().gauge(name, value);
    }

    fn span(&mut self, stage: Stage, nanos: u64) {
        self.borrow_mut().span(stage, nanos);
    }

    fn enabled(&self) -> bool {
        self.borrow().enabled()
    }
}

/// Thread-safe sharing for recorders crossed between threads.
impl<R: Recorder + Send + 'static> Recorder for Arc<Mutex<R>> {
    fn event(&mut self, t: u64, event: StreamEvent) {
        self.lock().expect("recorder mutex poisoned").event(t, event);
    }

    fn counter(&mut self, name: &str, delta: u64) {
        self.lock().expect("recorder mutex poisoned").counter(name, delta);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.lock().expect("recorder mutex poisoned").gauge(name, value);
    }

    fn span(&mut self, stage: Stage, nanos: u64) {
        self.lock().expect("recorder mutex poisoned").span(stage, nanos);
    }

    fn enabled(&self) -> bool {
        self.lock().expect("recorder mutex poisoned").enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryRecorder;

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.event(0, StreamEvent::PlasticityReset);
        r.counter("x", 1);
        assert!(r.as_any().is_none());
    }

    #[test]
    fn shared_recorder_forwards_to_the_kept_handle() {
        let keep = shared(InMemoryRecorder::new());
        let mut attached: Box<dyn Recorder> = Box::new(keep.clone());
        attached.counter("drifts", 2);
        attached.event(7, StreamEvent::PlasticityReset);
        assert!(attached.enabled());
        assert_eq!(keep.borrow().counter_value("drifts"), 2);
        assert_eq!(keep.borrow().events().len(), 1);
    }

    #[test]
    fn arc_mutex_recorder_forwards() {
        let keep = Arc::new(Mutex::new(InMemoryRecorder::new()));
        let mut attached: Box<dyn Recorder> = Box::new(keep.clone());
        attached.gauge("g", 1.5);
        assert_eq!(keep.lock().unwrap().gauge_value("g"), Some(1.5));
    }
}
