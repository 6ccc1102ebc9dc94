//! Cross-detector behavioural suite: every detector is exercised on the
//! same scenarios (abrupt jump, gradual ramp, long stationarity) and must
//! satisfy the same contract: bounded false alarms under stationarity and
//! bounded delay after a large abrupt change.

use ficsum_drift::{Adwin, DetectorState, DriftDetector, Eddm};
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

fn detectors() -> Vec<(&'static str, Box<dyn DriftDetector>)> {
    vec![("ADWIN", Box::new(Adwin::new(0.002))), ("EDDM", Box::new(Eddm::default()))]
}

/// Bernoulli error stream with rate `p`.
fn bernoulli(rng: &mut Xoshiro256pp, p: f64) -> f64 {
    if rng.random::<f64>() < p {
        1.0
    } else {
        0.0
    }
}

#[test]
fn abrupt_jump_is_detected_by_every_detector() {
    for (name, mut det) in detectors() {
        let mut rng = Xoshiro256pp::seed_from_u64(101);
        for _ in 0..3000 {
            det.add(bernoulli(&mut rng, 0.05));
        }
        let mut delay = None;
        for i in 0..3000 {
            if det.add(bernoulli(&mut rng, 0.6)) == DetectorState::Drift {
                delay = Some(i);
                break;
            }
        }
        let delay = delay.unwrap_or_else(|| panic!("{name} missed a 0.05 -> 0.6 jump"));
        assert!(delay < 1500, "{name} took {delay} observations");
    }
}

#[test]
fn long_stationary_streams_rarely_alarm() {
    for (name, mut det) in detectors() {
        let mut rng = Xoshiro256pp::seed_from_u64(202);
        let mut alarms = 0;
        for _ in 0..20_000 {
            if det.add(bernoulli(&mut rng, 0.2)) == DetectorState::Drift {
                alarms += 1;
            }
        }
        // EDDM's high-water-mark scheme is known to fire spuriously at
        // moderate error rates (its own paper targets low-error regimes);
        // across seeds it alarms tens of times per 20k at p = 0.2, so it
        // gets a documented looser budget (< 0.5% of observations).
        let budget = if name == "EDDM" { 100 } else { 3 };
        assert!(alarms <= budget, "{name} false-alarmed {alarms} times in 20k");
    }
}

#[test]
fn gradual_ramp_is_eventually_detected_by_adwin() {
    // EDDM is weaker on slow ramps; the mean-based ADWIN must fire.
    let mut det = Adwin::new(0.002);
    let mut rng = Xoshiro256pp::seed_from_u64(303);
    let mut fired = false;
    for i in 0..12_000 {
        let p = 0.05 + 0.45 * (i as f64 / 12_000.0);
        if det.add(bernoulli(&mut rng, p)) == DetectorState::Drift {
            fired = true;
            break;
        }
    }
    assert!(fired, "ADWIN missed the gradual ramp");
}

#[test]
fn reset_restores_fresh_behaviour() {
    for (name, mut det) in detectors() {
        let mut rng = Xoshiro256pp::seed_from_u64(404);
        for _ in 0..1000 {
            det.add(bernoulli(&mut rng, 0.4));
        }
        det.reset();
        assert_eq!(det.state(), DetectorState::Stable, "{name} state after reset");
        // A freshly reset detector should survive a short quiet stream.
        for _ in 0..200 {
            assert_ne!(
                det.add(0.0),
                DetectorState::Drift,
                "{name} alarmed immediately after reset"
            );
        }
    }
}

#[test]
fn adwin_window_shrinks_at_change_and_grows_in_stationarity() {
    let mut adwin = Adwin::new(0.002);
    let mut rng = Xoshiro256pp::seed_from_u64(505);
    for _ in 0..4000 {
        adwin.add(bernoulli(&mut rng, 0.1));
    }
    let before = adwin.width();
    for _ in 0..1500 {
        adwin.add(bernoulli(&mut rng, 0.8));
    }
    assert!(adwin.n_detections() >= 1, "change must be detected");
    assert!(adwin.width() < before, "window must shrink after the cut");
}
