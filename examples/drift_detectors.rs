//! Compare the two drift detectors on an abrupt error-rate shift: ADWIN,
//! which FiCSUM runs on its similarity stream and HTCD and ARF run on
//! errors, and EDDM, which RCD runs on errors.
//!
//! ```sh
//! cargo run --release --example drift_detectors
//! ```

use ficsum::prelude::*;

fn detect(detector: &mut dyn DriftDetector, name: &str) {
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    // 2000 observations at 10% error, then a jump to 45%.
    let mut detected_at = None;
    for i in 0..4000 {
        let p = if i < 2000 { 0.10 } else { 0.45 };
        let err = if rng.random::<f64>() < p { 1.0 } else { 0.0 };
        if detector.add(err) == DetectorState::Drift && i >= 2000 {
            detected_at = Some(i);
            break;
        }
    }
    match detected_at {
        Some(i) => println!("{name:<8} detected the shift after {} observations", i - 2000),
        None => println!("{name:<8} missed the shift"),
    }
}

fn main() {
    println!("error rate jumps 0.10 -> 0.45 at t=2000\n");
    detect(&mut Adwin::new(0.002), "ADWIN");
    detect(&mut Eddm::default(), "EDDM");
}
