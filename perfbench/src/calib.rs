//! Host-speed calibration: a fixed piece of work in the benchmark's own
//! code, timed between the program's streams.
//!
//! The host lends this benchmark a share of a machine whose speed moves by
//! a quarter or more over minutes, with on-CPU time equal to wall time (a
//! busy sibling thread or cache neighbour slows every instruction rather
//! than taking the CPU away). A run cannot wait that out, so each stream's
//! wall time is scaled by how fast the reference work ran just before and
//! just after it: `wall * REFERENCE_NOMINAL_S / reference_s`. The reported
//! times are those of a host that runs the reference in
//! [`REFERENCE_NOMINAL_S`]. The reference touches no heap and none of the
//! program's code, so no change to the program can speed it up or slow it
//! down; a faster program still reads faster by exactly its own speed-up.

use std::hint::black_box;
use std::time::Instant;

/// Values sorted and summarised per round, like one window of one source.
const LEN: usize = 256;
/// Rounds per block: 0.15–0.3 ms on a 2.1 GHz Xeon core, as its load varies.
const ROUNDS: usize = 24;
/// Blocks per measurement, of which the median is taken, so that one
/// interrupt or preemption does not read as a slow host.
const BLOCKS: usize = 5;

/// Seconds one reference block takes on a 2.1 GHz Xeon (Sapphire Rapids)
/// VM core at its median load; the unit the scaled times are expressed in.
pub const REFERENCE_NOMINAL_S: f64 = 0.2e-3;

/// The reference work, in the spirit of a fingerprint extraction: fill a
/// window from a fixed generator, sort it, and take moments, a lag-1
/// autocorrelation and a log-entropy of it. Returns a checksum so that
/// none of it is optimised away.
fn reference_work() -> f64 {
    let mut window = [0.0f64; LEN];
    let mut state = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut checksum = 0.0;
    for _ in 0..ROUNDS {
        for v in window.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state >> 11) as f64 / (1u64 << 53) as f64;
        }
        let lag1: f64 = window.windows(2).map(|w| w[0] * w[1]).sum();
        window.sort_unstable_by(f64::total_cmp);
        let mean = window.iter().sum::<f64>() / LEN as f64;
        let var = window.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / LEN as f64;
        let entropy: f64 = window.iter().map(|&v| -(v + 1e-9) * (v + 1e-9).ln()).sum();
        checksum += mean + var.sqrt() + lag1 / LEN as f64 + entropy / LEN as f64;
    }
    checksum
}

/// Seconds one reference block takes just now: the median of
/// [`BLOCKS`] timed blocks.
pub fn reference_s() -> f64 {
    let mut times = [0.0; BLOCKS];
    for t in &mut times {
        let start = Instant::now();
        black_box(reference_work());
        *t = start.elapsed().as_secs_f64();
    }
    times.sort_unstable_by(f64::total_cmp);
    times[BLOCKS / 2]
}

/// `wall_s` expressed in seconds of the nominal host, given the reference
/// times measured just before and just after it.
pub fn scaled(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * REFERENCE_NOMINAL_S / (0.5 * (before_s + after_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work().to_bits(), reference_work().to_bits());
        assert!(reference_work().is_finite());
    }

    #[test]
    fn scaling_cancels_a_uniformly_slower_host() {
        // A host twice as slow takes twice as long for both the program
        // and the reference: the scaled time is the nominal one.
        let nominal = scaled(0.1, REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S);
        assert!((nominal - 0.1).abs() < 1e-15);
        let slow = scaled(0.2, 2.0 * REFERENCE_NOMINAL_S, 2.0 * REFERENCE_NOMINAL_S);
        assert!((slow - nominal).abs() < 1e-15);
    }
}
