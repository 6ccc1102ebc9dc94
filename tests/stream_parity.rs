//! Golden end-to-end parity for the streaming hot path.
//!
//! The SoA frame store, cached similarity norms, epoch-gated weights and
//! the parallel recurrence scan are all required to be *bit-identical* to
//! the original per-observation path. This test pins the full trajectory
//! of deterministic runs — every `StepOutcome`, every drift point, every
//! recorded event count — against a golden file blessed from the
//! pre-refactor implementation.
//!
//! Regenerate (only when a change is *intended* to alter trajectories):
//!
//! ```sh
//! FICSUM_BLESS=1 cargo test --test stream_parity
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use ficsum::prelude::*;

/// FNV-1a over the raw little-endian bytes of each step outcome: any bit
/// of divergence in any step changes the digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct Trajectory {
    name: &'static str,
    steps: usize,
    outcome_digest: u64,
    accuracy_millionths: u64,
    drift_points: Vec<u64>,
    switches: Vec<(u64, u64, u64)>,
    stats: FicsumStats,
}

impl Trajectory {
    fn render(&self) -> String {
        let mut s = String::new();
        writeln!(s, "scenario {}", self.name).unwrap();
        writeln!(s, "steps {}", self.steps).unwrap();
        writeln!(s, "outcome_digest {:016x}", self.outcome_digest).unwrap();
        writeln!(s, "accuracy_millionths {}", self.accuracy_millionths).unwrap();
        let pts: Vec<String> = self.drift_points.iter().map(u64::to_string).collect();
        writeln!(s, "drift_points {}", pts.join(",")).unwrap();
        let sw: Vec<String> =
            self.switches.iter().map(|(t, f, to)| format!("{t}:{f}->{to}")).collect();
        writeln!(s, "switches {}", sw.join(",")).unwrap();
        writeln!(
            s,
            "stats drifts={} reuses={} new={} rechecks={} plasticity={}",
            self.stats.n_drifts,
            self.stats.n_reuses,
            self.stats.n_new_concepts,
            self.stats.n_recheck_switches,
            self.stats.n_plasticity_resets
        )
        .unwrap();
        s
    }
}

fn run_scenario(
    name: &'static str,
    dataset: &str,
    seed: u64,
    steps: usize,
    config: FicsumConfig,
    emd_stride: Option<u32>,
    threads: usize,
) -> Trajectory {
    let keep = shared(InMemoryRecorder::new());
    let mut stream = ficsum::synth::dataset_by_name(dataset, seed)
        .unwrap_or_else(|| panic!("unknown dataset {dataset}"));
    let mut builder = FicsumBuilder::new(stream.dims(), stream.n_classes())
        .config(config)
        .recorder(Box::new(keep.clone()))
        .parallelism(threads);
    if let Some(stride) = emd_stride {
        builder = builder.incremental_stats(true).emd_stride(stride);
    }
    let mut system = builder.build().unwrap();
    let mut digest = Digest::new();
    let mut n = 0usize;
    let mut correct = 0u64;
    for _ in 0..steps {
        let Some(o) = stream.next_observation() else { break };
        let out = system.process(&o.features, o.label);
        digest.push(out.prediction as u64);
        digest.push(out.drift as u64);
        digest.push(out.concept_switched as u64);
        digest.push(out.active_concept as u64);
        correct += (out.prediction == o.label) as u64;
        n += 1;
    }
    let rec = keep.borrow();
    Trajectory {
        name,
        steps: n,
        outcome_digest: digest.0,
        accuracy_millionths: correct * 1_000_000 / n as u64,
        drift_points: rec.drift_points().to_vec(),
        switches: rec
            .concept_switches()
            .iter()
            .map(|&(t, f, to)| (t, f, to))
            .collect(),
        stats: system.stats(),
    }
}

fn quick_config() -> FicsumConfig {
    FicsumConfig::default().with_window_size(50).with_fingerprint_gap(5).with_repository_gap(50)
}

/// Batch-extraction scenarios first, then the incremental-statistics
/// scenarios (`Some(emd_stride)`), which pin the substituted-statistic
/// trajectory and the EMD cache cadence.
fn scenarios(threads: usize) -> String {
    let default = FicsumConfig::default();
    [
        run_scenario("stagger_default", "STAGGER", 5, 12_000, default, None, threads),
        run_scenario("stagger_quick", "STAGGER", 9, 9_000, quick_config(), None, threads),
        run_scenario("rtree_default", "RTREE", 3, 9_000, default, None, threads),
        run_scenario("hplane_quick", "HPLANE-U", 7, 9_000, quick_config(), None, threads),
        run_scenario("rtree_incremental", "RTREE", 3, 9_000, default, Some(4), threads),
        run_scenario("stagger_incremental", "STAGGER", 9, 9_000, quick_config(), Some(1), threads),
    ]
    .iter()
    .map(Trajectory::render)
    .collect::<Vec<_>>()
    .join("\n")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stream_parity.txt")
}

#[test]
fn trajectories_match_golden_bit_exactly() {
    let rendered = scenarios(1);
    let path = golden_path();
    if std::env::var_os("FICSUM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with FICSUM_BLESS=1", path.display()));
    assert_eq!(
        golden, rendered,
        "stream trajectories diverged from the blessed pre-refactor path"
    );
}

#[test]
fn parallel_scan_is_bit_identical_to_sequential() {
    // The drift-time repository scan fans out across worker threads; its
    // merge is required to be deterministic, so the whole trajectory must
    // be invariant to the thread count.
    let sequential = scenarios(1);
    let parallel = scenarios(4);
    assert_eq!(sequential, parallel, "thread count must not change any trajectory");
}
