//! EMD-stride quality harness: the paper's metrics across seeds at each
//! EMD stride, and the rule that picks the default stride.
//!
//! A grid spec ([`ficsum_bench::harness::Grid`]): full FiCSUM (default
//! configuration, batch statistics) at each stride is a system, run over
//! every Table IV dataset for each seed. Every run records kappa, C-F1 and
//! runtime, and, from its drift steps ([`ficsum_eval::Detection`]),
//! false alarms, misses and mean detection delay. A stride qualifies as
//! the default when it passes both halves of the rule:
//!
//! * **Quality.** The strides are the systems of Table IV's rank
//!   comparison over the datasets, on seed-mean kappa and seed-mean C-F1.
//!   Stride k qualifies only if its average rank is at most one Nemenyi
//!   critical difference worse than stride 1's, on both metrics.
//! * **Detection.** Stride k is paired with stride 1 on every (dataset,
//!   seed) run with ground-truth changes. A one-sided exact sign test
//!   (ties dropped) on false alarms, on misses and on mean detection delay
//!   fails stride k if any of the three is higher at p < 0.05. A delay
//!   pair needs a detection on both sides.
//!
//! The largest qualifying stride is the one to make the default.
//!
//! ```text
//! quality [--seeds N] [--strides 1,2,4,8] [--quick] [--only NAME[,NAME...]]
//!         [--out PATH | --append PATH] [--check PATH] [--jsonl PATH]
//! ```
//!
//! `--quick` truncates every stream to 12k observations; the seed count
//! stays `--seeds` (default 5). `--out` writes the run as JSON lines (machine, one line per run,
//! per-dataset stride-1 seed spreads, ranks, sign tests and the decision),
//! each tagged with its subset (`full` or `quick`); `--append` adds them to
//! an existing file. `--check PATH` is a regression gate, run at strides 1
//! and the current default: it exits 1 if, on any dataset, the default's
//! seed-mean kappa or C-F1 falls below stride 1's by more than the
//! max − min seed spread PATH records for stride 1 on that dataset and
//! subset.

use ficsum_baselines::FicsumSystem;
use ficsum_bench::harness::{
    detection_delay, false_alarms, misses, Dataset, Grid, Metric, Options, Report, System,
};
use ficsum_bench::throughput::{cores, write_baseline, Baseline};
use ficsum_core::{FicsumBuilder, FicsumConfig, Variant};
use ficsum_eval::RunResult;
use ficsum_meta::ExtractionMode;
use ficsum_obs::jsonl::{format_record, JsonValue};

/// Significance level of the detection sign tests.
const ALPHA: f64 = 0.05;

fn kappa(r: &RunResult) -> f64 {
    r.kappa
}

fn c_f1(r: &RunResult) -> f64 {
    r.c_f1
}

/// Full FiCSUM at EMD stride `stride`, labelled `stride {stride}`.
fn at_stride(stride: u32) -> System {
    System::new(format!("stride {stride}"), move |d, k| {
        let ficsum = FicsumBuilder::new(d, k)
            .variant(Variant::Full)
            .config(FicsumConfig::default())
            .emd_stride(stride)
            .build()
            .expect("the default configuration is valid");
        Box::new(FicsumSystem::from_instance(ficsum, Variant::Full.name()))
    })
}

fn main() {
    let extra = ["--strides", "--out", "--append", "--check"];
    let (opts, flags) = Options::parse(std::env::args().skip(1), 5, &extra);
    let check = flags.value("--check");
    let strides: Vec<u32> = match flags.value("--strides") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("--strides takes numbers, e.g. 1,2,4,8"))
            .collect(),
        None if check.is_some() => vec![1, ExtractionMode::default().emd_stride],
        None => vec![1, 2, 4, 8],
    };
    assert_eq!(strides.first(), Some(&1), "--strides must start with 1, the exact reference");
    let report = Grid {
        experiment: "quality",
        systems: strides.iter().map(|&k| at_stride(k)).collect(),
        datasets: Dataset::all(),
    }
    .run(&opts);
    let subset = if opts.quick { "quick" } else { "full" };

    let mut lines: Vec<String> = Vec::new();
    lines.push(format_record(&[
        ("kind", JsonValue::Str("machine")),
        ("subset", JsonValue::Str(subset)),
        ("cores", JsonValue::Int(cores())),
        ("os", JsonValue::Str(std::env::consts::OS)),
        ("arch", JsonValue::Str(std::env::consts::ARCH)),
        ("seeds", JsonValue::Int(opts.seeds)),
        ("quick", JsonValue::Bool(opts.quick)),
    ]));

    let metrics: [(&str, Metric); 6] = [
        ("kappa", kappa),
        ("C-F1", c_f1),
        ("false alarms", false_alarms),
        ("misses", misses),
        ("detection delay", detection_delay),
        ("runtime (s)", |r| r.runtime_s),
    ];
    for (label, f) in metrics {
        println!("Quality — {label}, mean (sd) over {} seeds\n", opts.seeds);
        println!("{}", report.table("Dataset", f).render());
    }

    for (d, dataset) in report.datasets.iter().enumerate() {
        for (s, &stride) in strides.iter().enumerate() {
            for r in report.runs(d, s) {
                lines.push(format_record(&[
                    ("kind", JsonValue::Str("run")),
                    ("subset", JsonValue::Str(subset)),
                    ("dataset", JsonValue::Str(dataset)),
                    ("stride", JsonValue::Int(stride as u64)),
                    ("seed", JsonValue::Int(r.seed)),
                    ("kappa", JsonValue::Num(r.kappa)),
                    ("c_f1", JsonValue::Num(r.c_f1)),
                    ("runtime_s", JsonValue::Num(r.runtime_s)),
                    ("truth_changes", JsonValue::Int(r.detection.n_truth_changes)),
                    ("false_alarms", JsonValue::Int(r.detection.false_alarms)),
                    ("misses", JsonValue::Int(r.detection.missed)),
                    ("mean_detection_delay", JsonValue::Num(detection_delay(r))),
                ]));
            }
        }
        lines.push(format_record(&[
            ("kind", JsonValue::Str("spread")),
            ("subset", JsonValue::Str(subset)),
            ("dataset", JsonValue::Str(dataset)),
            ("stride", JsonValue::Int(1)),
            ("seeds", JsonValue::Int(opts.seeds)),
            ("kappa_mean", JsonValue::Num(report.mean(d, 0, kappa))),
            ("kappa_spread", JsonValue::Num(report.spread(d, 0, kappa))),
            ("c_f1_mean", JsonValue::Num(report.mean(d, 0, c_f1))),
            ("c_f1_spread", JsonValue::Num(report.spread(d, 0, c_f1))),
        ]));
    }

    // Quality: strides as systems, ranked over the datasets.
    let mut quality_ok = vec![true; strides.len()];
    for (label, f) in [("kappa", kappa as Metric), ("c_f1", c_f1)] {
        let (outcome, cd) = report.ranks(f);
        let ranks = &outcome.average_ranks;
        println!("{}", report.rank_line(label, f));
        for (s, &stride) in strides.iter().enumerate() {
            let ok = ranks[s] - ranks[0] <= cd;
            quality_ok[s] &= ok;
            lines.push(format_record(&[
                ("kind", JsonValue::Str("rank")),
                ("subset", JsonValue::Str(subset)),
                ("metric", JsonValue::Str(label)),
                ("stride", JsonValue::Int(stride as u64)),
                ("avg_rank", JsonValue::Num(ranks[s])),
                ("rank_gap", JsonValue::Num(ranks[s] - ranks[0])),
                ("cd", JsonValue::Num(cd)),
                ("friedman_p", JsonValue::Num(outcome.p_value)),
                ("within_cd", JsonValue::Bool(ok)),
            ]));
        }
    }

    // Detection: paired sign tests against stride 1, then the decision.
    let mut qualified = vec![1u32];
    for (s, &stride) in strides.iter().enumerate().skip(1) {
        let mut detection_ok = true;
        for (label, t) in report.sign_tests(s, 0) {
            let higher = t.p_value < ALPHA;
            detection_ok &= !higher;
            println!(
                "stride {stride} vs 1, {label}: higher in {}, lower in {}, tied {} \
                 | one-sided p={:.4}{}",
                t.higher,
                t.lower,
                t.ties,
                t.p_value,
                if higher { " (higher)" } else { "" }
            );
            lines.push(format_record(&[
                ("kind", JsonValue::Str("sign_test")),
                ("subset", JsonValue::Str(subset)),
                ("metric", JsonValue::Str(label)),
                ("stride", JsonValue::Int(stride as u64)),
                ("higher", JsonValue::Int(t.higher as u64)),
                ("lower", JsonValue::Int(t.lower as u64)),
                ("ties", JsonValue::Int(t.ties as u64)),
                ("p_value", JsonValue::Num(t.p_value)),
                ("fails", JsonValue::Bool(higher)),
            ]));
        }
        let ok = quality_ok[s] && detection_ok;
        println!(
            "stride {stride}: quality {}, detection {} -> {}",
            if quality_ok[s] { "within CD" } else { "outside CD" },
            if detection_ok { "no higher count" } else { "higher" },
            if ok { "qualifies" } else { "does not qualify" }
        );
        if ok {
            qualified.push(stride);
        }
    }
    let chosen = *qualified.iter().max().expect("stride 1 always qualifies");
    let shown: Vec<String> = qualified.iter().map(u32::to_string).collect();
    println!("qualifying strides: {} | largest: {chosen}", shown.join(", "));
    lines.push(format_record(&[
        ("kind", JsonValue::Str("decision")),
        ("subset", JsonValue::Str(subset)),
        ("qualified", JsonValue::Str(&shown.join(","))),
        ("chosen_stride", JsonValue::Int(chosen as u64)),
    ]));

    write_baseline(&flags, &lines);
    if let Some(path) = check {
        check_against(path, subset, &report, &strides);
    }
}

/// The regression gate (see the module docs): the default stride against
/// stride 1, per dataset, within the recorded stride-1 seed spread.
fn check_against(path: &str, subset: &str, report: &Report, strides: &[u32]) {
    let baseline = Baseline::read(path);
    let default = ExtractionMode::default().emd_stride;
    let s = strides.iter().position(|&k| k == default).expect("--check runs the default stride");
    let mut failed = false;
    for (d, dataset) in report.datasets.iter().enumerate() {
        let line = baseline.line(&[("kind", "spread"), ("subset", subset), ("dataset", dataset)]);
        for (label, f, field) in
            [("kappa", kappa as Metric, "kappa_spread"), ("C-F1", c_f1, "c_f1_spread")]
        {
            let spread = baseline.field(line, field);
            let (base, got) = (report.mean(d, 0, f), report.mean(d, s, f));
            let ok = got >= base - spread;
            println!(
                "quality check {dataset} {label}: stride {default} {got:.4} vs stride 1 {base:.4} \
                 (tolerance {spread:.4}) {}",
                if ok { "ok" } else { "FAILED" }
            );
            failed |= !ok;
        }
    }
    if failed {
        eprintln!("QUALITY REGRESSION: the default stride fell outside stride 1's seed spread");
        std::process::exit(1);
    }
}
