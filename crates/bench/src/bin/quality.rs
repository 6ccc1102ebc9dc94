//! EMD-stride quality harness: the paper's metrics across seeds at each
//! EMD stride, and the rule that picks the default stride.
//!
//! Full FiCSUM (default configuration, batch statistics) runs over every
//! Table IV dataset for each seed and each stride. Every run records
//! kappa, C-F1 and runtime, and, from its recorded events
//! ([`ficsum_eval::ObsSummary`]), false alarms, misses and mean detection
//! delay. A stride qualifies as the default when it passes both halves of
//! the rule:
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
//!         [--out PATH | --append PATH] [--check PATH]
//! ```
//!
//! `--quick` truncates every stream to 12k observations and keeps the seed
//! count. `--out` writes the run as JSON lines (machine, one line per run,
//! per-dataset stride-1 seed spreads, ranks, sign tests and the decision),
//! each tagged with its subset (`full` or `quick`); `--append` adds them to
//! an existing file. `--check PATH` is a regression gate, run at strides 1
//! and the current default: it exits 1 if, on any dataset, the default's
//! seed-mean kappa or C-F1 falls below stride 1's by more than the
//! max − min seed spread PATH records for stride 1 on that dataset and
//! subset.

use ficsum_baselines::FicsumSystem;
use ficsum_bench::harness::{build_stream, fan_out, Options};
use ficsum_bench::throughput::{json_field, read_baseline};
use ficsum_core::{FicsumBuilder, FicsumConfig, Variant};
use ficsum_eval::{
    evaluate_with, format_cell, friedman_test, mean_std, nemenyi_critical_difference,
    sign_test_higher, RunOptions, SignTest, Table,
};
use ficsum_meta::ExtractionMode;
use ficsum_obs::jsonl::{format_record, JsonValue};
use ficsum_stream::StreamSource;
use ficsum_synth::ALL_DATASETS;

/// Significance level of the detection sign tests.
const ALPHA: f64 = 0.05;

struct Args {
    opts: Options,
    strides: Vec<u32>,
    out: Option<String>,
    append: bool,
    check: Option<String>,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().collect();
    let mut a = Args {
        opts: Options { seeds: 5, quick: false, only: None, jsonl: None },
        strides: Vec::new(),
        out: None,
        append: false,
        check: None,
    };
    let val =
        |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| panic!("{} needs a value", args[i]));
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => a.opts.seeds = val(i).parse().expect("--seeds requires a number"),
            "--quick" => {
                a.opts.quick = true;
                i += 1;
                continue;
            }
            "--only" => a.opts.only = Some(val(i)),
            "--strides" => {
                a.strides = val(i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--strides takes numbers, e.g. 1,2,4,8"))
                    .collect()
            }
            "--out" => a.out = Some(val(i)),
            "--append" => {
                a.out = Some(val(i));
                a.append = true;
            }
            "--check" => a.check = Some(val(i)),
            other => panic!(
                "unknown option {other}; supported: --seeds N, --strides LIST, --quick, \
                 --only NAMES, --out PATH, --append PATH, --check PATH"
            ),
        }
        i += 2;
    }
    if a.strides.is_empty() {
        a.strides = if a.check.is_some() {
            vec![1, ExtractionMode::default().emd_stride]
        } else {
            vec![1, 2, 4, 8]
        };
    }
    assert_eq!(a.strides.first(), Some(&1), "--strides must start with 1, the exact reference");
    a
}

/// One (dataset, stride, seed) run.
struct Run {
    kappa: f64,
    c_f1: f64,
    runtime_s: f64,
    truth_changes: u64,
    false_alarms: u64,
    missed: u64,
    delay: Option<f64>,
}

fn run_one(name: &str, stride: u32, seed: u64, opts: &Options) -> Run {
    let mut stream = build_stream(name, seed, opts);
    let (d, k) = (stream.dims(), stream.n_classes());
    let ficsum = FicsumBuilder::new(d, k)
        .variant(Variant::Full)
        .config(FicsumConfig::default())
        .emd_stride(stride)
        .build()
        .expect("the default configuration is valid");
    let mut system = FicsumSystem::from_instance(ficsum, Variant::Full.name());
    let r = evaluate_with(&mut system, &mut stream, &RunOptions::new(k).seed(seed).observed());
    let obs = r.observability.expect("observed runs carry a summary");
    Run {
        kappa: r.kappa,
        c_f1: r.c_f1,
        runtime_s: r.runtime_s,
        truth_changes: obs.n_truth_changes,
        false_alarms: obs.false_alarms,
        missed: obs.missed,
        delay: obs.mean_detection_delay,
    }
}

/// Every run of one dataset, indexed `[stride][seed]`.
struct Cell {
    name: &'static str,
    runs: Vec<Vec<Run>>,
}

impl Cell {
    fn values(&self, s: usize, f: Metric) -> Vec<f64> {
        self.runs[s].iter().map(f).collect()
    }

    fn mean(&self, s: usize, f: Metric) -> f64 {
        mean_std(&self.values(s, f)).0
    }

    /// Max − min over seeds.
    fn spread(&self, s: usize, f: Metric) -> f64 {
        let v = self.values(s, f);
        v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - v.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// Reads one metric off a run.
type Metric = fn(&Run) -> f64;

fn kappa(r: &Run) -> f64 {
    r.kappa
}

fn c_f1(r: &Run) -> f64 {
    r.c_f1
}

/// The detection half of the rule for stride index `s`: sign tests of
/// stride `s` against stride 1 on false alarms, misses and delay.
fn detection_tests(cells: &[Cell], s: usize) -> [(&'static str, SignTest); 3] {
    let pairs = || {
        cells.iter().flat_map(move |c| {
            c.runs[s].iter().zip(&c.runs[0]).filter(|(_, base)| base.truth_changes > 0)
        })
    };
    [
        (
            "false_alarms",
            sign_test_higher(pairs().map(|(k, b)| (k.false_alarms as f64, b.false_alarms as f64))),
        ),
        ("misses", sign_test_higher(pairs().map(|(k, b)| (k.missed as f64, b.missed as f64)))),
        (
            "detection_delay",
            sign_test_higher(pairs().filter_map(|(k, b)| Some((k.delay?, b.delay?)))),
        ),
    ]
}

fn main() {
    let args = parse_args();
    let opts = &args.opts;
    let strides = &args.strides;
    let subset = if opts.quick { "quick" } else { "full" };
    let names: Vec<&'static str> =
        ALL_DATASETS.iter().map(|s| s.name).filter(|n| opts.selected(n)).collect();
    assert!(!names.is_empty(), "--only selected no dataset");
    let n_seeds = opts.seeds as usize;

    let cells: Vec<Cell> = names
        .iter()
        .map(|&name| {
            // One job per (stride, seed), fanned out like any seed set.
            let mut flat = fan_out(strides.len() * n_seeds, |j| {
                run_one(name, strides[j / n_seeds], (j % n_seeds) as u64 + 1, opts)
            })
            .into_iter();
            let runs = strides.iter().map(|_| flat.by_ref().take(n_seeds).collect()).collect();
            eprintln!("[quality] {name} done");
            Cell { name, runs }
        })
        .collect();

    let mut lines: Vec<String> = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get()) as u64;
    lines.push(format_record(&[
        ("kind", JsonValue::Str("machine")),
        ("subset", JsonValue::Str(subset)),
        ("cores", JsonValue::Int(cores)),
        ("os", JsonValue::Str(std::env::consts::OS)),
        ("arch", JsonValue::Str(std::env::consts::ARCH)),
        ("seeds", JsonValue::Int(opts.seeds)),
        ("quick", JsonValue::Bool(opts.quick)),
    ]));

    let stride_heads: Vec<String> = strides.iter().map(|k| format!("stride {k}")).collect();
    let header: Vec<&str> =
        std::iter::once("Dataset").chain(stride_heads.iter().map(String::as_str)).collect();
    let metrics: [(&str, Metric); 6] = [
        ("kappa", kappa),
        ("C-F1", c_f1),
        ("false alarms", |r| r.false_alarms as f64),
        ("misses", |r| r.missed as f64),
        ("detection delay", |r| r.delay.unwrap_or(f64::NAN)),
        ("runtime (s)", |r| r.runtime_s),
    ];
    for (label, f) in metrics {
        let mut table = Table::new(&header);
        for c in &cells {
            table.add_row(
                c.name,
                (0..strides.len()).map(|s| format_cell(&c.values(s, f))).collect(),
            );
        }
        println!("Quality — {label}, mean (sd) over {n_seeds} seeds\n");
        println!("{}", table.render());
    }

    for c in &cells {
        for (s, &stride) in strides.iter().enumerate() {
            for (i, r) in c.runs[s].iter().enumerate() {
                lines.push(format_record(&[
                    ("kind", JsonValue::Str("run")),
                    ("subset", JsonValue::Str(subset)),
                    ("dataset", JsonValue::Str(c.name)),
                    ("stride", JsonValue::Int(stride as u64)),
                    ("seed", JsonValue::Int(i as u64 + 1)),
                    ("kappa", JsonValue::Num(r.kappa)),
                    ("c_f1", JsonValue::Num(r.c_f1)),
                    ("runtime_s", JsonValue::Num(r.runtime_s)),
                    ("truth_changes", JsonValue::Int(r.truth_changes)),
                    ("false_alarms", JsonValue::Int(r.false_alarms)),
                    ("misses", JsonValue::Int(r.missed)),
                    ("mean_detection_delay", JsonValue::Num(r.delay.unwrap_or(f64::NAN))),
                ]));
            }
        }
        lines.push(format_record(&[
            ("kind", JsonValue::Str("spread")),
            ("subset", JsonValue::Str(subset)),
            ("dataset", JsonValue::Str(c.name)),
            ("stride", JsonValue::Int(1)),
            ("seeds", JsonValue::Int(opts.seeds)),
            ("kappa_mean", JsonValue::Num(c.mean(0, kappa))),
            ("kappa_spread", JsonValue::Num(c.spread(0, kappa))),
            ("c_f1_mean", JsonValue::Num(c.mean(0, c_f1))),
            ("c_f1_spread", JsonValue::Num(c.spread(0, c_f1))),
        ]));
    }

    // Quality: strides as systems, ranked over the datasets.
    let cd = nemenyi_critical_difference(strides.len(), cells.len());
    let mut quality_ok = vec![true; strides.len()];
    for (label, f) in [("kappa", kappa as Metric), ("c_f1", c_f1)] {
        let rows: Vec<Vec<f64>> =
            cells.iter().map(|c| (0..strides.len()).map(|s| c.mean(s, f)).collect()).collect();
        let outcome = friedman_test(&rows);
        let ranks = &outcome.average_ranks;
        let shown: Vec<String> =
            strides.iter().zip(ranks).map(|(k, r)| format!("stride {k}={r:.2}")).collect();
        println!(
            "{label}: avg ranks {} | Friedman chi2={:.2} p={:.4} | Nemenyi CD(0.05)={cd:.2}",
            shown.join(" "),
            outcome.chi_square,
            outcome.p_value
        );
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
        for (label, t) in detection_tests(&cells, s) {
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

    if let Some(path) = &args.out {
        let mut text = if args.append {
            std::fs::read_to_string(path).unwrap_or_default()
        } else {
            String::new()
        };
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(path, text).unwrap_or_else(|e| panic!("--out {path}: {e}"));
    }
    if let Some(path) = &args.check {
        check(path, subset, &cells, strides);
    }
}

/// The regression gate (see the module docs): the default stride against
/// stride 1, per dataset, within the recorded stride-1 seed spread.
fn check(path: &str, subset: &str, cells: &[Cell], strides: &[u32]) {
    let baseline = read_baseline(path);
    let default = ExtractionMode::default().emd_stride;
    let s = strides.iter().position(|&k| k == default).expect("--check runs the default stride");
    let mut failed = false;
    for c in cells {
        let tag = format!("\"subset\":\"{subset}\",\"dataset\":\"{}\"", c.name);
        let line = baseline
            .lines()
            .find(|l| l.starts_with("{\"kind\":\"spread\"") && l.contains(&tag))
            .unwrap_or_else(|| panic!("--check {path}: no {subset} spread line for {}", c.name));
        for (label, f, field) in
            [("kappa", kappa as Metric, "kappa_spread"), ("C-F1", c_f1, "c_f1_spread")]
        {
            let spread = json_field(line, field)
                .unwrap_or_else(|| panic!("--check {path}: no {field} for {}", c.name));
            let (base, got) = (c.mean(0, f), c.mean(s, f));
            let ok = got >= base - spread;
            println!(
                "quality check {} {label}: stride {default} {got:.4} vs stride 1 {base:.4} \
                 (tolerance {spread:.4}) {}",
                c.name,
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
