//! Multi-session serving throughput: aggregate `StreamServer` steps/sec
//! across sessions × shards, submit→reply latency, and the scaling ratio
//! against a single standalone pipeline on the same tape.
//!
//! `--out BENCH_serve.json` records the committed baseline; `--check
//! BENCH_serve.json` fails (exit 1) when aggregate throughput drops more
//! than 20% below it or p99 latency grows past 3× the baseline's
//! (`ficsum_bench::throughput::{MIN_RATIO, MAX_P99_RATIO}`). The `cores`
//! field keeps baselines honest: scaling beyond 1x is only expected when
//! the machine actually has spare cores (the ≥3x target presumes ≥4), so
//! the check regresses throughput on the same machine rather than
//! asserting an absolute ratio.
//!
//! The submit loop is a bounded closed loop: at most `--in-flight` waves
//! (one wave = one submit batch covering every session) are outstanding at
//! any moment, and the next wave is only submitted after the oldest one
//! drains. An unbounded loop that enqueues the whole run up front measures
//! queue residency, not serving latency — the p50 converges on half the
//! run's wall clock regardless of how fast the shards actually are.
//!
//! Usage:
//!
//! ```sh
//! serve_throughput [--sessions N] [--shards S] [--steps K] [--seed S]
//!                  [--in-flight W] [--repeat R] [--out PATH] [--check PATH]
//! ```
//!
//! Defaults: 64 sessions over 4 shards, 400 steps per session, 4 waves in
//! flight, best of 3.

use std::time::Instant;

use ficsum_bench::throughput::{
    best_of, cores, fixed, serving_template, stagger_tape, write_baseline, Baseline, Flags,
};
use ficsum_obs::jsonl::{format_record, JsonValue};
use ficsum_serve::{ServeConfig, SessionId, StreamServer, Submit};

struct Args {
    sessions: usize,
    shards: usize,
    steps: usize,
    seed: u64,
    in_flight: usize,
}

#[derive(Debug, Clone)]
struct Measurement {
    served_steps: usize,
    seconds: f64,
    single_steps_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    max_queue_depth: usize,
}

fn run_once(args: &Args) -> Measurement {
    let data = stagger_tape(args.seed, args.steps);

    // Reference: the same tape through one standalone pipeline.
    let mut single = serving_template().instantiate();
    let t_single = Instant::now();
    for (features, label) in &data {
        single.process(features, *label);
    }
    let single_steps_per_sec = args.steps as f64 / t_single.elapsed().as_secs_f64();

    let total = args.sessions * args.steps;
    let in_flight = args.in_flight.max(1);
    let server = StreamServer::new(
        serving_template(),
        ServeConfig::default()
            .with_shards(args.shards)
            // Room for the in-flight window only: latency should measure
            // serving time, not residency in an unbounded queue.
            .with_queue_capacity(args.sessions * (in_flight + 1))
            .with_max_sessions_per_shard(args.sessions.max(1)),
    );
    let t_run = Instant::now();
    let mut served_steps = 0usize;
    let mut pending = std::collections::VecDeque::with_capacity(in_flight);
    for (features, label) in &data {
        if pending.len() == in_flight {
            let reply: ficsum_serve::BatchReply = pending.pop_front().expect("non-empty");
            for result in reply.wait() {
                result.expect("no faults in a clean benchmark run");
                served_steps += 1;
            }
        }
        let wave: Vec<Submit> = (0..args.sessions)
            .map(|s| Submit::new(SessionId(s as u64), features.clone(), *label))
            .collect();
        pending.push_back(server.try_submit(&wave).expect("queue sized for the in-flight window"));
    }
    for reply in pending {
        for result in reply.wait() {
            result.expect("no faults in a clean benchmark run");
            served_steps += 1;
        }
    }
    let seconds = t_run.elapsed().as_secs_f64();
    assert_eq!(served_steps, total, "every submitted request must be served");

    let report = server.shutdown();
    let mut latency = ficsum_obs::LatencyHistogram::new();
    let mut max_queue_depth = 0usize;
    for m in &report.metrics {
        latency.merge(&m.latency);
        max_queue_depth = max_queue_depth.max(m.max_queue_depth);
    }
    Measurement {
        served_steps,
        seconds,
        single_steps_per_sec,
        p50_us: latency.quantile_nanos(0.50) as f64 / 1e3,
        p99_us: latency.quantile_nanos(0.99) as f64 / 1e3,
        max_queue_depth,
    }
}

fn main() {
    let flags = Flags::from_env(
        &[
            "--sessions",
            "--shards",
            "--steps",
            "--seed",
            "--in-flight",
            "--repeat",
            "--out",
            "--check",
        ],
        &[],
    );
    let args = Args {
        sessions: flags.get("--sessions", 64),
        shards: flags.get("--shards", 4),
        steps: flags.get("--steps", 400),
        seed: flags.get("--seed", 42),
        in_flight: flags.get("--in-flight", 4),
    };
    let cores = cores();
    let (steps_per_sec, m) = best_of(
        flags.get("--repeat", 3),
        || run_once(&args),
        |m| m.served_steps as f64 / m.seconds,
    );
    let scaling = steps_per_sec / m.single_steps_per_sec;

    println!(
        "serve_throughput: {} sessions x {} steps over {} shards ({cores} cores) -> \
         {:.0} steps/sec aggregate ({:.2}x one pipeline at {:.0}), \
         latency p50 {:.1} us p99 {:.1} us, max queue depth {}",
        args.sessions,
        args.steps,
        args.shards,
        steps_per_sec,
        scaling,
        m.single_steps_per_sec,
        m.p50_us,
        m.p99_us,
        m.max_queue_depth
    );
    if cores >= 4 && args.shards >= 4 && scaling < 3.0 {
        eprintln!(
            "note: scaling {scaling:.2}x is below the 3x target expected with \
             {cores} cores; investigate shard balance before committing a baseline"
        );
    }

    write_baseline(
        &flags,
        &[format_record(&[
            ("bench", JsonValue::Str("serve_throughput")),
            ("sessions", JsonValue::Int(args.sessions as u64)),
            ("shards", JsonValue::Int(args.shards as u64)),
            ("steps", JsonValue::Int(args.steps as u64)),
            ("seed", JsonValue::Int(args.seed)),
            ("in_flight", JsonValue::Int(args.in_flight as u64)),
            ("cores", JsonValue::Int(cores)),
            ("steps_per_sec", fixed(steps_per_sec, 1)),
            ("single_steps_per_sec", fixed(m.single_steps_per_sec, 1)),
            ("scaling", fixed(scaling, 3)),
            ("latency_p50_us", fixed(m.p50_us, 1)),
            ("latency_p99_us", fixed(m.p99_us, 1)),
            ("max_queue_depth", JsonValue::Int(m.max_queue_depth as u64)),
        ])],
    );
    if let Some(path) = flags.value("--check") {
        // Tail latency gates too, with more headroom than throughput: even
        // with the bounded in-flight window, p99 includes residency behind
        // up to `in_flight` earlier waves and is noisier than throughput.
        Baseline::read(path).gate(&[], &[("steps_per_sec", steps_per_sec)], Some(m.p99_us));
    }
}
