//! Multi-session serving throughput: aggregate `StreamServer` steps/sec
//! across sessions × shards, submit→reply latency, and the scaling ratio
//! against a single standalone pipeline on the same tape.
//!
//! `--out BENCH_serve.json` records the committed baseline; `--check
//! BENCH_serve.json` fails (exit 1) when aggregate throughput drops more
//! than 20% below it. The `cores` field keeps baselines honest: scaling
//! beyond 1x is only expected when the machine actually has spare cores
//! (the ≥3x target presumes ≥4), so the check regresses throughput on the
//! same machine rather than asserting an absolute ratio.
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
//!                  [--min-ratio F] [--max-p99-ratio F]
//! ```
//!
//! Defaults: 64 sessions over 4 shards, 400 steps per session, 4 waves in
//! flight, best of 3.

use std::time::Instant;

use ficsum_bench::throughput::{
    check_p99_ceiling, check_throughput_floor, read_baseline, serving_template, stagger_tape,
};
use ficsum_serve::{ServeConfig, SessionId, StreamServer, Submit};

#[derive(Debug)]
struct Args {
    sessions: usize,
    shards: usize,
    steps: usize,
    seed: u64,
    in_flight: usize,
    repeat: usize,
    out: Option<String>,
    check: Option<String>,
    min_ratio: f64,
    max_p99_ratio: f64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        sessions: 64,
        shards: 4,
        steps: 400,
        seed: 42,
        in_flight: 4,
        repeat: 3,
        out: None,
        check: None,
        min_ratio: 0.8,
        max_p99_ratio: 3.0,
    };
    let mut i = 1;
    while i < argv.len() {
        let val = |i: usize| {
            argv.get(i + 1).unwrap_or_else(|| panic!("{} requires a value", argv[i])).clone()
        };
        match argv[i].as_str() {
            "--sessions" => a.sessions = val(i).parse().expect("--sessions"),
            "--shards" => a.shards = val(i).parse().expect("--shards"),
            "--steps" => a.steps = val(i).parse().expect("--steps"),
            "--seed" => a.seed = val(i).parse().expect("--seed"),
            "--in-flight" => a.in_flight = val(i).parse().expect("--in-flight"),
            "--repeat" => a.repeat = val(i).parse().expect("--repeat"),
            "--out" => a.out = Some(val(i)),
            "--check" => a.check = Some(val(i)),
            "--min-ratio" => a.min_ratio = val(i).parse().expect("--min-ratio"),
            "--max-p99-ratio" => a.max_p99_ratio = val(i).parse().expect("--max-p99-ratio"),
            other => panic!("unknown option {other}"),
        }
        i += 2;
    }
    a
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

fn json_line(args: &Args, m: &Measurement, steps_per_sec: f64, cores: usize) -> String {
    let scaling = steps_per_sec / m.single_steps_per_sec;
    format!(
        "{{\"bench\":\"serve_throughput\",\"sessions\":{},\"shards\":{},\"steps\":{},\
         \"seed\":{},\"in_flight\":{},\"cores\":{},\"steps_per_sec\":{:.1},\
         \"single_steps_per_sec\":{:.1},\
         \"scaling\":{:.3},\"latency_p50_us\":{:.1},\"latency_p99_us\":{:.1},\
         \"max_queue_depth\":{}}}",
        args.sessions,
        args.shards,
        args.steps,
        args.seed,
        args.in_flight,
        cores,
        steps_per_sec,
        m.single_steps_per_sec,
        scaling,
        m.p50_us,
        m.p99_us,
        m.max_queue_depth
    )
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Best-of-R repeats: throughput noise is one-sided (scheduling stalls
    // only ever slow a run down), so the max is the honest estimate.
    let mut best: Option<(f64, Measurement)> = None;
    for _ in 0..args.repeat.max(1) {
        let m = run_once(&args);
        let sps = m.served_steps as f64 / m.seconds;
        if best.as_ref().is_none_or(|(b, _)| sps > *b) {
            best = Some((sps, m));
        }
    }
    let (steps_per_sec, m) = best.expect("at least one repeat");
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

    let line = json_line(&args, &m, steps_per_sec, cores);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{line}\n")).unwrap_or_else(|e| panic!("--out {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(path) = &args.check {
        let baseline = read_baseline(path);
        check_throughput_floor(path, &baseline, steps_per_sec, args.min_ratio);
        // Tail latency gates too, with more headroom than throughput: even
        // with the bounded in-flight window, p99 includes residency behind
        // up to `in_flight` earlier waves and is noisier than throughput.
        check_p99_ceiling(&baseline, m.p99_us, args.max_p99_ratio, "p99 latency");
    }
}
