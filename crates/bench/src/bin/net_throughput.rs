//! Network serving throughput: aggregate steps/sec through the full wire
//! path — client encode → loopback TCP → frame decode → shard queues →
//! reply encode → client decode — plus submit→reply tail latency.
//!
//! `--out BENCH_net.json` records the committed baseline; `--check
//! BENCH_net.json` fails (exit 1) when throughput drops more than 20%
//! below it or p99 latency grows past its ceiling. The `cores` field
//! keeps baselines honest across machines.
//!
//! Usage:
//!
//! ```sh
//! net_throughput [--sessions N] [--clients C] [--shards S] [--steps K]
//!                [--seed S] [--repeat R] [--out PATH] [--check PATH]
//!                [--min-ratio F] [--max-p99-ratio F]
//! ```
//!
//! Defaults: 32 sessions over 4 clients and 4 shards, 300 steps per
//! session, best of 3.

use std::sync::Arc;
use std::time::Instant;

use ficsum_bench::throughput::{
    check_p99_ceiling, check_throughput_floor, read_baseline, serving_template, stagger_tape,
};
use ficsum_net::{NetClient, NetServer};
use ficsum_serve::{ServeConfig, SessionId, StreamServer, Submit};

#[derive(Debug)]
struct Args {
    sessions: usize,
    clients: usize,
    shards: usize,
    steps: usize,
    seed: u64,
    repeat: usize,
    out: Option<String>,
    check: Option<String>,
    min_ratio: f64,
    max_p99_ratio: f64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        sessions: 32,
        clients: 4,
        shards: 4,
        steps: 300,
        seed: 42,
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
            "--clients" => a.clients = val(i).parse().expect("--clients"),
            "--shards" => a.shards = val(i).parse().expect("--shards"),
            "--steps" => a.steps = val(i).parse().expect("--steps"),
            "--seed" => a.seed = val(i).parse().expect("--seed"),
            "--repeat" => a.repeat = val(i).parse().expect("--repeat"),
            "--out" => a.out = Some(val(i)),
            "--check" => a.check = Some(val(i)),
            "--min-ratio" => a.min_ratio = val(i).parse().expect("--min-ratio"),
            "--max-p99-ratio" => a.max_p99_ratio = val(i).parse().expect("--max-p99-ratio"),
            other => panic!("unknown option {other}"),
        }
        i += 2;
    }
    assert!(a.clients >= 1, "--clients must be at least 1");
    assert!(a.sessions >= a.clients, "--sessions must be >= --clients");
    a
}

#[derive(Debug, Clone)]
struct Measurement {
    served_steps: usize,
    seconds: f64,
    p50_us: f64,
    p99_us: f64,
    batches: u64,
}

fn run_once(args: &Args) -> Measurement {
    let data = stagger_tape(args.seed, args.steps);
    let total = args.sessions * args.steps;
    let core = Arc::new(StreamServer::new(
        serving_template(),
        ServeConfig::default()
            .with_shards(args.shards)
            // Room for the whole run: the bench measures wire + processing
            // throughput, not backpressure.
            .with_queue_capacity(total)
            .with_max_sessions_per_shard(args.sessions),
    ));
    let net = NetServer::bind("127.0.0.1:0", core).expect("bind loopback");
    let addr = net.local_addr();

    // Each client owns sessions ≡ c (mod clients) and submits one wave
    // per step — a strict request/reply conversation per connection, with
    // waves from different clients in flight concurrently.
    let t_run = Instant::now();
    let served: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let data = &data;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("handshake");
                    let mine: Vec<u64> = (0..args.sessions as u64)
                        .filter(|s| *s as usize % args.clients == c)
                        .collect();
                    let mut served = 0usize;
                    for (features, label) in data {
                        let wave: Vec<Submit> = mine
                            .iter()
                            .map(|&s| Submit::new(SessionId(s), features.clone(), *label))
                            .collect();
                        let results =
                            client.submit(&wave).expect("queue sized for the whole run");
                        for result in results {
                            result.expect("no faults in a clean benchmark run");
                            served += 1;
                        }
                    }
                    client.shutdown().expect("orderly goodbye");
                    served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    });
    let seconds = t_run.elapsed().as_secs_f64();
    assert_eq!(served, total, "every submitted request must be served");

    let report = net.shutdown();
    Measurement {
        served_steps: served,
        seconds,
        p50_us: report.net.latency.quantile_nanos(0.50) as f64 / 1e3,
        p99_us: report.net.latency.quantile_nanos(0.99) as f64 / 1e3,
        batches: report.net.batches_accepted,
    }
}

fn json_line(args: &Args, m: &Measurement, steps_per_sec: f64, cores: usize) -> String {
    format!(
        "{{\"bench\":\"net_throughput\",\"sessions\":{},\"clients\":{},\"shards\":{},\
         \"steps\":{},\"seed\":{},\"cores\":{},\"steps_per_sec\":{:.1},\
         \"latency_p50_us\":{:.1},\"latency_p99_us\":{:.1},\"batches\":{}}}",
        args.sessions,
        args.clients,
        args.shards,
        args.steps,
        args.seed,
        cores,
        steps_per_sec,
        m.p50_us,
        m.p99_us,
        m.batches
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

    println!(
        "net_throughput: {} sessions x {} steps over {} clients / {} shards ({cores} cores) \
         -> {:.0} steps/sec through loopback TCP, \
         batch latency p50 {:.1} us p99 {:.1} us ({} batches)",
        args.sessions, args.steps, args.clients, args.shards, steps_per_sec, m.p50_us, m.p99_us, m.batches
    );

    let line = json_line(&args, &m, steps_per_sec, cores);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{line}\n")).unwrap_or_else(|e| panic!("--out {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(path) = &args.check {
        let baseline = read_baseline(path);
        check_throughput_floor(path, &baseline, steps_per_sec, args.min_ratio);
        // Tail latency, with more headroom than throughput: loopback p99
        // is dominated by scheduling noise at these batch sizes.
        check_p99_ceiling(&baseline, m.p99_us, args.max_p99_ratio, "latency p99");
    }
}
