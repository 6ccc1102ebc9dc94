//! Network serving throughput: aggregate steps/sec through the full wire
//! path — client encode → loopback TCP → frame decode → shard queues →
//! reply encode → client decode — plus submit→reply tail latency.
//!
//! `--out BENCH_net.json` records the committed baseline; `--check
//! BENCH_net.json` fails (exit 1) when throughput drops more than 20%
//! below it or p99 latency grows past 3× the baseline's
//! (`ficsum_bench::throughput::{MIN_RATIO, MAX_P99_RATIO}`). The `cores`
//! field keeps baselines honest across machines.
//!
//! Usage:
//!
//! ```sh
//! net_throughput [--sessions N] [--clients C] [--shards S] [--steps K]
//!                [--seed S] [--repeat R] [--out PATH] [--check PATH]
//! ```
//!
//! Defaults: 32 sessions over 4 clients and 4 shards, 300 steps per
//! session, best of 3.

use std::sync::Arc;
use std::time::Instant;

use ficsum_bench::throughput::{
    best_of, cores, fixed, serving_template, stagger_tape, write_baseline, Baseline, Flags,
};
use ficsum_net::{NetClient, NetServer};
use ficsum_obs::jsonl::{format_record, JsonValue};
use ficsum_serve::{ServeConfig, SessionId, StreamServer, Submit};

struct Args {
    sessions: usize,
    clients: usize,
    shards: usize,
    steps: usize,
    seed: u64,
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

fn main() {
    let flags = Flags::from_env(
        &[
            "--sessions",
            "--clients",
            "--shards",
            "--steps",
            "--seed",
            "--repeat",
            "--out",
            "--check",
        ],
        &[],
    );
    let args = Args {
        sessions: flags.get("--sessions", 32),
        clients: flags.get("--clients", 4),
        shards: flags.get("--shards", 4),
        steps: flags.get("--steps", 300),
        seed: flags.get("--seed", 42),
    };
    assert!(args.clients >= 1, "--clients must be at least 1");
    assert!(args.sessions >= args.clients, "--sessions must be >= --clients");
    let cores = cores();
    let (steps_per_sec, m) = best_of(
        flags.get("--repeat", 3),
        || run_once(&args),
        |m| m.served_steps as f64 / m.seconds,
    );

    println!(
        "net_throughput: {} sessions x {} steps over {} clients / {} shards ({cores} cores) \
         -> {:.0} steps/sec through loopback TCP, \
         batch latency p50 {:.1} us p99 {:.1} us ({} batches)",
        args.sessions,
        args.steps,
        args.clients,
        args.shards,
        steps_per_sec,
        m.p50_us,
        m.p99_us,
        m.batches
    );

    write_baseline(
        &flags,
        &[format_record(&[
            ("bench", JsonValue::Str("net_throughput")),
            ("sessions", JsonValue::Int(args.sessions as u64)),
            ("clients", JsonValue::Int(args.clients as u64)),
            ("shards", JsonValue::Int(args.shards as u64)),
            ("steps", JsonValue::Int(args.steps as u64)),
            ("seed", JsonValue::Int(args.seed)),
            ("cores", JsonValue::Int(cores)),
            ("steps_per_sec", fixed(steps_per_sec, 1)),
            ("latency_p50_us", fixed(m.p50_us, 1)),
            ("latency_p99_us", fixed(m.p99_us, 1)),
            ("batches", JsonValue::Int(m.batches)),
        ])],
    );
    if let Some(path) = flags.value("--check") {
        // Tail latency, with more headroom than throughput: loopback p99
        // is dominated by scheduling noise at these batch sizes.
        Baseline::read(path).gate(&[], &[("steps_per_sec", steps_per_sec)], Some(m.p99_us));
    }
}
