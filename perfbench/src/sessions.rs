//! Served sessions, measured by the traced `stagger-batch` run: the first
//! 32 streams of its pool become STAGGER sessions, served by `NetServer`
//! over a 2-shard `StreamServer` to a closed loop of 2 `NetClient`
//! connections. Each connection owns 16 sessions and sends one wave (one
//! step of each of its sessions) at a time, blocking on the reply.
//!
//! These figures are per-layer, not end-to-end: over loopback on a 2-vCPU
//! host the served throughput and tail latency moved by a third from run
//! to run, with whether the host took a vCPU away.

use std::sync::Arc;
use std::time::Instant;

use ficsum_core::{Ficsum, FicsumConfig, SessionTemplate, StepOutcome, Variant};
use ficsum_net::{NetClient, NetReport, NetServer, RemoteOutcome};
use ficsum_serve::{ServeConfig, ServeReport, SessionId, StreamServer, Submit};

use crate::layers::Tape;
use crate::report::Report;
use crate::stats::{median, quantile, Digest};

const SESSIONS: usize = 32;
const SHARDS: usize = 2;
const CLIENTS: usize = 2;

fn template() -> SessionTemplate {
    SessionTemplate::new(3, 2, FicsumConfig::default(), Variant::Full)
        .expect("the default configuration is valid")
}

/// Sessions owned by connection `client`.
fn owned(client: usize) -> Vec<usize> {
    (0..SESSIONS).filter(|s| s % CLIENTS == client).collect()
}

/// Waves a connection with `n` sessions of `steps` steps sends.
fn waves(n: usize, steps: usize) -> usize {
    steps + n - 1
}

/// `(session index, step)` of each request in wave `k` of a connection
/// with `n` sessions. Session `j` joins at wave `j`, so the sessions' step
/// counters, and with them their fingerprint checks and repository
/// refreshes, are staggered rather than in lockstep.
fn wave_members(n: usize, steps: usize, k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).filter_map(move |j| {
        k.checked_sub(j)
            .filter(|&step| step < steps)
            .map(|step| (j, step))
    })
}

/// One step's outcome as both transports report it.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    prediction: usize,
    drift: bool,
    switched: bool,
    active: u64,
}

impl From<StepOutcome> for Outcome {
    fn from(o: StepOutcome) -> Self {
        Self {
            prediction: o.prediction,
            drift: o.drift,
            switched: o.concept_switched,
            active: o.active_concept as u64,
        }
    }
}

impl From<RemoteOutcome> for Outcome {
    fn from(o: RemoteOutcome) -> Self {
        Self {
            prediction: o.prediction,
            drift: o.drift,
            switched: o.concept_switched,
            active: o.active_concept,
        }
    }
}

/// Digest and step count of one session's outcomes.
#[derive(Debug, Clone, Copy, Default)]
struct SessionRun {
    digest: Digest,
    steps: usize,
}

impl SessionRun {
    fn record(&mut self, o: Outcome) {
        self.digest
            .push(o.prediction, o.drift, o.switched, o.active);
        self.steps += 1;
    }
}

/// Counts every session whose outcomes differ from its standalone replay
/// as failed steps.
fn check_digests(what: &str, runs: &[SessionRun], reference: &[SessionRun], report: &mut Report) {
    for (s, (run, want)) in runs.iter().zip(reference).enumerate() {
        if run.digest != want.digest || run.steps != want.steps {
            report.failed += want.steps as u64;
            report.problem(format!(
                "{what}: session {s} digest {:x} after {} steps, standalone replay {:x}",
                run.digest.0, run.steps, want.digest.0
            ));
        }
    }
}

/// Standalone reference: each of `sessions` replayed through its own
/// `SessionTemplate::instantiate()` pipeline, wave by wave as its
/// connection sends them, each wave's service time appended to
/// `service_us`.
fn replay(
    template: &SessionTemplate,
    tapes: &[Tape],
    sessions: &[usize],
    service_us: &mut Vec<f64>,
) -> Vec<(usize, SessionRun)> {
    let steps = tapes[0].len();
    let mut pipelines: Vec<Ficsum> = sessions.iter().map(|_| template.instantiate()).collect();
    let mut runs = vec![SessionRun::default(); sessions.len()];
    for k in 0..waves(sessions.len(), steps) {
        let start = Instant::now();
        for (j, step) in wave_members(sessions.len(), steps, k) {
            let (x, y) = tapes[sessions[j]].row(step);
            runs[j].record(pipelines[j].process(x, y).into());
        }
        service_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    sessions.iter().copied().zip(runs).collect()
}

/// Collects per-connection results into session order.
fn by_session(parts: Vec<Vec<(usize, SessionRun)>>) -> Vec<SessionRun> {
    let mut runs = vec![SessionRun::default(); SESSIONS];
    for (s, run) in parts.into_iter().flatten() {
        runs[s] = run;
    }
    runs
}

/// What a served pass produced, in session order.
struct Served {
    wall_s: f64,
    /// Round trip of every wave, connection by connection.
    latencies_us: Vec<f64>,
    runs: Vec<SessionRun>,
    failed: u64,
}

/// Drives `CLIENTS` closed loops, one thread per connection. `submit`
/// sends one wave and returns each request's outcome, `None` for one that
/// failed. Returns the connections for an orderly shutdown.
fn drive<C: Send>(
    tapes: &[Tape],
    connections: Vec<C>,
    submit: impl Fn(&mut C, &[Submit]) -> Vec<Option<Outcome>> + Sync,
) -> (Served, Vec<C>) {
    let submit = &submit;
    let steps = tapes[0].len();
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mine = owned(c);
                    let mut runs = vec![SessionRun::default(); mine.len()];
                    let mut latencies_us = Vec::with_capacity(waves(mine.len(), steps));
                    let mut failed = 0u64;
                    for k in 0..waves(mine.len(), steps) {
                        let members: Vec<(usize, usize)> =
                            wave_members(mine.len(), steps, k).collect();
                        let wave: Vec<Submit> = members
                            .iter()
                            .map(|&(j, step)| {
                                let (x, y) = tapes[mine[j]].row(step);
                                Submit::new(SessionId(mine[j] as u64), x.to_vec(), y)
                            })
                            .collect();
                        let t0 = Instant::now();
                        let outcomes = submit(&mut conn, &wave);
                        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        for (&(j, _), outcome) in members.iter().zip(outcomes) {
                            match outcome {
                                Some(o) => runs[j].record(o),
                                None => failed += 1,
                            }
                        }
                    }
                    (
                        mine.into_iter().zip(runs).collect::<Vec<_>>(),
                        latencies_us,
                        failed,
                        conn,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut served = Served {
        wall_s,
        latencies_us: Vec::new(),
        runs: Vec::new(),
        failed: 0,
    };
    let (mut parts, mut connections) = (Vec::new(), Vec::new());
    for (runs, latencies, failed, conn) in results {
        parts.push(runs);
        served.latencies_us.extend(latencies);
        served.failed += failed;
        connections.push(conn);
    }
    served.runs = by_session(parts);
    (served, connections)
}

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_shards(SHARDS)
        .with_max_sessions_per_shard(SESSIONS)
}

/// One pass of every session through the in-process server.
fn serve_pass(tapes: &[Tape]) -> (Served, ServeReport) {
    let server = StreamServer::new(template(), serve_config());
    let (served, _) = drive(
        tapes,
        vec![&server; CLIENTS],
        |server: &mut &StreamServer, wave| match server.try_submit(wave) {
            Ok(reply) => reply
                .wait()
                .into_iter()
                .map(|r| {
                    r.map_err(|e| eprintln!("step error: {e}"))
                        .ok()
                        .map(Outcome::from)
                })
                .collect(),
            Err(e) => {
                eprintln!("serve error: {e}");
                vec![None; wave.len()]
            }
        },
    );
    (served, server.shutdown())
}

/// One pass of every session over loopback TCP.
fn net_pass(tapes: &[Tape]) -> (Served, NetReport) {
    let core = Arc::new(StreamServer::new(template(), serve_config()));
    let net = NetServer::bind("127.0.0.1:0", core).expect("bind a loopback port");
    let clients: Vec<NetClient> = (0..CLIENTS)
        .map(|_| NetClient::connect(net.local_addr()).expect("handshake with the local server"))
        .collect();
    let (served, clients) = drive(tapes, clients, |client: &mut NetClient, wave| match client
        .submit(wave)
    {
        Ok(results) => results
            .into_iter()
            .map(|r| {
                r.map_err(|e| eprintln!("step error: {e}"))
                    .ok()
                    .map(Outcome::from)
            })
            .collect(),
        Err(e) => {
            eprintln!("net error: {e}");
            vec![None; wave.len()]
        }
    });
    for client in clients {
        if let Err(e) = client.shutdown() {
            eprintln!("client shutdown: {e}");
        }
    }
    (served, net.shutdown())
}

/// Splits the latency of the slowest requests wave by wave. Over the net
/// requests at or above the p99 of `net_us`, returns the mean standalone
/// service time of the wave, its mean queue wait (in-process round trip
/// minus service) and its mean net overhead (loopback round trip minus
/// in-process round trip); the three sum to the tail's mean latency. All
/// three slices hold one entry per wave, in the same wave order.
fn tail_split(net_us: &[f64], serve_us: &[f64], service_us: &[f64]) -> [f64; 3] {
    assert!(
        net_us.len() == service_us.len() && serve_us.len() == service_us.len(),
        "one round trip per wave on every path"
    );
    let cut = quantile(&mut net_us.to_vec(), 0.99);
    let tail: Vec<usize> = (0..net_us.len()).filter(|&i| net_us[i] >= cut).collect();
    let mean = |part: &dyn Fn(usize) -> f64| {
        tail.iter().map(|&i| part(i)).sum::<f64>() / tail.len() as f64
    };
    [
        mean(&|i| service_us[i]),
        mean(&|i| serve_us[i] - service_us[i]),
        mean(&|i| net_us[i] - serve_us[i]),
    ]
}

/// Per-layer metrics of the served path: the first `SESSIONS` of `tapes`
/// replayed standalone, then sent through the in-process server, then over
/// loopback TCP. Every served session must match its standalone replay.
pub fn trace_served(tapes: &[Tape], report: &mut Report) {
    let tapes = &tapes[..SESSIONS];
    let steps = tapes[0].len();
    assert!(
        tapes.iter().all(|t| t.len() == steps),
        "sessions share a length"
    );
    let template = template();
    let mut service_us = Vec::new();
    let reference = by_session(
        (0..CLIENTS)
            .map(|c| replay(&template, tapes, &owned(c), &mut service_us))
            .collect(),
    );
    report.metric("core.service_us", median(&service_us), "us");

    let (serve, serve_report) = serve_pass(tapes);
    let (net, net_report) = net_pass(tapes);
    for (what, served) in [("serve pass", &serve), ("net pass", &net)] {
        report.attempted += (SESSIONS * steps) as u64;
        report.failed += served.failed;
        check_digests(what, &served.runs, &reference, report);
    }
    let serve_p50 = median(&serve.latencies_us);
    report.metric("serve.latency_p50_us", serve_p50, "us");
    let serve_p99 = quantile(&mut serve.latencies_us.clone(), 0.99);
    report.metric("serve.latency_p99_us", serve_p99, "us");
    let depth = serve_report
        .metrics
        .iter()
        .map(|m| m.max_queue_depth)
        .max()
        .unwrap_or(0);
    report.metric("serve.max_queue_depth", depth as f64, "count");
    let processed: Vec<u64> = serve_report.metrics.iter().map(|m| m.processed).collect();
    let (most, least) = (processed.iter().max(), processed.iter().min());
    let skew = most
        .zip(least)
        .map_or(0.0, |(&hi, &lo)| hi as f64 / lo.max(1) as f64);
    report.metric("serve.shard_skew", skew, "ratio");

    let net_rate = (SESSIONS * steps) as f64 / net.wall_s;
    report.metric("net.steps_per_sec", net_rate, "1/s");
    let net_p50 = median(&net.latencies_us);
    report.metric("net.latency_p50_us", net_p50, "us");
    let net_p99 = quantile(&mut net.latencies_us.clone(), 0.99);
    report.metric("net.latency_p99_us", net_p99, "us");
    report.metric("net.overhead_p50_us", net_p50 - serve_p50, "us");
    let errors = net_report.net.protocol_errors as f64;
    report.metric("net.protocol_errors", errors, "count");
    let rejected = net_report.net.batches_rejected as f64;
    report.metric("net.batches_rejected", rejected, "count");
    let [service, queue_wait, overhead] =
        tail_split(&net.latencies_us, &serve.latencies_us, &service_us);
    report.metric("core.tail_service_us", service, "us");
    report.metric("serve.tail_queue_wait_us", queue_wait, "us");
    report.metric("net.tail_overhead_us", overhead, "us");
}

/// The served-path metrics of a workload that never enters `serve` or
/// `net`, reported as 0 so every traced run carries the same metric set.
pub fn report_unserved(report: &mut Report) {
    for (name, unit) in [
        ("core.service_us", "us"),
        ("serve.latency_p50_us", "us"),
        ("serve.latency_p99_us", "us"),
        ("serve.max_queue_depth", "count"),
        ("serve.shard_skew", "ratio"),
        ("net.steps_per_sec", "1/s"),
        ("net.latency_p50_us", "us"),
        ("net.latency_p99_us", "us"),
        ("net.overhead_p50_us", "us"),
        ("net.protocol_errors", "count"),
        ("net.batches_rejected", "count"),
        ("core.tail_service_us", "us"),
        ("serve.tail_queue_wait_us", "us"),
        ("net.tail_overhead_us", "us"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_split_attributes_the_slowest_waves() {
        let service: Vec<f64> = (0..200)
            .map(|i| if i % 3 == 0 { 100.0 } else { 10.0 })
            .collect();
        let serve: Vec<f64> = service.iter().map(|s| s + 50.0).collect();
        let mut net: Vec<f64> = serve.iter().map(|s| s + 20.0).collect();
        net[7] = 5_000.0;
        net[150] = 6_000.0;
        assert_eq!(tail_split(&net, &serve, &service), [55.0, 50.0, 5_395.0]);
    }

    #[test]
    fn staggered_waves_send_every_step_of_every_session_once() {
        let (n, steps) = (16, 300);
        let mut next = vec![0; n];
        for k in 0..waves(n, steps) {
            for (j, step) in wave_members(n, steps, k) {
                assert_eq!(step, next[j], "session {j} steps in order");
                next[j] += 1;
            }
        }
        assert!(next.iter().all(|&s| s == steps));
        // Neighbouring sessions are one step apart within a wave.
        let mid: Vec<_> = wave_members(n, steps, 100).collect();
        assert_eq!(mid.len(), n);
        assert!(mid.windows(2).all(|w| w[0].1 == w[1].1 + 1));
    }

    #[test]
    fn connections_own_disjoint_halves() {
        let (a, b) = (owned(0), owned(1));
        assert_eq!(a.len() + b.len(), SESSIONS);
        assert!(a.iter().all(|s| !b.contains(s)));
    }
}
