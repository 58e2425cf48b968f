//! The daemon workloads: a real `socialtrust_server` driven through its
//! event log and its HTTP endpoints.
//!
//! Load comes from at most two threads: one appends to the log, the
//! other is the single keep-alive HTTP client.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use socialtrust_server::service::ServiceConfig;
use socialtrust_server::{ServerConfig, ServerHandle};

use crate::client::{json_f64, json_u64, score_rows, Client};
use crate::gen::{render_into, Ratings, SplitMix64, World};
use crate::stats::{
    freshness, median, median_over_slices, percentile, rate_between_changes, Observation,
};
use crate::Report;

/// Longest an open-loop append may trail its schedule before the run is
/// marked invalid.
pub const MAX_LATENESS_S: f64 = 0.25;

/// How long appended events may take to show up on a board after the
/// load stops before they count as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// Slices of the measured window; latencies and rates are reported as
/// the median over the slices (see [`report_e2e`]).
const SLICES: usize = 5;

/// How often the traced run scrapes `/metrics`.
const SCRAPE_EVERY_S: f64 = 0.25;

/// Start a daemon with shipped defaults apart from log path, listen
/// address and node capacity.
pub fn start(log: &Path, nodes: u32, replay: bool) -> std::io::Result<ServerHandle> {
    socialtrust_server::start(ServerConfig {
        log_path: log.to_path_buf(),
        listen: "127.0.0.1:0".into(),
        service: ServiceConfig {
            nodes: nodes as usize,
            ..ServiceConfig::default()
        },
        replay,
        ..ServerConfig::default()
    })
}

fn open_append(path: &Path) -> File {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open the event log for appending")
}

/// Append `count` events from `events` to `log` in bounded chunks.
pub fn append_stream(
    log: &mut File,
    events: &mut impl Iterator<Item = socialtrust_server::event::ServerEvent>,
    count: u64,
) {
    let mut buf = String::new();
    let mut left = count;
    while left > 0 {
        let n = left.min(8192);
        buf.clear();
        render_into(events, n, &mut buf);
        log.write_all(buf.as_bytes())
            .expect("append to the event log");
        left -= n;
    }
}

/// Poll `/healthz` until the published board covers `events` events.
/// Returns false when `deadline` passes first.
fn wait_covered(client: &mut Client, events: u64, deadline: Instant) -> bool {
    while Instant::now() < deadline {
        if let Some(r) = client.get("/healthz") {
            if json_u64(&r.body, "events_applied").is_some_and(|a| a >= events) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// A running daemon and its log.
pub struct Daemon {
    pub handle: ServerHandle,
    pub log_path: PathBuf,
    pub log: File,
    pub client: Client,
    /// Events in the log so far.
    pub events: u64,
}

/// Cold start: start on an empty log, append the bootstrap through the
/// tail, and stop the clock at the first board that covers it.
pub fn cold_start(world: &World, log_path: &Path, report: &mut Report) -> (Daemon, f64) {
    let _ = std::fs::remove_file(log_path);
    let started = Instant::now();
    let handle = start(log_path, world.shape.nodes, false).expect("start the daemon");
    let mut log = open_append(log_path);
    let events = world.bootstrap_len();
    append_stream(&mut log, &mut world.bootstrap(), events);
    let mut client = Client::new(handle.addr());
    let covered = wait_covered(&mut client, events, started + Duration::from_secs(120));
    let setup = started.elapsed().as_secs_f64();
    report.check(covered, "cold start: bootstrap never covered by a board");
    let daemon = Daemon {
        handle,
        log_path: log_path.to_path_buf(),
        log,
        client,
        events,
    };
    (daemon, setup)
}

/// Warm restart: `start` with replay over an existing log of `events`
/// events, until the warm board is served.
pub fn replay_start(
    world: &World,
    log_path: &Path,
    events: u64,
    report: &mut Report,
) -> (Daemon, f64) {
    let started = Instant::now();
    let handle = start(log_path, world.shape.nodes, true).expect("start the daemon");
    let mut client = Client::new(handle.addr());
    let covered = wait_covered(&mut client, events, started + Duration::from_secs(120));
    let setup = started.elapsed().as_secs_f64();
    report.check(covered, "restart: replayed log never covered by a board");
    let daemon = Daemon {
        handle,
        log_path: log_path.to_path_buf(),
        log: open_append(log_path),
        client,
        events,
    };
    (daemon, setup)
}

/// What the measured phase of a daemon workload saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Seconds the phase measured over.
    pub window: f64,
    /// `(sent at, latency)` of every client request inside the window.
    pub latencies: Vec<(f64, f64)>,
    /// `(appended at, freshness)` of every event appended in the window.
    pub freshness: Vec<(f64, f64)>,
    /// Events applied per second over the window.
    pub ingest_eps: f64,
    /// Ticks published per second.
    pub tick_rate: f64,
    /// How far each open-loop append trailed its schedule, seconds.
    pub lateness: Vec<f64>,
    /// Largest appended-minus-applied backlog seen by a `/metrics` scrape.
    pub backlog_max: f64,
    /// `/metrics` scrapes taken (traced runs only).
    pub scrapes: u64,
}

/// Checks one `/score` or `/scores` response and returns the board's
/// `(events_applied, tick)`.
fn board_of(
    response: Option<crate::client::Response>,
    score: bool,
    report: &mut Report,
) -> Option<(u64, u64)> {
    let r = response?;
    let ok = r.status == 200 && (!score || json_f64(&r.body, "score").is_some_and(f64::is_finite));
    report.check(ok, format!("bad response {}: {}", r.status, r.body));
    Some((
        json_u64(&r.body, "events_applied")?,
        json_u64(&r.body, "tick")?,
    ))
}

/// Scrape `/metrics` and return `appended - ingested` at that moment.
fn scrape_backlog(client: &mut Client, appended: u64) -> Option<f64> {
    let body = client.get("/metrics")?.body;
    let ingested = crate::layers::prom_value(&body, "server_events_ingested_total")?;
    Some(appended as f64 - ingested)
}

/// The measured phase, open loop: one thread appends `rate` rating
/// events per second on a fixed schedule for `seconds`, whatever the
/// daemon does, while the client sends 90% `/score/{id}` and 10%
/// `/scores?top=100` back to back. Afterwards the client keeps polling
/// until a board covers every appended event.
pub fn measure(
    d: &mut Daemon,
    ratings: &mut Ratings<'_>,
    rate: f64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Phase {
    let base = d.events;
    let nodes = u64::from(ratings.world().shape.nodes);
    let appended = AtomicU64::new(0);
    let t0 = Instant::now();
    let mut rng = SplitMix64::new(base ^ 0x9E7);
    let mut phase = Phase {
        window: seconds,
        ..Phase::default()
    };
    let mut observations = Vec::new();
    let mut ticks = Vec::new();
    let log = &mut d.log;
    let client = &mut d.client;
    let lateness = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut written = 0u64;
            let mut buf = String::new();
            let mut lateness = Vec::new();
            loop {
                let now = t0.elapsed().as_secs_f64();
                if now >= seconds {
                    break;
                }
                let due = (now * rate) as u64;
                if due > written {
                    buf.clear();
                    render_into(ratings, due - written, &mut buf);
                    log.write_all(buf.as_bytes())
                        .expect("append to the event log");
                    lateness.push(t0.elapsed().as_secs_f64() - written as f64 / rate);
                    written = due;
                    appended.store(written, Ordering::Release);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            lateness
        });
        let mut last_scrape = 0.0;
        loop {
            let sent = t0.elapsed().as_secs_f64();
            if sent >= seconds {
                break;
            }
            let scores = rng.below(10) == 0;
            let path = if scores {
                "/scores?top=100".to_string()
            } else {
                format!("/score/{}", rng.below(nodes))
            };
            let response = client.get(&path);
            let at = t0.elapsed().as_secs_f64();
            if let Some((applied, tick)) = board_of(response, !scores, report) {
                phase.latencies.push((sent, at - sent));
                observations.push(Observation { at, applied });
                ticks.push((at, tick));
            }
            if traced && at - last_scrape >= SCRAPE_EVERY_S {
                last_scrape = at;
                if let Some(b) = scrape_backlog(client, base + appended.load(Ordering::Acquire)) {
                    phase.backlog_max = phase.backlog_max.max(b);
                    phase.scrapes += 1;
                }
            }
        }
        writer.join().expect("writer thread")
    });
    let total = appended.load(Ordering::Acquire);
    d.events = base + total;
    let in_window: Vec<(f64, u64)> = observations.iter().map(|o| (o.at, o.applied)).collect();
    phase.ingest_eps = rate_between_changes(&in_window).unwrap_or(0.0);
    phase.tick_rate = rate_between_changes(&ticks).unwrap_or(0.0);
    drain(client, d.events, t0, &mut observations, report);
    // Freshness runs from when an event was due, so a stalled writer
    // counts against it.
    let appended_at = |i: u64| (i - base) as f64 / rate;
    let (fresh, uncovered) = freshness(base, d.events, appended_at, &observations);
    phase.freshness = fresh;
    report.ops.add(total, uncovered);
    let late_max = lateness.iter().copied().fold(0.0, f64::max);
    let late_p50 = percentile(&lateness, 0.5).unwrap_or(0.0);
    eprintln!(
        "e2ebench: open-loop appends ran late by {late_p50:.4} s (p50), {late_max:.4} s (max)"
    );
    report.check(
        late_max <= MAX_LATENESS_S,
        format!("open-loop generator ran {late_max:.3} s late (bound {MAX_LATENESS_S} s)"),
    );
    phase.lateness = lateness;
    phase
}

/// Keep polling `/score` until the board covers `events`, recording the
/// observations that close out freshness.
fn drain(
    client: &mut Client,
    events: u64,
    t0: Instant,
    observations: &mut Vec<Observation>,
    report: &mut Report,
) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while Instant::now() < deadline {
        let response = client.get("/score/0");
        let at = t0.elapsed().as_secs_f64();
        if let Some((applied, _)) = board_of(response, true, report) {
            observations.push(Observation { at, applied });
            if applied >= events {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The end-of-run view of a daemon: every score, and what the checks need.
pub struct Final {
    pub scores: Vec<f64>,
    pub journal: Vec<u64>,
    pub metrics: String,
}

/// Fetch the final board and run the correctness checks every timed
/// daemon run makes: counts of malformed and rejected events are 0,
/// the detector flagged pairs during the measured phase (`/metrics`
/// when it began is `metrics_before`), every score is finite and the
/// trust vector sums to 1.
pub fn finish(d: &mut Daemon, nodes: u32, metrics_before: &str, report: &mut Report) -> Final {
    let covered = wait_covered(&mut d.client, d.events, Instant::now() + DRAIN_DEADLINE);
    report.check(covered, "events_applied never reached the appended total");
    let health = d.client.get("/healthz").map(|r| r.body).unwrap_or_default();
    for key in ["events_malformed", "events_invalid_utf8", "events_rejected"] {
        report.check(
            json_u64(&health, key) == Some(0),
            format!("{key} is not 0: {health}"),
        );
    }
    report.check(
        json_u64(&health, "events_applied") == Some(d.events),
        format!("events_applied != {} appended: {health}", d.events),
    );
    let metrics = d.client.get("/metrics").map(|r| r.body).unwrap_or_default();
    let suspicions = |body: &str| crate::layers::prom_value(body, "detector_suspicions_total");
    report.check(
        suspicions(&metrics).unwrap_or(0.0) > suspicions(metrics_before).unwrap_or(f64::INFINITY),
        "the detector flagged no pair during the measured phase",
    );
    let mut scores = vec![f64::NAN; nodes as usize];
    let body = d
        .client
        .get(&format!("/scores?top={nodes}"))
        .map(|r| r.body)
        .unwrap_or_default();
    let rows = score_rows(&body).unwrap_or_default();
    report.check(
        rows.len() == nodes as usize,
        "/scores did not list every node",
    );
    for (node, score) in rows {
        if let Some(slot) = scores.get_mut(node as usize) {
            *slot = score;
        }
    }
    report.check(
        scores.iter().all(|s| s.is_finite()),
        "a score is not finite",
    );
    let sum: f64 = scores.iter().sum();
    report.check(
        (sum - 1.0).abs() < 1e-6,
        format!("trust vector sums to {sum}"),
    );
    let journal_body = d.client.get("/journal").map(|r| r.body).unwrap_or_default();
    let journal = journal_body
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(cells, _)| cells.split(',').filter_map(|c| c.parse().ok()).collect())
        .unwrap_or_default();
    Final {
        scores,
        journal,
        metrics,
    }
}

/// Colluders' share of the trust mass: the share of requests that
/// EigenTrust's probabilistic peer selection sends to colluders.
pub fn colluder_share(world: &World, scores: &[f64]) -> f64 {
    let mass: f64 = world.colluders().iter().map(|&c| scores[c as usize]).sum();
    mass / scores.iter().sum::<f64>()
}

/// Report the end-to-end metrics of a daemon workload. Latencies and
/// request rates are taken per slice of the window (by send or append
/// time) and reported as the median over the slices.
pub fn report_e2e(report: &mut Report, setups: &[f64], phase: &Phase, share: f64) {
    let sliced = |samples: &[(f64, f64)], stat: &dyn Fn(&[f64]) -> Option<f64>| {
        median_over_slices(samples, phase.window, SLICES, stat).unwrap_or(f64::NAN)
    };
    let p50 = |v: &[f64]| percentile(v, 0.5);
    let p99 = |v: &[f64]| percentile(v, 0.99);
    let slice_s = phase.window / SLICES as f64;
    report.metric("setup_s", median(setups).unwrap_or(f64::NAN), "s");
    report.metric("freshness_p50_s", sliced(&phase.freshness, &p50), "s");
    report.metric("freshness_p99_s", sliced(&phase.freshness, &p99), "s");
    report.metric("query_p50_s", sliced(&phase.latencies, &p50), "s");
    report.metric("query_p99_s", sliced(&phase.latencies, &p99), "s");
    report.metric(
        "query_rps",
        sliced(&phase.latencies, &|v: &[f64]| {
            Some(v.len() as f64 / slice_s)
        }),
        "1/s",
    );
    report.metric("ingest_eps", phase.ingest_eps, "1/s");
    report.metric("sim_cycles_per_s", phase.tick_rate, "1/s");
    report.metric("colluder_request_share", share, "ratio");
}
