//! End-to-end benchmark of the SocialTrust daemon and paper simulator.
//!
//! `run(workload, seed, seconds, traced)` runs one workload and returns a
//! [`Report`]: whether every correctness check passed, operations
//! attempted and failed, and the metrics. Untraced runs report the
//! end-to-end metrics; traced runs report the per-layer metrics (see
//! `layers`). README.md lists the workloads and what each metric means.

pub mod client;
pub mod daemon;
pub mod gen;
pub mod layers;
pub mod paper;
pub mod stats;

use std::path::{Path, PathBuf};

use gen::{Shape, World};
use stats::{median, Ops};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["steady-100k", "restart", "paper-pcm"];

/// The end-to-end metrics every untraced run reports, with units.
pub const E2E: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("freshness_p50_s", "s"),
    ("freshness_p99_s", "s"),
    ("query_p50_s", "s"),
    ("query_p99_s", "s"),
    ("query_rps", "1/s"),
    ("ingest_eps", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("colluder_request_share", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub ops: Ops,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), format!("metric {name} is {value}"));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a correctness check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            if self.problems.len() < 20 {
                eprintln!("e2ebench: check failed: {what}");
            }
            self.problems.push(what);
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems.is_empty(),
            self.ops.attempted.max(1),
            self.ops.failed,
            metrics.join(",")
        )
    }
}

/// Peak resident memory of this process, MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15, in USER_HZ (100 per second on Linux).
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / 100.0
}

// Interests and pretrusted ids match the daemon's `ServiceConfig`
// defaults (64 categories, ids 0..16 pretrusted).

const STEADY: Shape = Shape {
    nodes: 100_000,
    interests: 64,
    degree: 2,
    history: 2,
    fanout: 64,
    colluder_pairs: 12,
    colluder_every: 10,
    pretrusted: 16,
};
/// Open-loop append rate of `steady-100k`, events/s: about a third of
/// the daemon's catch-up rate at 100k nodes (~82k events/s on a 2-core
/// x86-64 box), so the backlog stays flat.
const STEADY_RATE: f64 = 25_000.0;

const RESTART: Shape = Shape {
    nodes: 10_000,
    interests: 64,
    degree: 2,
    history: 2,
    fanout: 64,
    colluder_pairs: 8,
    colluder_every: 3,
    pretrusted: 16,
};
/// Events in the `restart` log: the parent replays it in a few seconds.
const RESTART_LOG: u64 = 55_000;
/// Open-loop append rate after the restart, events/s. Ticks at 10k nodes
/// come every ~0.25 s; at this rate each colluder still rates its
/// partner ~10 times per tick, above the detector's frequency floor of 5.
const RESTART_RATE: f64 = 4_000.0;

/// Cold or warm starts per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A scratch directory for one run's logs, inside the working directory.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> WorkDir {
        let dir = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `workload` once.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    match workload {
        "steady-100k" | "restart" => run_daemon(workload, seed, seconds, traced, &mut report),
        "paper-pcm" => run_paper(seed, traced, &mut report),
        other => panic!("unknown workload {other:?}"),
    }
    report
}

fn run_daemon(workload: &str, seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let work = WorkDir::new();
    let (shape, rate) = match workload {
        "steady-100k" => (STEADY, STEADY_RATE),
        _ => (RESTART, RESTART_RATE),
    };
    let world = World::new(shape, seed);
    let mut ratings = world.ratings();
    let restart_log = work.0.join("restart.jsonl");
    if workload == "restart" {
        let mut file = std::fs::File::create(&restart_log).expect("create the restart log");
        let boot = world.bootstrap_len();
        daemon::append_stream(&mut file, &mut world.bootstrap(), boot);
        daemon::append_stream(&mut file, &mut ratings, RESTART_LOG - boot);
    }
    // Start k: a warm start over a fresh copy of the restart log, or a
    // cold start on a log of its own. Records `setup_s` and, for a traced
    // restart, the first tick's time.
    let mut setups = Vec::new();
    let mut boot_ticks = Vec::new();
    let mut start = |k: usize, report: &mut Report| {
        let log = work.0.join(format!("{workload}-{k}.jsonl"));
        let (mut d, setup) = if workload == "restart" {
            std::fs::copy(&restart_log, &log).expect("copy the restart log");
            daemon::replay_start(&world, &log, RESTART_LOG, report)
        } else {
            daemon::cold_start(&world, &log, report)
        };
        setups.push(setup);
        if traced && workload == "restart" {
            let metrics = d.client.get("/metrics").map(|r| r.body).unwrap_or_default();
            boot_ticks
                .push(layers::prom_value(&metrics, "server_tick_seconds_sum").unwrap_or(f64::NAN));
        }
        d
    };
    // The first start serves the measured phase, so `rss_peak_mb` sees
    // one daemon in a fresh process; the other starts only time setup.
    let mut d = start(0, report);
    let phase_base = d.events;
    let metrics_before = d.client.get("/metrics").map(|r| r.body).unwrap_or_default();
    let cpu_before = cpu_seconds();
    let phase = daemon::measure(&mut d, &mut ratings, rate, seconds, traced, report);
    let cpu_s = cpu_seconds() - cpu_before;
    let fin = daemon::finish(&mut d, shape.nodes, &metrics_before, report);
    report.ops.add(d.client.ops.attempted, d.client.ops.failed);
    let share = daemon::colluder_share(&world, &fin.scores);
    let log_path = d.log_path.clone();
    let events = d.events;
    d.handle.shutdown();
    let rss_mb = rss_peak_mb();
    for k in 1..SETUPS {
        let extra = start(k, report);
        extra.handle.shutdown();
        let _ = std::fs::remove_file(&extra.log_path);
    }
    daemon::report_e2e(report, &setups, &phase, share);
    report.metric("rss_peak_mb", rss_mb, "MB");
    if traced {
        let replay_apply: Vec<f64> = setups.iter().zip(&boot_ticks).map(|(s, t)| s - t).collect();
        let ctx = layers::DaemonRun {
            world: &world,
            log: &log_path,
            phase_base,
            events,
            metrics_before: &metrics_before,
            fin: &fin,
            phase: &phase,
            cpu_s,
            replay_apply_s: median(&replay_apply).unwrap_or(0.0),
        };
        layers::daemon_layers(&ctx, report);
    }
}

fn run_paper(seed: u64, traced: bool, report: &mut Report) {
    let scenario = paper::scenario();
    let telemetry = traced.then(layers::full_telemetry);
    let mut totals = paper::Totals::default();
    let mut spans = layers::SpanTotals::default();
    let mut planted = 0;
    for r in 0..paper::RUNS {
        let run = paper::run(&scenario, paper::run_seed(seed, r), telemetry.as_ref());
        report.check(
            paper::shape_holds(&scenario, &run.result),
            format!("run {r}: colluder mean reputation is not below the normal mean"),
        );
        if let Some(t) = &telemetry {
            let truth: std::collections::BTreeSet<(u32, u32)> =
                run.boost_edges.iter().copied().collect();
            planted = truth.len();
            for trace in t.tracer().take_traces() {
                spans.add_trace(&trace, &truth, planted as u64);
            }
        }
        report.ops.add(scenario.sim_cycles as u64, 0);
        totals.add(&scenario, run);
    }
    report.metric("setup_s", median(&totals.setups).unwrap_or(f64::NAN), "s");
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    report.metric("freshness_p50_s", med(&totals.freshness_p50), "s");
    report.metric("freshness_p99_s", med(&totals.freshness_p99), "s");
    report.metric("query_p50_s", med(&totals.query_p50), "s");
    report.metric("query_p99_s", med(&totals.query_p99), "s");
    report.metric("query_rps", med(&totals.requests_per_s), "1/s");
    report.metric("ingest_eps", med(&totals.ratings_per_s), "1/s");
    report.metric("sim_cycles_per_s", med(&totals.cycles_per_s), "1/s");
    report.metric(
        "colluder_request_share",
        totals.requests_to_colluders as f64 / totals.requests as f64,
        "ratio",
    );
    report.metric("rss_peak_mb", rss_peak_mb(), "MB");
    if let Some(t) = &telemetry {
        layers::paper_layers(t, &spans, &totals, planted, report);
    }
}
