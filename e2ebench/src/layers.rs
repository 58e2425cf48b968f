//! The traced run: per-layer metrics.
//!
//! A traced daemon run measures its workload as an untraced run does,
//! and also scrapes `/metrics` as it goes. Afterwards it replays the same
//! log with the served `/journal` tick boundaries through an in-process
//! `ReputationService` whose tracer records every cycle, timing each
//! public call (`parse_event`, `apply`, `tick`, `ScoreBoard::ranking`)
//! and reading the per-tick spans. The replay must reproduce the
//! daemon's final scores bit for bit.
//!
//! A traced `paper-pcm` run attaches a full-sampling telemetry bundle to
//! every run and reads the same spans plus the simulator's histograms.
//!
//! A layer that does no work in a workload reports 0.

use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::path::Path;
use std::time::Instant;

use socialtrust::telemetry::trace::names;
use socialtrust::telemetry::{EventSink, SampleMode, Telemetry, TraceRecord, Tracer, TracerConfig};
use socialtrust_server::event::parse_event;
use socialtrust_server::service::{ReputationService, ServiceConfig};

use crate::daemon::{Final, Phase};
use crate::gen::World;
use crate::paper::Totals;
use crate::stats::percentile;
use crate::Report;

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("event.parse_ns", "ns"),
    ("event.lines", "count"),
    ("event.malformed", "count"),
    ("ingest.apply_s", "s"),
    ("ingest.batches", "count"),
    ("ingest.lock_wait_s", "s"),
    ("ingest.backlog_max_events", "count"),
    ("replay.apply_s", "s"),
    ("service.apply_ns", "ns"),
    ("tick.count", "count"),
    ("tick.p50_s", "s"),
    ("tick.max_s", "s"),
    ("tick.skipped", "count"),
    ("board.publish_s", "s"),
    ("board.rank_s", "s"),
    ("board.journal_len", "count"),
    ("snapshot.patches", "count"),
    ("snapshot.rebuilds", "count"),
    ("snapshot.rebuild_s", "s"),
    ("snapshot.bytes_per_node", "B"),
    ("detect.s", "s"),
    ("detect.pairs", "count"),
    ("detect.suspicions", "count"),
    ("detect.b1", "count"),
    ("detect.b2", "count"),
    ("detect.b3", "count"),
    ("detect.b4", "count"),
    ("detect.precision", "ratio"),
    ("detect.recall", "ratio"),
    ("gaussian.s", "s"),
    ("gaussian.weights", "count"),
    ("rescale.s", "s"),
    ("rescale.ratings", "count"),
    ("update.s", "s"),
    ("eigentrust.s", "s"),
    ("eigentrust.iterations", "count"),
    ("eigentrust.residual", "ratio"),
    ("eigentrust.warm_starts", "count"),
    ("http.requests", "count"),
    ("http.connections", "count"),
    ("http.server_p50_s", "s"),
    ("http.non2xx", "count"),
    ("sim.query_phase_s", "s"),
    ("sim.update_phase_s", "s"),
    ("sim.cycle_s", "s"),
    ("process.cpu_s", "s"),
    ("trace.scrapes", "count"),
    ("load.lateness_p50_s", "s"),
    ("load.lateness_max_s", "s"),
];

/// A telemetry bundle whose tracer records every cycle.
pub fn full_telemetry() -> Telemetry {
    Telemetry::with_parts(
        EventSink::disabled(),
        Tracer::new(TracerConfig {
            sample: SampleMode::Full,
            max_traces: 1024,
            ..TracerConfig::default()
        }),
    )
}

/// The value of one series (`name` or `name{labels}`) in a Prometheus
/// text body.
pub fn prom_value(body: &str, series: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let (key, value) = line.rsplit_once(' ')?;
        if key == series {
            value.parse().ok()
        } else {
            None
        }
    })
}

/// The sum of every labelled series of `family` whose labels satisfy `keep`.
fn prom_sum(body: &str, family: &str, keep: impl Fn(&str) -> bool) -> f64 {
    body.lines()
        .filter_map(|line| {
            let labels = line.strip_prefix(family)?.strip_prefix('{')?;
            let (labels, value) = labels.rsplit_once(' ')?;
            keep(labels).then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

/// Sums over the per-cycle span trees of a run.
#[derive(Debug, Default)]
pub struct SpanTotals {
    pub cycles: u64,
    pub cycle_s: f64,
    pub detect_s: f64,
    pub suspicions: u64,
    pub gaussian_s: f64,
    pub weights: u64,
    pub rescale_s: f64,
    pub rescaled: u64,
    pub update_s: f64,
    pub eigentrust_s: f64,
    pub iterations: u64,
    pub residual: f64,
    pub warm_starts: u64,
    /// Flagged pairs, and how many of them are planted colluder pairs.
    pub flags: u64,
    pub true_flags: u64,
    /// Planted pairs summed over the cycles that count towards recall.
    pub truth_total: u64,
    pub dropped_spans: u64,
}

impl SpanTotals {
    /// Add one cycle's span tree. `truth` holds the planted colluder
    /// pairs; cycles with `truth_len == 0` do not count towards recall.
    pub fn add_trace(&mut self, trace: &TraceRecord, truth: &BTreeSet<(u32, u32)>, truth_len: u64) {
        let secs = |ns: u64| ns as f64 * 1e-9;
        self.cycles += 1;
        self.dropped_spans += trace.dropped_spans;
        self.truth_total += truth_len;
        if let Some(root) = trace.root_span() {
            self.cycle_s += secs(root.duration_ns);
        }
        for span in &trace.spans {
            match span.name.as_str() {
                names::DETECT => {
                    self.detect_s += secs(span.duration_ns);
                    self.suspicions += span.attr_u64("suspicions").unwrap_or(0);
                }
                names::VERDICT => {
                    self.flags += 1;
                    let pair = (
                        span.attr_u64("rater").unwrap_or(u64::MAX) as u32,
                        span.attr_u64("ratee").unwrap_or(u64::MAX) as u32,
                    );
                    if truth.contains(&pair) {
                        self.true_flags += 1;
                    }
                }
                names::GAUSSIAN => self.gaussian_s += secs(span.duration_ns),
                names::WEIGHT => self.weights += 1,
                names::RESCALE => self.rescale_s += secs(span.duration_ns),
                names::RESCALED_RATING => self.rescaled += 1,
                names::UPDATE => self.update_s += secs(span.duration_ns),
                names::EIGENTRUST => {
                    self.eigentrust_s += secs(span.duration_ns);
                    self.iterations += span.attr_u64("iterations").unwrap_or(0);
                    self.residual = span.attr_f64("residual").unwrap_or(f64::NAN);
                    if span.attr_bool("warm_start") == Some(true) {
                        self.warm_starts += 1;
                    }
                }
                _ => {}
            }
        }
    }

    fn report(&self, out: &mut BTreeMap<&'static str, f64>, planted: usize) {
        out.insert("detect.s", self.detect_s);
        out.insert("detect.pairs", planted as f64);
        out.insert("detect.suspicions", self.suspicions as f64);
        out.insert("detect.precision", ratio(self.true_flags, self.flags));
        out.insert("detect.recall", ratio(self.true_flags, self.truth_total));
        out.insert("gaussian.s", self.gaussian_s);
        out.insert("gaussian.weights", self.weights as f64);
        out.insert("rescale.s", self.rescale_s);
        out.insert("rescale.ratings", self.rescaled as f64);
        out.insert("update.s", self.update_s);
        out.insert("eigentrust.s", self.eigentrust_s);
        out.insert("eigentrust.iterations", ratio(self.iterations, self.cycles));
        out.insert("eigentrust.residual", self.residual);
        out.insert("eigentrust.warm_starts", self.warm_starts as f64);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What a traced daemon run hands to the replay.
pub struct DaemonRun<'a> {
    pub world: &'a World,
    pub log: &'a Path,
    /// Events in the log when the measured phase began, and at the end.
    pub phase_base: u64,
    pub events: u64,
    /// `/metrics` when the measured phase began.
    pub metrics_before: &'a str,
    pub fin: &'a Final,
    pub phase: &'a Phase,
    /// CPU seconds of the measured phase.
    pub cpu_s: f64,
    /// `restart` only: median warm start minus its first tick.
    pub replay_apply_s: f64,
}

/// Replay the daemon's log through an in-process service with the served
/// journal's tick boundaries, and report every per-layer metric of the
/// measured phase: counters are deltas over the phase, and only the
/// phase's events and ticks are timed.
pub fn daemon_layers(run: &DaemonRun<'_>, report: &mut Report) {
    let mut out = BTreeMap::new();
    let metrics = &run.fin.metrics;
    let last = |series: &str| prom_value(metrics, series).unwrap_or(f64::NAN);
    let delta = |series: &str| last(series) - prom_value(run.metrics_before, series).unwrap_or(0.0);

    let journal = &run.fin.journal;
    report.check(
        journal.last() == Some(&run.events),
        format!(
            "journal ends at {:?}, not at the {} events logged",
            journal.last(),
            run.events
        ),
    );
    let telemetry = full_telemetry();
    let config = ServiceConfig {
        nodes: run.world.shape.nodes as usize,
        ..ServiceConfig::default()
    };
    let mut service = ReputationService::new(config, &telemetry);
    let truth = run.world.colluder_pairs();
    let file = std::fs::File::open(run.log).expect("open the daemon's log");
    let mut lines = std::io::BufReader::new(file).lines();
    let (mut parse_s, mut apply_s, mut rank_s, mut publish_s) = (0.0, 0.0, 0.0, 0.0);
    let mut parsed = 0u64;
    let mut ticks = Vec::new();
    let mut spans = SpanTotals::default();
    let mut scores = Vec::new();
    for &boundary in journal {
        while parsed < boundary {
            let Some(Ok(line)) = lines.next() else {
                report.check(false, "log shorter than the journal");
                return;
            };
            let in_phase = parsed >= run.phase_base;
            parsed += 1;
            let t = Instant::now();
            let event = parse_event(&line);
            let parse = t.elapsed().as_secs_f64();
            let Ok(event) = event else {
                report.check(false, format!("replay could not parse {line:?}"));
                continue;
            };
            let t = Instant::now();
            let applied = service.apply(&event);
            let apply = t.elapsed().as_secs_f64();
            report.check(applied.is_ok(), format!("replay rejected {line:?}"));
            if in_phase {
                parse_s += parse;
                apply_s += apply;
            }
        }
        let t = Instant::now();
        let board = service.tick();
        let tick_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(board.ranking());
        let rank = t.elapsed().as_secs_f64();
        if boundary > run.phase_base {
            ticks.push(tick_s);
            rank_s += rank;
            let before = spans.cycle_s;
            for trace in &board.trace.traces {
                spans.add_trace(trace, &truth, truth.len() as u64);
            }
            publish_s += tick_s - (spans.cycle_s - before);
        }
        scores = board.scores.clone();
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    report.check(
        bits(&scores) == bits(&run.fin.scores),
        "daemon scores differ from the in-process replay over its journal",
    );
    report.check(
        spans.dropped_spans == 0,
        format!("tracer dropped {} spans", spans.dropped_spans),
    );

    let lines = (run.events - run.phase_base) as f64;
    let apply_ns = apply_s * 1e9 / lines;
    let ingest_apply_s = delta("server_ingest_apply_seconds_sum");
    out.insert("event.parse_ns", parse_s * 1e9 / lines);
    out.insert("event.lines", lines);
    out.insert(
        "event.malformed",
        delta("server_events_malformed_total") + delta("server_events_invalid_utf8_total"),
    );
    out.insert("ingest.apply_s", ingest_apply_s);
    out.insert("ingest.batches", delta("server_ingest_apply_seconds_count"));
    out.insert(
        "ingest.lock_wait_s",
        ingest_apply_s - lines * apply_ns * 1e-9,
    );
    out.insert("ingest.backlog_max_events", run.phase.backlog_max);
    out.insert("replay.apply_s", run.replay_apply_s);
    out.insert("service.apply_ns", apply_ns);
    out.insert("tick.count", delta("server_ticks_total"));
    out.insert("tick.p50_s", percentile(&ticks, 0.5).unwrap_or(0.0));
    out.insert("tick.max_s", ticks.iter().copied().fold(0.0, f64::max));
    out.insert("tick.skipped", delta("server_ticks_skipped_total"));
    out.insert("board.publish_s", publish_s);
    out.insert("board.rank_s", rank_s);
    out.insert("board.journal_len", journal.len() as f64);
    out.insert("snapshot.patches", delta("snapshot_patches_total"));
    out.insert("snapshot.rebuilds", delta("snapshot_rebuilds_total"));
    out.insert("snapshot.rebuild_s", delta("snapshot_rebuild_seconds_sum"));
    out.insert("snapshot.bytes_per_node", last("snapshot_bytes_per_node"));
    for (k, name) in ["detect.b1", "detect.b2", "detect.b3", "detect.b4"]
        .into_iter()
        .enumerate()
    {
        out.insert(name, delta(&format!("detector_b{}_triggers_total", k + 1)));
    }
    spans.report(&mut out, truth.len());
    report.check(
        out["detect.suspicions"] == delta("detector_suspicions_total"),
        "replayed suspicions differ from the daemon's detector_suspicions_total",
    );
    out.insert("http.requests", delta("server_http_requests_total"));
    out.insert("http.connections", delta("server_http_connections_total"));
    out.insert(
        "http.server_p50_s",
        last("server_http_request_seconds{endpoint=\"score\",status=\"2xx\",quantile=\"p50\"}"),
    );
    let non2xx = |body: &str| {
        prom_sum(body, "server_http_requests_total", |l| {
            l.contains("status=\"4xx\"") || l.contains("status=\"5xx\"")
        })
    };
    out.insert("http.non2xx", non2xx(metrics) - non2xx(run.metrics_before));
    out.insert("sim.query_phase_s", 0.0);
    out.insert("sim.update_phase_s", 0.0);
    out.insert("sim.cycle_s", 0.0);
    out.insert("process.cpu_s", run.cpu_s);
    out.insert("trace.scrapes", run.phase.scrapes as f64);
    let lateness = &run.phase.lateness;
    out.insert(
        "load.lateness_p50_s",
        percentile(lateness, 0.5).unwrap_or(0.0),
    );
    out.insert(
        "load.lateness_max_s",
        lateness.iter().copied().fold(0.0, f64::max),
    );
    emit(out, report);
}

/// Per-layer metrics of a traced `paper-pcm` run.
pub fn paper_layers(
    telemetry: &Telemetry,
    spans: &SpanTotals,
    totals: &Totals,
    planted: usize,
    report: &mut Report,
) {
    let snap = telemetry.registry().snapshot();
    let hist_sum = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum);
    let mut out = BTreeMap::new();
    for name in [
        "event.parse_ns",
        "event.lines",
        "event.malformed",
        "ingest.apply_s",
        "ingest.batches",
        "ingest.lock_wait_s",
        "ingest.backlog_max_events",
        "replay.apply_s",
        "service.apply_ns",
        "tick.skipped",
        "board.publish_s",
        "board.rank_s",
        "board.journal_len",
        "http.requests",
        "http.connections",
        "http.server_p50_s",
        "http.non2xx",
        "trace.scrapes",
        "load.lateness_p50_s",
        "load.lateness_max_s",
    ] {
        out.insert(name, 0.0);
    }
    out.insert("tick.count", totals.updates.len() as f64);
    out.insert(
        "tick.p50_s",
        percentile(&totals.updates, 0.5).unwrap_or(0.0),
    );
    out.insert(
        "tick.max_s",
        totals.updates.iter().copied().fold(0.0, f64::max),
    );
    out.insert(
        "snapshot.patches",
        snap.counter("snapshot_patches_total") as f64,
    );
    out.insert(
        "snapshot.rebuilds",
        snap.counter("snapshot_rebuilds_total") as f64,
    );
    out.insert("snapshot.rebuild_s", hist_sum("snapshot_rebuild_seconds"));
    out.insert(
        "snapshot.bytes_per_node",
        snap.gauge("snapshot_bytes_per_node").unwrap_or(0.0),
    );
    for (k, name) in ["detect.b1", "detect.b2", "detect.b3", "detect.b4"]
        .into_iter()
        .enumerate()
    {
        out.insert(
            name,
            snap.counter(&format!("detector_b{}_triggers_total", k + 1)) as f64,
        );
    }
    spans.report(&mut out, planted);
    report.check(
        spans.dropped_spans == 0,
        format!("tracer dropped {} spans", spans.dropped_spans),
    );
    report.check(
        out["detect.suspicions"] == snap.counter("detector_suspicions_total") as f64,
        "traced suspicions differ from detector_suspicions_total",
    );
    out.insert("sim.query_phase_s", hist_sum("sim_query_phase_seconds"));
    out.insert("sim.update_phase_s", hist_sum("sim_update_phase_seconds"));
    out.insert("sim.cycle_s", hist_sum("sim_cycle_seconds"));
    out.insert("process.cpu_s", crate::cpu_seconds());
    emit(out, report);
}

fn emit(out: BTreeMap<&'static str, f64>, report: &mut Report) {
    for (name, unit) in PER_LAYER {
        match out.get(name) {
            Some(&v) => report.metric(name, v, unit),
            None => report.check(false, format!("per-layer metric {name} missing")),
        }
    }
}
