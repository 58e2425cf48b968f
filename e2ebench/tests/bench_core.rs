//! Tests of the benchmark's own code: the generator, the statistics, the
//! freshness and operation accounting, and the simulator clock.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

use socialtrust_e2ebench::client::{json_u64, score_rows, Client};
use socialtrust_e2ebench::gen::{render_into, Shape, World};
use socialtrust_e2ebench::paper;
use socialtrust_e2ebench::stats::{
    freshness, median_over_slices, percentile, rate_between_changes, Observation, Ops,
};
use socialtrust_server::event::{parse_event, ServerEvent};
use socialtrust_sim::runner::run_scenario;
use socialtrust_sim::scenario::ScenarioConfig;

const SHAPE: Shape = Shape {
    nodes: 500,
    interests: 64,
    degree: 2,
    history: 2,
    fanout: 8,
    colluder_pairs: 5,
    colluder_every: 10,
    pretrusted: 16,
};

fn log_of(world: &World, ratings: u64) -> String {
    let mut out = String::new();
    render_into(&mut world.bootstrap(), world.bootstrap_len() + 10, &mut out);
    render_into(&mut world.ratings(), ratings, &mut out);
    out
}

#[test]
fn generator_is_deterministic_per_seed() {
    let a = log_of(&World::new(SHAPE, 7), 5_000);
    let b = log_of(&World::new(SHAPE, 7), 5_000);
    let c = log_of(&World::new(SHAPE, 8), 5_000);
    assert_eq!(a, b, "same seed, same log");
    assert_ne!(a, c, "another seed, another log");
    assert_eq!(
        World::new(SHAPE, 7).colluder_pairs(),
        World::new(SHAPE, 7).colluder_pairs()
    );
}

#[test]
fn generator_emits_only_schema_valid_events() {
    let world = World::new(SHAPE, 3);
    let log = log_of(&world, 20_000);
    let bootstrap = log.lines().count() as u64 - 20_000;
    assert_eq!(
        bootstrap,
        world.bootstrap_len(),
        "bootstrap ends where it says"
    );
    let pairs = world.colluder_pairs();
    let mut colluder_ratings = 0;
    for line in log.lines() {
        let event = parse_event(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let ids: Vec<u32> = match event {
            ServerEvent::Rating { rater, ratee, .. } => {
                if pairs.contains(&(rater, ratee)) {
                    colluder_ratings += 1;
                }
                vec![rater, ratee]
            }
            ServerEvent::EdgeAdd { a, b, .. } => {
                assert_ne!(a, b, "self-edge: {line}");
                vec![a, b]
            }
            ServerEvent::EdgeRemove { .. } => panic!("the generator never removes edges"),
            ServerEvent::Profile { node, declare, .. } => {
                assert!(declare.iter().all(|&i| i < SHAPE.interests));
                vec![node]
            }
        };
        assert!(ids.iter().all(|&id| id < SHAPE.nodes), "{line}");
    }
    // One rating in ten of the stream comes from a colluder, and half of
    // those go to its partner.
    assert!(
        colluder_ratings >= 1_000,
        "{colluder_ratings} colluder ratings"
    );
    let colluders: BTreeSet<u32> = world.colluders().into_iter().collect();
    assert_eq!(colluders.len(), 2 * SHAPE.colluder_pairs as usize);
    assert!(colluders.iter().all(|&c| c >= SHAPE.pretrusted));
}

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 1.0), Some(4.0));
    assert_eq!(percentile(&v, 0.5), Some(2.5));
    // statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
    assert_eq!(percentile(&v, 0.25), Some(1.75));
    assert_eq!(percentile(&v, 0.75), Some(3.25));
    assert_eq!(percentile(&[5.0], 0.99), Some(5.0));
    assert_eq!(percentile(&[], 0.5), None);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!((percentile(&hundred, 0.99).unwrap() - 99.01).abs() < 1e-9);
}

#[test]
fn freshness_runs_from_append_to_first_covering_observation() {
    // Events 10..15 are appended at 0.0, 0.1, …, 0.4 s.
    let appended_at = |i: u64| (i - 10) as f64 * 0.1;
    let observations = [
        Observation {
            at: 0.05,
            applied: 8,
        },
        Observation {
            at: 0.25,
            applied: 12,
        },
        Observation {
            at: 0.30,
            applied: 12,
        },
        Observation {
            at: 0.50,
            applied: 14,
        },
    ];
    let (samples, uncovered) = freshness(10, 15, appended_at, &observations);
    let expected = [(0.0, 0.25), (0.1, 0.15), (0.2, 0.30), (0.3, 0.20)];
    assert_eq!(samples.len(), expected.len());
    for (got, want) in samples.iter().zip(expected) {
        assert!((got.0 - want.0).abs() < 1e-12, "{samples:?}");
        assert!((got.1 - want.1).abs() < 1e-12, "{samples:?}");
    }
    assert_eq!(uncovered, 1, "event 14 is never covered");
}

#[test]
fn median_over_slices_ignores_one_bad_slice() {
    // Three 1-second slices; the middle one is slow.
    let samples = [
        (0.1, 1.0),
        (0.5, 3.0),
        (1.2, 90.0),
        (1.8, 99.0),
        (2.5, 2.0),
        (2.9, 4.0),
    ];
    let p50 = |v: &[f64]| percentile(v, 0.5);
    assert_eq!(median_over_slices(&samples, 3.0, 3, p50), Some(3.0));
    // Samples outside the window are ignored; empty slices are skipped.
    let late = [(0.2, 5.0), (7.0, 100.0)];
    assert_eq!(median_over_slices(&late, 3.0, 3, p50), Some(5.0));
}

#[test]
fn rate_between_changes_counts_changes_between_first_and_last_change() {
    let series = [(0.0, 1), (0.1, 2), (0.3, 2), (0.6, 3), (1.1, 5), (1.2, 5)];
    assert_eq!(rate_between_changes(&series), Some(3.0 / 1.0));
    assert_eq!(rate_between_changes(&[(0.0, 1), (1.0, 2)]), None);
}

#[test]
fn operations_count_attempts_and_failures() {
    let mut ops = Ops::default();
    ops.record(true);
    ops.record(false);
    ops.add(10, 3);
    assert_eq!(
        ops,
        Ops {
            attempted: 12,
            failed: 4
        }
    );
}

/// A request counts once; it fails only when a fresh connection fails
/// too, and a server-retired connection is reopened without a failure.
#[test]
fn client_retries_once_and_counts_failures() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let read_request = |stream: &std::net::TcpStream| {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            loop {
                line.clear();
                reader.read_line(&mut line).unwrap();
                if line.trim().is_empty() {
                    break;
                }
            }
        };
        // 1st connection: one answer, then the server retires it.
        let (mut s, _) = listener.accept().unwrap();
        read_request(&s);
        let body = "{\"events_applied\":7}";
        write!(
            s,
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        drop(s);
        // 2nd request: both the connection and its retry die unanswered.
        for _ in 0..2 {
            let (s, _) = listener.accept().unwrap();
            read_request(&s);
        }
    });
    let mut client = Client::new(addr);
    let first = client.get("/healthz").expect("first request answered");
    assert_eq!(first.status, 200);
    assert_eq!(json_u64(&first.body, "events_applied"), Some(7));
    assert!(client.get("/healthz").is_none(), "second request fails");
    assert_eq!(
        client.ops,
        Ops {
            attempted: 2,
            failed: 1
        }
    );
    server.join().unwrap();
}

#[test]
fn score_rows_parse_a_scores_body() {
    let body = "{\"tick\":3,\"events_applied\":9,\"scores\":[{\"node\":4,\"score\":0.5},{\"node\":1,\"score\":2.5e-7}]}";
    assert_eq!(score_rows(body), Some(vec![(4, 0.5), (1, 2.5e-7)]));
}

/// The clock around the reputation system changes nothing the
/// simulator computes.
#[test]
fn clocked_run_matches_run_scenario() {
    let scenario = ScenarioConfig::small()
        .with_collusion(socialtrust_sim::collusion::CollusionModel::PairWise)
        .with_colluder_behavior(0.6);
    let clocked = paper::run(&scenario, 5, None);
    let plain = run_scenario(&scenario, paper::KIND, 5);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(clocked.result.final_summary.values()),
        bits(plain.final_summary.values())
    );
    assert_eq!(clocked.result.requests_total, plain.requests_total);
    assert_eq!(
        clocked.clock.query_cycles.len(),
        scenario.sim_cycles * scenario.query_cycles
    );
    assert_eq!(clocked.clock.updates.len(), scenario.sim_cycles);
    assert!(!clocked.clock.freshness.is_empty());
}
