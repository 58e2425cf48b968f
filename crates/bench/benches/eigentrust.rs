//! Criterion bench — EigenTrust power iteration cost vs network size, and
//! the steady-state `end_cycle` cost with and without warm starts.
//!
//! `eigentrust_cycle_10k` runs `end_cycle` with a sparse rating batch on a
//! 10k-node engine, cold-started (power iteration from pretrust every
//! cycle) vs warm-started (iteration resumes from the previous trust
//! vector). The iteration counts are printed alongside.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use socialtrust_reputation::prelude::*;
use socialtrust_socnet::NodeId;

fn loaded_engine(n: usize, ratings: usize, seed: u64) -> EigenTrust {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pretrusted: Vec<NodeId> = (0..(n / 20).max(1)).map(NodeId::from).collect();
    let mut sys = EigenTrust::with_defaults(n, &pretrusted);
    for _ in 0..ratings {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let v = if rng.gen::<f64>() < 0.8 { 1.0 } else { -1.0 };
            sys.record(Rating::new(NodeId::from(a), NodeId::from(b), v));
        }
    }
    sys
}

fn bench_eigentrust(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigentrust");
    for &n in &[100usize, 200, 400, 800] {
        group.bench_with_input(BenchmarkId::new("end_cycle", n), &n, |bench, &n| {
            bench.iter_batched(
                || loaded_engine(n, n * 20, 3),
                |mut sys| {
                    sys.end_cycle();
                    std::hint::black_box(sys.reputation(NodeId(0)))
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    // Incremental update: one more cycle on an already-converged engine.
    group.bench_function("incremental_update_200", |bench| {
        let mut sys = loaded_engine(200, 4000, 5);
        sys.end_cycle();
        bench.iter(|| {
            sys.record(Rating::new(NodeId(1), NodeId(2), 1.0));
            sys.end_cycle();
            std::hint::black_box(sys.reputation(NodeId(2)))
        });
    });
    group.finish();
}

/// Node count of the `eigentrust_cycle` engines.
const CYCLE_N: usize = 10_000;

/// A sparse rating batch: 200 ratings among a 1% slice of the nodes,
/// rotated per cycle.
fn sparse_batch(rng: &mut ChaCha8Rng, cycle: usize) -> Vec<Rating> {
    let base = (cycle * 100) % CYCLE_N;
    (0..200)
        .map(|_| {
            let a = base + rng.gen_range(0..100);
            let mut b = base + rng.gen_range(0..100);
            if b == a {
                b += 1;
            }
            Rating::new(
                NodeId::from(a % CYCLE_N),
                NodeId::from(b % CYCLE_N),
                if rng.gen_bool(0.9) { 1.0 } else { -1.0 },
            )
        })
        .collect()
}

fn steady_engine(warm_start: bool) -> EigenTrust {
    let config = EigenTrustConfig {
        warm_start,
        ..EigenTrustConfig::default()
    };
    let pretrusted: Vec<NodeId> = (0..10usize).map(NodeId::from).collect();
    let mut sys = EigenTrust::new(CYCLE_N, &pretrusted, config);
    // Reach a populated steady state before timing: 20 dense-ish cycles.
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    for cycle in 0..20 {
        for r in sparse_batch(&mut rng, cycle * 7) {
            sys.record(r);
        }
        sys.end_cycle();
    }
    sys
}

fn bench_eigentrust_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigentrust_cycle_10k");
    group.sample_size(10);

    for (label, warm_start) in [("cold_start", false), ("warm_start", true)] {
        let mut sys = steady_engine(warm_start);
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let mut cycle = 1000usize;
        group.bench_function(label, |bench| {
            bench.iter(|| {
                for r in sparse_batch(&mut rng, cycle) {
                    sys.record(r);
                }
                cycle += 1;
                sys.end_cycle();
                std::hint::black_box(sys.reputations()[0])
            });
        });
        println!(
            "[{label}] last power iteration count: {}",
            sys.last_iterations()
        );
    }

    group.finish();
}

criterion_group!(benches, bench_eigentrust, bench_eigentrust_cycle);
criterion_main!(benches);
