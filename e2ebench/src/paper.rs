//! The `paper-pcm` workload: the paper's offline job (PCM, colluder
//! behaviour B = 0.6, EigenTrust+SocialTrust, 200 nodes, 50 × 30 cycles)
//! over a fixed number of seeded runs.
//!
//! Each run repeats `socialtrust_sim::run_scenario` step for step — same
//! RNG, same world, same engine loop — with the reputation system wrapped
//! in [`Clocked`], which forwards every call unchanged and timestamps the
//! ones the end-to-end metrics need: when a rating is recorded, when the
//! first query cycle of a simulation cycle reads the reputation vector,
//! and when the cycle's update starts and finishes.

use std::cell::RefCell;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use socialtrust::reputation::rating::Rating;
use socialtrust::reputation::system::{ConvergenceRecord, ReputationSystem};
use socialtrust::socnet::NodeId;
use socialtrust::telemetry::Telemetry;
use socialtrust_sim::build::SimWorld;
use socialtrust_sim::collusion::CollusionModel;
use socialtrust_sim::engine;
use socialtrust_sim::metrics::RunResult;
use socialtrust_sim::runner::{make_system, ReputationKind};
use socialtrust_sim::scenario::ScenarioConfig;

use crate::stats::percentile;

/// Seeded runs per invocation: enough that the seed-to-seed spread of
/// the colluder request share averages down (~15 s on a 2-core x86-64
/// box).
pub const RUNS: u64 = 24;

/// One rating in this many is timestamped for freshness.
const FRESHNESS_SAMPLE: u64 = 16;

/// The paper's PCM scenario with B = 0.6.
pub fn scenario() -> ScenarioConfig {
    ScenarioConfig::paper_default()
        .with_collusion(CollusionModel::PairWise)
        .with_colluder_behavior(0.6)
}

pub const KIND: ReputationKind = ReputationKind::EigenTrustWithSocialTrust;

/// The seed of run `run` of an invocation with seed `seed`.
pub fn run_seed(seed: u64, run: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(run)
}

/// What [`Clocked`] saw over one run.
#[derive(Debug, Default)]
pub struct Clock {
    /// Rating recorded → update that covers it finished, seconds.
    pub freshness: Vec<f64>,
    /// Wall time of each query cycle (every active node's request served
    /// and rated), seconds.
    pub query_cycles: Vec<f64>,
    /// Wall time of each reputation update, seconds.
    pub updates: Vec<f64>,
    /// Ratings recorded.
    pub ratings: u64,
}

/// A reputation system wrapper that forwards every call and timestamps
/// recording, reads and updates.
pub struct Clocked<S> {
    inner: S,
    epoch: Instant,
    query_cycles_per_cycle: usize,
    /// Timestamps of sampled ratings recorded since the last update.
    pending: Vec<f64>,
    /// Timestamps of reputation reads since the last update.
    reads: RefCell<Vec<f64>>,
    pub clock: Clock,
}

impl<S: ReputationSystem> Clocked<S> {
    pub fn new(inner: S, query_cycles_per_cycle: usize) -> Clocked<S> {
        Clocked {
            inner,
            epoch: Instant::now(),
            query_cycles_per_cycle,
            pending: Vec::new(),
            reads: RefCell::new(Vec::new()),
            clock: Clock::default(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

impl<S: ReputationSystem> ReputationSystem for Clocked<S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn record(&mut self, rating: Rating) {
        if self.clock.ratings.is_multiple_of(FRESHNESS_SAMPLE) {
            let now = self.now();
            self.pending.push(now);
        }
        self.clock.ratings += 1;
        self.inner.record(rating)
    }
    fn end_cycle(&mut self) {
        // The engine reads the vector once at the start of every query
        // cycle; the last `query_cycles_per_cycle` reads open this
        // cycle's query cycles, and the update closes the last one.
        let update_start = self.now();
        {
            let mut reads = self.reads.borrow_mut();
            let from = reads.len().saturating_sub(self.query_cycles_per_cycle);
            reads.push(update_start);
            for w in reads[from..].windows(2) {
                self.clock.query_cycles.push(w[1] - w[0]);
            }
            reads.clear();
        }
        self.inner.end_cycle();
        let visible = self.now();
        self.clock.updates.push(visible - update_start);
        for t in self.pending.drain(..) {
            self.clock.freshness.push(visible - t);
        }
    }
    fn reputation(&self, node: NodeId) -> f64 {
        self.inner.reputation(node)
    }
    fn reputations(&self) -> &[f64] {
        self.reads.borrow_mut().push(self.now());
        self.inner.reputations()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
    fn total_adjusted_ratings(&self) -> u64 {
        self.inner.total_adjusted_ratings()
    }
    fn total_suspicions(&self) -> u64 {
        self.inner.total_suspicions()
    }
    fn reset_node(&mut self, node: NodeId) {
        self.inner.reset_node(node)
    }
    fn convergence(&self) -> Option<ConvergenceRecord> {
        self.inner.convergence()
    }
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry)
    }
}

/// One run: its result, its clock, the scenario-construction time and
/// the engine's wall time, plus the world's planned collusion edges.
pub struct Run {
    pub result: RunResult,
    pub clock: Clock,
    pub setup_s: f64,
    pub engine_s: f64,
    pub boost_edges: Vec<(u32, u32)>,
}

/// `run_scenario(scenario, KIND, seed)` — or, with `telemetry`,
/// `run_scenario_with_telemetry` — with the system wrapped in
/// [`Clocked`].
pub fn run(scenario: &ScenarioConfig, seed: u64, telemetry: Option<&Telemetry>) -> Run {
    let started = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let world = SimWorld::build(scenario, &mut rng);
    if let Some(t) = telemetry {
        world.ctx.write().attach_telemetry(t);
    }
    let mut system = Clocked::new(make_system(KIND, scenario, &world), scenario.query_cycles);
    if let Some(t) = telemetry {
        system.attach_telemetry(t);
    }
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let result = match telemetry {
        Some(t) => engine::run_with_telemetry(&world, scenario, &mut system, &mut rng, t),
        None => engine::run(&world, scenario, &mut system, &mut rng),
    };
    let engine_s = started.elapsed().as_secs_f64();
    let boost_edges = world
        .plan
        .edges
        .iter()
        .map(|e| (e.rater.index() as u32, e.ratee.index() as u32))
        .collect();
    Run {
        result,
        clock: system.clock,
        setup_s,
        engine_s,
        boost_edges,
    }
}

/// Everything the paper workload measured over its runs. Timings are
/// kept per run, so the reported value — their median over the runs —
/// shrugs off a run slowed by something else on the machine.
#[derive(Default)]
pub struct Totals {
    pub setups: Vec<f64>,
    pub freshness_p50: Vec<f64>,
    pub freshness_p99: Vec<f64>,
    pub query_p50: Vec<f64>,
    pub query_p99: Vec<f64>,
    pub requests_per_s: Vec<f64>,
    pub ratings_per_s: Vec<f64>,
    pub cycles_per_s: Vec<f64>,
    pub updates: Vec<f64>,
    pub requests: u64,
    pub requests_to_colluders: u64,
}

impl Totals {
    pub fn add(&mut self, scenario: &ScenarioConfig, run: Run) {
        let clock = &run.clock;
        let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(f64::NAN);
        self.setups.push(run.setup_s);
        self.freshness_p50.push(p(&clock.freshness, 0.5));
        self.freshness_p99.push(p(&clock.freshness, 0.99));
        self.query_p50.push(p(&clock.query_cycles, 0.5));
        self.query_p99.push(p(&clock.query_cycles, 0.99));
        self.requests_per_s
            .push(run.result.requests_total as f64 / run.engine_s);
        self.ratings_per_s.push(clock.ratings as f64 / run.engine_s);
        self.cycles_per_s
            .push(scenario.sim_cycles as f64 / run.engine_s);
        self.updates.extend(&clock.updates);
        self.requests += run.result.requests_total;
        self.requests_to_colluders += run.result.requests_to_colluders;
    }
}

/// Fig. 8(c) shape: colluders end with a lower mean reputation than
/// normal nodes.
pub fn shape_holds(scenario: &ScenarioConfig, result: &RunResult) -> bool {
    let summary = &result.final_summary;
    summary.mean_reputation(&scenario.colluder_ids())
        < summary.mean_reputation(&scenario.normal_ids())
}
