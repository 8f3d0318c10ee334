//! Deterministic race outcomes for the hedged engine: injected racer
//! pairs with forced slow/fast timing pin the settle policy (proven
//! wins immediately, grace-window rescues, failure deferral), the
//! exact [`HedgeStats`] counters, and the provable cancellation of the
//! losing racer.

use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_solver::engines::HeuristicEngine;
use repliflow_solver::{
    Budget, CommModel, Engine, EnginePref, EngineRun, HedgeStats, HedgedEngine, Optimality,
    SolveError, SolveRequest, SolverService,
};
use repliflow_sync::sync::atomic::{AtomicU64, Ordering};
use repliflow_sync::sync::Arc;
use std::time::{Duration, Instant};

fn comm_instance(seed: u64, n: usize, p: usize) -> ProblemInstance {
    let mut gen = Gen::new(seed);
    ProblemInstance::new(
        gen.pipeline(n, 1, 12),
        gen.het_platform(p, 1, 5),
        false,
        Objective::Period,
    )
    .with_cost_model(CostModel::WithComm {
        network: gen.het_network(p, 1, 4),
        comm: CommModel::OnePort,
        overlap: true,
    })
}

/// A scripted racer: waits `delay`, then replays a pre-recorded run
/// with a forced optimality claim (or a forced error). Records how
/// often it actually ran, so tests can assert scheduling behavior.
struct Scripted {
    name: &'static str,
    delay: Duration,
    optimal: bool,
    fail: bool,
    inner: HeuristicEngine,
    runs: AtomicU64,
}

impl Scripted {
    fn new(name: &'static str, delay_ms: u64, optimal: bool) -> Arc<Scripted> {
        Arc::new(Scripted {
            name,
            delay: Duration::from_millis(delay_ms),
            optimal,
            fail: false,
            inner: HeuristicEngine::COMM,
            runs: AtomicU64::new(0),
        })
    }

    fn failing(name: &'static str, delay_ms: u64) -> Arc<Scripted> {
        Arc::new(Scripted {
            name,
            delay: Duration::from_millis(delay_ms),
            optimal: false,
            fail: true,
            inner: HeuristicEngine::COMM,
            runs: AtomicU64::new(0),
        })
    }
}

impl Engine for Scripted {
    fn name(&self) -> &'static str {
        self.name
    }

    fn solve(&self, instance: &ProblemInstance, budget: &Budget) -> Result<EngineRun, SolveError> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        repliflow_sync::thread::sleep(self.delay);
        if self.fail {
            return Err(SolveError::EnginePanicked);
        }
        let mut run = self.inner.solve(instance, budget)?;
        run.optimal = self.optimal;
        Ok(run)
    }
}

fn stats_of(engine: &HedgedEngine) -> HedgeStats {
    engine.stats()
}

#[test]
fn proven_primary_wins_and_cancels_the_slow_loser() {
    let fast = Scripted::new("fast-proven", 0, true);
    let slow = Scripted::new("slow-heuristic", 1_500, false);
    let engine = HedgedEngine::with_pair(fast, Arc::clone(&slow) as _);
    let instance = comm_instance(0x11E01, 5, 3);
    let start = Instant::now();
    let run = engine
        .solve(&instance, &Budget::default())
        .expect("race succeeds");
    // The race settles on the proven result without waiting out the
    // slow racer's sleep.
    assert!(
        start.elapsed() < Duration::from_millis(1_200),
        "race waited for the losing racer"
    );
    assert!(run.optimal, "the proven result must win");
    let stats = stats_of(&engine);
    assert_eq!(
        stats,
        HedgeStats {
            races: 1,
            primary_wins: 1,
            secondary_wins: 0,
            losers_cancelled: 1,
            window_rescues: 0,
        },
        "exact counters after a proven immediate win"
    );
}

#[test]
fn grace_window_rescues_a_late_proof() {
    // The heuristic lands first; the proof arrives 60 ms later, well
    // inside a 5 s grace window — the proof must overtake.
    let proof = Scripted::new("late-proof", 60, true);
    let heuristic = Scripted::new("instant-heuristic", 0, false);
    let engine = HedgedEngine::with_pair(proof, heuristic);
    let instance = comm_instance(0x11E02, 5, 3);
    let budget = Budget::default().hedge_delay_ms(5_000);
    let run = engine.solve(&instance, &budget).expect("race succeeds");
    assert!(run.optimal, "the windowed proof must be preferred");
    assert_eq!(
        stats_of(&engine),
        HedgeStats {
            races: 1,
            primary_wins: 1,
            secondary_wins: 0,
            losers_cancelled: 0,
            window_rescues: 1,
        },
        "exact counters after a window rescue"
    );
}

#[test]
fn expired_window_takes_the_heuristic_and_cancels() {
    // The proof would take 2 s; the window is 10 ms — the heuristic
    // wins, the still-running proof racer is cancelled, and the result
    // is marked non-cacheable (timing-dependent).
    let proof = Scripted::new("too-late-proof", 2_000, true);
    let heuristic = Scripted::new("instant-heuristic-2", 0, false);
    let engine = HedgedEngine::with_pair(proof, heuristic);
    let instance = comm_instance(0x11E03, 5, 3);
    let budget = Budget::default().hedge_delay_ms(10);
    let start = Instant::now();
    let run = engine.solve(&instance, &budget).expect("race succeeds");
    assert!(
        start.elapsed() < Duration::from_millis(1_500),
        "race waited past the grace window"
    );
    assert!(!run.optimal);
    assert_eq!(
        run.search.map(|s| s.completed),
        Some(false),
        "a timing-dependent winner must be marked non-cacheable"
    );
    assert_eq!(
        stats_of(&engine),
        HedgeStats {
            races: 1,
            primary_wins: 0,
            secondary_wins: 1,
            losers_cancelled: 1,
            window_rescues: 0,
        },
        "exact counters after a window expiry"
    );
}

#[test]
fn failed_racer_defers_to_the_survivor() {
    let broken = Scripted::failing("broken", 0);
    let survivor = Scripted::new("survivor", 40, false);
    let engine = HedgedEngine::with_pair(broken, Arc::clone(&survivor) as _);
    let instance = comm_instance(0x11E04, 5, 3);
    let run = engine
        .solve(&instance, &Budget::default())
        .expect("the surviving racer carries the race");
    assert!(!run.optimal);
    let stats = stats_of(&engine);
    assert_eq!((stats.races, stats.secondary_wins), (1, 1));
    assert_eq!(survivor.runs.load(Ordering::SeqCst), 1);
}

#[test]
fn both_failed_reports_the_primary_error() {
    let engine = HedgedEngine::with_pair(
        Scripted::failing("broken-a", 0),
        Scripted::failing("broken-b", 0),
    );
    let instance = comm_instance(0x11E05, 5, 3);
    assert!(matches!(
        engine.solve(&instance, &Budget::default()),
        Err(SolveError::EnginePanicked)
    ));
}

#[test]
fn simplified_instances_are_refused() {
    let engine = HedgedEngine::default();
    let mut gen = Gen::new(0x11E06);
    let simplified = ProblemInstance::new(
        gen.pipeline(4, 1, 9),
        gen.hom_platform(3, 1, 4),
        true,
        Objective::Period,
    );
    assert!(matches!(
        engine.solve(&simplified, &Budget::default()),
        Err(SolveError::Unsupported {
            engine: "hedged",
            ..
        })
    ));
}

#[test]
fn registry_routes_hedged_requests_end_to_end() {
    // Through the full serving stack: a comm instance solved with
    // `EnginePref::Hedged` produces a validated report from one of the
    // real racers, and the service stats surface the race counters.
    let service = SolverService::builder().workers(1).build();
    let request = SolveRequest::new(comm_instance(0x11E07, 4, 3)).engine(EnginePref::Hedged);
    let report = service.solve(&request).expect("hedged solve succeeds");
    assert!(matches!(
        report.optimality,
        Optimality::Proven | Optimality::Heuristic
    ));
    assert!(report.has_mapping());
    let stats = service.stats();
    assert_eq!(stats.hedge.races, 1);
    assert_eq!(stats.hedge.primary_wins + stats.hedge.secondary_wins, 1);

    // A simplified instance is refused through the registry too: the
    // cheap proven route already exists, racing would burn a worker.
    let mut gen = Gen::new(0x11E08);
    let simplified = ProblemInstance::new(
        gen.pipeline(4, 1, 9),
        gen.hom_platform(3, 1, 4),
        true,
        Objective::Period,
    );
    assert!(matches!(
        service.solve(&SolveRequest::new(simplified).engine(EnginePref::Hedged)),
        Err(SolveError::Unsupported { .. })
    ));
}
