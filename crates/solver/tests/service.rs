//! Integration suite for the serving layer: pool lifetime, deadline
//! semantics, cache correctness and the warm-vs-cold acceptance bar.

use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_solver::{
    BatchOptions, CancelToken, CommModel, Deadline, Provenance, SolveError, SolverService,
};
use repliflow_sync::sync::atomic::{AtomicBool, Ordering};
use repliflow_sync::sync::{mpsc, Arc};
use std::path::PathBuf;
use std::time::Duration;

fn simplified_instances(n: usize, seed: u64) -> Vec<ProblemInstance> {
    let mut gen = Gen::new(seed);
    (0..n)
        .map(|i| {
            ProblemInstance::new(
                gen.pipeline(1 + i % 6, 1, 9),
                gen.hom_platform(1 + i % 3, 1, 4),
                i % 2 == 0,
                Objective::Period,
            )
        })
        .collect()
}

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

fn golden_instances() -> Vec<ProblemInstance> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/instances");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/instances is readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 8, "golden set shrank unexpectedly");
    paths
        .iter()
        .map(|p| {
            serde_json::from_str(&std::fs::read_to_string(p).expect("golden readable"))
                .expect("golden parses")
        })
        .collect()
}

/// ROADMAP-flagged regression: batch work must reuse one persistent
/// pool. Repeated `solve_batch` calls on one service never change the
/// worker count — workers are created once per service, not per call.
#[test]
fn repeated_batches_do_not_spawn_unbounded_threads() {
    let service = SolverService::builder().workers(3).no_cache().build();
    assert_eq!(service.pool_size(), 3);
    // the pool is lazy: nothing spawns before the first parallel call
    assert_eq!(service.spawned_threads(), 0);
    let batch = simplified_instances(10, 0x3E01);
    for round in 0..20 {
        let reports = service.solve_batch(&batch);
        assert!(reports.iter().all(Result::is_ok), "round {round} failed");
        assert_eq!(
            service.pool_size(),
            3,
            "round {round}: pool size changed — threads are being spawned per call"
        );
        assert_eq!(
            service.spawned_threads(),
            3,
            "round {round}: service spawned additional threads"
        );
    }
    // all 200 instance solves ran as pool jobs on those same 3 workers
    assert_eq!(service.stats().jobs_executed, 20 * 10);
}

/// Single solves run on the calling thread: a service (like the one
/// behind the free `solve()` wrapper) that never batches never spawns
/// a worker thread at all.
#[test]
fn single_solves_never_start_the_pool() {
    let service = SolverService::builder().workers(4).build();
    for seed in 0..5 {
        let request = service.request(simplified_instances(1, 0x3E20 + seed).pop().unwrap());
        assert!(service.solve(&request).is_ok());
    }
    assert_eq!(
        service.spawned_threads(),
        0,
        "single solves spawned threads"
    );
    // the first batch starts the pool, exactly once
    let batch = simplified_instances(4, 0x3E21);
    service.solve_batch(&batch);
    assert_eq!(service.spawned_threads(), 4);
}

/// The daemon's path: `solve_detached` answers a warmed request on the
/// calling thread — no callback, no pool — with the report `solve`
/// computed, counting the request once.
#[test]
fn warmed_detached_requests_are_answered_inline() {
    let service = SolverService::builder().workers(2).build();
    let request = service.request(simplified_instances(1, 0x3E30).pop().unwrap());
    let cold = service.solve(&request).expect("cold solve");
    let called = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&called);
    let warm = service
        .solve_detached(request, move |_| flag.store(true, Ordering::SeqCst))
        .expect("a hit is answered inline")
        .expect("the hit succeeds");
    assert!(!called.load(Ordering::SeqCst), "on_done ran for a hit");
    assert_eq!(service.spawned_threads(), 0, "a hit started the pool");
    assert_eq!(warm.provenance, Provenance::Cached);
    assert_eq!(warm.canonical_json(), cold.canonical_json());
    let stats = service.stats();
    assert_eq!(
        (stats.requests, stats.cache_hits, stats.computed),
        (2, 1, 1)
    );
    assert_eq!(stats.latency.count, 2, "one latency sample per request");
    let cache = service.cache_stats().expect("caching service");
    assert_eq!((cache.hits, cache.misses), (1, 1));
}

/// A detached miss is looked up once on the calling thread and
/// computed on the pool under the fingerprint the lookup took: one
/// cache miss, not two.
#[test]
fn a_detached_miss_is_looked_up_once_and_computed_on_the_pool() {
    let service = SolverService::builder().workers(1).build();
    let request = service.request(simplified_instances(1, 0x3E31).pop().unwrap());
    let (tx, rx) = mpsc::channel();
    let inline = service.solve_detached(request.clone(), move |result| {
        let _ = tx.send(result);
    });
    assert!(inline.is_none(), "a miss was answered inline");
    let report = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("on_done runs for a miss")
        .expect("the miss computes");
    assert_eq!(report.provenance, Provenance::Computed);
    assert_eq!(service.spawned_threads(), 1);
    let cache = service.cache_stats().expect("caching service");
    assert_eq!(
        (cache.hits, cache.misses, cache.insertions),
        (0, 1, 1),
        "a miss is looked up once and written back once"
    );
    let stats = service.stats();
    assert_eq!((stats.requests, stats.computed), (1, 1));
    // the write-back went under the same key: the next lookup hits
    let hit = service
        .solve_detached(request, |_| panic!("on_done ran for a hit"))
        .expect("answered inline")
        .expect("the hit succeeds");
    assert_eq!(hit.canonical_json(), report.canonical_json());
}

/// The keyed halves: a key finished from the instance walk is the
/// request fingerprint, `lookup_keyed` misses and hits under it without
/// the instance, and `compute_detached` writes back under it. Each
/// request is counted once by the service and once by the cache.
#[test]
fn keyed_lookups_count_once_and_share_the_request_fingerprint() {
    use repliflow_core::fingerprint::Fingerprinter;
    use repliflow_solver::{request_fingerprint, Lookup};
    let service = SolverService::builder().workers(1).build();
    let request = service.request(simplified_instances(1, 0x3E33).pop().unwrap());
    let mut walk = Fingerprinter::new();
    walk.write_instance(&request.instance);
    let key = request_fingerprint(
        walk,
        request.engine,
        &request.budget,
        request.validate_witness,
    );
    assert_eq!(key, request.fingerprint());
    let lookup = |service: &SolverService| {
        service.lookup_keyed(key, &request.budget, request.deadline, None)
    };
    let Lookup::Miss(miss) = lookup(&service) else {
        panic!("a cold key hit");
    };
    let (tx, rx) = mpsc::channel();
    service.compute_detached(request.clone(), miss, move |result| {
        let _ = tx.send(result);
    });
    let cold = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("on_done runs for a miss")
        .expect("the miss computes");
    let Lookup::Answered(Ok(warm)) = lookup(&service) else {
        panic!("the computed key missed");
    };
    assert_eq!(warm.provenance, Provenance::Cached);
    assert_eq!(warm.canonical_json(), cold.canonical_json());
    let stats = service.stats();
    assert_eq!(
        (stats.requests, stats.cache_hits, stats.computed),
        (2, 1, 1)
    );
    let cache = service.cache_stats().expect("caching service");
    assert_eq!((cache.hits, cache.misses, cache.insertions), (1, 1, 1));
    // an expired deadline fails fast before the cache, as in `solve`
    let expired = service.lookup_keyed(key, &request.budget, Some(Deadline::in_ms(0)), None);
    assert!(matches!(
        expired,
        Lookup::Answered(Err(SolveError::DeadlineExceeded))
    ));
    assert_eq!(service.cache_stats().unwrap().hits, 1);
}

/// A fail-fast error needs no compute either: `solve_detached` gives an
/// expired deadline the same inline error `solve` gives, without a
/// cache lookup.
#[test]
fn an_expired_deadline_gets_the_same_inline_error_as_solve() {
    let service = SolverService::builder().workers(1).build();
    let request = service
        .request(simplified_instances(1, 0x3E32).pop().unwrap())
        .deadline(Deadline::in_ms(0));
    let direct = service.solve(&request).expect_err("expired deadline");
    let detached = service
        .solve_detached(request, |_| panic!("on_done ran for a fail-fast error"))
        .expect("answered inline")
        .expect_err("expired deadline");
    assert!(matches!(direct, SolveError::DeadlineExceeded));
    assert!(matches!(detached, SolveError::DeadlineExceeded));
    assert_eq!(detached.to_string(), direct.to_string());
    assert_eq!(service.spawned_threads(), 0);
    let stats = service.stats();
    assert_eq!((stats.requests, stats.errors), (2, 2));
    let cache = service.cache_stats().expect("caching service");
    assert_eq!(cache.hits + cache.misses, 0, "fail-fast skips the cache");
}

/// Bugfix satellite: a deadline that is already expired when the
/// request arrives returns a clean `DeadlineExceeded` — not a panic,
/// not an empty report. Pinned at the pathological 0ms deadline.
#[test]
fn expired_deadline_fails_cleanly_at_zero_ms() {
    let service = SolverService::builder().workers(1).build();
    let request = service
        .request(simplified_instances(1, 0x3E02).pop().unwrap())
        .deadline(Deadline::in_ms(0));
    match service.solve(&request) {
        Err(SolveError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // the error formats cleanly for CLI consumption
    assert!(SolveError::DeadlineExceeded
        .to_string()
        .contains("deadline"));
}

#[test]
fn expired_deadline_fails_cleanly_across_a_batch() {
    let service = SolverService::builder().workers(2).build();
    let batch = simplified_instances(5, 0x3E03);
    let options = BatchOptions {
        deadline: Some(Deadline::in_ms(0)),
        ..BatchOptions::default()
    };
    for result in service.solve_batch_with(&batch, &options) {
        assert!(matches!(result, Err(SolveError::DeadlineExceeded)));
    }
    let stats = service.stats();
    assert_eq!(stats.errors, 5);
    // fail-fast errors still count as served requests (the stats
    // invariant is requests == computed + cache_hits + errors)
    assert_eq!(stats.requests, 5);
    assert_eq!(
        stats.requests,
        stats.computed + stats.cache_hits + stats.errors
    );
}

/// An absurdly large deadline must saturate, not panic, and must behave
/// like "no deadline" for expiry purposes.
#[test]
fn overflowing_deadline_saturates_instead_of_panicking() {
    let service = SolverService::builder().workers(1).build();
    let huge = Deadline::in_ms(u64::MAX);
    assert!(!huge.expired());
    let request = service
        .request(simplified_instances(1, 0x3E09).pop().unwrap())
        .deadline(huge);
    assert!(service.solve(&request).is_ok());
}

/// Duplicate requests inside one batch are coalesced: one compute per
/// distinct fingerprint, duplicates fanned out as `Cached` — identical
/// files in one CLI invocation become hits even on a many-worker pool,
/// instead of racing each other past the cache.
#[test]
fn duplicate_instances_in_one_batch_are_coalesced() {
    let service = SolverService::builder().workers(4).build();
    let instance = comm_instance(0x3E0A, 4, 3);
    let batch: Vec<ProblemInstance> = vec![instance; 6];
    let reports = service.solve_batch(&batch);
    let computed = reports
        .iter()
        .filter(|r| r.as_ref().unwrap().provenance == Provenance::Computed)
        .count();
    let cached = reports
        .iter()
        .filter(|r| r.as_ref().unwrap().provenance == Provenance::Cached)
        .count();
    assert_eq!(computed, 1, "exactly one leader computes");
    assert_eq!(cached, 5, "every duplicate is served the leader's report");
    let first = reports[0].as_ref().unwrap().canonical_json();
    for report in &reports {
        assert_eq!(report.as_ref().unwrap().canonical_json(), first);
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.computed, 1);
    assert_eq!(stats.cache_hits, 5);
}

/// A budgeted search that trips its node limit reports a
/// load/budget-dependent incumbent (`search.completed == false`) — such
/// reports must never be written to the cache, or a degraded answer
/// would be frozen under a fingerprint whose budget could do better.
#[test]
fn incomplete_searches_are_not_cached() {
    use repliflow_solver::{Budget, EnginePref, SolveRequest};
    let service = SolverService::builder().workers(1).build();
    let instance = comm_instance(0x3E0B, 8, 4);
    let starved = Budget {
        bb_node_limit: 1,
        ..Budget::default()
    };
    let request = SolveRequest::new(instance)
        .engine(EnginePref::CommBb)
        .budget(starved);
    let first = service.solve(&request).unwrap();
    assert!(
        first.search.is_some_and(|s| !s.completed),
        "node limit 1 must leave the search incomplete"
    );
    // nothing was cached: the identical request computes again
    let second = service.solve(&request).unwrap();
    assert_eq!(second.provenance, Provenance::Computed);
}

#[test]
fn generous_deadline_changes_nothing() {
    let service = SolverService::builder().workers(1).no_cache().build();
    let instance = comm_instance(0x3E04, 6, 4);
    let plain = service.solve(&service.request(instance.clone())).unwrap();
    let deadlined = service
        .solve(&service.request(instance).deadline(Deadline::in_ms(600_000)))
        .unwrap();
    assert_eq!(plain.canonical_json(), deadlined.canonical_json());
}

/// A deadline below the default `bb_time_limit_ms` clamps the effective
/// budget, so the result — even when computed comfortably within the
/// deadline — must not be written back to the cache under the
/// unclamped fingerprint.
#[test]
fn clamped_deadline_runs_are_not_cached() {
    let service = SolverService::builder().workers(1).build();
    let instance = comm_instance(0x3E05, 5, 3);
    // default budget has bb_time_limit_ms = 10_000; 5s clamps it
    let clamped = service
        .request(instance.clone())
        .deadline(Deadline::in_ms(5_000));
    assert_eq!(
        service.solve(&clamped).unwrap().provenance,
        Provenance::Computed
    );
    // an unclamped request must compute (nothing was cached) ...
    let unclamped = service.request(instance);
    assert_eq!(
        service.solve(&unclamped).unwrap().provenance,
        Provenance::Computed
    );
    // ... and only now does the cache serve
    assert_eq!(
        service.solve(&unclamped).unwrap().provenance,
        Provenance::Cached
    );
}

#[test]
fn cancelled_batch_fails_fast_everywhere() {
    let service = SolverService::builder().workers(2).build();
    let token = CancelToken::new();
    token.cancel();
    let options = BatchOptions {
        cancel: Some(token),
        ..BatchOptions::default()
    };
    let batch = simplified_instances(6, 0x3E06);
    for result in service.solve_batch_with(&batch, &options) {
        assert!(matches!(result, Err(SolveError::Cancelled)));
    }
}

#[test]
fn cached_reports_survive_golden_batch_round_trips() {
    let service = SolverService::builder().workers(2).build();
    let goldens = golden_instances();
    let cold = service.solve_batch(&goldens);
    let warm = service.solve_batch(&goldens);
    for ((instance, cold), warm) in goldens.iter().zip(&cold).zip(&warm) {
        let cold = cold.as_ref().expect("cold golden solve succeeds");
        let warm = warm.as_ref().expect("warm golden solve succeeds");
        assert_eq!(cold.provenance, Provenance::Computed);
        assert_eq!(
            warm.provenance,
            Provenance::Cached,
            "{:?} missed the cache on the second pass",
            instance.variant()
        );
        assert_eq!(
            cold.canonical_json(),
            warm.canonical_json(),
            "cached report diverged for {:?}",
            instance.variant()
        );
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits, goldens.len() as u64);
    assert_eq!(stats.computed, goldens.len() as u64);
}

#[test]
fn lru_capacity_one_still_serves_repeats() {
    let service = SolverService::builder()
        .workers(1)
        .cache_capacity(1)
        .build();
    let a = service.request(simplified_instances(1, 0x3E07).pop().unwrap());
    let b = service.request(comm_instance(0x3E08, 4, 3));
    assert_eq!(service.solve(&a).unwrap().provenance, Provenance::Computed);
    assert_eq!(service.solve(&a).unwrap().provenance, Provenance::Cached);
    // b evicts a
    assert_eq!(service.solve(&b).unwrap().provenance, Provenance::Computed);
    assert_eq!(service.solve(&a).unwrap().provenance, Provenance::Computed);
}

/// Acceptance criterion: a warm-cache repeat of the golden-instance
/// batch is at least **10×** faster than the cold pass. Runs in the
/// release-mode `slow-tests` CI job — wall-clock assertions do not
/// belong in the default debug profile.
#[cfg(feature = "slow-tests")]
#[test]
fn warm_golden_batch_is_ten_times_faster_than_cold() {
    use std::time::Instant;
    let service = SolverService::builder().workers(2).build();
    let goldens = golden_instances();

    let cold_start = Instant::now();
    let cold = service.solve_batch(&goldens);
    let cold_wall = cold_start.elapsed();
    assert!(cold.iter().all(Result::is_ok));

    let warm_start = Instant::now();
    let warm = service.solve_batch(&goldens);
    let warm_wall = warm_start.elapsed();
    assert!(warm.iter().all(Result::is_ok));
    assert_eq!(
        service.cache_stats().expect("cache enabled").hits,
        goldens.len() as u64
    );

    assert!(
        cold_wall >= warm_wall * 10,
        "warm pass not >=10x faster: cold {cold_wall:?} vs warm {warm_wall:?}"
    );
}

/// Escalation end-to-end: a fresh heuristic-tier answer triggers one
/// bounded background thorough re-solve; the proven improvement
/// refreshes the cache entry under the original fingerprint, tagged
/// `escalated`, and served hits keep that tag (never re-escalating).
#[test]
fn escalation_refreshes_the_cache_with_a_proven_report() {
    use repliflow_solver::{Budget, Optimality, SolveRequest};
    // stage cap 0 disables comm-bb in the foreground: a 7-stage comm
    // instance routes to comm-heuristic (comm-exact caps out at 6
    // stages), leaving a provable gap for the escalated re-solve
    let budget = Budget {
        max_comm_bb_stages: 0,
        ..Budget::default()
    };
    let service = SolverService::builder().workers(1).escalation(true).build();
    let request = SolveRequest::new(comm_instance(0xE5C1, 7, 4)).budget(budget);
    let first = service.solve(&request).unwrap();
    assert_eq!(first.provenance, Provenance::Computed);
    assert_eq!(first.optimality, Optimality::Heuristic);
    service.drain_escalations();
    let stats = service.stats();
    assert_eq!(stats.escalation.scheduled, 1);
    assert_eq!(
        stats.escalation.refreshed, 1,
        "the proven escalated re-solve must refresh the cache entry"
    );
    let second = service.solve(&request).unwrap();
    assert_eq!(second.provenance, Provenance::Escalated);
    assert_eq!(second.optimality, Optimality::Proven);
    // a hit on the escalated entry never schedules another escalation
    service.drain_escalations();
    assert_eq!(service.stats().escalation.scheduled, 1);
}

/// The escalation concurrency bound sheds (never queues) candidates
/// beyond it, and in-flight escalations never extend foreground serve
/// latency — the structural guarantee behind "escalation never blocks
/// admission".
#[test]
fn escalations_are_bounded_and_never_block_the_foreground() {
    use repliflow_solver::{Budget, EnginePref, SolveRequest};
    use std::time::Instant;
    // Engine pinned to the heuristic portfolio: the escalated re-solve
    // is the *thorough* portfolio run, several times slower than the
    // balanced foreground pass on this size — a deterministic overlap
    // window for the bound to bite.
    let budget = Budget {
        max_comm_bb_stages: 0,
        ..Budget::default()
    };
    let make_request = |seed: u64| {
        SolveRequest::new(comm_instance(seed, 16, 6))
            .engine(EnginePref::Heuristic)
            .budget(budget)
    };
    // self-calibrated baseline: one balanced solve with no escalation
    let baseline_service = SolverService::builder().workers(1).build();
    let baseline_start = Instant::now();
    baseline_service.solve(&make_request(0xE5C2)).unwrap();
    let baseline = baseline_start.elapsed();

    let service = SolverService::builder()
        .workers(1)
        .escalation(true)
        .max_escalations(1)
        .build();
    for i in 0..3u64 {
        let start = Instant::now();
        let report = service.solve(&make_request(0xE5C3 + i)).unwrap();
        let served_in = start.elapsed();
        assert_eq!(report.provenance, Provenance::Computed);
        // a blocked foreground would absorb the thorough re-solve's
        // wall time (~5x the balanced pass); 4x the self-calibrated
        // baseline separates the two regimes without absolute clocks
        assert!(
            served_in < baseline * 4,
            "foreground solve took {served_in:?} vs baseline {baseline:?} — \
             escalation is blocking the serving path"
        );
    }
    service.drain_escalations();
    let stats = service.stats();
    assert_eq!(
        stats.escalation.scheduled + stats.escalation.shed,
        3,
        "every fresh heuristic answer is either escalated or shed"
    );
    assert!(
        stats.escalation.shed >= 1,
        "the bound of 1 must shed overlapping candidates (stats: {stats:?})"
    );
    assert!(stats.escalation.scheduled >= 1);
}

/// Sharding is invisible to correctness: the same batch served under
/// every shard count in {1, 2, 4, 8} produces byte-identical reports
/// and identical hit/insert counters.
#[test]
fn sharded_cache_serves_identical_reports_across_shard_counts() {
    let batch = simplified_instances(12, 0x3E10);
    let mut expected: Option<Vec<String>> = None;
    for shards in [1usize, 2, 4, 8] {
        let service = SolverService::builder()
            .workers(2)
            .cache_shards(shards)
            .build();
        assert_eq!(service.cache_shards(), Some(shards));
        let cold = service.solve_batch(&batch);
        let warm = service.solve_batch(&batch);
        let stats = service.cache_stats().expect("cache enabled");
        assert_eq!(
            (stats.insertions, stats.hits),
            (batch.len() as u64, batch.len() as u64),
            "shard count {shards} changed cache behavior"
        );
        let jsons: Vec<String> = cold
            .iter()
            .zip(&warm)
            .map(|(c, w)| {
                let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
                assert_eq!(
                    c.canonical_json(),
                    w.canonical_json(),
                    "cache hit diverged from computed report"
                );
                c.canonical_json()
            })
            .collect();
        match &expected {
            None => expected = Some(jsons),
            Some(e) => assert_eq!(e, &jsons, "shard count {shards} changed results"),
        }
    }
}
