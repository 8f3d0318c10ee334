//! `cold_solve`: a closed loop of [`config::CLIENTS`] threads calling
//! `SolverService::solve` in process on a pool of distinct instances
//! that covers the Table 1 cells and every engine route, so the engines
//! and witness validation do all the work and the cache never hits.
//!
//! One pass solves the whole pool once, in a seeded order that spreads
//! every route evenly through the pass; each pass gets a fresh service,
//! so a pool member met again in a later pass is still a miss. Every
//! answer is checked against the committed reference. About one request
//! in [`config::HIT_PROBE_EVERY`] is followed by a probe — the same
//! request again, now a cache hit — whose latency feeds `hit_tail_ms`
//! only: how long a hit waits while the engines saturate the cores.

use crate::common::{mean, relative_change, shuffle, us, Ctx, Metric, Outcome, Tally};
use crate::config;
use crate::instances::{self, Route};
use crate::layers::{engine_layer, Counters};
use crate::reference::{self, Expected, PoolEntry};
use crate::stats::median;
use crate::trace::Tracer;
use crate::witness;
use repliflow_core::gen::Gen;
use repliflow_core::instance::ProblemInstance;
use repliflow_multicrit::{FrontRequest, FrontSolver};
use repliflow_solver::{
    Budget, EnginePref, EngineRegistry, Provenance, SolveCache, SolveRequest, SolverService,
};
use repliflow_sync::sync::atomic::{AtomicUsize, Ordering};
use repliflow_sync::sync::{Arc, Mutex};
use serde::Value;
use std::time::{Duration, Instant};

const WORKLOAD: usize = 1;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let pool = reference::pool();
    let expected = reference::load(&ctx.root, &pool)?;
    let warm = warm_set();
    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..config::SETUPS {
        let start = Instant::now();
        let built = SolverService::builder().workers(config::CLIENTS).build();
        for request in &warm {
            built
                .solve(request)
                .map_err(|e| format!("warm-up solve failed: {e}"))?;
        }
        setups.push(start.elapsed().as_secs_f64());
        built.clear_cache();
        service = Some(built);
    }
    let (tail_p, hit_p) = (
        config::TAIL_PERCENTILE[WORKLOAD],
        config::HIT_TAIL_PERCENTILE[WORKLOAD],
    );
    let mut meta = vec![
        ("threads".into(), Value::Int(config::CLIENTS as i128)),
        ("pool".into(), Value::Int(pool.len() as i128)),
        (
            "pool_per_route".into(),
            Value::Array(
                config::POOL_PER_ROUTE
                    .iter()
                    .map(|&n| Value::Int(n as i128))
                    .collect(),
            ),
        ),
        (
            "setups_s".into(),
            Value::Array(setups.iter().copied().map(Value::Float).collect()),
        ),
    ];
    let closed = Loop {
        pool: &pool,
        expected: &expected,
        seed: ctx.seed,
    };
    if ctx.trace {
        return traced(ctx, &closed, meta, tail_p, hit_p);
    }
    let mut run = closed.run(ctx.seconds, service, false);
    let (mut metrics, tally_meta) = run.tally.end_to_end(tail_p, hit_p);
    metrics.insert(0, Metric::new("setup_s", median(&setups), "s"));
    metrics.push(Metric::new(
        "peak_rss_mb",
        crate::daemon::peak_rss_mb("/proc/self/status"),
        "MB",
    ));
    meta.extend(tally_meta);
    meta.push(("passes".into(), Value::Float(run.passes)));
    Ok(Outcome {
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        correct: run.tally.wrong == 0,
        metrics,
        meta,
        errors: run.tally.errors,
    })
}

/// One instance per route from outside the pool, solved at set-up so
/// the measured passes start with every engine's first-use costs paid.
fn warm_set() -> Vec<SolveRequest> {
    reference::generate(config::POOL_SEED ^ 0x3A3A, [1; 5])
        .into_iter()
        .map(|entry| entry.request)
        .collect()
}

/// A pass order: every route's members in seeded order, interleaved so
/// each route is spread evenly through the pass (member `m` of a route
/// with `c` members sits at about `(m + jitter) / c` of the way).
fn pass_order(pool: &[PoolEntry], seed: u64, pass: usize) -> Vec<usize> {
    let mut gen = Gen::new(seed ^ (pass as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(pool.len());
    for route in Route::ALL {
        let mut members: Vec<usize> = (0..pool.len())
            .filter(|&i| pool[i].route == route)
            .collect();
        shuffle(&mut members, &mut gen);
        let count = members.len() as f64;
        for (m, index) in members.into_iter().enumerate() {
            let jitter = gen.int(0, 1 << 20) as f64 / (1u64 << 20) as f64;
            keyed.push(((m as f64 + jitter) / count, index));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, i)| i).collect()
}

struct Loop<'a> {
    pool: &'a [PoolEntry],
    expected: &'a [Expected],
    seed: u64,
}

/// Per-pass orders and services, created on first use by either thread.
#[derive(Default)]
struct Passes {
    orders: Vec<Arc<Vec<usize>>>,
    services: Vec<Arc<SolverService>>,
}

struct LoopRun {
    tally: Tally,
    spans: Option<Tracer>,
    /// Passes completed (fractional).
    passes: f64,
    /// Service counters summed over every pass's service.
    counters: Counters,
}

impl Loop<'_> {
    fn run(&self, seconds: f64, first: Option<SolverService>, traced: bool) -> LoopRun {
        let epoch = Instant::now();
        let deadline = epoch + Duration::from_secs_f64(seconds);
        let cursor = AtomicUsize::new(0);
        let passes = Mutex::new(Passes {
            orders: Vec::new(),
            services: first.map(Arc::new).into_iter().collect(),
        });
        let results: Vec<(Tally, Option<Tracer>)> = repliflow_sync::thread::scope(|scope| {
            let handles: Vec<_> = (0..config::CLIENTS)
                .map(|t| {
                    let (cursor, passes) = (&cursor, &passes);
                    scope.spawn(move || self.worker(t, cursor, passes, epoch, deadline, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("solve thread panicked"))
                .collect()
        });
        let mut tally = Tally::default();
        let mut spans = traced.then(|| Tracer::new(epoch));
        for (t, s) in results {
            tally.merge(t);
            if let (Some(all), Some(s)) = (spans.as_mut(), s) {
                all.merge(s);
            }
        }
        let services = passes.into_inner().expect("pass table lock").services;
        let counters = services.iter().fold(Counters::default(), |acc, s| {
            acc.add(&Counters::from_service(s))
        });
        LoopRun {
            tally,
            spans,
            passes: (cursor.load(Ordering::SeqCst) as f64 / self.pool.len() as f64),
            counters,
        }
    }

    /// The order and service of pass `pass`, creating them on first use.
    fn pass(&self, passes: &Mutex<Passes>, pass: usize) -> (Arc<Vec<usize>>, Arc<SolverService>) {
        let mut table = passes.lock().expect("pass table lock");
        while table.orders.len() <= pass {
            let n = table.orders.len();
            table
                .orders
                .push(Arc::new(pass_order(self.pool, self.seed, n)));
        }
        while table.services.len() <= pass {
            table.services.push(Arc::new(
                SolverService::builder().workers(config::CLIENTS).build(),
            ));
        }
        (
            Arc::clone(&table.orders[pass]),
            Arc::clone(&table.services[pass]),
        )
    }

    fn worker(
        &self,
        thread: usize,
        cursor: &AtomicUsize,
        passes: &Mutex<Passes>,
        epoch: Instant,
        deadline: Instant,
        traced: bool,
    ) -> (Tally, Option<Tracer>) {
        let mut tally = Tally::default();
        let mut tracer = traced.then(|| Tracer::new(epoch));
        let mut served = 0u64;
        while Instant::now() < deadline {
            let i = cursor.fetch_add(1, Ordering::SeqCst);
            let (order, service) = self.pass(passes, i / self.pool.len());
            let index = order[i % self.pool.len()];
            let entry = &self.pool[index];
            let start = Instant::now();
            let result = service.solve(&entry.request);
            let took = start.elapsed();
            let ms = took.as_secs_f64() * 1e3;
            tally.elapsed_s = (start + took - epoch).as_secs_f64();
            if let Some(t) = tracer.as_mut() {
                t.record(entry.route.engine(), "loadgen", None, i as u64, start, took);
            }
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    tally.fail(ms, format!("pool member {index}: {e}"));
                    continue;
                }
            };
            let got = reference::observed(entry, &report);
            match reference::compare(&self.expected[index], &got) {
                Ok(ratio) => {
                    tally.ok(
                        ms,
                        false,
                        report.optimality == repliflow_solver::Optimality::Proven,
                        config::SLO_ROUTE_MS[route_index(entry.route)],
                    );
                    if let Some(ratio) = ratio {
                        tally.ratio(ratio);
                    }
                }
                Err(e) => tally.wrong(ms, format!("pool member {index}: {e}")),
            }
            tally.observe(
                report.engine_used,
                report.search.map(|s| (s.nodes, s.completed)),
                report.fallback.is_some(),
            );
            served += 1;
            if served % config::HIT_PROBE_EVERY == (thread as u64 % config::HIT_PROBE_EVERY) {
                let start = Instant::now();
                let probe = service.solve(&entry.request);
                let took = start.elapsed();
                match probe {
                    Ok(hit) if hit.provenance == Provenance::Cached => {
                        tally.hit_latency.push_duration(took)
                    }
                    Ok(_) => {
                        tally.probe_failed(format!("probe of pool member {index} missed the cache"))
                    }
                    Err(e) => tally.probe_failed(format!("probe of pool member {index}: {e}")),
                }
            }
        }
        (tally, tracer)
    }
}

fn route_index(route: Route) -> usize {
    Route::ALL.iter().position(|&r| r == route).unwrap_or(0)
}

/// The traced invocation: half the run untraced, half with spans on,
/// then one stage-by-stage replay of the pool through the public
/// functions of each layer.
fn traced(
    ctx: &Ctx,
    closed: &Loop<'_>,
    mut meta: Vec<(String, Value)>,
    tail_p: f64,
    hit_p: f64,
) -> Result<Outcome, String> {
    let half = ctx.seconds / 2.0;
    let mut plain = closed.run(half, None, false);
    let mut live = closed.run(half, None, true);
    let mut metrics = live.counters.metrics(live.tally.elapsed_s, config::CLIENTS);
    metrics.extend(live.tally.search_metrics());
    metrics.push(Metric::new(
        "trace.overhead_share",
        relative_change(live.tally.latency.median(), plain.tally.latency.median()),
        "share",
    ));

    let mut replay = Tracer::new(Instant::now());
    metrics.extend(replay_pool(closed.pool, &mut replay)?);
    metrics.extend(replay_hedged(closed.pool, &mut replay)?);
    let fronts: Vec<_> = (0..config::REPLAY_FRONTS)
        .map(instances::front_instance)
        .collect();
    let mut request = closed.pool.len() as u64 * 2;
    metrics.extend(replay_fronts(&fronts, &mut replay, &mut request)?);
    for (layer, ms) in replay.self_ms() {
        metrics.push(Metric::new(format!("layer.{layer}.self_ms"), ms, "ms"));
    }
    let (_, tally_meta) = live.tally.end_to_end(tail_p, hit_p);
    meta.extend(tally_meta);
    let mut spans = live
        .spans
        .take()
        .unwrap_or_else(|| Tracer::new(Instant::now()));
    spans.merge(replay);
    crate::write_spans(ctx, "cold_solve", &spans, &mut meta);
    let mut errors = plain.tally.errors;
    errors.extend(live.tally.errors);
    Ok(Outcome {
        attempted: plain.tally.attempted + live.tally.attempted,
        failed: plain.tally.failed + live.tally.failed,
        correct: plain.tally.wrong + live.tally.wrong == 0,
        metrics,
        meta,
        errors,
    })
}

/// Replays every pool member once, stage by stage: fingerprint, cache
/// lookup, routing, the registry solve (with the engine's own time as a
/// child span), the cost-model re-evaluation, the simulator replay and
/// the canonical encoding.
fn replay_pool(pool: &[PoolEntry], tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let registry = EngineRegistry::default();
    let cache = SolveCache::with_shards(pool.len().max(1), 8);
    let (mut route, mut cost, mut sim) = (Vec::new(), Vec::new(), Vec::new());
    for (index, entry) in pool.iter().enumerate() {
        let rid = index as u64;
        let instance = &entry.request.instance;
        let request = entry.request.clone().validate_witness(false);
        let root = tracer.begin("cold_request", "loadgen", None, rid);
        let (key, _) = tracer.time("fingerprint", "core", Some(root), rid, || {
            request.fingerprint()
        });
        let (hit, _) = tracer.time("cache_get", "solver", Some(root), rid, || cache.get(key));
        if hit.is_some() {
            return Err(format!("pool member {index} hit an empty cache"));
        }
        let (engine, route_id) = tracer.time("route", "solver", Some(root), rid, || {
            reference::routed_engine(&registry, instance)
        });
        route.push(us(tracer.duration(route_id)));
        let start = Instant::now();
        let report = registry
            .solve(&request)
            .map_err(|e| format!("replay of pool member {index}: {e}"))?;
        let solve_id = tracer.record(
            "registry_solve",
            "solver",
            Some(root),
            rid,
            start,
            start.elapsed(),
        );
        tracer.record(
            report.engine_used,
            engine_layer(report.engine_used),
            Some(solve_id),
            rid,
            start,
            report.wall_time,
        );
        if engine != Some(report.engine_used) {
            return Err(format!(
                "pool member {index}: routed to {engine:?}, solved by {}",
                report.engine_used
            ));
        }
        let (checked, cost_id) = tracer.time("cost_eval", "core", Some(root), rid, || {
            witness::cost_eval(instance, &report)
        });
        if let Some(checked) = checked {
            checked.map_err(|e| format!("pool member {index}: {e}"))?;
            cost.push(us(tracer.duration(cost_id)));
        }
        if witness::simulated(instance, &report) {
            let (replayed, sim_id) = tracer.time("sim_replay", "sim", Some(root), rid, || {
                witness::sim_replay(instance, &report)
            });
            replayed.map_err(|e| format!("pool member {index}: {e}"))?;
            sim.push(us(tracer.duration(sim_id)));
        }
        let (canonical, _) = tracer.time("canonical", "solver", Some(root), rid, || {
            report.canonical_json()
        });
        std::hint::black_box(canonical);
        tracer.end(root);
    }
    Ok(vec![
        Metric::new("solver.route_us", mean(&route), "us"),
        Metric::new("core.cost_eval_us", mean(&cost), "us"),
        Metric::new("sim.replay_us", mean(&sim), "us"),
    ])
}

/// Races every comm-bb pool member through the hedged engine (comm-bb
/// against comm-heuristic): its race counters and busy time.
fn replay_hedged(pool: &[PoolEntry], tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let registry = EngineRegistry::default();
    let (mut busy_ms, mut solves) = (0.0, 0.0);
    for (index, entry) in pool.iter().enumerate() {
        if entry.route != Route::CommBb {
            continue;
        }
        let request = entry.request.clone().engine(EnginePref::Hedged);
        let rid = (pool.len() + index) as u64;
        let (report, _) = tracer.time("hedged_solve", "solver", None, rid, || {
            registry.solve(&request)
        });
        let report = report.map_err(|e| format!("hedged race of pool member {index}: {e}"))?;
        busy_ms += report.wall_time.as_secs_f64() * 1e3;
        solves += 1.0;
    }
    let races = registry.hedge_stats();
    Ok(vec![
        Metric::new("solver.hedge.races", races.races as f64, "count"),
        Metric::new(
            "solver.hedge.secondary_wins",
            races.secondary_wins as f64,
            "count",
        ),
        Metric::new(
            "solver.hedge.losers_cancelled",
            races.losers_cancelled as f64,
            "count",
        ),
        Metric::new("solver.hedged_ms", busy_ms, "ms"),
        Metric::new("solver.hedged.solves", solves, "count"),
    ])
}

/// Replays `pareto` requests through an in-process [`FrontSolver`] (the
/// daemon's front path, front cache included).
fn replay_fronts(
    fronts: &[ProblemInstance],
    tracer: &mut Tracer,
    request: &mut u64,
) -> Result<Vec<Metric>, String> {
    let front = FrontSolver::new(Arc::new(SolverService::builder().workers(1).build()));
    let budget = Budget::default().max_front_points(config::FRONT_POINTS);
    let (mut ms, mut points) = (Vec::new(), Vec::new());
    for instance in fronts {
        *request += 1;
        let req = FrontRequest::new(instance.clone()).budget(budget);
        let (report, id) = tracer.time("solve_front", "multicrit", None, *request, || {
            front.solve_front(&req)
        });
        let report = report.map_err(|e| format!("front replay: {e}"))?;
        ms.push(us(tracer.duration(id)) / 1e3);
        points.push(report.points.len() as f64);
    }
    let cache = front.cache_stats().unwrap_or_default();
    let lookups = (cache.hits + cache.misses) as f64;
    Ok(vec![
        Metric::new("multicrit.front_ms", mean(&ms), "ms"),
        Metric::new("multicrit.front_points", mean(&points), "count"),
        Metric::new(
            "multicrit.front_cache_hit_ratio",
            if lookups > 0.0 {
                cache.hits as f64 / lookups
            } else {
                0.0
            },
            "share",
        ),
    ])
}
