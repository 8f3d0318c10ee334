//! The `stats` verb's payload: one JSON snapshot of everything the
//! daemon can observe about itself — server lifecycle, admission
//! counters, solver service statistics (cache hit rate, per-engine
//! wall time, worker utilization), the `pareto` verb's and the front
//! cache's counts, the thread cache's counts and the end-to-end latency
//! histogram's percentiles.
//!
//! Layout (all durations in milliseconds unless suffixed `_us`):
//!
//! ```json
//! {"server":{"uptime_ms":...,"draining":false,
//!            "connections_open":1,"connections_total":3},
//!  "admission":{"in_flight":2,"high_water":4,"queue_depth":64,
//!               "per_conn_inflight":16,"accepted":10,"rejected":1,
//!               "completed":8},
//!  "service":{"requests":9,"cache_hits":3,"computed":5,"errors":1,
//!             "cache_hit_rate":0.333,"workers":8,
//!             "queue_wait_ms":...,"jobs_executed":5,
//!             "busy_ms":...,"worker_utilization":0.41,
//!             "per_engine":[{"engine":"paper","wall_ms":...,"solves":4}]},
//!  "cache":{"hits":3,"misses":6,"insertions":5,"evictions":0,
//!           "shards":8},
//!  "instance_memo":{"hits":2,"misses":7,"entries":5,"capacity":1024},
//!  "fronts":{"requests":2,"hits":1,"misses":1,"entries":1},
//!  "threads":{"spawned":3,"reused":17,"parked":2,"writers":0},
//!  "hedge":{"races":2,"primary_wins":1,"secondary_wins":1,
//!           "losers_cancelled":2,"window_rescues":0},
//!  "escalation":{"scheduled":1,"refreshed":1,"unimproved":0,
//!                "shed":0,"failed":0},
//!  "latency":{"count":9,"mean_us":...,"min_us":...,"max_us":...,
//!             "p50_us":...,"p95_us":...,"p99_us":...}}
//! ```
//!
//! `instance_memo` counts `solve` lines whose instance bytes the memo
//! recognized (`hits`: no decode, no fingerprint) or did not (`misses`),
//! and the entries it holds against its capacity, which is the solve
//! cache's. `threads` describes the thread cache that runs every
//! connection, writer and front job: `spawned` counts threads started
//! because none was parked, `reused` jobs handed to a parked thread,
//! `parked` the threads parked now, and `writers` the writer jobs
//! started because an answer did not fit the socket buffer at once.
//! `fronts` counts the `pareto` requests answered (a front or an
//! error), and the front cache's lookups that found a front (`hits`)
//! or did not (`misses`) and the fronts it holds (`entries`).
//! `cache` and `instance_memo` are `null`, and so are the front cache's
//! three counts, when the daemon runs cacheless; latency percentiles
//! are `null` until the first request is served. The `hedge` counters
//! stay zero until the first `engine: "hedged"` request; `escalation`
//! counters stay zero unless the daemon runs with `--escalate`.

use crate::server::ServerShared;
use repliflow_multicrit::FrontSolver;
use repliflow_solver::{HistogramSnapshot, SolverService};
use repliflow_sync::sync::atomic::Ordering;
use serde::Value;
use std::time::Duration;

/// Milliseconds as a JSON float (µs precision is plenty for wall time).
fn ms(d: Duration) -> Value {
    Value::Float((d.as_micros() as f64) / 1e3)
}

/// Whole microseconds as a JSON integer, `null` when absent — integer
/// so tests and dashboards compare percentiles without float fuzz.
fn us(d: Option<Duration>) -> Value {
    match d {
        Some(d) => Value::Int(d.as_micros() as i128),
        None => Value::Null,
    }
}

/// The latency histogram section.
fn latency_section(snapshot: &HistogramSnapshot) -> Value {
    Value::Object(vec![
        ("count".into(), Value::Int(snapshot.count as i128)),
        ("mean_us".into(), us(snapshot.mean)),
        ("min_us".into(), us(snapshot.min)),
        ("max_us".into(), us(snapshot.max)),
        ("p50_us".into(), us(snapshot.p50)),
        ("p95_us".into(), us(snapshot.p95)),
        ("p99_us".into(), us(snapshot.p99)),
    ])
}

/// Builds the full metrics snapshot served by the `stats` verb.
pub(crate) fn snapshot(
    service: &SolverService,
    front: &FrontSolver,
    shared: &ServerShared,
) -> Value {
    let admission = shared.admission.stats();
    let config = shared.admission.config();
    let stats = service.stats();
    let per_engine = stats
        .per_engine
        .iter()
        .map(|e| {
            Value::Object(vec![
                ("engine".into(), Value::String(e.engine.into())),
                ("wall_ms".into(), ms(e.wall)),
                ("solves".into(), Value::Int(e.solves as i128)),
            ])
        })
        .collect();
    let cache = match service.cache_stats() {
        None => Value::Null,
        Some(c) => Value::Object(vec![
            ("hits".into(), Value::Int(c.hits as i128)),
            ("misses".into(), Value::Int(c.misses as i128)),
            ("insertions".into(), Value::Int(c.insertions as i128)),
            ("evictions".into(), Value::Int(c.evictions as i128)),
            (
                "shards".into(),
                Value::Int(service.cache_shards().unwrap_or(0) as i128),
            ),
        ]),
    };
    let instance_memo = match &shared.memo {
        None => Value::Null,
        Some(memo) => {
            let counts = memo.stats();
            Value::Object(vec![
                ("hits".into(), Value::Int(counts.hits as i128)),
                ("misses".into(), Value::Int(counts.misses as i128)),
                ("entries".into(), Value::Int(memo.len() as i128)),
                ("capacity".into(), Value::Int(memo.capacity() as i128)),
            ])
        }
    };
    let front_cache = front.cache_stats();
    let count = |n: Option<u64>| n.map_or(Value::Null, |n| Value::Int(n as i128));
    let fronts = Value::Object(vec![
        (
            "requests".into(),
            // relaxed: monotone counter for a stats page.
            Value::Int(shared.fronts_answered.load(Ordering::Relaxed) as i128),
        ),
        ("hits".into(), count(front_cache.map(|c| c.hits))),
        ("misses".into(), count(front_cache.map(|c| c.misses))),
        ("entries".into(), count(front.cache_len().map(|n| n as u64))),
    ]);
    let threads = shared.threads.stats();
    let threads = Value::Object(vec![
        ("spawned".into(), Value::Int(threads.spawned as i128)),
        ("reused".into(), Value::Int(threads.reused as i128)),
        ("parked".into(), Value::Int(threads.parked as i128)),
        ("writers".into(), Value::Int(threads.writers as i128)),
    ]);
    let hedge = Value::Object(vec![
        ("races".into(), Value::Int(stats.hedge.races as i128)),
        (
            "primary_wins".into(),
            Value::Int(stats.hedge.primary_wins as i128),
        ),
        (
            "secondary_wins".into(),
            Value::Int(stats.hedge.secondary_wins as i128),
        ),
        (
            "losers_cancelled".into(),
            Value::Int(stats.hedge.losers_cancelled as i128),
        ),
        (
            "window_rescues".into(),
            Value::Int(stats.hedge.window_rescues as i128),
        ),
    ]);
    let escalation = Value::Object(vec![
        (
            "scheduled".into(),
            Value::Int(stats.escalation.scheduled as i128),
        ),
        (
            "refreshed".into(),
            Value::Int(stats.escalation.refreshed as i128),
        ),
        (
            "unimproved".into(),
            Value::Int(stats.escalation.unimproved as i128),
        ),
        ("shed".into(), Value::Int(stats.escalation.shed as i128)),
        ("failed".into(), Value::Int(stats.escalation.failed as i128)),
    ]);
    Value::Object(vec![
        (
            "server".into(),
            Value::Object(vec![
                ("uptime_ms".into(), ms(shared.started.elapsed())),
                ("draining".into(), Value::Bool(shared.draining())),
                (
                    "connections_open".into(),
                    // relaxed: point-in-time gauge for a stats page —
                    // a stale-by-one read is indistinguishable from
                    // reading a moment earlier.
                    Value::Int(shared.connections_open.load(Ordering::Relaxed) as i128),
                ),
                (
                    "connections_total".into(),
                    // relaxed: monotone counter, same reasoning.
                    Value::Int(shared.connections_total.load(Ordering::Relaxed) as i128),
                ),
            ]),
        ),
        (
            "admission".into(),
            Value::Object(vec![
                ("in_flight".into(), Value::Int(admission.in_flight as i128)),
                (
                    "high_water".into(),
                    Value::Int(admission.high_water as i128),
                ),
                ("queue_depth".into(), Value::Int(config.queue_depth as i128)),
                (
                    "per_conn_inflight".into(),
                    Value::Int(config.per_conn_inflight as i128),
                ),
                ("accepted".into(), Value::Int(admission.accepted as i128)),
                ("rejected".into(), Value::Int(admission.rejected as i128)),
                ("completed".into(), Value::Int(admission.completed as i128)),
            ]),
        ),
        (
            "service".into(),
            Value::Object(vec![
                ("requests".into(), Value::Int(stats.requests as i128)),
                ("cache_hits".into(), Value::Int(stats.cache_hits as i128)),
                ("computed".into(), Value::Int(stats.computed as i128)),
                ("errors".into(), Value::Int(stats.errors as i128)),
                ("cache_hit_rate".into(), Value::Float(stats.hit_rate())),
                ("workers".into(), Value::Int(service.pool_size() as i128)),
                ("queue_wait_ms".into(), ms(stats.queue_wait)),
                (
                    "jobs_executed".into(),
                    Value::Int(stats.jobs_executed as i128),
                ),
                ("busy_ms".into(), ms(stats.busy)),
                (
                    "worker_utilization".into(),
                    Value::Float(stats.worker_utilization),
                ),
                ("per_engine".into(), Value::Array(per_engine)),
            ]),
        ),
        ("cache".into(), cache),
        ("instance_memo".into(), instance_memo),
        ("fronts".into(), fronts),
        ("threads".into(), threads),
        ("hedge".into(), hedge),
        ("escalation".into(), escalation),
        ("latency".into(), latency_section(&stats.latency)),
    ])
}
