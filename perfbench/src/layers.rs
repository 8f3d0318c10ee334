//! Per-layer counters read from the solver service — the daemon's
//! `stats` verb or an in-process [`SolverService`] — as differences over
//! the traced window.

use crate::common::Metric;
use crate::daemon::{engine_busy, stat_f64, stat_int};
use repliflow_solver::SolverService;
use serde::Value;
use std::collections::BTreeMap;

/// Engine name → (busy-time metric, solve-count metric, layer).
pub const ENGINES: [(&str, &str, &str, &str); 6] = [
    (
        "paper",
        "algorithms.paper_ms",
        "algorithms.paper.solves",
        "algorithms",
    ),
    ("exact", "exact.exact_ms", "exact.exact.solves", "exact"),
    (
        "comm-exact",
        "exact.comm_exact_ms",
        "exact.comm_exact.solves",
        "exact",
    ),
    (
        "comm-bb",
        "exact.comm_bb_ms",
        "exact.comm_bb.solves",
        "exact",
    ),
    (
        "heuristic",
        "heuristics.heuristic_ms",
        "heuristics.heuristic.solves",
        "heuristics",
    ),
    (
        "comm-heuristic",
        "heuristics.comm_heuristic_ms",
        "heuristics.comm_heuristic.solves",
        "heuristics",
    ),
];

/// The layer an engine's busy time belongs to.
pub fn engine_layer(engine: &str) -> &'static str {
    ENGINES
        .iter()
        .find(|e| e.0 == engine)
        .map_or("solver", |e| e.3)
}

#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub rejected: f64,
    pub high_water: f64,
    pub hits: f64,
    pub lookups: f64,
    pub evictions: f64,
    pub queue_wait_ms: f64,
    pub jobs: f64,
    pub busy_ms: f64,
    pub engines: BTreeMap<&'static str, (f64, f64)>,
}

impl Counters {
    /// From a daemon `stats` snapshot.
    pub fn from_stats(stats: &Value) -> Counters {
        let int = |path| stat_int(stats, path) as f64;
        Counters {
            rejected: int("admission/rejected"),
            high_water: int("admission/high_water"),
            hits: int("cache/hits"),
            lookups: int("cache/hits") + int("cache/misses"),
            evictions: int("cache/evictions"),
            queue_wait_ms: stat_f64(stats, "service/queue_wait_ms"),
            jobs: int("service/jobs_executed"),
            busy_ms: stat_f64(stats, "service/busy_ms"),
            engines: ENGINES
                .iter()
                .map(|e| {
                    let (ms, solves) = engine_busy(stats, e.0);
                    (e.0, (ms, solves as f64))
                })
                .collect(),
        }
    }

    /// From an in-process service (no admission layer).
    pub fn from_service(service: &SolverService) -> Counters {
        let stats = service.stats();
        let cache = service.cache_stats().unwrap_or_default();
        Counters {
            hits: cache.hits as f64,
            lookups: (cache.hits + cache.misses) as f64,
            evictions: cache.evictions as f64,
            queue_wait_ms: stats.queue_wait.as_secs_f64() * 1e3,
            jobs: stats.jobs_executed as f64,
            busy_ms: stats.busy.as_secs_f64() * 1e3,
            engines: ENGINES
                .iter()
                .map(|e| {
                    let row = stats.per_engine.iter().find(|w| w.engine == e.0);
                    let busy = row.map_or((0.0, 0.0), |w| {
                        (w.wall.as_secs_f64() * 1e3, w.solves as f64)
                    });
                    (e.0, busy)
                })
                .collect(),
            ..Counters::default()
        }
    }

    /// Element-wise sum (services of several passes).
    pub fn add(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b, f64::max)
    }

    /// Element-wise difference over a window (`self` is the later one);
    /// the admission high-water mark is a running maximum and is kept.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b, |a, _| a)
    }

    fn zip(
        &self,
        o: &Counters,
        f: impl Fn(f64, f64) -> f64,
        hw: impl Fn(f64, f64) -> f64,
    ) -> Counters {
        Counters {
            rejected: f(self.rejected, o.rejected),
            high_water: hw(self.high_water, o.high_water),
            hits: f(self.hits, o.hits),
            lookups: f(self.lookups, o.lookups),
            evictions: f(self.evictions, o.evictions),
            queue_wait_ms: f(self.queue_wait_ms, o.queue_wait_ms),
            jobs: f(self.jobs, o.jobs),
            busy_ms: f(self.busy_ms, o.busy_ms),
            engines: ENGINES
                .iter()
                .map(|e| {
                    let (ms, n) = self.engines.get(e.0).copied().unwrap_or_default();
                    let (oms, on) = o.engines.get(e.0).copied().unwrap_or_default();
                    (e.0, (f(ms, oms), f(n, on)))
                })
                .collect(),
        }
    }

    /// The solver-service per-layer metrics of a window of `window_s`
    /// seconds on `workers` pool threads.
    pub fn metrics(&self, window_s: f64, workers: usize) -> Vec<Metric> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut out = vec![
            Metric::new("serve.rejected", self.rejected, "count"),
            Metric::new("serve.inflight_high_water", self.high_water, "count"),
            Metric::new(
                "solver.cache_hit_ratio",
                ratio(self.hits, self.lookups),
                "share",
            ),
            Metric::new("solver.cache_hits", self.hits, "count"),
            Metric::new("solver.cache_lookups", self.lookups, "count"),
            Metric::new("solver.cache_evictions", self.evictions, "count"),
            Metric::new(
                "solver.queue_wait_ms",
                ratio(self.queue_wait_ms, self.jobs),
                "ms",
            ),
            Metric::new(
                "solver.worker_utilization",
                ratio(self.busy_ms, window_s * 1e3 * workers as f64),
                "share",
            ),
        ];
        for (engine, ms_name, solves_name, _) in ENGINES {
            let (ms, solves) = self.engines.get(engine).copied().unwrap_or_default();
            out.push(Metric::new(ms_name, ms, "ms"));
            out.push(Metric::new(solves_name, solves, "count"));
        }
        out
    }
}
