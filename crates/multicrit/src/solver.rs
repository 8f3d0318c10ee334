//! The front solver: ε-constraint exact enumeration and heuristic
//! grid sweeps over a shared [`SolverService`], with a front-level
//! cache keyed on [`FrontRequest::fingerprint`].

use crate::report::{FrontPoint, FrontReport};
use crate::request::{FrontEnginePref, FrontRequest};
use repliflow_core::instance::{Objective, ProblemInstance};
use repliflow_core::mapping::Mapping;
use repliflow_core::rational::Rat;
use repliflow_exact::{Frontier, Solution};
use repliflow_solver::{
    Budget, CacheStats, EnginePref, Optimality, Provenance, ShardedLru, SolveError, SolveReport,
    SolveRequest, SolverService,
};
use repliflow_sync::sync::Arc;
use std::time::{Duration, Instant};

/// Default front-cache capacity (fronts are small but each holds many
/// mappings, so the default is modest next to the solve cache).
pub const DEFAULT_FRONT_CACHE_CAPACITY: usize = 128;

/// Default front-cache shard count (same lock-striping rationale as
/// the solve cache, at the smaller capacity's scale).
pub const DEFAULT_FRONT_CACHE_SHARDS: usize = 8;

/// Traces (period, latency) Pareto fronts through a shared
/// [`SolverService`].
///
/// Inner solves are ordinary [`SolveRequest`]s on the service — they
/// hit the solve cache, get witness-validated by the registry, and
/// stay deterministic — so a front solve is exactly a scripted
/// sequence of single-objective solves plus dominance bookkeeping.
/// Completed fronts are additionally cached here as whole
/// [`FrontReport`]s, keyed on [`FrontRequest::fingerprint`], behind
/// the same loom-modelchecked [`ShardedLru`] the solve cache uses.
///
/// # Caching rules
///
/// A front is written back only when it was **deterministically
/// produced**: no inner solve carried an incomplete (time/node-capped)
/// search, and the front was not cut short by `front_time_limit_ms`.
/// A point-count truncation (`max_front_points`) *is* deterministic
/// and cacheable.
pub struct FrontSolver {
    service: Arc<SolverService>,
    cache: Option<ShardedLru<FrontReport>>,
}

impl std::fmt::Debug for FrontSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontSolver")
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

impl FrontSolver {
    /// A front solver over `service` with the default front cache.
    pub fn new(service: Arc<SolverService>) -> FrontSolver {
        FrontSolver {
            service,
            cache: Some(ShardedLru::with_shards(
                DEFAULT_FRONT_CACHE_CAPACITY,
                DEFAULT_FRONT_CACHE_SHARDS,
            )),
        }
    }

    /// A front solver with an explicit front-cache geometry.
    pub fn with_cache(service: Arc<SolverService>, capacity: usize, shards: usize) -> FrontSolver {
        FrontSolver {
            service,
            cache: Some(ShardedLru::with_shards(capacity, shards)),
        }
    }

    /// A front solver with no front cache (inner solves still hit the
    /// service's solve cache).
    pub fn without_cache(service: Arc<SolverService>) -> FrontSolver {
        FrontSolver {
            service,
            cache: None,
        }
    }

    /// The service inner solves run on.
    pub fn service(&self) -> &SolverService {
        &self.service
    }

    /// Front-cache counters (`None` when built [`without_cache`]).
    ///
    /// [`without_cache`]: FrontSolver::without_cache
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Fronts the front cache holds now (`None` when built
    /// [`without_cache`]).
    ///
    /// [`without_cache`]: FrontSolver::without_cache
    pub fn cache_len(&self) -> Option<usize> {
        self.cache.as_ref().map(|c| c.len())
    }

    /// Drops every cached front (counters are kept).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
        }
    }

    /// Traces the front for `request`: front cache, then the routed
    /// front engine (see the crate docs for the routing rule).
    pub fn solve_front(&self, request: &FrontRequest) -> Result<Arc<FrontReport>, SolveError> {
        let fingerprint = request.fingerprint();
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.get(fingerprint) {
                return Ok(hit);
            }
        }
        let start = Instant::now();
        let exact = match request.engine {
            FrontEnginePref::Exact => true,
            FrontEnginePref::Sweep => false,
            FrontEnginePref::Auto => request.budget.fits_exact(&request.instance),
        };
        let (mut report, cacheable) = if exact {
            self.exact_front(request, start)?
        } else {
            self.sweep_front(request, start)?
        };
        report.wall_time = start.elapsed();
        debug_assert!(report.is_dominance_sorted());
        let report = Arc::new(report);
        if let Some(cache) = &self.cache {
            if cacheable {
                // Tag the stored entry once at insertion so every later
                // hit reads `Cached` without mutating shared state —
                // the same discipline as the solve cache.
                let mut entry = (*report).clone();
                entry.provenance = Provenance::Cached;
                cache.insert(fingerprint, Arc::new(entry));
            }
        }
        Ok(report)
    }

    /// One single-objective inner solve with the front instance's
    /// shape/platform/cost model and a substituted objective.
    fn inner_solve(
        &self,
        request: &FrontRequest,
        objective: Objective,
        pref: EnginePref,
    ) -> Result<Arc<SolveReport>, SolveError> {
        let instance = ProblemInstance {
            objective,
            ..request.instance.clone()
        };
        self.service.solve(
            &SolveRequest::new(instance)
                .engine(pref)
                .budget(request.budget)
                .validate_witness(request.validate_witness),
        )
    }

    /// Whether the front's wall-clock budget is spent.
    fn time_exhausted(start: Instant, budget: &Budget) -> bool {
        budget.front_time_limit_ms > 0
            && start.elapsed() >= Duration::from_millis(budget.front_time_limit_ms)
    }

    /// A front point for a witness, annotated with its reliability on
    /// platforms that can fail.
    fn point(
        instance: &ProblemInstance,
        mapping: Mapping,
        period: Rat,
        latency: Rat,
        optimality: Optimality,
    ) -> FrontPoint {
        let reliability = instance
            .platform
            .can_fail()
            .then(|| instance.reliability(&mapping));
        FrontPoint {
            period,
            latency,
            reliability,
            mapping,
            optimality,
        }
    }

    /// The exact ε-constraint enumeration (see the crate docs):
    /// alternate "min latency under period ≤ bound" (a front point)
    /// and "min period under latency **strictly** under the last
    /// point's" (the advance). A proven-infeasible advance proves the
    /// front complete. Returns the report plus its cacheability.
    fn exact_front(
        &self,
        request: &FrontRequest,
        start: Instant,
    ) -> Result<(FrontReport, bool), SolveError> {
        let budget = &request.budget;
        let instance = &request.instance;
        let mut points: Vec<FrontPoint> = Vec::new();
        let mut complete = false;
        let mut truncated = false;
        let mut time_cut = false;

        // The left endpoint: the minimum period (always attainable).
        let base = self.inner_solve(request, Objective::Period, EnginePref::Exact)?;
        let mut period_bound = base
            .period
            .expect("period minimization always yields a witness");
        loop {
            if points.len() >= budget.max_front_points {
                truncated = true;
                break;
            }
            if Self::time_exhausted(start, budget) {
                truncated = true;
                time_cut = true;
                break;
            }
            let r = self.inner_solve(
                request,
                Objective::LatencyUnderPeriod(period_bound),
                EnginePref::Exact,
            )?;
            let (Some(mapping), Some(period), Some(latency)) =
                (r.mapping.clone(), r.period, r.latency)
            else {
                // `period_bound` is a witnessed period, so this solve
                // cannot be infeasible; treat a missing witness as the
                // end of what we can prove.
                break;
            };
            points.push(Self::point(
                instance,
                mapping,
                period,
                latency,
                Optimality::Proven,
            ));
            // Advance: the next front point must be strictly better in
            // latency. Strict bounds (not `bound − ε`) are what makes
            // this sound over exact rationals.
            let last_latency = points.last().expect("just pushed").latency;
            let advance = self.inner_solve(
                request,
                Objective::PeriodUnderLatencyStrict(last_latency),
                EnginePref::Exact,
            )?;
            match (advance.optimality, advance.period) {
                // The exact engine *proved* no mapping beats the last
                // latency: the front is complete.
                (Optimality::Infeasible, _) | (_, None) => {
                    complete = true;
                    break;
                }
                (_, Some(next_period)) => period_bound = next_period,
            }
        }
        Ok((
            FrontReport {
                points,
                complete,
                truncated,
                engine_used: "front-exact",
                provenance: Provenance::Computed,
                wall_time: Duration::ZERO,
            },
            // A time cut depends on the machine's speed; a point-count
            // cut (and of course completion) is deterministic.
            !time_cut,
        ))
    }

    /// The heuristic grid sweep: both single-objective portfolio
    /// endpoints plus `max_front_points − 2` interior latency bounds,
    /// dominance-filtered into a clean front. Every point reports
    /// [`Optimality::Heuristic`] — even when an endpoint's inner solve
    /// happened to be proven, the *front* is only as strong as its
    /// weakest member.
    fn sweep_front(
        &self,
        request: &FrontRequest,
        start: Instant,
    ) -> Result<(FrontReport, bool), SolveError> {
        let budget = &request.budget;
        let instance = &request.instance;
        let mut cacheable = true;
        let mut time_cut = false;
        let mut frontier = Frontier::new();

        let admit = |r: &SolveReport, frontier: &mut Frontier, cacheable: &mut bool| {
            // An incomplete (node/time-capped) inner search is load-
            // dependent; its point still counts, but the front must
            // not be frozen into the cache.
            if let Some(s) = &r.search {
                *cacheable &= s.completed;
            }
            if r.optimality == Optimality::Infeasible {
                return; // no witness, or a bound-violating best-effort
            }
            if let (Some(mapping), Some(period), Some(latency)) =
                (r.mapping.clone(), r.period, r.latency)
            {
                frontier.insert(Solution {
                    mapping,
                    period,
                    latency,
                });
            }
        };

        // The two portfolio endpoints anchor the sweep: the front is
        // never worse than the single-objective solves.
        let min_period = self.inner_solve(request, Objective::Period, EnginePref::Auto)?;
        admit(&min_period, &mut frontier, &mut cacheable);
        let min_latency = self.inner_solve(request, Objective::Latency, EnginePref::Auto)?;
        admit(&min_latency, &mut frontier, &mut cacheable);

        // Interior: uniform latency bounds strictly between the
        // endpoints' latencies, minimizing period under each.
        let interior = budget.max_front_points.saturating_sub(2);
        if let (Some(high), Some(low)) = (min_period.latency, min_latency.latency) {
            if low < high && interior > 0 {
                let span = high - low;
                for i in 1..=interior {
                    if Self::time_exhausted(start, budget) {
                        time_cut = true;
                        break;
                    }
                    let bound = low + span * Rat::new(i as i128, interior as i128 + 1);
                    let r = self.inner_solve(
                        request,
                        Objective::PeriodUnderLatency(bound),
                        EnginePref::Auto,
                    )?;
                    admit(&r, &mut frontier, &mut cacheable);
                }
            }
        }

        let mut points: Vec<FrontPoint> = frontier
            .points()
            .iter()
            .map(|sol| {
                Self::point(
                    instance,
                    sol.mapping.clone(),
                    sol.period,
                    sol.latency,
                    Optimality::Heuristic,
                )
            })
            .collect();
        let over_cap = points.len() > budget.max_front_points;
        points.truncate(budget.max_front_points);
        Ok((
            FrontReport {
                points,
                complete: false,
                truncated: over_cap || time_cut,
                engine_used: "front-sweep",
                provenance: Provenance::Computed,
                wall_time: Duration::ZERO,
            },
            cacheable && !time_cut,
        ))
    }
}
