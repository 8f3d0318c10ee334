//! The serving layer: a long-lived [`SolverService`] over the engine
//! registry.
//!
//! PRs 1–4 made each individual solve as good as it gets (Table 1
//! routing, comm-aware exact/heuristic engines, branch-and-bound). What
//! was missing is everything *around* the solves once traffic is
//! sustained: worker threads were spawned per batch call, nothing was
//! cached across requests, and nothing could be cancelled or bounded by
//! a wall-clock deadline. [`SolverService`] packages those serving
//! concerns in one long-lived object:
//!
//! * a persistent work-stealing [`WorkerPool`] created **once**,
//!   lazily on the first batch/stream call (see
//!   [`SolverService::spawned_threads`] — repeated batches never spawn
//!   new threads, and single solves never spawn any);
//! * an LRU [`SolveCache`] keyed on canonical request fingerprints
//!   ([`SolveRequest::fingerprint`]), serving byte-identical reports
//!   tagged [`Provenance::Cached`];
//! * per-request [`Deadline`]s and [`CancelToken`]s with
//!   fail-fast/degrade semantics;
//! * order-tagged streaming ([`SolverService::solve_stream`]) that
//!   yields results as they finish, which
//!   [`SolverService::solve_batch`] reassembles into input order;
//! * serving statistics ([`ServiceStats`]): cache hit rate, queue
//!   wait, per-engine wall time, hedge-race and escalation counters;
//! * opt-in **budgeted escalation** ([`SolverBuilder::escalation`]):
//!   a fresh heuristic-tier answer is returned immediately while a
//!   background thorough re-solve (widened `comm-bb` caps, quality
//!   raised to the escalation tier) runs on a small dedicated pool —
//!   bounded by [`SolverBuilder::max_escalations`], shedding instead
//!   of queueing, so it can never delay foreground serving. A strict
//!   improvement refreshes the cache entry under the original
//!   fingerprint with [`Provenance::Escalated`].
//!
//! Construct with [`SolverBuilder`]:
//!
//! ```
//! use repliflow_core::instance::{Objective, ProblemInstance};
//! use repliflow_core::platform::Platform;
//! use repliflow_core::workflow::Pipeline;
//! use repliflow_solver::{Provenance, SolverService};
//!
//! let service = SolverService::builder()
//!     .workers(2)
//!     .cache_capacity(64)
//!     .build();
//! let instance = ProblemInstance::new(
//!     Pipeline::new(vec![14, 4, 2, 4]),
//!     Platform::homogeneous(3, 1),
//!     true,
//!     Objective::Period,
//! );
//! let cold = service.solve(&service.request(instance.clone())).unwrap();
//! let warm = service.solve(&service.request(instance)).unwrap();
//! assert_eq!(cold.provenance, Provenance::Computed);
//! assert_eq!(warm.provenance, Provenance::Cached);
//! // a cache hit is byte-identical to the fresh computation
//! assert_eq!(cold.canonical_json(), warm.canonical_json());
//! ```
//!
//! The free [`solve`]/[`solve_batch`] functions are thin compat
//! wrappers over a lazily-initialized default service, so pre-service
//! callers keep working unchanged.
//!
//! [`solve`]: crate::solve
//! [`solve_batch`]: crate::solve_batch
//! [`Deadline`]: crate::Deadline
//! [`CancelToken`]: crate::CancelToken

use crate::cache::{CacheStats, SolveCache};
use crate::engines::HedgeStats;
use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::pool::WorkerPool;
use crate::registry::EngineRegistry;
use crate::report::{Optimality, Provenance, SolveError, SolveReport};
use crate::request::{Budget, CancelToken, Deadline, EnginePref, Quality, SolveRequest};
use repliflow_core::fingerprint::InstanceFingerprint;
use repliflow_core::instance::ProblemInstance;
use repliflow_sync::sync::atomic::{AtomicUsize, Ordering};
use repliflow_sync::sync::mpsc::{self, Receiver};
use repliflow_sync::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// Default solve-cache capacity (reports). Reports are small (a
/// mapping, a few rationals, counters); a thousand of them is well
/// under a megabyte while covering far more distinct requests than any
/// golden set or dashboard rotation.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Default number of lock-striped solve-cache shards (see
/// [`SolveCache::with_shards`]): enough stripes that warm-path lookups
/// from a saturated daemon worker pool rarely contend, while per-shard
/// capacity stays large enough for LRU to behave like one global list.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Default cap on concurrently running background escalations (see
/// [`SolverBuilder::escalation`]).
pub const DEFAULT_MAX_ESCALATIONS: usize = 2;

/// Options shared by every instance of a [`SolverService`] batch.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Engine routing preference for every instance.
    pub engine: EnginePref,
    /// Budget for every instance.
    pub budget: Budget,
    /// Witness validation for every report.
    pub validate_witness: bool,
    /// Concurrency bound; `None` submits every distinct instance as its
    /// own pool job. This bounds *concurrency* by chunking the batch,
    /// it does not spawn threads.
    pub threads: Option<NonZeroUsize>,
    /// Optional per-batch deadline applied to every instance (see
    /// [`Deadline`] for the fail-fast / degrade semantics).
    pub deadline: Option<Deadline>,
    /// Optional cancellation token checked before each instance starts:
    /// cancelling mid-batch makes the not-yet-started remainder fail
    /// fast with [`SolveError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            engine: EnginePref::Auto,
            budget: Budget::default(),
            validate_witness: true,
            threads: None,
            deadline: None,
            cancel: None,
        }
    }
}

/// Wall-time-per-engine accumulator in [`ServiceStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineWall {
    /// Engine name (as in [`SolveReport::engine_used`]).
    pub engine: &'static str,
    /// Total wall time the engine spent computing (cache hits excluded).
    pub wall: Duration,
    /// Number of computed solves.
    pub solves: u64,
}

/// Counters of the background escalation machinery (see
/// [`SolverBuilder::escalation`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EscalationStats {
    /// Background re-solves scheduled.
    pub scheduled: u64,
    /// Escalations whose improved report refreshed the cache entry
    /// (tagged [`Provenance::Escalated`]).
    pub refreshed: u64,
    /// Escalations completed without an improvement (nothing written).
    pub unimproved: u64,
    /// Escalation candidates dropped because the concurrency bound was
    /// reached or the same fingerprint was already escalating —
    /// foreground serving is never blocked to make room.
    pub shed: u64,
    /// Escalation re-solves that errored or panicked.
    pub failed: u64,
}

/// Snapshot of a service's serving statistics.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests served (hits + computed + errors).
    pub requests: u64,
    /// Requests served from the cache.
    pub cache_hits: u64,
    /// Requests computed by an engine.
    pub computed: u64,
    /// Requests that ended in a [`SolveError`].
    pub errors: u64,
    /// Cumulative time jobs spent queued before a worker picked them up.
    pub queue_wait: Duration,
    /// Jobs the worker pool executed.
    pub jobs_executed: u64,
    /// Computed wall time grouped by engine, sorted by engine name.
    pub per_engine: Vec<EngineWall>,
    /// Distribution of end-to-end serve latencies (cache hits, computes
    /// *and* errors — what a caller observed, not what an engine
    /// spent), with p50/p95/p99 accessors. A
    /// [`SolverService::solve_detached`] miss is timed from its lookup,
    /// so its pool queue wait counts. Batch-duplicate fan-outs are not
    /// re-recorded (only their leader's serve is).
    pub latency: HistogramSnapshot,
    /// Cumulative wall time pool workers spent running jobs
    /// ([`Duration::ZERO`] before the pool's first batch/stream use).
    pub busy: Duration,
    /// Fraction of worker capacity spent running jobs since the pool
    /// spawned (`busy / (workers * uptime)`; `0` before first use).
    pub worker_utilization: f64,
    /// Race counters of the hedged engine (all zero until the first
    /// [`EnginePref::Hedged`] request).
    pub hedge: HedgeStats,
    /// Background escalation counters (all zero unless
    /// [`SolverBuilder::escalation`] enabled the machinery).
    pub escalation: EscalationStats,
}

impl ServiceStats {
    /// Cache hit rate over all served requests (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }
}

#[derive(Default)]
struct StatsInner {
    requests: u64,
    cache_hits: u64,
    computed: u64,
    errors: u64,
    per_engine: HashMap<&'static str, (Duration, u64)>,
    latency: LatencyHistogram,
    escalation: EscalationStats,
}

/// The background-escalation machinery: its own small worker pool (so
/// escalations can never crowd foreground solves off the service
/// pool), a hard concurrency bound, and per-fingerprint dedup.
struct EscalationState {
    /// Concurrency bound; candidates beyond it are shed, not queued.
    max_concurrent: usize,
    /// Quality tier escalated re-solves run at.
    quality: Quality,
    /// Lazily spawned pool sized `max_concurrent` — escalations cost
    /// no threads until the first one is scheduled.
    pool: OnceLock<WorkerPool>,
    /// Escalations currently running or queued.
    inflight: AtomicUsize,
    /// Fingerprints with an escalation in flight (dedup: a hot key that
    /// is re-requested while escalating is not escalated twice).
    inflight_keys: Mutex<HashSet<InstanceFingerprint>>,
}

impl EscalationState {
    fn pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| WorkerPool::new(self.max_concurrent))
    }
}

/// The parts of a service that jobs on pool workers need: shared via
/// `Arc` so a submitted closure outlives the borrow that created it.
struct ServiceCore {
    registry: EngineRegistry,
    cache: Option<SolveCache>,
    default_engine: EnginePref,
    default_budget: Budget,
    default_validate: bool,
    stats: Mutex<StatsInner>,
    escalation: Option<EscalationState>,
}

/// What the lookup half of the serving path decided (see
/// [`SolverService::lookup_keyed`]).
#[derive(Debug)]
pub enum Lookup {
    /// Answered without compute: a cache hit or a fail-fast error,
    /// already counted in the service stats.
    Answered(Result<Arc<SolveReport>, SolveError>),
    /// The registry must compute: hand the miss to
    /// [`SolverService::compute_detached`] together with the request.
    Miss(PendingSolve),
}

/// A request that missed the solve cache: its fingerprint (when the
/// service caches, so the write-back does not hash again) and the
/// instant its lookup started (its serve latency counts from there).
/// [`SolverService::compute_detached`] counts the request once;
/// dropping the miss counts nothing.
#[derive(Debug)]
#[must_use = "a miss is only answered once `compute_detached` runs it"]
pub struct PendingSolve {
    key: Option<InstanceFingerprint>,
    start: Instant,
}

impl ServiceCore {
    /// The lookup half of the serving path: the deadline/cancel
    /// fail-fast, the fingerprint and the cache lookup. An answer is
    /// recorded in the stats here; a miss records nothing, so the
    /// compute half counts the request once. `key` is the optionally
    /// precomputed fingerprint (the batch path already fingerprints
    /// every request for duplicate coalescing — no point hashing
    /// twice).
    fn lookup(
        &self,
        request: &SolveRequest,
        key: Option<InstanceFingerprint>,
        start: Instant,
    ) -> Lookup {
        self.lookup_parts(
            &request.budget,
            request.deadline,
            request.cancel.as_ref(),
            || key.unwrap_or_else(|| request.fingerprint()),
            start,
        )
    }

    /// [`ServiceCore::lookup`] from a request's serving controls and a
    /// fingerprint source, which only runs when the service caches.
    fn lookup_parts(
        &self,
        budget: &Budget,
        deadline: Option<Deadline>,
        cancel: Option<&CancelToken>,
        key: impl FnOnce() -> InstanceFingerprint,
        start: Instant,
    ) -> Lookup {
        // Fail fast (expired deadline / cancelled token) before touching
        // the cache.
        if let Err(e) = EngineRegistry::effective_budget(budget, deadline, cancel) {
            self.note_served(start, |s| s.errors += 1);
            return Lookup::Answered(Err(e));
        }
        let Some(cache) = &self.cache else {
            return Lookup::Miss(PendingSolve { key: None, start });
        };
        let key = key();
        match cache.get(key) {
            // Entries are tagged at insertion time — `Cached` on
            // write-back, `Escalated` on an escalation refresh (so
            // callers can see their answer is the improved one) — which
            // makes the warm path a pure pointer clone: no mutation, no
            // deep copy.
            Some(report) => {
                self.note_served(start, |s| s.cache_hits += 1);
                Lookup::Answered(Ok(report))
            }
            None => Lookup::Miss(PendingSolve {
                key: Some(key),
                start,
            }),
        }
    }

    /// The compute half of the serving path: engine dispatch, cache
    /// write-back under the lookup's `key`, statistics.
    fn compute(
        &self,
        request: &SolveRequest,
        key: Option<InstanceFingerprint>,
        start: Instant,
    ) -> Result<Arc<SolveReport>, SolveError> {
        let report = match self.registry.solve(request) {
            Ok(report) => report,
            Err(e) => {
                self.note_served(start, |s| s.errors += 1);
                return Err(e);
            }
        };
        // Any live deadline makes the run non-cacheable for *writes*:
        // the registry re-derives the remaining time when the engine
        // actually starts, so the effective budget may be clamped below
        // the request's by then (a check here would race that one) —
        // and a clamped run may carry a degraded incumbent that must
        // never be served to full-budget requests under the unclamped
        // fingerprint. Reads are fine: a cached full-budget report is
        // at least as good as anything a deadlined run could compute.
        let deadline_free = request.deadline.is_none();
        // A search that tripped its node/time budget
        // (`completed == false`) reports a load-dependent incumbent —
        // caching it would freeze a degraded answer under a fingerprint
        // whose budget allows a better one.
        let search_complete = report.search.is_none_or(|s| s.completed);
        if let (Some(key), Some(cache)) = (key, &self.cache) {
            if deadline_free && search_complete {
                // One deep clone per cold insert, so every later hit can
                // hand back the entry untouched.
                cache.insert(
                    key,
                    Arc::new(SolveReport {
                        provenance: Provenance::Cached,
                        ..report.clone()
                    }),
                );
            }
        }
        let (engine, wall) = (report.engine_used, report.wall_time);
        self.note_served(start, |s| {
            s.computed += 1;
            let slot = s.per_engine.entry(engine).or_insert((Duration::ZERO, 0));
            slot.0 += wall;
            slot.1 += 1;
        });
        Ok(Arc::new(report))
    }

    /// Records one served request under a single stats lock: the
    /// request count, its outcome counters, and its end-to-end serve
    /// latency since `start` (hit, compute or error alike).
    fn note_served(&self, start: Instant, outcome: impl FnOnce(&mut StatsInner)) {
        let served_in = start.elapsed();
        self.note(|s| {
            s.requests += 1;
            outcome(s);
            s.latency.record(served_in);
        });
    }

    fn note(&self, update: impl FnOnce(&mut StatsInner)) {
        // The stats mutex only ever guards counter bumps (no user code
        // runs under it), so a poisoned lock holds valid counters —
        // recover rather than panic the serving path.
        update(&mut self.stats.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Runs a lookup half with panics contained: a panic (say, in the
/// fingerprint walk) becomes [`SolveError::EnginePanicked`] for *this*
/// request, answered without compute.
fn lookup_containing_panics(
    core: &ServiceCore,
    start: Instant,
    lookup: impl FnOnce() -> Lookup,
) -> Lookup {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(lookup)).unwrap_or_else(|_| {
        // the panic unwound before the lookup recorded stats
        core.note_served(start, |s| s.errors += 1);
        Lookup::Answered(Err(SolveError::EnginePanicked))
    })
}

/// Runs the compute half with panics contained: an engine panic becomes
/// [`SolveError::EnginePanicked`] for *this* request instead of losing
/// the batch slot (and in chunked batches, the rest of the chunk). The
/// pool worker additionally survives any panic that escapes a job —
/// defense in depth. A fresh answer may then schedule an escalation.
fn compute_containing_panics(
    core: &Arc<ServiceCore>,
    request: &SolveRequest,
    key: Option<InstanceFingerprint>,
    start: Instant,
) -> Result<Arc<SolveReport>, SolveError> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        core.compute(request, key, start)
    }))
    .unwrap_or_else(|_| {
        // the panic unwound before the compute recorded stats
        core.note_served(start, |s| s.errors += 1);
        Err(SolveError::EnginePanicked)
    });
    // The answer is already settled and timed; whatever escalation does
    // from here happens after the caller got their report.
    if let Ok(report) = &result {
        maybe_escalate(core, request, key, report);
    }
    result
}

/// The whole serving path on the calling thread: lookup, then compute
/// on a miss, panics contained in both halves.
fn serve(
    core: &Arc<ServiceCore>,
    request: &SolveRequest,
    key: Option<InstanceFingerprint>,
) -> Result<Arc<SolveReport>, SolveError> {
    let start = Instant::now();
    match lookup_containing_panics(core, start, || core.lookup(request, key, start)) {
        Lookup::Answered(result) => result,
        Lookup::Miss(PendingSolve { key, start }) => {
            compute_containing_panics(core, request, key, start)
        }
    }
}

/// The background thorough re-solve an escalation runs: same request,
/// quality raised to the escalation tier, `comm-bb` routing guards
/// widened to the search's representable caps so `Auto` can reroute a
/// heuristic-tier comm instance into the proven engine. The *bounded*
/// searches are the only ones widened — the unbudgeted exhaustive
/// enumerators keep their guards, so an escalation can never run
/// unboundedly (comm-bb still respects `bb_node_limit` /
/// `bb_time_limit_ms`). Deadline and cancel token are dropped: the
/// background run is free to take its full budget.
fn escalated_request(request: &SolveRequest, quality: Quality) -> SolveRequest {
    let mut budget = request.budget;
    budget.quality = quality;
    budget.max_comm_bb_stages = budget
        .max_comm_bb_stages
        .max(repliflow_exact::comm_bb::MAX_STAGES);
    budget.max_comm_bb_procs = budget
        .max_comm_bb_procs
        .max(repliflow_exact::comm_bb::MAX_PROCS);
    SolveRequest {
        instance: request.instance.clone(),
        engine: request.engine,
        budget,
        validate_witness: request.validate_witness,
        deadline: None,
        cancel: None,
    }
}

/// Whether `improved` is worth refreshing the cache entry that holds
/// `current`: a completed search that either upgrades the optimality
/// claim to proven or strictly improves the objective value. Incomplete
/// searches are never written (the no-cache-on-incomplete rule), and
/// infeasible outcomes never overwrite a witness.
fn is_improvement(current: &SolveReport, improved: &SolveReport) -> bool {
    if improved.search.is_some_and(|s| !s.completed) {
        return false;
    }
    match (improved.optimality, current.optimality) {
        (Optimality::Infeasible, _) => false,
        (Optimality::Proven, Optimality::Proven) => false,
        (Optimality::Proven, _) => true,
        _ => match (improved.objective_value, current.objective_value) {
            (Some(new), Some(old)) => new < old,
            _ => false,
        },
    }
}

/// Schedules a bounded background re-solve of `request` at the
/// escalation quality tier when the foreground answer left room for
/// improvement. Never blocks: over-bound candidates are shed, the
/// re-solve runs on the dedicated escalation pool, and the improved
/// report (if any) refreshes the solve-cache entry under the original
/// fingerprint tagged [`Provenance::Escalated`].
fn maybe_escalate(
    core: &Arc<ServiceCore>,
    request: &SolveRequest,
    key: Option<InstanceFingerprint>,
    report: &Arc<SolveReport>,
) {
    let Some(esc) = &core.escalation else {
        return;
    };
    // Only freshly computed, improvable answers escalate: a cache hit
    // was either escalated already or is still escalating (dedup), and
    // a proven/infeasible answer has nothing to gain.
    if report.provenance != Provenance::Computed || report.optimality != Optimality::Heuristic {
        return;
    }
    // Without a cache there is nowhere to put the improved report.
    if core.cache.is_none() {
        return;
    }
    let escalated = escalated_request(request, esc.quality);
    // Concurrency bound: reserve a slot or shed — never queue behind
    // the bound, never make the foreground wait.
    let reserved = esc
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < esc.max_concurrent).then_some(n + 1)
        })
        .is_ok();
    if !reserved {
        core.note(|s| s.escalation.shed += 1);
        return;
    }
    let key = key.unwrap_or_else(|| request.fingerprint());
    {
        // Key-set ops are plain HashSet insert/remove — a poisoned lock
        // still holds a coherent set, so recover instead of panicking.
        let mut keys = esc
            .inflight_keys
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !keys.insert(key) {
            esc.inflight.fetch_sub(1, Ordering::SeqCst);
            core.note(|s| s.escalation.shed += 1);
            return;
        }
    }
    core.note(|s| s.escalation.scheduled += 1);
    let core = Arc::clone(core);
    let baseline = Arc::clone(report);
    esc.pool().submit(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.registry.solve(&escalated)
        }));
        match outcome {
            Ok(Ok(mut improved)) if is_improvement(&baseline, &improved) => {
                improved.provenance = Provenance::Escalated;
                if let Some(cache) = &core.cache {
                    cache.insert(key, Arc::new(improved));
                }
                core.note(|s| s.escalation.refreshed += 1);
            }
            Ok(Ok(_)) => core.note(|s| s.escalation.unimproved += 1),
            Ok(Err(_)) | Err(_) => core.note(|s| s.escalation.failed += 1),
        }
        // Escalation state is immutable once built and this job was
        // submitted through it, so `else` is defensively unreachable —
        // skipping cleanup beats panicking a pool worker.
        let Some(esc) = core.escalation.as_ref() else {
            return;
        };
        esc.inflight_keys
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&key);
        esc.inflight.fetch_sub(1, Ordering::SeqCst);
    });
}

/// Builder for [`SolverService`] — worker count, cache capacity,
/// default budget/engine, registry policy.
#[derive(Debug)]
pub struct SolverBuilder {
    workers: Option<usize>,
    cache_capacity: usize,
    cache_shards: usize,
    default_engine: EnginePref,
    default_budget: Budget,
    validate_witness: bool,
    registry: Option<EngineRegistry>,
    escalation: bool,
    max_escalations: usize,
    escalation_quality: Quality,
}

impl Default for SolverBuilder {
    fn default() -> Self {
        SolverBuilder {
            workers: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache_shards: DEFAULT_CACHE_SHARDS,
            default_engine: EnginePref::Auto,
            default_budget: Budget::default(),
            validate_witness: true,
            registry: None,
            escalation: false,
            max_escalations: DEFAULT_MAX_ESCALATIONS,
            escalation_quality: Quality::Thorough,
        }
    }
}

impl SolverBuilder {
    /// Worker thread count (default: the machine's available
    /// parallelism; clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> SolverBuilder {
        self.workers = Some(workers);
        self
    }

    /// Solve-cache capacity in reports; `0` disables caching entirely
    /// (default: [`DEFAULT_CACHE_CAPACITY`]).
    pub fn cache_capacity(mut self, capacity: usize) -> SolverBuilder {
        self.cache_capacity = capacity;
        self
    }

    /// Number of lock-striped cache shards (default:
    /// [`DEFAULT_CACHE_SHARDS`]; rounded up to a power of two, see
    /// [`SolveCache::with_shards`]). `1` restores a single global lock.
    pub fn cache_shards(mut self, shards: usize) -> SolverBuilder {
        self.cache_shards = shards;
        self
    }

    /// Disables the solve cache (same as `cache_capacity(0)`).
    pub fn no_cache(self) -> SolverBuilder {
        self.cache_capacity(0)
    }

    /// Enables budgeted background escalation: after a fresh
    /// heuristic-strength answer is served, a thorough-tier re-solve is
    /// scheduled on a dedicated small pool, and an improved result
    /// refreshes the cache entry tagged [`Provenance::Escalated`].
    /// Bounded by [`SolverBuilder::max_escalations`] (candidates beyond
    /// the bound are shed, never queued) and deduplicated per
    /// fingerprint — foreground admission is never blocked. Requires a
    /// cache (with caching disabled there is nowhere to publish the
    /// improvement, so nothing is scheduled).
    pub fn escalation(mut self, enabled: bool) -> SolverBuilder {
        self.escalation = enabled;
        self
    }

    /// Cap on concurrently running background escalations (default:
    /// [`DEFAULT_MAX_ESCALATIONS`]; clamped to at least 1).
    pub fn max_escalations(mut self, max: usize) -> SolverBuilder {
        self.max_escalations = max;
        self
    }

    /// Quality tier escalated re-solves run at (default:
    /// [`Quality::Thorough`]).
    pub fn escalation_quality(mut self, quality: Quality) -> SolverBuilder {
        self.escalation_quality = quality;
        self
    }

    /// Default engine preference for requests built via
    /// [`SolverService::request`] and for [`SolverService::solve_batch`].
    pub fn default_engine(mut self, engine: EnginePref) -> SolverBuilder {
        self.default_engine = engine;
        self
    }

    /// Default budget (same scope as [`SolverBuilder::default_engine`]).
    pub fn default_budget(mut self, budget: Budget) -> SolverBuilder {
        self.default_budget = budget;
        self
    }

    /// Default witness-validation flag (same scope as
    /// [`SolverBuilder::default_engine`]).
    pub fn validate_witness(mut self, validate: bool) -> SolverBuilder {
        self.validate_witness = validate;
        self
    }

    /// Custom engine registry (routing policy). Defaults to
    /// [`EngineRegistry::default`].
    pub fn registry(mut self, registry: EngineRegistry) -> SolverBuilder {
        self.registry = Some(registry);
        self
    }

    /// Builds the service. The worker pool is **lazy**: its threads
    /// spawn on the first batch/stream call and then live as long as
    /// the service — a service used only for single solves (including
    /// the default one behind the free [`solve`](crate::solve)) never
    /// spawns a thread.
    pub fn build(self) -> SolverService {
        let workers = self
            .workers
            .unwrap_or_else(|| {
                repliflow_sync::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .max(1);
        let escalation = self.escalation.then(|| EscalationState {
            max_concurrent: self.max_escalations.max(1),
            quality: self.escalation_quality,
            pool: OnceLock::new(),
            inflight: AtomicUsize::new(0),
            inflight_keys: Mutex::new(HashSet::new()),
        });
        SolverService {
            core: Arc::new(ServiceCore {
                registry: self.registry.unwrap_or_default(),
                cache: (self.cache_capacity > 0)
                    .then(|| SolveCache::with_shards(self.cache_capacity, self.cache_shards)),
                default_engine: self.default_engine,
                default_budget: self.default_budget,
                default_validate: self.validate_witness,
                stats: Mutex::new(StatsInner::default()),
                escalation,
            }),
            workers,
            pool: OnceLock::new(),
        }
    }
}

/// A long-lived, cached, pooled serving API over the engine registry.
/// A solve is served from the cache when its fingerprint hits,
/// computed on the registry otherwise; batches and streams run on the
/// persistent pool. See the crate-level "Serving API" section for the
/// full picture.
pub struct SolverService {
    core: Arc<ServiceCore>,
    /// Resolved worker count; the pool itself spawns lazily.
    workers: usize,
    pool: OnceLock<WorkerPool>,
}

impl std::fmt::Debug for SolverService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverService")
            .field("workers", &self.workers)
            .field("pool_started", &self.pool.get().is_some())
            .field("cache", &self.core.cache)
            .finish()
    }
}

impl Default for SolverService {
    fn default() -> Self {
        SolverService::builder().build()
    }
}

impl SolverService {
    /// Starts configuring a service.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// A request for `instance` carrying this service's defaults
    /// (engine preference, budget, validation flag).
    pub fn request(&self, instance: ProblemInstance) -> SolveRequest {
        SolveRequest::new(instance)
            .engine(self.core.default_engine)
            .budget(self.core.default_budget)
            .validate_witness(self.core.default_validate)
    }

    /// The pool, spawned on first parallel use.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.workers))
    }

    /// Solves one request through the cache and registry (on the
    /// calling thread — single solves neither pay a queue hop nor
    /// start the worker pool). An engine panic is contained and
    /// reported as [`SolveError::EnginePanicked`], same as on the
    /// batch/stream paths.
    pub fn solve(&self, request: &SolveRequest) -> Result<Arc<SolveReport>, SolveError> {
        serve(&self.core, request, None)
    }

    /// Solves `instances` in parallel on the service pool under the
    /// service defaults; `reports[i]` corresponds to `instances[i]`.
    pub fn solve_batch(
        &self,
        instances: &[ProblemInstance],
    ) -> Vec<Result<Arc<SolveReport>, SolveError>> {
        let options = BatchOptions {
            engine: self.core.default_engine,
            budget: self.core.default_budget,
            validate_witness: self.core.default_validate,
            ..BatchOptions::default()
        };
        self.solve_batch_with(instances, &options)
    }

    /// Solves `instances` in parallel on the service pool under
    /// explicit options. With `options.threads` unset every distinct
    /// instance becomes one pool job (maximum overlap, reassembled from
    /// the finish-order stream); setting it bounds concurrency by
    /// chunking the batch into that many jobs — no threads are spawned
    /// either way.
    ///
    /// When the service caches, duplicate requests **within one batch**
    /// are coalesced: each distinct fingerprint is solved once and the
    /// result is fanned out to every duplicate slot (tagged
    /// [`Provenance::Cached`]) — concurrent duplicates never race each
    /// other past the cache.
    ///
    /// Must not be called from inside one of this service's own pool
    /// jobs (the reassembly wait could then starve the pool).
    pub fn solve_batch_with(
        &self,
        instances: &[ProblemInstance],
        options: &BatchOptions,
    ) -> Vec<Result<Arc<SolveReport>, SolveError>> {
        if instances.is_empty() {
            return Vec::new();
        }
        // Coalesce duplicate fingerprints (cache-enabled services
        // only): `canonical[i]` is the first input index with request
        // `i`'s fingerprint; only canonical requests are submitted, and
        // the fingerprint computed here rides along so the serving path
        // does not hash the same request twice.
        let coalesce = self.core.cache.is_some();
        let mut canonical: Vec<usize> = Vec::with_capacity(instances.len());
        let mut unique: Vec<(usize, SolveRequest, Option<InstanceFingerprint>)> =
            Vec::with_capacity(instances.len());
        let mut seen: HashMap<InstanceFingerprint, usize> = HashMap::new();
        for (i, instance) in instances.iter().enumerate() {
            let request = SolveRequest {
                instance: instance.clone(),
                engine: options.engine,
                budget: options.budget,
                validate_witness: options.validate_witness,
                deadline: options.deadline,
                cancel: options.cancel.clone(),
            };
            let key = coalesce.then(|| request.fingerprint());
            let leader = match key {
                Some(key) => *seen.entry(key).or_insert(i),
                None => i,
            };
            canonical.push(leader);
            if leader == i {
                unique.push((i, request, key));
            }
        }
        let mut slots: Vec<Option<Result<Arc<SolveReport>, SolveError>>> =
            (0..instances.len()).map(|_| None).collect();
        let (tx, rx) = mpsc::channel();
        match options.threads {
            None => {
                // one job per distinct request: maximum overlap
                for (index, request, key) in unique {
                    let core = Arc::clone(&self.core);
                    let tx = tx.clone();
                    self.pool().submit(move || {
                        let _ = tx.send((index, serve(&core, &request, key)));
                    });
                }
            }
            Some(threads) => {
                let concurrency = threads.get().min(unique.len().max(1));
                let chunk_len = unique.len().div_ceil(concurrency).max(1);
                let mut chunks = Vec::new();
                let mut rest = unique;
                while !rest.is_empty() {
                    let tail = rest.split_off(chunk_len.min(rest.len()));
                    chunks.push(std::mem::replace(&mut rest, tail));
                }
                for chunk in chunks {
                    let core = Arc::clone(&self.core);
                    let tx = tx.clone();
                    self.pool().submit(move || {
                        for (index, request, key) in &chunk {
                            let result = serve(&core, request, *key);
                            if tx.send((*index, result)).is_err() {
                                return;
                            }
                        }
                    });
                }
            }
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        // fan the leaders' results out to their duplicate slots
        for i in 0..instances.len() {
            let leader = canonical[i];
            if leader == i {
                continue;
            }
            // a leader slot can only be empty if its job died mid-panic
            // before sending; surface that as the engine-bug error
            let mut result = slots[leader]
                .clone()
                .unwrap_or(Err(SolveError::EnginePanicked));
            if let Ok(report) = &mut result {
                // pointer clone when the leader's entry is already
                // cache-tagged; one copy-on-write otherwise
                if report.provenance == Provenance::Computed {
                    Arc::make_mut(report).provenance = Provenance::Cached;
                }
            }
            self.core.note(|s| {
                s.requests += 1;
                match &result {
                    Ok(_) => s.cache_hits += 1,
                    Err(_) => s.errors += 1,
                }
            });
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(SolveError::EnginePanicked)))
            .collect()
    }

    /// The asynchronous single-request entry point (the network
    /// daemon's solve path). The lookup half of the serving pipeline —
    /// deadline/cancel fail-fast, fingerprint, cache lookup — runs on
    /// the calling thread, with panics contained:
    ///
    /// * a cache hit or a fail-fast error is returned as `Some(answer)`,
    ///   and `on_done` is dropped uncalled before this returns;
    /// * a miss returns `None` and queues the compute half on the
    ///   service pool with the fingerprint already taken; `on_done` then
    ///   runs with the result on the worker that computed it.
    ///
    /// Either way the request is counted once and looked up in the
    /// cache once. The call never blocks on a compute (it may briefly
    /// block starting the pool on the first miss). It is
    /// [`SolverService::lookup_keyed`] and
    /// [`SolverService::compute_detached`] with the fingerprint taken
    /// from the request.
    #[must_use = "a `Some` answer is the reply; `on_done` is not called for it"]
    pub fn solve_detached(
        &self,
        request: SolveRequest,
        on_done: impl FnOnce(Result<Arc<SolveReport>, SolveError>) + Send + 'static,
    ) -> Option<Result<Arc<SolveReport>, SolveError>> {
        let start = Instant::now();
        match lookup_containing_panics(&self.core, start, || {
            self.core.lookup(&request, None, start)
        }) {
            Lookup::Answered(result) => {
                drop(on_done);
                Some(result)
            }
            Lookup::Miss(miss) => {
                self.compute_detached(request, miss, on_done);
                None
            }
        }
    }

    /// The lookup half of [`SolverService::solve_detached`] for a
    /// request whose fingerprint `key` the caller already holds, without
    /// the instance in hand: the deadline/cancel fail-fast on `budget`,
    /// `deadline` and `cancel`, then the cache lookup. The daemon's
    /// instance memo finishes a remembered instance walk into `key` with
    /// [`request_fingerprint`](crate::request_fingerprint), so a warm
    /// hit neither decodes nor fingerprints its instance.
    ///
    /// A [`Lookup::Answered`] outcome is counted here; a
    /// [`Lookup::Miss`] counts once [`SolverService::compute_detached`]
    /// runs it. `key` must be the fingerprint of the request later
    /// computed under it, or the cache stores its answer under another
    /// request's key.
    pub fn lookup_keyed(
        &self,
        key: InstanceFingerprint,
        budget: &Budget,
        deadline: Option<Deadline>,
        cancel: Option<&CancelToken>,
    ) -> Lookup {
        let start = Instant::now();
        lookup_containing_panics(&self.core, start, || {
            self.core
                .lookup_parts(budget, deadline, cancel, || key, start)
        })
    }

    /// The compute half of [`SolverService::solve_detached`]: queues
    /// `request` on the service pool under the fingerprint its lookup
    /// already took (no second cache lookup), and runs `on_done` with
    /// the result on the worker that computed it. The request is counted
    /// once in the service stats, its latency timed from its lookup.
    pub fn compute_detached(
        &self,
        request: SolveRequest,
        miss: PendingSolve,
        on_done: impl FnOnce(Result<Arc<SolveReport>, SolveError>) + Send + 'static,
    ) {
        let core = Arc::clone(&self.core);
        let PendingSolve { key, start } = miss;
        self.pool().submit(move || {
            on_done(compute_containing_panics(&core, &request, key, start));
        });
    }

    /// Submits every request to the pool and returns an iterator that
    /// yields `(input_index, result)` pairs **as they finish** —
    /// order-tagged, not order-blocked: a fast solve is handed out
    /// while slower siblings still run. [`SolverService::solve_batch`]
    /// is exactly this plus index reassembly.
    pub fn solve_stream<I>(&self, requests: I) -> SolveStream
    where
        I: IntoIterator<Item = SolveRequest>,
    {
        let (tx, rx) = mpsc::channel();
        let mut total = 0;
        for (i, request) in requests.into_iter().enumerate() {
            total += 1;
            let core = Arc::clone(&self.core);
            let tx = tx.clone();
            self.pool().submit(move || {
                let _ = tx.send((i, serve(&core, &request, None)));
            });
        }
        SolveStream {
            rx,
            remaining: total,
        }
    }

    /// Configured worker count (constant for the service's lifetime —
    /// the regression suite pins that repeated batches never change
    /// it). The threads themselves spawn lazily on the first
    /// batch/stream call; [`SolverService::spawned_threads`] reports
    /// how many actually exist.
    pub fn pool_size(&self) -> usize {
        self.workers
    }

    /// Total worker threads this service ever spawned — `0` before the
    /// first batch/stream call, then exactly [`SolverService::pool_size`]
    /// forever (a live spawn counter, not an alias: any regression that
    /// reintroduced per-call spawning would move it).
    pub fn spawned_threads(&self) -> usize {
        self.pool.get().map_or(0, WorkerPool::spawned_threads)
    }

    /// Solve-cache counters, or `None` when caching is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.core.cache.as_ref().map(SolveCache::stats)
    }

    /// Drops every cached report (for cold-start measurements).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.core.cache {
            cache.clear();
        }
    }

    /// Snapshot of the serving statistics.
    pub fn stats(&self) -> ServiceStats {
        let inner = self
            .core
            .stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut per_engine: Vec<EngineWall> = inner
            .per_engine
            .iter()
            .map(|(&engine, &(wall, solves))| EngineWall {
                engine,
                wall,
                solves,
            })
            .collect();
        per_engine.sort_by_key(|e| e.engine);
        ServiceStats {
            requests: inner.requests,
            cache_hits: inner.cache_hits,
            computed: inner.computed,
            errors: inner.errors,
            queue_wait: self
                .pool
                .get()
                .map_or(Duration::ZERO, WorkerPool::total_queue_wait),
            jobs_executed: self.pool.get().map_or(0, WorkerPool::jobs_executed),
            per_engine,
            latency: inner.latency.snapshot(),
            busy: self
                .pool
                .get()
                .map_or(Duration::ZERO, WorkerPool::total_busy),
            worker_utilization: self.pool.get().map_or(0.0, WorkerPool::utilization),
            hedge: self.core.registry.hedge_stats(),
            escalation: inner.escalation,
        }
    }

    /// Number of lock-striped cache shards (`None` when caching is
    /// disabled). Always a power of two.
    pub fn cache_shards(&self) -> Option<usize> {
        self.core.cache.as_ref().map(SolveCache::shards)
    }

    /// Blocks until no background escalation is in flight (test and
    /// shutdown aid; returns immediately when escalation is disabled).
    /// Only waits for escalations already scheduled — a concurrent
    /// foreground solve can of course schedule a new one right after.
    pub fn drain_escalations(&self) {
        let Some(esc) = &self.core.escalation else {
            return;
        };
        while esc.inflight.load(Ordering::SeqCst) > 0 {
            repliflow_sync::thread::yield_now();
        }
    }
}

/// Iterator over finish-ordered `(input_index, result)` pairs from
/// [`SolverService::solve_stream`]. Dropping it early is fine: in-
/// flight solves complete on the pool and their results are discarded.
pub struct SolveStream {
    rx: Receiver<(usize, Result<Arc<SolveReport>, SolveError>)>,
    remaining: usize,
}

impl Iterator for SolveStream {
    type Item = (usize, Result<Arc<SolveReport>, SolveError>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        match self.rx.recv() {
            Ok(item) => {
                self.remaining -= 1;
                Some(item)
            }
            // every sender dropped without sending (job panicked)
            Err(_) => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // lower bound 0: a panicking job drops its sender without sending
        (0, Some(self.remaining))
    }
}

/// Re-exported convenience: the `threads` field of [`BatchOptions`] is
/// a [`NonZeroUsize`]; this mirrors `NonZeroUsize::new` for callers that
/// do not want the import.
pub fn batch_threads(n: usize) -> Option<NonZeroUsize> {
    NonZeroUsize::new(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::gen::Gen;
    use repliflow_core::instance::Objective;

    fn instances(n: usize, seed: u64) -> Vec<ProblemInstance> {
        let mut gen = Gen::new(seed);
        (0..n)
            .map(|i| {
                ProblemInstance::new(
                    gen.pipeline(1 + i % 5, 1, 9),
                    gen.hom_platform(1 + i % 3, 1, 4),
                    i % 2 == 0,
                    Objective::Period,
                )
            })
            .collect()
    }

    #[test]
    fn batch_preserves_input_order() {
        let service = SolverService::builder().workers(3).build();
        let batch = instances(11, 0x5E01);
        let reports = service.solve_batch(&batch);
        assert_eq!(reports.len(), batch.len());
        for (instance, report) in batch.iter().zip(&reports) {
            assert_eq!(report.as_ref().unwrap().variant, instance.variant());
        }
    }

    #[test]
    fn chunked_batch_matches_streamed_batch() {
        let service = SolverService::builder().workers(2).no_cache().build();
        let batch = instances(9, 0x5E02);
        let streamed = service.solve_batch(&batch);
        let options = BatchOptions {
            threads: batch_threads(3),
            ..BatchOptions::default()
        };
        let chunked = service.solve_batch_with(&batch, &options);
        for (a, b) in streamed.iter().zip(&chunked) {
            assert_eq!(
                a.as_ref().unwrap().canonical_json(),
                b.as_ref().unwrap().canonical_json()
            );
        }
    }

    #[test]
    fn cache_serves_second_request() {
        let service = SolverService::builder().workers(1).build();
        let request = service.request(instances(1, 0x5E03).pop().unwrap());
        let first = service.solve(&request).unwrap();
        let second = service.solve(&request).unwrap();
        assert_eq!(first.provenance, Provenance::Computed);
        assert_eq!(second.provenance, Provenance::Cached);
        assert_eq!(first.canonical_json(), second.canonical_json());
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.computed, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_cache_service_always_computes() {
        let service = SolverService::builder().workers(1).no_cache().build();
        let request = service.request(instances(1, 0x5E04).pop().unwrap());
        assert_eq!(
            service.solve(&request).unwrap().provenance,
            Provenance::Computed
        );
        assert_eq!(
            service.solve(&request).unwrap().provenance,
            Provenance::Computed
        );
        assert!(service.cache_stats().is_none());
    }

    #[test]
    fn cancelled_token_fails_fast() {
        let service = SolverService::builder().workers(1).build();
        let token = CancelToken::new();
        token.cancel();
        let request = service
            .request(instances(1, 0x5E05).pop().unwrap())
            .cancel_token(token);
        assert!(matches!(
            service.solve(&request),
            Err(SolveError::Cancelled)
        ));
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn stream_yields_every_index_once() {
        let service = SolverService::builder().workers(4).no_cache().build();
        let batch = instances(13, 0x5E06);
        let requests: Vec<SolveRequest> =
            batch.iter().map(|i| service.request(i.clone())).collect();
        let mut seen: Vec<usize> = service
            .solve_stream(requests)
            .map(|(i, result)| {
                assert!(result.is_ok());
                i
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn batch_order_matches_input_order() {
        let mut gen = Gen::new(0xBA7C);
        let instances: Vec<ProblemInstance> = (0..17)
            .map(|i| {
                ProblemInstance::new(
                    gen.pipeline(1 + i % 5, 1, 9),
                    gen.hom_platform(1 + i % 3, 1, 4),
                    i % 2 == 0,
                    Objective::Period,
                )
            })
            .collect();
        let service = SolverService::builder().workers(3).no_cache().build();
        let reports = service.solve_batch(&instances);
        assert_eq!(reports.len(), instances.len());
        let registry = EngineRegistry::default();
        for (instance, report) in instances.iter().zip(&reports) {
            let report = report.as_ref().unwrap();
            assert_eq!(report.variant, instance.variant());
            // a serial solve must agree with the pooled batch
            let serial = registry
                .solve(&SolveRequest::new(instance.clone()))
                .unwrap();
            assert_eq!(serial.objective_value, report.objective_value);
        }
    }

    #[test]
    fn split_boundaries_preserve_order_for_every_size() {
        // The chunked path: for every batch size from empty to beyond
        // 2x the concurrency bound (including sizes below it, where
        // naive chunking could submit empty chunks or misalign output
        // slots), report `i` must correspond to instance `i` and every
        // slot must be written exactly once.
        let service = SolverService::builder().workers(2).no_cache().build();
        let registry = EngineRegistry::default();
        let mut gen = Gen::new(0xBA7E);
        for threads in [1usize, 2, 3, 5, 8] {
            let max = 2 * threads + 1;
            let pool: Vec<ProblemInstance> = (0..max)
                .map(|i| {
                    ProblemInstance::new(
                        // distinct stage counts make any reordering of the
                        // reports observable through the variant/mapping
                        gen.pipeline(1 + i, 1, 9),
                        gen.hom_platform(1 + i % 3, 1, 4),
                        false,
                        Objective::Period,
                    )
                })
                .collect();
            for size in 0..=max {
                let instances = &pool[..size];
                let options = BatchOptions {
                    threads: batch_threads(threads),
                    ..BatchOptions::default()
                };
                let reports = service.solve_batch_with(instances, &options);
                assert_eq!(reports.len(), size, "threads {threads}, size {size}");
                for (i, (instance, report)) in instances.iter().zip(&reports).enumerate() {
                    let report = report.as_ref().unwrap_or_else(|e| {
                        panic!("threads {threads}, size {size}, slot {i}: {e}")
                    });
                    assert_eq!(
                        report.variant,
                        instance.variant(),
                        "threads {threads}, size {size}: slot {i} holds another instance's report"
                    );
                    let serial = registry
                        .solve(&SolveRequest::new(instance.clone()))
                        .unwrap();
                    assert_eq!(
                        serial.objective_value, report.objective_value,
                        "threads {threads}, size {size}, slot {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_thread_option_still_covers_all() {
        let mut gen = Gen::new(0xBA7D);
        let instances: Vec<ProblemInstance> = (0..5)
            .map(|_| {
                ProblemInstance::new(
                    gen.fork(2, 1, 6),
                    gen.het_platform(2, 1, 4),
                    false,
                    Objective::Latency,
                )
            })
            .collect();
        let options = BatchOptions {
            threads: batch_threads(1),
            ..BatchOptions::default()
        };
        let service = SolverService::builder().workers(2).build();
        let reports = service.solve_batch_with(&instances, &options);
        assert!(reports.iter().all(|r| r.as_ref().unwrap().has_mapping()));
    }
}
