//! # repliflow-solver
//!
//! The one public way to solve anything in this workspace: a
//! [`SolveRequest`] goes in, a [`SolveReport`] comes out, and an
//! [`EngineRegistry`] auto-routes every cell of the paper's Table 1 to
//! the right backend:
//!
//! * **polynomial cells** → the matching `repliflow-algorithms` solver
//!   (the paper's own algorithm, optimality [`Optimality::Proven`]);
//! * **NP-hard cells** → `repliflow-exact` exhaustive search while the
//!   instance fits under the [`Budget`] size threshold (still
//!   `Proven`), `repliflow-heuristics` beyond it
//!   ([`Optimality::Heuristic`]);
//! * **communication-aware instances** → `comm-exact` enumeration when
//!   tiny, the `comm-bb` branch-and-bound (proven optimal whenever its
//!   node/time budget suffices, incumbent-seeded from the heuristic
//!   portfolio) within its stage/leaf/processor guard, `comm-heuristic`
//!   beyond;
//! * explicit overrides via [`EnginePref`]: `Exact`, `Heuristic`,
//!   `CommBb`, `Paper` (paper algorithm or refuse), or `Hedged`
//!   (tail-latency route racing `comm-bb` against `comm-heuristic`;
//!   see [`engines::hedged`]).
//!
//! Every report can re-validate its witness mapping through the
//! `repliflow-core` cost model ([`SolveRequest::validate_witness`], on
//! by default), so a reported optimum is always backed by a concrete,
//! recomputed mapping.
//!
//! ## Serving API
//!
//! The recommended entry point for anything longer-lived than one call
//! is [`SolverService`] (built via [`SolverBuilder`]): a persistent
//! work-stealing worker pool, an LRU solve cache over canonical
//! request fingerprints, per-request [`Deadline`]s / [`CancelToken`]s,
//! order-tagged result streaming ([`SolverService::solve_stream`]) and
//! serving statistics. The free [`solve`]/[`solve_batch`] functions
//! are thin compat wrappers over a lazily-initialized default service,
//! so small callers never have to see the machinery.
//!
//! ```
//! use repliflow_core::instance::{Objective, ProblemInstance};
//! use repliflow_core::platform::Platform;
//! use repliflow_core::workflow::Pipeline;
//! use repliflow_solver::{solve, Optimality, SolveRequest};
//!
//! let instance = ProblemInstance::new(
//!     Pipeline::new(vec![14, 4, 2, 4]),
//!     Platform::homogeneous(3, 1),
//!     true,
//!     Objective::Period,
//! );
//! let report = solve(&SolveRequest::new(instance)).unwrap();
//! assert_eq!(report.optimality, Optimality::Proven);
//! assert_eq!(report.period.unwrap(), repliflow_core::rational::Rat::int(8));
//! ```

#![warn(missing_docs)]

mod cache;
mod engine;
pub mod engines;
pub mod histogram;
pub mod pool;
mod registry;
mod report;
mod request;
mod service;

pub use cache::{CacheStats, ShardedLru, SolveCache};
pub use engine::{Engine, EngineRun};
pub use engines::{HedgeStats, HedgedEngine};
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use registry::EngineRegistry;
pub use report::{
    CanonicalMemo, FallbackReason, Optimality, Provenance, SearchStats, SolveError, SolveReport,
};
pub use request::{
    request_fingerprint, Budget, CancelToken, Deadline, EnginePref, Quality, SolveRequest,
};
pub use service::{
    batch_threads, BatchOptions, EngineWall, EscalationStats, Lookup, PendingSolve, ServiceStats,
    SolveStream, SolverBuilder, SolverService, DEFAULT_CACHE_CAPACITY, DEFAULT_CACHE_SHARDS,
    DEFAULT_MAX_ESCALATIONS,
};

// Re-exported so callers can share the instance-identity machinery the
// solve cache keys on.
pub use repliflow_core::fingerprint::InstanceFingerprint;

// Re-exported so callers can build communication-aware requests without
// importing repliflow-core separately.
pub use repliflow_core::comm::{CommModel, Network, StartRule};
pub use repliflow_core::instance::CostModel;

use repliflow_core::instance::ProblemInstance;
use repliflow_sync::sync::OnceLock;

/// The process-wide default [`SolverService`] the free functions serve
/// from: created lazily on first use with default builder settings
/// (available-parallelism pool, [`DEFAULT_CACHE_CAPACITY`] cache).
pub fn default_service() -> &'static SolverService {
    static SERVICE: OnceLock<SolverService> = OnceLock::new();
    SERVICE.get_or_init(SolverService::default)
}

/// Solves one request through the [`default_service`] (compat wrapper —
/// identical results to a bare [`EngineRegistry`], but repeated
/// requests are served from the solve cache).
pub fn solve(request: &SolveRequest) -> Result<repliflow_sync::sync::Arc<SolveReport>, SolveError> {
    default_service().solve(request)
}

/// Solves many instances in parallel on the [`default_service`]'s
/// persistent worker pool with default [`BatchOptions`] (compat
/// wrapper; `reports[i]` corresponds to `instances[i]`).
pub fn solve_batch(
    instances: &[ProblemInstance],
) -> Vec<Result<repliflow_sync::sync::Arc<SolveReport>, SolveError>> {
    default_service().solve_batch(instances)
}

/// Exact (period, latency) Pareto frontier of an instance — the
/// trade-off-exploration companion to [`solve`] (exhaustive search;
/// small instances only).
pub fn pareto(instance: &ProblemInstance) -> repliflow_exact::Frontier {
    repliflow_exact::pareto(
        &instance.workflow,
        &instance.platform,
        instance.allow_data_parallel,
    )
}
