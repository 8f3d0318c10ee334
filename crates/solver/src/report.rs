//! The report side of the engine API, and everything that can go
//! wrong while producing one.

use repliflow_algorithms::Solved;
use repliflow_core::instance::{Complexity, CostModel, Variant};
use repliflow_core::mapping::Mapping;
use repliflow_core::rational::Rat;
use repliflow_sync::sync::OnceLock;
use std::fmt;
use std::time::Duration;

/// How strong the reported solution is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Optimality {
    /// The objective value is a proven optimum (paper algorithm on a
    /// polynomial cell, or exhaustive search).
    Proven,
    /// Best value a heuristic found; the optimum may be better.
    Heuristic,
    /// The bi-criteria bound is unattainable. Exact engines prove this
    /// (no mapping attached); heuristic engines attach their best
    /// bound-violating witness instead.
    Infeasible,
}

impl fmt::Display for Optimality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Optimality::Proven => "proven",
            Optimality::Heuristic => "heuristic",
            Optimality::Infeasible => "infeasible",
        })
    }
}

/// Statistics of a bounded tree search (the `comm-bb` engine): how much
/// of the space was explored and whether the run is a proof.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes expanded.
    pub nodes: u64,
    /// Subtrees cut by admissible lower bounds.
    pub pruned_bound: u64,
    /// Partial states cut by Pareto dominance.
    pub pruned_dominated: u64,
    /// Whether the search ran to exhaustion within its node/time
    /// budget; `false` downgrades the report to
    /// [`Optimality::Heuristic`].
    pub completed: bool,
}

/// Where a [`SolveReport`] came from: freshly computed by an engine,
/// served from the [`SolverService`] cache, or refreshed in the cache
/// by a background escalation re-solve.
///
/// Provenance is **serving metadata**, not part of the solution: like
/// `wall_time` it is excluded from [`SolveReport::canonical_json`], and
/// the determinism suite pins that a cached (or escalation-refreshed)
/// report is byte-identical to a freshly computed one under the
/// canonical form.
///
/// [`SolverService`]: crate::SolverService
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Provenance {
    /// An engine produced this report for this request.
    #[default]
    Computed,
    /// The report was served without a fresh computation: from the
    /// solve cache (originally computed for an earlier request with the
    /// same fingerprint), or coalesced from a duplicate request in the
    /// same batch. `wall_time` still records the original compute cost.
    Cached,
    /// The report was improved by a background escalation re-solve (a
    /// thorough-tier recomputation scheduled after a fast-tier answer
    /// was already served) and refreshed the cache entry under the
    /// original request's fingerprint. Served to every later hit on
    /// that fingerprint, so callers can observe that their answer is
    /// the escalated one. `wall_time` records the escalated run's
    /// compute cost.
    Escalated,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Provenance::Computed => "computed",
            Provenance::Cached => "cached",
            Provenance::Escalated => "escalated",
        })
    }
}

/// Why the `Auto` route declined a stronger engine and fell back to a
/// weaker one — surfaced on the report (and in its canonical form) so
/// callers can tell a heuristic answer that *had* to be heuristic from
/// one the router silently downgraded.
///
/// Today every variant describes the communication-aware
/// branch-and-bound route (`comm-bb`); a report with `fallback: None`
/// either did not qualify for a stronger engine in the first place or
/// was served by one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The platform has more processors than the `comm-bb` route
    /// admits (the budget's processor ceiling, or — past the budget's
    /// symmetry escape hatch — the engine's hard mask capacity or the
    /// symmetry-reduced branching width).
    CommBbProcs {
        /// Processors in the instance's platform.
        n_procs: usize,
        /// The ceiling that rejected it.
        cap: usize,
    },
    /// The workflow has more stages than the `comm-bb` route admits.
    CommBbStages {
        /// Stages in the instance's workflow.
        n_stages: usize,
        /// The ceiling that rejected it.
        cap: usize,
    },
    /// A fork/fork-join workflow has more leaves than the `comm-bb`
    /// route admits ([`Budget::max_comm_bb_fork_leaves`]).
    ///
    /// [`Budget::max_comm_bb_fork_leaves`]: crate::Budget::max_comm_bb_fork_leaves
    CommBbForkLeaves {
        /// Leaves in the instance's fork/fork-join workflow.
        leaves: usize,
        /// The ceiling that rejected it.
        cap: usize,
    },
    /// The objective carries a binding reliability bound, which the
    /// branch-and-bound's (period, latency) pruning cannot enforce — a
    /// "proven" result could silently violate the bound, so the route
    /// declines to the comm-heuristic portfolio (whose scorer rejects
    /// unreliable mappings) instead.
    ReliabilityBound,
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackReason::CommBbProcs { n_procs, cap } => {
                write!(f, "comm-bb declined: {n_procs} processors > cap {cap}")
            }
            FallbackReason::CommBbStages { n_stages, cap } => {
                write!(f, "comm-bb declined: {n_stages} stages > cap {cap}")
            }
            FallbackReason::CommBbForkLeaves { leaves, cap } => {
                write!(f, "comm-bb declined: {leaves} fork leaves > cap {cap}")
            }
            FallbackReason::ReliabilityBound => {
                write!(f, "comm-bb declined: binding reliability bound")
            }
        }
    }
}

impl From<repliflow_exact::BbStats> for SearchStats {
    fn from(stats: repliflow_exact::BbStats) -> SearchStats {
        SearchStats {
            nodes: stats.nodes,
            pruned_bound: stats.pruned_bound,
            pruned_dominated: stats.pruned_dominated,
            completed: stats.completed,
        }
    }
}

/// The result of one solve: classification, engine, solution and
/// timing.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The Table 1 cell the instance belongs to.
    pub variant: Variant,
    /// The paper's complexity classification of that cell (established
    /// for the simplified model; comm-aware solves report it for
    /// orientation — their cells are at least as hard).
    pub complexity: Complexity,
    /// The cost model the instance was solved (and its witness
    /// validated) under.
    pub cost_model: CostModel,
    /// Name of the engine that produced the solution.
    pub engine_used: &'static str,
    /// Strength of the result.
    pub optimality: Optimality,
    /// The witness mapping (`None` only when an exact engine proved a
    /// bi-criteria bound infeasible).
    pub mapping: Option<Mapping>,
    /// Period of the witness mapping.
    pub period: Option<Rat>,
    /// Latency of the witness mapping.
    pub latency: Option<Rat>,
    /// Value of the optimized objective (equals `period` or `latency`
    /// depending on the instance's objective).
    pub objective_value: Option<Rat>,
    /// Tree-search statistics (engines that explore a bounded search
    /// tree — `comm-bb`; `None` for all other engines).
    pub search: Option<SearchStats>,
    /// Why the `Auto` route downgraded this request to a weaker engine
    /// (`None` when no stronger engine was declined). Deterministic —
    /// derived from the instance and the budget alone — so it is part
    /// of [`SolveReport::canonical_json`].
    pub fallback: Option<FallbackReason>,
    /// Whether the report was computed for this request or served from
    /// the solve cache (serving metadata, excluded from
    /// [`SolveReport::canonical_json`]).
    pub provenance: Provenance,
    /// Wall-clock time the engine spent **computing** the report (a
    /// cached report keeps its original compute time).
    pub wall_time: Duration,
    /// Memo of [`SolveReport::canonical_json`]'s text, filled by its
    /// first call, and of the [serving tail](SolveReport::serving_tail).
    /// Build reports with `Default::default()` here; a clone starts
    /// empty, so a struct-update copy
    /// (`SolveReport { fallback, ..report.clone() }`) renders its own
    /// text. Mutating a field after the first render is not tracked:
    /// derive a new report instead.
    pub canonical: CanonicalMemo,
}

/// The lazily rendered texts of one report: its canonical text (see
/// [`SolveReport::canonical`]) and its serving tail (see
/// [`SolveReport::serving_tail`]). Cloning yields an empty memo, never
/// a copy of the texts, so a copy whose fields then change cannot serve
/// stale bytes.
#[derive(Default)]
pub struct CanonicalMemo {
    text: OnceLock<String>,
    /// Boxed twice, so the slot costs one thin pointer beside its
    /// once-flag.
    tail: OnceLock<Box<Box<str>>>,
}

impl Clone for CanonicalMemo {
    fn clone(&self) -> CanonicalMemo {
        CanonicalMemo::default()
    }
}

impl fmt::Debug for CanonicalMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CanonicalMemo")
            .field("filled", &self.text.get().is_some())
            .field("tail", &self.tail.get().is_some())
            .finish()
    }
}

impl SolveReport {
    /// Whether a solution (possibly bound-violating) is attached.
    pub fn has_mapping(&self) -> bool {
        self.mapping.is_some()
    }

    /// Canonical JSON form of everything **deterministic** in the
    /// report — the full report minus `wall_time` and `provenance`
    /// (serving metadata: a cache hit must be byte-identical to the
    /// fresh computation it stands in for). Two runs of the same
    /// request on the same build must produce byte-identical canonical
    /// JSON (guarded by the determinism integration test); any
    /// divergence means an engine leaked nondeterminism into its
    /// result.
    ///
    /// The text is rendered once per report and memoized (see
    /// [`SolveReport::canonical`]); [`SolveReport::canonical_text`]
    /// borrows it without a copy.
    pub fn canonical_json(&self) -> String {
        self.canonical_text().to_string()
    }

    /// The memoized text of [`SolveReport::canonical_json`], rendered
    /// by the first call on this report.
    pub fn canonical_text(&self) -> &str {
        self.canonical.text.get_or_init(|| self.render_canonical())
    }

    /// The memoized serving tail: the text a wire protocol renders from
    /// what the canonical form leaves out (provenance, wall time, float
    /// renderings, search counters) to follow the canonical text in an
    /// answer. The first call renders it with `render`; every later
    /// call returns that text whatever it passes, so a report has one
    /// renderer, the daemon's protocol. A cached report's tail never
    /// changes, so a repeated hit renders nothing.
    pub fn serving_tail(&self, render: impl FnOnce(&SolveReport) -> String) -> &str {
        self.canonical
            .tail
            .get_or_init(|| Box::new(render(self).into_boxed_str()))
    }

    fn render_canonical(&self) -> String {
        use serde_json::Value;
        let rat = |r: Option<Rat>| match r {
            Some(v) => Value::String(v.to_string()),
            None => Value::Null,
        };
        let mut fields = vec![
            (
                "variant".to_string(),
                Value::String(self.variant.to_string()),
            ),
            (
                "cost_model".to_string(),
                Value::String(self.cost_model.to_string()),
            ),
            (
                "engine".to_string(),
                Value::String(self.engine_used.to_string()),
            ),
            (
                "optimality".to_string(),
                Value::String(self.optimality.to_string()),
            ),
            (
                "mapping".to_string(),
                match &self.mapping {
                    Some(m) => Value::String(m.to_string()),
                    None => Value::Null,
                },
            ),
            ("period".to_string(), rat(self.period)),
            ("latency".to_string(), rat(self.latency)),
            ("objective".to_string(), rat(self.objective_value)),
        ];
        // Node/prune counters are *timing-dependent* under parallel
        // root-branch search (threads adopt each other's incumbents at
        // racy instants), so only `completed` — the proof bit — is part
        // of the canonical form. The counters stay on [`SearchStats`]
        // for observability.
        if let Some(s) = &self.search {
            fields.push((
                "search".to_string(),
                Value::Object(vec![("completed".to_string(), Value::Bool(s.completed))]),
            ));
        }
        if let Some(reason) = &self.fallback {
            fields.push(("fallback".to_string(), Value::String(reason.to_string())));
        }
        serde_json::to_string(&Value::Object(fields)).expect("report serialization is infallible")
    }

    pub(crate) fn from_solved(
        variant: Variant,
        cost_model: CostModel,
        engine_used: &'static str,
        optimality: Optimality,
        solved: Solved,
        search: Option<SearchStats>,
        wall_time: Duration,
    ) -> SolveReport {
        SolveReport {
            variant,
            complexity: variant.paper_complexity(),
            cost_model,
            engine_used,
            optimality,
            mapping: Some(solved.mapping),
            period: Some(solved.period),
            latency: Some(solved.latency),
            objective_value: Some(solved.objective),
            search,
            fallback: None,
            provenance: Provenance::Computed,
            wall_time,
            canonical: CanonicalMemo::default(),
        }
    }
}

/// Everything that can go wrong while producing a [`SolveReport`].
#[derive(Clone, Debug)]
pub enum SolveError {
    /// The chosen engine does not cover the instance's Table 1 cell
    /// (only possible with an explicit [`EnginePref`] override; the
    /// `Auto` route always finds an engine).
    ///
    /// [`EnginePref`]: crate::EnginePref
    Unsupported {
        /// Engine that refused.
        engine: &'static str,
        /// The refused cell.
        variant: Variant,
    },
    /// A bi-criteria bound is unattainable. Carries the engine's best
    /// bound-violating witness when one exists (heuristic engines);
    /// the registry converts this into a report with
    /// [`Optimality::Infeasible`].
    Infeasible {
        /// Best-effort witness violating the bound, if any.
        best_effort: Option<Box<Solved>>,
    },
    /// Witness validation failed: the engine's claimed values disagree
    /// with the core cost model (this is a bug in the engine).
    InvalidWitness(String),
    /// The instance exceeds the exhaustive solvers' hard capacity
    /// (dense-DP bitmask tables: at most 20 processors / 20 fork
    /// leaves for the simplified-model solvers; the comm-aware
    /// branch-and-bound reaches 128 of each through its wide-mask
    /// search). Only reachable with an explicit `Exact`/`CommBb`
    /// override — the `Auto` route falls back to heuristics instead.
    ExceedsExactCapacity {
        /// Stages in the instance's workflow.
        n_stages: usize,
        /// Processors in the instance's platform.
        n_procs: usize,
    },
    /// A communication-aware instance whose network describes a
    /// different processor count than its platform.
    NetworkMismatch {
        /// Processor count of the platform.
        expected: usize,
        /// Processor count the network was built for.
        got: usize,
    },
    /// The request's [`Deadline`] had already expired before any engine
    /// started (a deadline that expires *mid-search* instead degrades
    /// the run to its incumbent, exactly like `bb_time_limit_ms`).
    ///
    /// [`Deadline`]: crate::Deadline
    DeadlineExceeded,
    /// The request's [`CancelToken`] was cancelled before any engine
    /// started.
    ///
    /// [`CancelToken`]: crate::CancelToken
    Cancelled,
    /// The engine panicked mid-solve (an engine bug). The serving layer
    /// contains the panic — the worker pool survives and the rest of
    /// the batch still completes — and reports the lost request with
    /// this error instead of poisoning the whole batch.
    EnginePanicked,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Unsupported { engine, variant } => {
                write!(f, "engine `{engine}` does not support cell [{variant}]")
            }
            SolveError::Infeasible { .. } => {
                write!(f, "the bi-criteria bound is unattainable")
            }
            SolveError::InvalidWitness(msg) => {
                write!(f, "witness validation failed: {msg}")
            }
            SolveError::ExceedsExactCapacity { n_stages, n_procs } => {
                write!(
                    f,
                    "instance (n={n_stages}, p={n_procs}) exceeds the exact solvers' \
                     capacity; use the auto or heuristic engine"
                )
            }
            SolveError::NetworkMismatch { expected, got } => {
                write!(
                    f,
                    "network describes {got} processors but the platform has {expected}"
                )
            }
            SolveError::DeadlineExceeded => {
                write!(f, "the request deadline expired before solving started")
            }
            SolveError::Cancelled => {
                write!(f, "the request was cancelled before solving started")
            }
            SolveError::EnginePanicked => {
                write!(
                    f,
                    "the engine panicked mid-solve (engine bug); no result produced"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}
