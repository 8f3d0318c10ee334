//! The request side of the engine API: what to solve, with which
//! engine, under which resource budget — plus the serving-layer request
//! controls (deadlines, cancellation, canonical fingerprints).

use repliflow_core::fingerprint::{Fingerprinter, InstanceFingerprint};
use repliflow_core::instance::ProblemInstance;
use repliflow_sync::sync::atomic::{AtomicBool, Ordering};
use repliflow_sync::sync::Arc;
use std::time::{Duration, Instant};

/// Which engine the registry should route a request to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnginePref {
    /// Table 1 auto-dispatch: the paper's algorithm on polynomial
    /// cells; on NP-hard cells exhaustive search under the
    /// [`Budget`] size threshold, heuristics beyond it.
    #[default]
    Auto,
    /// Force the exhaustive exact solver (`repliflow-exact`), whatever
    /// the instance size. Proven optimal, exponential time.
    Exact,
    /// Force the heuristic engine (`repliflow-heuristics`), even on
    /// polynomial cells.
    Heuristic,
    /// Force the paper's polynomial algorithm; the registry refuses
    /// NP-hard cells instead of silently approximating.
    Paper,
    /// Force the communication-aware branch-and-bound engine, whatever
    /// the instance size (its node/time budget still applies). Only
    /// meaningful for [`CostModel::WithComm`] instances; the registry
    /// refuses simplified-model requests.
    ///
    /// [`CostModel::WithComm`]: repliflow_core::instance::CostModel::WithComm
    CommBb,
    /// Race the communication-aware branch-and-bound against the
    /// heuristic portfolio and take the first acceptable result (the
    /// tail-latency route — see `solver::engines::hedged`). Only
    /// meaningful for `WithComm` instances; the registry refuses
    /// simplified-model requests, which already have a cheap proven
    /// route.
    Hedged,
}

impl EnginePref {
    /// Parses the CLI spelling (`auto`, `exact`, `heuristic`, `paper`,
    /// `comm-bb`, `hedged`).
    pub fn parse(s: &str) -> Option<EnginePref> {
        match s {
            "auto" => Some(EnginePref::Auto),
            "exact" => Some(EnginePref::Exact),
            "heuristic" => Some(EnginePref::Heuristic),
            "paper" => Some(EnginePref::Paper),
            "comm-bb" => Some(EnginePref::CommBb),
            "hedged" => Some(EnginePref::Hedged),
            _ => None,
        }
    }
}

/// How much effort the heuristic portfolio spends past its constructive
/// and steepest-descent stages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Quality {
    /// Constructive candidates + local search only — no annealing. The
    /// cheapest tier, for latency-sensitive batch serving.
    Fast,
    /// Adds seeded simulated annealing with the default schedule.
    #[default]
    Balanced,
    /// Adds a long annealing schedule (4x the steps, slower cooling) —
    /// the escalation tier for hard communication-aware instances.
    Thorough,
}

impl Quality {
    /// Parses the CLI spelling (`fast`, `balanced`, `thorough`).
    pub fn parse(s: &str) -> Option<Quality> {
        match s {
            "fast" => Some(Quality::Fast),
            "balanced" => Some(Quality::Balanced),
            "thorough" => Some(Quality::Thorough),
            _ => None,
        }
    }

    /// The annealing schedule of this tier (`None` = skip annealing).
    pub fn annealing_schedule(self) -> Option<repliflow_heuristics::annealing::Schedule> {
        use repliflow_heuristics::annealing::Schedule;
        match self {
            Quality::Fast => None,
            Quality::Balanced => Some(Schedule::default()),
            Quality::Thorough => Some(Schedule {
                steps: 8000,
                cooling: 0.998,
                ..Schedule::default()
            }),
        }
    }
}

/// Resource limits for one solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Exhaustive search is allowed while the workflow has at most this
    /// many stages ...
    pub max_exact_stages: usize,
    /// ... and the platform at most this many processors.
    pub max_exact_procs: usize,
    /// Like [`Budget::max_exact_stages`], for the communication-aware
    /// exact engine. Stricter, because comm-aware optimization cannot use
    /// the Pareto DP (interval terms depend on neighboring placements)
    /// and enumerates the full mapping space instead.
    pub max_comm_exact_stages: usize,
    /// Like [`Budget::max_exact_procs`], for the communication-aware
    /// exact engine.
    pub max_comm_exact_procs: usize,
    /// Stage ceiling under which `Auto` routes a communication-aware
    /// instance to the branch-and-bound engine (`comm-bb`) instead of
    /// the heuristic portfolio. Far above the raw-enumeration guard:
    /// the B&B prices partial mappings with admissible bounds and
    /// prunes dominated states instead of visiting the whole space.
    pub max_comm_bb_stages: usize,
    /// Processor ceiling of the `comm-bb` auto route.
    pub max_comm_bb_procs: usize,
    /// Leaf ceiling under which `Auto` routes a communication-aware
    /// **fork or fork-join** to `comm-bb`. Fork-shaped searches branch
    /// over set partitions of the leaves (far wider than pipeline
    /// intervals at equal stage counts), so their guard is expressed in
    /// leaves: the default of 10 is the count the fork dominance
    /// pruning proves optimal within the node/time budget (the
    /// pre-dominance engine capped out near 6).
    pub max_comm_bb_fork_leaves: usize,
    /// Hard cap on `comm-bb` search-tree nodes; when it trips, the best
    /// incumbent is reported with [`Quality`]-grade (non-proven)
    /// optimality instead of running unboundedly.
    pub bb_node_limit: u64,
    /// Hard wall-clock cap on one `comm-bb` search, in milliseconds
    /// (`0` = unlimited). A run that trips the *time* limit is the one
    /// situation in which `comm-bb` stops being deterministic.
    pub bb_time_limit_ms: u64,
    /// Round limit for the steepest-descent local search.
    pub local_search_rounds: usize,
    /// The hedged engine's grace window, in milliseconds: when the
    /// *heuristic* racer finishes first, the race waits up to this long
    /// for the branch-and-bound racer before settling — a proven-optimal
    /// result that lands inside the window is always preferred over the
    /// earlier heuristic one. `0` means first acceptable result wins
    /// outright. Only the hedged engine reads it, but it is part of the
    /// request fingerprint (it changes which answer a hedged request
    /// settles on).
    pub hedge_delay_ms: u64,
    /// Heuristic effort tier (whether/how long to anneal).
    pub quality: Quality,
    /// Seed for randomized heuristics (kept fixed for reproducibility).
    pub seed: u64,
    /// Ceiling on the number of points a Pareto-front request
    /// (`repliflow-multicrit`) enumerates or sweeps; a front that would
    /// exceed it is reported truncated.
    pub max_front_points: usize,
    /// Wall-clock cap on one whole front solve, in milliseconds (`0` =
    /// unlimited). A front that trips it is reported truncated at the
    /// points completed so far.
    pub front_time_limit_ms: u64,
}

impl Default for Budget {
    fn default() -> Self {
        // The exhaustive solvers enumerate set partitions; 10 stages /
        // 12 processors keeps them under ~1s, matching the historical
        // CLI threshold. The comm-aware enumerator visits every legal
        // mapping, so its thresholds are tighter; the branch-and-bound
        // reaches twice the enumeration guard (12 stages / 8 procs run
        // in well under a second on pipelines, a few seconds on forks)
        // with the node/time caps as the backstop.
        Budget {
            max_exact_stages: 10,
            max_exact_procs: 12,
            max_comm_exact_stages: 6,
            max_comm_exact_procs: 5,
            max_comm_bb_stages: 12,
            max_comm_bb_procs: 8,
            max_comm_bb_fork_leaves: 10,
            bb_node_limit: 4_000_000,
            bb_time_limit_ms: 10_000,
            local_search_rounds: 200,
            hedge_delay_ms: 25,
            quality: Quality::Balanced,
            seed: 0x5EED,
            max_front_points: 32,
            front_time_limit_ms: 60_000,
        }
    }
}

impl Budget {
    /// Whether an `n_stages`-stage workflow on `n_procs` processors is
    /// small enough for exhaustive search under this budget.
    pub fn allows_exact(&self, n_stages: usize, n_procs: usize) -> bool {
        n_stages <= self.max_exact_stages && n_procs <= self.max_exact_procs
    }

    /// Whether the instance is small enough for the communication-aware
    /// exhaustive engine (full mapping-space enumeration).
    pub fn allows_comm_exact(&self, n_stages: usize, n_procs: usize) -> bool {
        n_stages <= self.max_comm_exact_stages && n_procs <= self.max_comm_exact_procs
    }

    /// Whether the instance is small enough for the communication-aware
    /// branch-and-bound engine (`comm-bb`) on the `Auto` route.
    pub fn allows_comm_bb(&self, n_stages: usize, n_procs: usize) -> bool {
        n_stages <= self.max_comm_bb_stages && n_procs <= self.max_comm_bb_procs
    }

    /// Shape-aware refinement of [`Budget::allows_comm_bb`]: fork and
    /// fork-join instances additionally respect the leaf guard
    /// ([`Budget::max_comm_bb_fork_leaves`]).
    pub fn allows_comm_bb_instance(&self, instance: &ProblemInstance) -> bool {
        use repliflow_core::workflow::Workflow;
        let leaves_ok = match &instance.workflow {
            Workflow::Pipeline(_) => true,
            Workflow::Fork(f) => f.n_leaves() <= self.max_comm_bb_fork_leaves,
            Workflow::ForkJoin(fj) => fj.n_leaves() <= self.max_comm_bb_fork_leaves,
        };
        leaves_ok && self.allows_comm_bb(instance.workflow.n_stages(), instance.platform.n_procs())
    }

    /// The branch-and-bound limits this budget implies.
    ///
    /// `parallelism` starts at `1` (sequential); the `comm-bb` engine
    /// widens it to the machine's available parallelism at run time. It
    /// is deliberately **not** a budget knob and not part of the request
    /// fingerprint: completed searches return bit-identical reports at
    /// any thread count, and incomplete ones are never cached.
    pub fn bb_limits(&self) -> repliflow_exact::BbLimits {
        repliflow_exact::BbLimits {
            max_nodes: self.bb_node_limit,
            time_limit: (self.bb_time_limit_ms > 0)
                .then(|| std::time::Duration::from_millis(self.bb_time_limit_ms)),
            parallelism: 1,
        }
    }

    /// Overrides the quality tier (builder style).
    pub fn quality(mut self, quality: Quality) -> Budget {
        self.quality = quality;
        self
    }

    /// Overrides the hedged engine's grace window (builder style).
    pub fn hedge_delay_ms(mut self, ms: u64) -> Budget {
        self.hedge_delay_ms = ms;
        self
    }

    /// Overrides the Pareto-front point ceiling (builder style).
    pub fn max_front_points(mut self, points: usize) -> Budget {
        self.max_front_points = points;
        self
    }

    /// Overrides the front solve time limit (builder style).
    pub fn front_time_limit_ms(mut self, ms: u64) -> Budget {
        self.front_time_limit_ms = ms;
        self
    }
}

/// A wall-clock deadline for one request.
///
/// Semantics mirror [`Budget::bb_time_limit_ms`]: a deadline that is
/// already expired when the request reaches the registry fails fast
/// with [`SolveError::DeadlineExceeded`] (no engine starts); a deadline
/// that expires *during* a budgeted search degrades the run to its best
/// incumbent, because the registry clamps the effective
/// `bb_time_limit_ms` to the time remaining. Results computed under any
/// deadline are never written back to the solve cache — a clamped run
/// may carry a degraded incumbent that would poison full-budget
/// requests — though deadlined requests still *read* the cache.
///
/// The deadline is a pre-start gate plus a branch-and-bound clamp, not
/// a preemption mechanism: engines without an internal time budget
/// (the exhaustive enumerators, the paper algorithms, the heuristics)
/// run to completion once started, even past the deadline. Route
/// latency-critical traffic through `Auto` (whose size guards keep the
/// unbudgeted engines on small instances) rather than forcing `Exact`
/// on large ones.
///
/// [`SolveError::DeadlineExceeded`]: crate::SolveError::DeadlineExceeded
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    /// `None` means the requested duration overflowed `Instant`
    /// arithmetic — unreachably far in the future, i.e. never expires.
    at: Option<Instant>,
}

impl Deadline {
    /// Deadline `ms` milliseconds from now (`0` is immediately
    /// expired — useful for "serve from cache or fail fast").
    pub fn in_ms(ms: u64) -> Deadline {
        Deadline::after(Duration::from_millis(ms))
    }

    /// Deadline `duration` from now. A duration too large for `Instant`
    /// arithmetic saturates to "never expires" instead of panicking.
    pub fn after(duration: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(duration),
        }
    }

    /// Deadline at an absolute instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at: Some(at) }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left, or `None` when expired. A saturated ("never
    /// expires") deadline reports [`Duration::MAX`].
    pub fn remaining(&self) -> Option<Duration> {
        match self.at {
            None => Some(Duration::MAX),
            Some(at) => {
                let now = Instant::now();
                (now < at).then(|| at - now)
            }
        }
    }
}

/// A shareable cancellation flag: clone the token, hand one copy to the
/// request (or [`BatchOptions`]) and keep the other; calling
/// [`CancelToken::cancel`] makes every not-yet-started solve carrying
/// the token fail fast with [`SolveError::Cancelled`].
///
/// [`BatchOptions`]: crate::BatchOptions
/// [`SolveError::Cancelled`]: crate::SolveError::Cancelled
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the token; every clone observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] was called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// A complete solve request: the instance plus routing, validation and
/// serving controls. Construct with [`SolveRequest::new`] and refine
/// with the builder methods.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The problem to solve.
    pub instance: ProblemInstance,
    /// Engine routing preference.
    pub engine: EnginePref,
    /// Resource limits.
    pub budget: Budget,
    /// Re-validate the witness mapping through the core cost model
    /// before reporting (structural legality + recomputed period and
    /// latency must match the engine's claim).
    pub validate_witness: bool,
    /// Optional wall-clock deadline (see [`Deadline`] for the degrade
    /// semantics). Not part of the request fingerprint.
    pub deadline: Option<Deadline>,
    /// Optional cancellation token checked before the engine starts.
    /// Not part of the request fingerprint.
    pub cancel: Option<CancelToken>,
}

impl SolveRequest {
    /// Request with auto routing, default budget and witness validation
    /// enabled.
    pub fn new(instance: ProblemInstance) -> SolveRequest {
        SolveRequest {
            instance,
            engine: EnginePref::Auto,
            budget: Budget::default(),
            validate_witness: true,
            deadline: None,
            cancel: None,
        }
    }

    /// Overrides the engine preference.
    pub fn engine(mut self, engine: EnginePref) -> SolveRequest {
        self.engine = engine;
        self
    }

    /// Overrides the budget.
    pub fn budget(mut self, budget: Budget) -> SolveRequest {
        self.budget = budget;
        self
    }

    /// Enables or disables witness validation.
    pub fn validate_witness(mut self, validate: bool) -> SolveRequest {
        self.validate_witness = validate;
        self
    }

    /// Attaches a wall-clock deadline.
    pub fn deadline(mut self, deadline: Deadline) -> SolveRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token (keep a clone to trigger it).
    pub fn cancel_token(mut self, token: CancelToken) -> SolveRequest {
        self.cancel = Some(token);
        self
    }

    /// The canonical fingerprint of this request — the solve-cache key.
    ///
    /// Extends [`ProblemInstance::fingerprint`] with every
    /// objective-relevant request knob: the engine preference, the full
    /// [`Budget`] (limits, quality tier, seed) and the witness-
    /// validation flag. Transient serving controls (deadline, cancel
    /// token) are deliberately **excluded**: they do not change what
    /// the right answer is, only how long we are willing to wait for
    /// it.
    pub fn fingerprint(&self) -> InstanceFingerprint {
        let mut hasher = Fingerprinter::new();
        hasher.write_instance(&self.instance);
        hasher.write_tag(match self.engine {
            EnginePref::Auto => 0,
            EnginePref::Exact => 1,
            EnginePref::Heuristic => 2,
            EnginePref::Paper => 3,
            EnginePref::CommBb => 4,
            EnginePref::Hedged => 5,
        });
        let b = &self.budget;
        for knob in [
            b.max_exact_stages as u64,
            b.max_exact_procs as u64,
            b.max_comm_exact_stages as u64,
            b.max_comm_exact_procs as u64,
            b.max_comm_bb_stages as u64,
            b.max_comm_bb_procs as u64,
            b.max_comm_bb_fork_leaves as u64,
            b.bb_node_limit,
            b.bb_time_limit_ms,
            b.local_search_rounds as u64,
            b.hedge_delay_ms,
            b.max_front_points as u64,
            b.front_time_limit_ms,
        ] {
            hasher.write_u64(knob);
        }
        hasher.write_tag(match b.quality {
            Quality::Fast => 0,
            Quality::Balanced => 1,
            Quality::Thorough => 2,
        });
        hasher.write_u64(b.seed);
        hasher.write_tag(self.validate_witness as u8);
        hasher.finish()
    }
}
