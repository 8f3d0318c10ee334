//! The request side of the front API: what instance to trace the
//! front of, with which front engine, under which budget.

use repliflow_core::fingerprint::{Fingerprinter, InstanceFingerprint};
use repliflow_core::instance::ProblemInstance;
use repliflow_solver::{Budget, Quality};

/// Which front engine a [`FrontRequest`] routes to.
///
/// [`FrontRequest`]: crate::FrontRequest
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontEnginePref {
    /// `front-exact` when the instance fits the budget's exact
    /// enumeration guards (`allows_exact` / `allows_comm_exact` plus
    /// the solvers' representation caps), `front-sweep` beyond.
    #[default]
    Auto,
    /// Force the exact ε-constraint enumeration, whatever the budget
    /// says; instances beyond the exact solvers' hard representation
    /// caps fail with `ExceedsExactCapacity` instead of degrading.
    Exact,
    /// Force the heuristic grid sweep, even on tiny instances.
    Sweep,
}

impl FrontEnginePref {
    /// Parses the CLI spelling (`auto`, `exact`, `sweep`).
    pub fn parse(s: &str) -> Option<FrontEnginePref> {
        match s {
            "auto" => Some(FrontEnginePref::Auto),
            "exact" => Some(FrontEnginePref::Exact),
            "sweep" => Some(FrontEnginePref::Sweep),
            _ => None,
        }
    }
}

/// A complete Pareto-front request: the instance plus front routing,
/// budget and validation controls.
///
/// The instance's own `objective` field is **ignored**: a front is
/// always traced over the (period, latency) criteria pair, with
/// per-point reliability annotations on platforms that can fail.
/// Reliability-*bounded* solving is the single-objective API's job
/// ([`Objective::LatencyUnderReliability`] and friends).
///
/// [`Objective::LatencyUnderReliability`]: repliflow_core::instance::Objective::LatencyUnderReliability
#[derive(Clone, Debug)]
pub struct FrontRequest {
    /// The problem whose front to trace.
    pub instance: ProblemInstance,
    /// Front engine routing preference.
    pub engine: FrontEnginePref,
    /// Resource limits — the front sweep honors `max_front_points` and
    /// `front_time_limit_ms` on top of the per-solve knobs every inner
    /// solve inherits.
    pub budget: Budget,
    /// Re-validate every point's witness mapping through the core cost
    /// model (applied to each inner solve).
    pub validate_witness: bool,
}

impl FrontRequest {
    /// Request with auto routing, default budget and witness validation
    /// enabled.
    pub fn new(instance: ProblemInstance) -> FrontRequest {
        FrontRequest {
            instance,
            engine: FrontEnginePref::Auto,
            budget: Budget::default(),
            validate_witness: true,
        }
    }

    /// Overrides the front engine preference.
    pub fn engine(mut self, engine: FrontEnginePref) -> FrontRequest {
        self.engine = engine;
        self
    }

    /// Overrides the budget.
    pub fn budget(mut self, budget: Budget) -> FrontRequest {
        self.budget = budget;
        self
    }

    /// Enables or disables witness validation.
    pub fn validate_witness(mut self, validate: bool) -> FrontRequest {
        self.validate_witness = validate;
        self
    }

    /// The canonical fingerprint of this front request — the front
    /// cache key.
    ///
    /// Domain-separated from [`SolveRequest::fingerprint`] by a leading
    /// tag string, so a front request and a single solve of the same
    /// instance can never collide in a shared keyspace. Covers the
    /// serialized instance, the front engine preference, every
    /// [`Budget`] knob (including the front-specific pair), the quality
    /// tier, the seed and the validation flag.
    ///
    /// [`SolveRequest::fingerprint`]: repliflow_solver::SolveRequest::fingerprint
    pub fn fingerprint(&self) -> InstanceFingerprint {
        let mut hasher = Fingerprinter::new();
        hasher.write_str("repliflow-multicrit/front/v1");
        hasher.write_instance(&self.instance);
        hasher.write_tag(match self.engine {
            FrontEnginePref::Auto => 0,
            FrontEnginePref::Exact => 1,
            FrontEnginePref::Sweep => 2,
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
