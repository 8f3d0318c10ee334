//! The exhaustive ground-truth engine, behind both the `exact`
//! (simplified model) and `comm-exact` (communication-aware) registry
//! slots: the `repliflow-exact` Pareto DP where it applies, full
//! mapping-space enumeration everywhere else. Proves optimality at
//! exponential cost — the registry only auto-routes to it under the
//! [`Budget`] size threshold.

use super::orient;
use crate::engine::{Engine, EngineRun};
use crate::report::SolveError;
use crate::request::Budget;
use repliflow_core::instance::ProblemInstance;
use repliflow_core::mapping::Mapping;
use repliflow_core::reliability::{reduce, ReliabilityReduction};
use repliflow_core::workflow::Workflow;
use repliflow_exact::{Frontier, Solution};

/// Exhaustive exact search over the full mapping space. One engine, two
/// registry slots that differ only in their wire name.
#[derive(Clone, Copy, Debug)]
pub struct ExactEngine {
    name: &'static str,
}

impl ExactEngine {
    /// The simplified-model slot (`exact`).
    pub const SIMPLIFIED: ExactEngine = ExactEngine { name: "exact" };
    /// The communication-aware slot (`comm-exact`).
    pub const COMM: ExactEngine = ExactEngine { name: "comm-exact" };
}

/// Whether a platform of `n_procs` processors and a workflow of
/// `leaves` fork leaves (0 for pipelines) fit the exhaustive solvers'
/// hard representation limits (`u32` processor bitmasks, fork leaf
/// bitmasks). The one capacity check: the engine applies it to the
/// instance, and [`EngineRegistry::resolve`] to the leaf count its
/// graph class implies.
///
/// [`EngineRegistry::resolve`]: crate::EngineRegistry::resolve
pub(crate) fn representable(n_procs: usize, leaves: usize) -> bool {
    n_procs <= repliflow_exact::pipeline::MAX_PROCS && leaves <= repliflow_exact::fork::MAX_LEAVES
}

/// [`representable`] for a concrete instance.
pub(crate) fn instance_fits(instance: &ProblemInstance) -> bool {
    let leaves = match &instance.workflow {
        Workflow::Pipeline(_) => 0,
        Workflow::Fork(f) => f.n_leaves(),
        Workflow::ForkJoin(fj) => fj.n_leaves(),
    };
    representable(instance.platform.n_procs(), leaves)
}

impl Engine for ExactEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn solve(&self, instance: &ProblemInstance, _budget: &Budget) -> Result<EngineRun, SolveError> {
        // Surface the exhaustive solvers' hard bitmask limits as an
        // error instead of letting their asserts abort the process.
        if !instance_fits(instance) {
            return Err(SolveError::ExceedsExactCapacity {
                n_stages: instance.workflow.n_stages(),
                n_procs: instance.platform.n_procs(),
            });
        }
        // The Pareto DP prices intervals independently, which only the
        // simplified model allows (comm-aware interval terms depend on
        // neighboring placements), and its frontier eviction may
        // discard the only mappings that meet a binding reliability
        // bound. Everything else enumerates.
        let dp_applies = !instance.cost_model.is_comm_aware()
            && !matches!(reduce(instance), ReliabilityReduction::Binding(_));
        let best = if dp_applies {
            repliflow_exact::solve(instance)
        } else {
            enumerate(instance)
        };
        match best {
            Some(sol) => Ok(EngineRun::proven(orient(
                instance.objective,
                sol.mapping,
                sol.period,
                sol.latency,
            ))),
            // The search is exhaustive, so an empty pick proves the
            // bound (bi-criteria or reliability) unattainable under
            // this cost model.
            None => Err(SolveError::Infeasible { best_effort: None }),
        }
    }
}

/// Enumerates every legal mapping into a Pareto frontier, scored under
/// the instance's own cost model, and picks the instance's goal.
/// Reliability bounds are enforced by filtering mappings *before*
/// frontier insertion: the frontier's dominance eviction is oblivious
/// to reliability, so a dominated-but-reliable mapping must never
/// compete against an unreliable dominator.
fn enumerate(instance: &ProblemInstance) -> Option<Solution> {
    let platform = &instance.platform;
    let dp = instance.allow_data_parallel;
    let reliability_bound = instance.objective.reliability_bound();
    let mut frontier = Frontier::new();
    let mut visit = |m: &Mapping| {
        if let Some(bound) = reliability_bound {
            if instance.reliability(m) < bound {
                return;
            }
        }
        let (period, latency) = instance
            .objectives(m)
            .expect("enumerated mappings are valid");
        frontier.insert(Solution {
            mapping: m.clone(),
            period,
            latency,
        });
    };
    match &instance.workflow {
        Workflow::Pipeline(p) => {
            repliflow_exact::pipeline::enumerate_pipeline(p, platform, dp, &mut visit)
        }
        Workflow::Fork(f) => repliflow_exact::fork::enumerate_fork(f, platform, dp, &mut visit),
        Workflow::ForkJoin(fj) => {
            repliflow_exact::forkjoin::enumerate_forkjoin(fj, platform, dp, &mut visit)
        }
    }
    frontier.pick(instance.objective.into())
}
