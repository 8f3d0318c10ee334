//! The `comm-bb` engine: branch-and-bound over partial mappings for
//! [`CostModel::WithComm`] instances, seeded with the heuristic
//! portfolio's best mapping as the incumbent. Proves optimality
//! whenever the search completes within the [`Budget`]'s node/time
//! limits, and degrades gracefully to the incumbent (reported as
//! [`Optimality::Heuristic`]) when it does not — so it replaces raw
//! enumeration far beyond the `comm-exact` guard without ever running
//! unboundedly.
//!
//! [`CostModel::WithComm`]: repliflow_core::instance::CostModel::WithComm
//! [`Optimality::Heuristic`]: crate::report::Optimality::Heuristic

use super::{heuristic::portfolio_best, orient};
use crate::engine::{Engine, EngineRun};
use crate::report::{SearchStats, SolveError};
use crate::request::Budget;
use repliflow_core::instance::ProblemInstance;
use repliflow_exact::solve_comm_bb;

/// Branch-and-bound over interval-by-interval (pipeline) / group-by-
/// group (fork, fork-join) partial mappings with admissible lower
/// bounds and dominance pruning; see `repliflow_exact::comm_bb`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommBbEngine;

impl Engine for CommBbEngine {
    fn name(&self) -> &'static str {
        "comm-bb"
    }

    fn solve(&self, instance: &ProblemInstance, budget: &Budget) -> Result<EngineRun, SolveError> {
        // Surface the search's hard representation limits as a clean
        // capacity error *before* the search starts, instead of letting
        // its asserts abort the process: the wide-mask search caps out
        // at `comm_bb::{MAX_STAGES, MAX_PROCS}` (128 each). The `Auto`
        // route's guards stay inside this capacity.
        if !super::comm_bb_capacity(instance) {
            return Err(SolveError::ExceedsExactCapacity {
                n_stages: instance.workflow.n_stages(),
                n_procs: instance.platform.n_procs(),
            });
        }
        // The search prunes on (period, latency) lower bounds alone;
        // it cannot enforce a mapping-level reliability constraint, and
        // a "proven" answer that violates the bound would be wrong.
        // Refuse instead — the `Auto` route skips this engine for
        // binding bounds (`FallbackReason::ReliabilityBound`), so this
        // is only reachable via an explicit `comm-bb`/`hedged` override.
        if matches!(
            repliflow_core::reliability::reduce(instance),
            repliflow_core::reliability::ReliabilityReduction::Binding(_)
        ) {
            return Err(SolveError::Unsupported {
                engine: self.name(),
                variant: instance.variant(),
            });
        }
        // Seed the incumbent from the heuristic portfolio: a good upper
        // bound up front is what makes the lower-bound pruning bite.
        let (seed_score, seed) = portfolio_best(instance, budget);
        let seed_feasible = seed_score.0.is_finite();
        // Spread the root branches over the machine. Not a budget knob:
        // completed searches return bit-identical results at any thread
        // count, and incomplete ones are never cached.
        let mut limits = budget.bb_limits();
        limits.parallelism = repliflow_sync::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let result = solve_comm_bb(instance, seed_feasible.then_some(&seed.mapping), &limits);
        let search = SearchStats::from(result.stats);
        match result.best {
            Some(sol) => Ok(EngineRun {
                solved: orient(instance.objective, sol.mapping, sol.period, sol.latency),
                // an exhausted search is a proof; a node/time-limited
                // one is only as good as its incumbent
                optimal: search.completed,
                search: Some(search),
            }),
            // No feasible mapping found: a completed search *proves*
            // the bi-criteria bound unattainable; an aborted one can
            // only hand back the heuristic's bound-violating witness.
            None if search.completed => Err(SolveError::Infeasible { best_effort: None }),
            None => Err(SolveError::Infeasible {
                best_effort: Some(Box::new(seed)),
            }),
        }
    }
}
