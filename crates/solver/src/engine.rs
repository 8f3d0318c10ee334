//! The trait every backend implements to plug into the
//! [`EngineRegistry`](crate::EngineRegistry).

use crate::report::{SearchStats, SolveError};
use crate::request::Budget;
use repliflow_algorithms::Solved;
use repliflow_core::instance::ProblemInstance;

/// One successful engine run: the witnessed solution plus per-run
/// metadata the registry folds into the [`SolveReport`].
///
/// `optimal` is a **per-run** claim: an exhaustive engine always sets
/// it, a heuristic never does, and a budgeted search (`comm-bb`) sets
/// it only when the search ran to exhaustion within its node/time
/// limits.
///
/// [`SolveReport`]: crate::SolveReport
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// The witnessed solution.
    pub solved: Solved,
    /// Whether this run proved its solution optimal.
    pub optimal: bool,
    /// Search statistics, for engines that explore a bounded tree.
    pub search: Option<SearchStats>,
}

impl EngineRun {
    /// A run whose optimality claim is unconditional (exact engines and
    /// the paper's polynomial algorithms).
    pub fn proven(solved: Solved) -> EngineRun {
        EngineRun {
            solved,
            optimal: true,
            search: None,
        }
    }

    /// A best-effort run (heuristic engines).
    pub fn heuristic(solved: Solved) -> EngineRun {
        EngineRun {
            solved,
            optimal: false,
            search: None,
        }
    }
}

/// A solving backend: produces witness-backed solutions for the
/// instances [`EngineRegistry::route`] sends it.
///
/// Engines must be [`Sync`] so one registry can serve every worker
/// thread of a [`SolverService`].
///
/// [`EngineRegistry::route`]: crate::EngineRegistry::route
/// [`SolverService`]: crate::SolverService
pub trait Engine: Sync {
    /// Stable engine name (used in reports and error messages).
    fn name(&self) -> &'static str;

    /// Solves `instance` under `budget`.
    ///
    /// Returns [`SolveError::Infeasible`] when a bi-criteria bound is
    /// unattainable (with a best-effort witness if the engine has one)
    /// and [`SolveError::Unsupported`] when the instance's cell is
    /// outside what the engine covers (the paper engine on a cell its
    /// theorems do not solve).
    fn solve(&self, instance: &ProblemInstance, budget: &Budget) -> Result<EngineRun, SolveError>;
}
