//! The heuristic portfolio, behind both the `heuristic` (simplified
//! model) and `comm-heuristic` (communication-aware) registry slots:
//! baselines, shape-specific greedy construction, steepest-descent
//! local search and seeded simulated annealing, scored under the
//! requested objective and the instance's own cost model. Covers every
//! Table 1 cell without optimality guarantees.

use super::orient;
use crate::engine::{Engine, EngineRun};
use crate::report::SolveError;
use crate::request::Budget;
use repliflow_algorithms::Solved;
use repliflow_core::instance::ProblemInstance;
use repliflow_core::mapping::{Mapping, Mode};
use repliflow_core::rational::Rat;
use repliflow_core::workflow::{Pipeline, Workflow};
use repliflow_heuristics::annealing::{self, Schedule};
use repliflow_heuristics::score::score_instance;
use repliflow_heuristics::{baselines, comm, greedy, local_search};

/// Best-of-portfolio heuristics for every workflow shape and both cost
/// models. One engine, two registry slots that differ only in their
/// wire name.
#[derive(Clone, Copy, Debug)]
pub struct HeuristicEngine {
    name: &'static str,
}

impl HeuristicEngine {
    /// The simplified-model slot (`heuristic`).
    pub const SIMPLIFIED: HeuristicEngine = HeuristicEngine { name: "heuristic" };
    /// The communication-aware slot (`comm-heuristic`).
    pub const COMM: HeuristicEngine = HeuristicEngine {
        name: "comm-heuristic",
    };
}

/// The pipeline a simplified-model instance carries, if any: the one
/// case the portfolio refines with the pipeline-only interval
/// neighborhood. Every other instance (forks in either model, comm
/// pipelines) uses the instance-generic neighborhood — structural
/// moves plus processor swaps, priced through the instance's own cost
/// model.
fn simplified_pipeline(instance: &ProblemInstance) -> Option<&Pipeline> {
    match &instance.workflow {
        Workflow::Pipeline(pipe) if !instance.cost_model.is_comm_aware() => Some(pipe),
        _ => None,
    }
}

/// Steepest-descent refinement of `start`.
fn improve(instance: &ProblemInstance, start: Mapping, budget: &Budget) -> Mapping {
    match simplified_pipeline(instance) {
        Some(pipe) => local_search::improve(
            pipe,
            &instance.platform,
            instance.allow_data_parallel,
            instance.objective,
            start,
            budget.local_search_rounds,
        ),
        None => comm::improve_instance(instance, start, budget.local_search_rounds),
    }
}

/// Seeded annealing from `start` (deterministic for a given seed).
fn anneal(instance: &ProblemInstance, start: Mapping, schedule: Schedule, seed: u64) -> Mapping {
    match simplified_pipeline(instance) {
        Some(pipe) => annealing::anneal(
            pipe,
            &instance.platform,
            instance.allow_data_parallel,
            instance.objective,
            start,
            schedule,
            seed,
        ),
        None => comm::anneal_instance(instance, start, schedule, seed),
    }
}

/// All candidate mappings the portfolio considers for `instance`, in
/// the order ties are broken (the first best candidate wins).
fn candidates(instance: &ProblemInstance, budget: &Budget) -> Vec<Mapping> {
    let platform = &instance.platform;
    let mut out = vec![
        baselines::replicate_all(&instance.workflow, platform),
        baselines::fastest_single(&instance.workflow, platform),
    ];
    // local search from each constructive start; annealing escapes the
    // local optima the descent gets stuck in, from the last start
    let starts = match &instance.workflow {
        Workflow::Pipeline(pipe) => vec![
            greedy::pipeline_period_greedy(pipe, platform),
            Mapping::whole(
                pipe.n_stages(),
                platform.procs().collect(),
                Mode::Replicated,
            ),
        ],
        Workflow::Fork(fork) => vec![greedy::fork_latency_greedy(fork, platform)],
        Workflow::ForkJoin(fj) => vec![greedy::forkjoin_latency_greedy(fj, platform)],
    };
    let mut anneal_from = starts.last().expect("every shape has a start").clone();
    for start in starts {
        out.push(improve(instance, start, budget));
    }
    // the quality tier's annealing chain: each schedule starts from the
    // previous one's result and every link is a candidate, so a higher
    // tier only adds candidates
    for schedule in budget.quality.annealing_schedules() {
        anneal_from = anneal(instance, anneal_from, schedule, budget.seed);
        out.push(anneal_from.clone());
    }
    out
}

/// The portfolio's best mapping and its lexicographic score. Shared
/// with the `comm-bb` engine, which seeds its branch-and-bound
/// incumbent from it (the determinism test guards this path: fixed
/// seed, fixed result).
pub(crate) fn portfolio_best(instance: &ProblemInstance, budget: &Budget) -> ((Rat, Rat), Solved) {
    let (best_score, best) = candidates(instance, budget)
        .into_iter()
        .map(|m| (score_instance(instance, &m), m))
        .min_by(|(a, _), (b, _)| a.cmp(b))
        .expect("the portfolio always yields candidates");
    let (period, latency) = instance
        .objectives(&best)
        .expect("candidate mappings are valid");
    (
        best_score,
        orient(instance.objective, best, period, latency),
    )
}

impl Engine for HeuristicEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn solve(&self, instance: &ProblemInstance, budget: &Budget) -> Result<EngineRun, SolveError> {
        let (best_score, solved) = portfolio_best(instance, budget);
        if best_score.0 == Rat::INFINITY {
            // Every candidate violates the bi-criteria bound; hand the
            // registry the least-bad witness (a heuristic cannot prove
            // the bound unattainable).
            return Err(SolveError::Infeasible {
                best_effort: Some(Box::new(solved)),
            });
        }
        Ok(EngineRun::heuristic(solved))
    }
}
