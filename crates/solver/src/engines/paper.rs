//! The paper engine: routes each *polynomial* Table 1 cell to the
//! matching `repliflow-algorithms` solver (Theorems 1–4, 6–8, 10–11,
//! 14 and their Section 6.3 fork-join extensions). Refuses NP-hard
//! cells — that is the registry's job to reroute.

use crate::engine::{Engine, EngineRun};
use crate::report::SolveError;
use crate::request::Budget;
use repliflow_algorithms::{forkjoin, het_fork, het_pipeline, hom_fork, hom_pipeline, Solved};
use repliflow_core::instance::{Objective, ProblemInstance};
use repliflow_core::workflow::Workflow;

/// The paper's own polynomial algorithms, cell by cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaperEngine;

impl PaperEngine {
    fn unsupported(&self, instance: &ProblemInstance) -> SolveError {
        SolveError::Unsupported {
            engine: self.name(),
            variant: instance.variant(),
        }
    }

    /// Cell-by-cell dispatch to the theorem algorithms; every solution
    /// this produces carries the theorem's optimality proof.
    fn solve_cell(&self, instance: &ProblemInstance) -> Result<Solved, SolveError> {
        let platform = &instance.platform;
        let plat_hom = platform.is_homogeneous();
        let dp = instance.allow_data_parallel;
        let infeasible = || SolveError::Infeasible { best_effort: None };

        match &instance.workflow {
            Workflow::Pipeline(pipe) => match (plat_hom, dp, instance.objective) {
                // Theorem 1: replicate-all is period-optimal in both
                // models on homogeneous platforms.
                (true, _, Objective::Period) => Ok(hom_pipeline::min_period(pipe, platform)),
                // Theorem 2 / Theorem 3.
                (true, false, Objective::Latency) => {
                    Ok(hom_pipeline::min_latency_no_dp(pipe, platform))
                }
                (true, true, Objective::Latency) => {
                    Ok(hom_pipeline::min_latency_dp(pipe, platform))
                }
                // Theorem 4 (both directions).
                (true, true, Objective::LatencyUnderPeriod(bound)) => {
                    hom_pipeline::min_latency_under_period(pipe, platform, bound)
                        .ok_or_else(infeasible)
                }
                (true, true, Objective::PeriodUnderLatency(bound)) => {
                    hom_pipeline::min_period_under_latency(pipe, platform, bound)
                        .ok_or_else(infeasible)
                }
                // Corollary 1: without data-parallelism on a homogeneous
                // platform the latency is mapping-independent (Lemma 2),
                // so bi-criteria reduces to Theorem 1 plus a bound check.
                (true, false, Objective::LatencyUnderPeriod(bound)) => {
                    let best = hom_pipeline::min_period(pipe, platform);
                    if best.period <= bound {
                        Ok(Solved::for_latency(best.mapping, best.period, best.latency))
                    } else {
                        Err(infeasible())
                    }
                }
                (true, false, Objective::PeriodUnderLatency(bound)) => {
                    let best = hom_pipeline::min_period(pipe, platform);
                    if best.latency <= bound {
                        Ok(best)
                    } else {
                        Err(infeasible())
                    }
                }
                // Theorem 6: latency on heterogeneous platforms, any
                // pipeline, no data-parallelism.
                (false, false, Objective::Latency) => {
                    Ok(het_pipeline::min_latency_no_dp(pipe, platform))
                }
                // Theorems 7 and 8: homogeneous pipelines only.
                (false, false, Objective::Period) if pipe.is_homogeneous() => {
                    Ok(het_pipeline::min_period_uniform(pipe, platform))
                }
                (false, false, Objective::LatencyUnderPeriod(bound)) if pipe.is_homogeneous() => {
                    het_pipeline::min_latency_under_period_uniform(pipe, platform, bound)
                        .ok_or_else(infeasible)
                }
                (false, false, Objective::PeriodUnderLatency(bound)) if pipe.is_homogeneous() => {
                    het_pipeline::min_period_under_latency_uniform(pipe, platform, bound)
                        .ok_or_else(infeasible)
                }
                _ => Err(self.unsupported(instance)),
            },
            Workflow::Fork(fork) => match (plat_hom, dp, instance.objective) {
                // Theorem 10: any fork, homogeneous platform.
                (true, _, Objective::Period) => Ok(hom_fork::min_period(fork, platform)),
                // Theorem 11: homogeneous forks only.
                (true, _, Objective::Latency) if fork.is_homogeneous() => {
                    Ok(hom_fork::min_latency(fork, platform, dp))
                }
                (true, _, Objective::LatencyUnderPeriod(bound)) if fork.is_homogeneous() => {
                    hom_fork::min_latency_under_period(fork, platform, dp, bound)
                        .ok_or_else(infeasible)
                }
                (true, _, Objective::PeriodUnderLatency(bound)) if fork.is_homogeneous() => {
                    hom_fork::min_period_under_latency(fork, platform, dp, bound)
                        .ok_or_else(infeasible)
                }
                // Theorem 14: homogeneous forks, heterogeneous
                // platforms, no data-parallelism.
                (false, false, Objective::Period) if fork.is_homogeneous() => {
                    Ok(het_fork::min_period_uniform(fork, platform))
                }
                (false, false, Objective::Latency) if fork.is_homogeneous() => {
                    Ok(het_fork::min_latency_uniform(fork, platform))
                }
                (false, false, Objective::LatencyUnderPeriod(bound)) if fork.is_homogeneous() => {
                    het_fork::min_latency_under_period_uniform(fork, platform, bound)
                        .ok_or_else(infeasible)
                }
                (false, false, Objective::PeriodUnderLatency(bound)) if fork.is_homogeneous() => {
                    het_fork::min_period_under_latency_uniform(fork, platform, bound)
                        .ok_or_else(infeasible)
                }
                _ => Err(self.unsupported(instance)),
            },
            // Section 6.3: fork-join inherits its fork counterpart.
            Workflow::ForkJoin(fj) => match (plat_hom, dp, instance.objective) {
                (true, _, Objective::Period) => Ok(forkjoin::min_period(fj, platform)),
                (true, _, Objective::Latency) if fj.is_homogeneous() => {
                    Ok(forkjoin::min_latency_hom(fj, platform, dp))
                }
                (true, _, Objective::LatencyUnderPeriod(bound)) if fj.is_homogeneous() => {
                    forkjoin::min_latency_under_period_hom(fj, platform, dp, bound)
                        .ok_or_else(infeasible)
                }
                (true, _, Objective::PeriodUnderLatency(bound)) if fj.is_homogeneous() => {
                    forkjoin::min_period_under_latency_hom(fj, platform, dp, bound)
                        .ok_or_else(infeasible)
                }
                (false, false, Objective::Period) if fj.is_homogeneous() => {
                    Ok(forkjoin::min_period_uniform_het(fj, platform))
                }
                (false, false, Objective::Latency) if fj.is_homogeneous() => {
                    Ok(forkjoin::min_latency_uniform_het(fj, platform))
                }
                (false, false, Objective::LatencyUnderPeriod(bound)) if fj.is_homogeneous() => {
                    forkjoin::min_latency_under_period_uniform_het(fj, platform, bound)
                        .ok_or_else(infeasible)
                }
                (false, false, Objective::PeriodUnderLatency(bound)) if fj.is_homogeneous() => {
                    forkjoin::min_period_under_latency_uniform_het(fj, platform, bound)
                        .ok_or_else(infeasible)
                }
                _ => Err(self.unsupported(instance)),
            },
        }
    }
}

impl Engine for PaperEngine {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn solve(&self, instance: &ProblemInstance, _budget: &Budget) -> Result<EngineRun, SolveError> {
        // This engine only ever solves cells whose algorithm the paper
        // proves optimal.
        self.solve_cell(instance).map(EngineRun::proven)
    }
}
