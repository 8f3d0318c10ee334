//! The two witness checks the registry runs after an engine: the cost
//! model's re-evaluation (`repliflow-core`) and, for communication-aware
//! witnesses with one processor per group, the discrete-event replay
//! (`repliflow-sim`). The traced run calls them directly so each gets
//! its own span.

use repliflow_core::comm::{ForkAlloc, IntervalAlloc};
use repliflow_core::instance::{CostModel, ProblemInstance};
use repliflow_core::mapping::{Assignment, Mode};
use repliflow_core::rational::Rat;
use repliflow_core::workflow::Workflow;
use repliflow_sim::{Feed, ForkJoinAlloc};
use repliflow_solver::SolveReport;

/// Re-evaluates the witness through the instance's cost model and
/// compares it with the report's claim. `None` when there is no witness.
pub fn cost_eval(instance: &ProblemInstance, report: &SolveReport) -> Option<Result<(), String>> {
    let mapping = report.mapping.as_ref()?;
    Some(match instance.objectives(mapping) {
        Ok((period, latency))
            if Some(period) == report.period && Some(latency) == report.latency =>
        {
            Ok(())
        }
        Ok((period, latency)) => Err(format!(
            "cost model gives ({period}, {latency}) for a witness claimed as ({:?}, {:?})",
            report.period, report.latency
        )),
        Err(e) => Err(format!("cost evaluation failed: {e}")),
    })
}

/// Whether the registry cross-checks this witness in the simulator.
pub fn simulated(instance: &ProblemInstance, report: &SolveReport) -> bool {
    instance.cost_model.is_comm_aware()
        && report.mapping.as_ref().is_some_and(|m| {
            m.assignments()
                .iter()
                .all(|a| a.n_procs() == 1 && a.mode == Mode::Replicated)
        })
}

/// Replays a single-processor-per-group communication-aware witness in
/// the discrete-event simulator and compares the measured latency (and
/// for pipelines the period) with the report.
pub fn sim_replay(instance: &ProblemInstance, report: &SolveReport) -> Result<(), String> {
    let (Some(mapping), Some(period), Some(latency)) =
        (&report.mapping, report.period, report.latency)
    else {
        return Err("no witness to replay".into());
    };
    let CostModel::WithComm { network, comm, .. } = &instance.cost_model else {
        return Err("not a communication-aware instance".into());
    };
    let feed = Feed::Interval(latency + Rat::ONE);
    let mut groups: Vec<&Assignment> = mapping.assignments().iter().collect();
    groups.sort_by_key(|a| a.stages()[0]);
    let (measured_period, measured_latency) = match &instance.workflow {
        Workflow::Pipeline(pipe) => {
            let alloc: Vec<IntervalAlloc> = groups
                .iter()
                .map(|a| IntervalAlloc {
                    lo: a.stages()[0],
                    hi: *a.stages().last().expect("groups are non-empty"),
                    proc: a.procs()[0],
                })
                .collect();
            let saturated = repliflow_sim::simulate_pipeline_with_comm(
                pipe,
                &instance.platform,
                network,
                &alloc,
                Feed::Saturated,
                8 * alloc.len() + 8,
            );
            let spaced = repliflow_sim::simulate_pipeline_with_comm(
                pipe,
                &instance.platform,
                network,
                &alloc,
                feed,
                4,
            );
            (Some(saturated.measured_period(8)), spaced.max_latency())
        }
        Workflow::Fork(fork) => {
            let alloc = ForkAlloc {
                groups: groups
                    .iter()
                    .map(|a| a.stages().iter().copied().filter(|&s| s != 0).collect())
                    .collect(),
                procs: groups.iter().map(|a| a.procs()[0]).collect(),
            };
            let sim = repliflow_sim::simulate_fork_with_comm(
                fork,
                &instance.platform,
                network,
                &alloc,
                *comm,
                instance.cost_model.start_rule(),
                feed,
                3,
            );
            (None, sim.max_latency())
        }
        Workflow::ForkJoin(fj) => {
            let join = fj.join_stage();
            let join_group = groups
                .iter()
                .position(|a| a.contains_stage(join))
                .ok_or("the witness does not place the join stage")?;
            let alloc = ForkJoinAlloc {
                groups: groups
                    .iter()
                    .map(|a| {
                        a.stages()
                            .iter()
                            .copied()
                            .filter(|&s| s != 0 && s != join)
                            .collect()
                    })
                    .collect(),
                procs: groups.iter().map(|a| a.procs()[0]).collect(),
                join_group,
            };
            let sim = repliflow_sim::simulate_forkjoin_with_comm(
                fj,
                &instance.platform,
                network,
                &alloc,
                *comm,
                instance.cost_model.start_rule(),
                feed,
                3,
            );
            (None, sim.max_latency())
        }
    };
    if measured_period.is_some_and(|p| p != period) || measured_latency != latency {
        return Err(format!(
            "simulator measured ({measured_period:?}, {measured_latency}) \
             for a witness claimed as ({period}, {latency})"
        ));
    }
    Ok(())
}
