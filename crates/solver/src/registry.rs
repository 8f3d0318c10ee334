//! The engine registry: Table 1 auto-dispatch plus explicit overrides,
//! producing witness-validated [`SolveReport`]s.

use crate::engine::Engine;
use crate::engines::{
    CommBbEngine, ExactEngine, HedgeStats, HedgedEngine, HeuristicEngine, PaperEngine,
};
use crate::report::{FallbackReason, Optimality, SolveError, SolveReport};
use crate::request::{Budget, CancelToken, Deadline, EnginePref, SolveRequest};
use repliflow_core::instance::{Complexity, CostModel, GraphClass, ProblemInstance, Variant};
use repliflow_core::reliability::{reduce, ReliabilityReduction};
use repliflow_core::workflow::Workflow;
use std::time::Instant;

/// Routes every Table 1 cell to an engine and assembles reports.
///
/// [`EngineRegistry::route`] is the one routing rule; see it for the
/// policy. The registry holds one slot per engine name: the exact and
/// heuristic engines each fill two slots (`exact` / `comm-exact`,
/// `heuristic` / `comm-heuristic`), one per cost model.
#[derive(Debug)]
pub struct EngineRegistry {
    paper: PaperEngine,
    exact: ExactEngine,
    comm_exact: ExactEngine,
    heuristic: HeuristicEngine,
    comm_heuristic: HeuristicEngine,
    comm_bb: CommBbEngine,
    hedged: HedgedEngine,
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry {
            paper: PaperEngine,
            exact: ExactEngine::SIMPLIFIED,
            comm_exact: ExactEngine::COMM,
            heuristic: HeuristicEngine::SIMPLIFIED,
            comm_heuristic: HeuristicEngine::COMM,
            comm_bb: CommBbEngine,
            hedged: HedgedEngine::default(),
        }
    }
}

impl EngineRegistry {
    /// Snapshot of the hedged engine's race counters (zeroes until the
    /// first [`EnginePref::Hedged`] request races).
    pub fn hedge_stats(&self) -> HedgeStats {
        self.hedged.stats()
    }

    /// The engine a request for `instance` runs on, plus the structured
    /// reason when `Auto` declined a stronger engine. The only code that
    /// evaluates the routing guards; [`EngineRegistry::solve`] routes
    /// through it (after the reliability reduction).
    /// [`EngineRegistry::resolve_comm`] is its comm arm, and
    /// [`EngineRegistry::resolve`] an entry into its simplified arm.
    ///
    /// **Simplified model** ([`CostModel::Simplified`]), `Auto`:
    ///
    /// 1. polynomial cell with a non-strict objective → `paper` (the
    ///    theorem algorithms take non-strict bounds only);
    /// 2. instance within [`Budget::fits_exact`] → `exact`;
    /// 3. otherwise → `heuristic`.
    ///
    /// **Communication-aware** ([`CostModel::WithComm`]) instances have
    /// no polynomial cells — the paper analyzes only the simplified
    /// model — so `Auto` tries:
    ///
    /// 1. `comm-exact` within [`Budget::fits_exact`];
    /// 2. a binding reliability bound → `comm-heuristic` with
    ///    [`FallbackReason::ReliabilityBound`] (`comm-bb` prunes on
    ///    period/latency bounds only and cannot enforce it);
    /// 3. `comm-bb` within its guard: stages within
    ///    `min(budget.max_comm_bb_stages,`
    ///    [`comm_bb::MAX_STAGES`]`)`, fork/fork-join leaves within
    ///    `budget.max_comm_bb_fork_leaves`, and processors within
    ///    `budget.max_comm_bb_procs` **or** — the symmetry escape hatch
    ///    — within the engine's wide-mask capacity
    ///    ([`comm_bb::MAX_PROCS`] = 128) with a symmetry-reduced
    ///    branching width `Π (class_size + 1)` over the platform's
    ///    processor equivalence classes no larger than
    ///    `2^budget.max_comm_bb_procs` (clamped at `2^20`). A
    ///    homogeneous 33-processor platform collapses to one class
    ///    (width 34) and is admitted; 33 distinct speeds are not;
    /// 4. otherwise → `comm-heuristic`, with the declined `comm-bb`
    ///    guard as the [`FallbackReason`].
    ///
    /// **Explicit preferences** never report a fallback. `Exact` and
    /// `Heuristic` pick the cost model's slot; `CommBb` and `Hedged`
    /// refuse simplified instances (which already have a proven
    /// route); `Paper` refuses every communication-aware instance and
    /// every NP-hard or strict-bound simplified one.
    ///
    /// [`comm_bb::MAX_STAGES`]: repliflow_exact::comm_bb::MAX_STAGES
    /// [`comm_bb::MAX_PROCS`]: repliflow_exact::comm_bb::MAX_PROCS
    pub fn route(
        &self,
        instance: &ProblemInstance,
        pref: EnginePref,
        budget: &Budget,
    ) -> Result<(&dyn Engine, Option<FallbackReason>), SolveError> {
        let variant = instance.variant();
        if instance.cost_model.is_comm_aware() {
            self.resolve_comm(pref, &variant, instance, budget)
        } else {
            let strict = instance.objective.is_strict();
            let engine =
                self.route_simplified(pref, &variant, strict, budget.fits_exact(instance))?;
            Ok((engine, None))
        }
    }

    /// The simplified arm of [`EngineRegistry::route`]; `fits_exact`
    /// is the answer of [`Budget::fits_exact`].
    fn route_simplified(
        &self,
        pref: EnginePref,
        variant: &Variant,
        strict: bool,
        fits_exact: bool,
    ) -> Result<&dyn Engine, SolveError> {
        let polynomial = !strict && matches!(variant.paper_complexity(), Complexity::Polynomial(_));
        let refused: &dyn Engine = match pref {
            EnginePref::Auto | EnginePref::Paper if polynomial => return Ok(&self.paper),
            EnginePref::Auto if fits_exact => return Ok(&self.exact),
            EnginePref::Auto | EnginePref::Heuristic => return Ok(&self.heuristic),
            EnginePref::Exact => return Ok(&self.exact),
            EnginePref::Paper => &self.paper,
            EnginePref::CommBb => &self.comm_bb,
            EnginePref::Hedged => &self.hedged,
        };
        Err(SolveError::Unsupported {
            engine: refused.name(),
            variant: *variant,
        })
    }

    /// The engine a **communication-aware** request routes to: the comm
    /// arm of [`EngineRegistry::route`], with the refusal error naming
    /// `variant`.
    pub fn resolve_comm(
        &self,
        pref: EnginePref,
        variant: &Variant,
        instance: &ProblemInstance,
        budget: &Budget,
    ) -> Result<(&dyn Engine, Option<FallbackReason>), SolveError> {
        match pref {
            EnginePref::Paper => {
                return Err(SolveError::Unsupported {
                    engine: self.paper.name(),
                    variant: *variant,
                })
            }
            EnginePref::Exact => return Ok((&self.comm_exact, None)),
            EnginePref::CommBb => return Ok((&self.comm_bb, None)),
            EnginePref::Hedged => return Ok((&self.hedged, None)),
            EnginePref::Heuristic => return Ok((&self.comm_heuristic, None)),
            EnginePref::Auto => {}
        }
        if budget.fits_exact(instance) {
            return Ok((&self.comm_exact, None));
        }
        if matches!(reduce(instance), ReliabilityReduction::Binding(_)) {
            return Ok((&self.comm_heuristic, Some(FallbackReason::ReliabilityBound)));
        }
        let n_stages = instance.workflow.n_stages();
        let n_procs = instance.platform.n_procs();
        let leaves = match &instance.workflow {
            Workflow::Pipeline(_) => None,
            Workflow::Fork(f) => Some(f.n_leaves()),
            Workflow::ForkJoin(fj) => Some(fj.n_leaves()),
        };
        let stage_cap = budget
            .max_comm_bb_stages
            .min(repliflow_exact::comm_bb::MAX_STAGES);
        let stages_ok = n_stages <= stage_cap;
        let leaves_ok = leaves.is_none_or(|l| l <= budget.max_comm_bb_fork_leaves);
        let procs_ok = n_procs <= budget.max_comm_bb_procs
            || (n_procs <= repliflow_exact::comm_bb::MAX_PROCS
                && Self::symmetry_width(instance)
                    .is_some_and(|w| w <= 1u128 << budget.max_comm_bb_procs.min(20)));
        if stages_ok && leaves_ok && procs_ok {
            return Ok((&self.comm_bb, None));
        }
        let reason = if !stages_ok {
            FallbackReason::CommBbStages {
                n_stages,
                cap: stage_cap,
            }
        } else if !leaves_ok {
            FallbackReason::CommBbForkLeaves {
                leaves: leaves.unwrap_or(0),
                cap: budget.max_comm_bb_fork_leaves,
            }
        } else {
            FallbackReason::CommBbProcs {
                n_procs,
                cap: if n_procs > repliflow_exact::comm_bb::MAX_PROCS {
                    repliflow_exact::comm_bb::MAX_PROCS
                } else {
                    budget.max_comm_bb_procs
                },
            }
        };
        Ok((&self.comm_heuristic, Some(reason)))
    }

    /// The symmetry-reduced root branching width of a comm-aware
    /// instance: `Π (class_size + 1)` over the platform's processor
    /// equivalence classes (saturating), the quantity the comm-bb
    /// canonical subset enumeration actually branches over. `None` for
    /// non-comm instances.
    fn symmetry_width(instance: &ProblemInstance) -> Option<u128> {
        let CostModel::WithComm { network, .. } = &instance.cost_model else {
            return None;
        };
        let classes = repliflow_exact::comm_equiv_class_sizes(&instance.platform, network);
        Some(
            classes
                .iter()
                .fold(1u128, |acc, &c| acc.saturating_mul(c as u128 + 1)),
        )
    }

    /// The engine a **simplified-model** request with a non-strict
    /// objective routes to, from its cell and size alone: the
    /// simplified arm of [`EngineRegistry::route`], with the exact
    /// guard evaluated on the leaf count the graph class implies
    /// (`n_stages − 1` for forks, `n_stages − 2` for fork-joins). Fails
    /// only where `route` refuses.
    pub fn resolve(
        &self,
        pref: EnginePref,
        variant: &Variant,
        n_stages: usize,
        n_procs: usize,
        budget: &Budget,
    ) -> Result<&dyn Engine, SolveError> {
        let leaves = match variant.graph {
            GraphClass::HomPipeline | GraphClass::HetPipeline => 0,
            GraphClass::HomFork | GraphClass::HetFork => n_stages.saturating_sub(1),
            GraphClass::HomForkJoin | GraphClass::HetForkJoin => n_stages.saturating_sub(2),
        };
        let fits_exact = budget.allows_exact(n_stages, n_procs)
            && crate::engines::representable(n_procs, leaves);
        self.route_simplified(pref, variant, false, fits_exact)
    }

    /// Solves one request end to end: serving controls, reliability
    /// reduction, route, solve, validate, report.
    ///
    /// An expired [`Deadline`] fails fast with
    /// [`SolveError::DeadlineExceeded`], a cancelled [`CancelToken`]
    /// with [`SolveError::Cancelled`], and a live deadline clamps the
    /// effective `bb_time_limit_ms` so a budgeted search degrades to
    /// its incumbent instead of overrunning. A mis-sized network is a
    /// request error before anything else looks at the instance.
    ///
    /// Reliability-bounded objectives are *reduced* before routing
    /// ([`reliability::reduce`]): a bound above 1 is proven
    /// unattainable outright (no mapping of any kind can reach it), and
    /// a bound that cannot bind — fail-free platform, or bound ≤ 0 —
    /// solves as its unbounded counterpart while still reporting under
    /// the requested variant. Only genuinely binding bounds reach the
    /// engines.
    ///
    /// [`reliability::reduce`]: repliflow_core::reliability::reduce
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveReport, SolveError> {
        let budget =
            Self::effective_budget(&request.budget, request.deadline, request.cancel.as_ref())?;
        let instance = &request.instance;
        if let CostModel::WithComm { network, .. } = &instance.cost_model {
            if network.n_procs() != instance.platform.n_procs() {
                return Err(SolveError::NetworkMismatch {
                    expected: instance.platform.n_procs(),
                    got: network.n_procs(),
                });
            }
        }
        let (pref, validate) = (request.engine, request.validate_witness);
        match reduce(instance) {
            ReliabilityReduction::Unattainable => {
                // success probabilities never exceed 1, so no engine
                // could do better than proving this infeasible
                let variant = instance.variant();
                Ok(SolveReport {
                    variant,
                    complexity: variant.paper_complexity(),
                    cost_model: instance.cost_model.clone(),
                    engine_used: "reliability",
                    optimality: Optimality::Infeasible,
                    mapping: None,
                    period: None,
                    latency: None,
                    objective_value: None,
                    search: None,
                    fallback: None,
                    provenance: crate::report::Provenance::Computed,
                    wall_time: std::time::Duration::ZERO,
                    canonical: Default::default(),
                })
            }
            ReliabilityReduction::Trivial(objective) => {
                let relaxed = ProblemInstance {
                    objective,
                    ..instance.clone()
                };
                let mut report = self.solve_routed(&relaxed, pref, &budget, validate)?;
                // classification follows the *requested* objective
                report.variant = instance.variant();
                report.complexity = report.variant.paper_complexity();
                Ok(report)
            }
            ReliabilityReduction::NotBounded | ReliabilityReduction::Binding(_) => {
                self.solve_routed(instance, pref, &budget, validate)
            }
        }
    }

    /// Applies the serving controls to a budget: fails fast on expired
    /// deadlines / cancelled tokens, otherwise returns the effective
    /// budget with `bb_time_limit_ms` clamped to the time remaining —
    /// so a deadline that expires mid-search degrades the run to its
    /// incumbent exactly like the standing time limit does. (The
    /// serving cache never writes back results computed under a
    /// deadline, so a clamped-and-degraded incumbent cannot leak to
    /// full-budget requests.)
    pub(crate) fn effective_budget(
        budget: &Budget,
        deadline: Option<Deadline>,
        cancel: Option<&CancelToken>,
    ) -> Result<Budget, SolveError> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SolveError::Cancelled);
        }
        let Some(deadline) = deadline else {
            return Ok(*budget);
        };
        let Some(remaining) = deadline.remaining() else {
            return Err(SolveError::DeadlineExceeded);
        };
        let remaining_ms = remaining
            .as_millis()
            .clamp(1, u64::MAX as u128) // a live deadline grants at least 1ms
            as u64;
        let mut effective = *budget;
        effective.bb_time_limit_ms = if effective.bb_time_limit_ms == 0 {
            remaining_ms
        } else {
            effective.bb_time_limit_ms.min(remaining_ms)
        };
        Ok(effective)
    }

    /// Routes and runs one solve under an already-effective budget (the
    /// serving controls and reliability reduction have been applied by
    /// [`EngineRegistry::solve`]).
    fn solve_routed(
        &self,
        instance: &ProblemInstance,
        pref: EnginePref,
        budget: &Budget,
        validate_witness: bool,
    ) -> Result<SolveReport, SolveError> {
        let (engine, fallback) = self.route(instance, pref, budget)?;
        let variant = instance.variant();

        let start = Instant::now();
        let outcome = engine.solve(instance, budget);
        let wall_time = start.elapsed();

        let (optimality, solved, search) = match outcome {
            Ok(run) => {
                let optimality = if run.optimal {
                    Optimality::Proven
                } else {
                    Optimality::Heuristic
                };
                (optimality, Some(run.solved), run.search)
            }
            Err(SolveError::Infeasible { best_effort }) => {
                (Optimality::Infeasible, best_effort.map(|b| *b), None)
            }
            Err(e) => return Err(e),
        };

        let Some(solved) = solved else {
            return Ok(SolveReport {
                variant,
                complexity: variant.paper_complexity(),
                cost_model: instance.cost_model.clone(),
                engine_used: engine.name(),
                optimality,
                mapping: None,
                period: None,
                latency: None,
                objective_value: None,
                search,
                fallback,
                provenance: crate::report::Provenance::Computed,
                wall_time,
                canonical: Default::default(),
            });
        };

        if validate_witness {
            self.validate(instance, &solved)?;
        }
        // Defense in depth: an engine may legally return a mapping that
        // misses a bi-criteria or reliability bound (heuristics); never
        // report it as a solution.
        let optimality = if instance
            .objective
            .meets_bound(solved.period, solved.latency)
            && instance.meets_reliability_bound(&solved.mapping)
        {
            optimality
        } else {
            Optimality::Infeasible
        };
        let mut report = SolveReport::from_solved(
            variant,
            instance.cost_model.clone(),
            engine.name(),
            optimality,
            solved,
            search,
            wall_time,
        );
        report.fallback = fallback;
        Ok(report)
    }

    /// Re-derives the witness's legality and objective values through
    /// the instance's cost model (the simplified Section 3.4 evaluators
    /// or the communication-aware general-model evaluators); any
    /// disagreement with the engine's claim is an engine bug surfaced as
    /// [`SolveError::InvalidWitness`]. Communication-aware pipeline
    /// witnesses on single-processor intervals are additionally
    /// re-executed by the `repliflow-sim` discrete-event simulator — an
    /// independent implementation of the same semantics.
    fn validate(
        &self,
        instance: &ProblemInstance,
        solved: &repliflow_algorithms::Solved,
    ) -> Result<(), SolveError> {
        solved
            .mapping
            .validate(
                &instance.workflow,
                &instance.platform,
                instance.allow_data_parallel,
            )
            .map_err(|e| SolveError::InvalidWitness(format!("illegal mapping: {e}")))?;
        let (period, latency) = instance
            .objectives(&solved.mapping)
            .map_err(|e| SolveError::InvalidWitness(format!("cost evaluation: {e}")))?;
        if period != solved.period || latency != solved.latency {
            return Err(SolveError::InvalidWitness(format!(
                "claimed (period {}, latency {}) but cost model gives ({period}, {latency})",
                solved.period, solved.latency
            )));
        }
        self.cross_check_sim(instance, solved)
    }

    /// Independent simulator cross-check for communication-aware
    /// witnesses mapped one processor per group: pipelines re-execute
    /// through the pull/compute/push discrete-event simulation (period
    /// and latency), forks through the broadcast/output-port simulation
    /// and fork-joins through its join-phase extension (latency — the
    /// analytic period's busy-time accounting is not an executable
    /// schedule). Exactly the classes where the paper's closed formulas,
    /// our general-mapping evaluators and a discrete-event execution
    /// must all agree.
    fn cross_check_sim(
        &self,
        instance: &ProblemInstance,
        solved: &repliflow_algorithms::Solved,
    ) -> Result<(), SolveError> {
        use repliflow_core::comm::IntervalAlloc;
        use repliflow_core::mapping::Mode;
        use repliflow_core::rational::Rat;
        use repliflow_core::workflow::Workflow;

        let CostModel::WithComm { network, comm, .. } = &instance.cost_model else {
            return Ok(());
        };
        let single_proc = solved
            .mapping
            .assignments()
            .iter()
            .all(|a| a.n_procs() == 1 && a.mode == Mode::Replicated);
        if !single_proc {
            return Ok(()); // the simulators model single-proc groups only
        }
        let Workflow::Pipeline(pipe) = &instance.workflow else {
            return match &instance.workflow {
                Workflow::Fork(fork) => {
                    self.cross_check_fork_sim(instance, fork, network, *comm, solved)
                }
                Workflow::ForkJoin(fj) => {
                    self.cross_check_forkjoin_sim(instance, fj, network, *comm, solved)
                }
                Workflow::Pipeline(_) => unreachable!("handled by the let-else"),
            };
        };
        let mut alloc: Vec<IntervalAlloc> = solved
            .mapping
            .assignments()
            .iter()
            .map(|a| IntervalAlloc {
                lo: a.stages()[0],
                hi: *a.stages().last().unwrap(),
                proc: a.procs()[0],
            })
            .collect();
        alloc.sort_by_key(|a| a.lo);

        let sim = repliflow_sim::simulate_pipeline_with_comm(
            pipe,
            &instance.platform,
            network,
            &alloc,
            repliflow_sim::Feed::Saturated,
            8 * alloc.len().max(1) + 8,
        );
        let measured = sim.measured_period(8);
        if measured != solved.period {
            return Err(SolveError::InvalidWitness(format!(
                "simulator measured period {measured} but the report claims {}",
                solved.period
            )));
        }
        let sim = repliflow_sim::simulate_pipeline_with_comm(
            pipe,
            &instance.platform,
            network,
            &alloc,
            repliflow_sim::Feed::Interval(solved.latency + Rat::ONE),
            4,
        );
        let measured = sim.max_latency();
        if measured != solved.latency {
            return Err(SolveError::InvalidWitness(format!(
                "simulator measured latency {measured} but the report claims {}",
                solved.latency
            )));
        }
        Ok(())
    }

    /// Fork counterpart of the simulator cross-check: re-executes a
    /// single-processor-per-group comm witness through the
    /// `repliflow-sim` fork broadcast simulation and compares the
    /// isolated-data-set latency with the report's claim.
    fn cross_check_fork_sim(
        &self,
        instance: &ProblemInstance,
        fork: &repliflow_core::workflow::Fork,
        network: &repliflow_core::comm::Network,
        comm: repliflow_core::comm::CommModel,
        solved: &repliflow_algorithms::Solved,
    ) -> Result<(), SolveError> {
        use repliflow_core::comm::ForkAlloc;
        use repliflow_core::rational::Rat;

        // sort root group first, then ascending first stage — the group
        // order the one-port broadcast serializes in
        let mut groups: Vec<&repliflow_core::mapping::Assignment> =
            solved.mapping.assignments().iter().collect();
        groups.sort_by_key(|a| a.stages()[0]);
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
            comm,
            instance.cost_model.start_rule(),
            repliflow_sim::Feed::Interval(solved.latency + Rat::ONE),
            3,
        );
        let measured = sim.max_latency();
        if measured != solved.latency {
            return Err(SolveError::InvalidWitness(format!(
                "fork simulator measured latency {measured} but the report claims {}",
                solved.latency
            )));
        }
        Ok(())
    }

    /// Fork-join counterpart of the simulator cross-check: re-executes a
    /// single-processor-per-group comm witness through the
    /// `repliflow-sim` fork-join simulation (broadcast in, leaf outputs
    /// to the join group, join phase last) and compares the
    /// isolated-data-set latency with the report's claim.
    fn cross_check_forkjoin_sim(
        &self,
        instance: &ProblemInstance,
        fj: &repliflow_core::workflow::ForkJoin,
        network: &repliflow_core::comm::Network,
        comm: repliflow_core::comm::CommModel,
        solved: &repliflow_algorithms::Solved,
    ) -> Result<(), SolveError> {
        use repliflow_core::rational::Rat;
        use repliflow_sim::ForkJoinAlloc;

        // sort root group first, then ascending first stage — the group
        // order the one-port broadcast serializes in
        let mut groups: Vec<&repliflow_core::mapping::Assignment> =
            solved.mapping.assignments().iter().collect();
        groups.sort_by_key(|a| a.stages()[0]);
        let join = fj.join_stage();
        let join_group = groups
            .iter()
            .position(|a| a.contains_stage(join))
            .expect("validated mapping places the join stage");
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
            comm,
            instance.cost_model.start_rule(),
            repliflow_sim::Feed::Interval(solved.latency + Rat::ONE),
            3,
        );
        let measured = sim.max_latency();
        if measured != solved.latency {
            return Err(SolveError::InvalidWitness(format!(
                "fork-join simulator measured latency {measured} but the report claims {}",
                solved.latency
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::instance::{Objective, ProblemInstance};
    use repliflow_core::platform::Platform;
    use repliflow_core::rational::Rat;
    use repliflow_core::workflow::{ForkJoin, Pipeline};

    fn section2(objective: Objective) -> ProblemInstance {
        ProblemInstance {
            cost_model: repliflow_core::instance::CostModel::Simplified,
            workflow: Pipeline::new(vec![14, 4, 2, 4]).into(),
            platform: Platform::homogeneous(3, 1),
            allow_data_parallel: true,
            objective,
        }
    }

    #[test]
    fn auto_routes_polynomial_cell_to_paper_engine() {
        let registry = EngineRegistry::default();
        let report = registry
            .solve(&SolveRequest::new(section2(Objective::Period)))
            .unwrap();
        assert_eq!(report.engine_used, "paper");
        assert_eq!(report.optimality, Optimality::Proven);
        assert_eq!(report.period.unwrap(), Rat::int(8));
        assert_eq!(report.objective_value, report.period);
    }

    #[test]
    fn exact_override_agrees_with_paper() {
        let registry = EngineRegistry::default();
        let auto = registry
            .solve(&SolveRequest::new(section2(Objective::Latency)))
            .unwrap();
        let exact = registry
            .solve(&SolveRequest::new(section2(Objective::Latency)).engine(EnginePref::Exact))
            .unwrap();
        assert_eq!(auto.objective_value, exact.objective_value);
        assert_eq!(exact.engine_used, "exact");
    }

    #[test]
    fn infeasible_bound_reported_not_errored() {
        let registry = EngineRegistry::default();
        // No mapping of 24 total work on 3 unit processors beats period 1.
        let report = registry
            .solve(&SolveRequest::new(section2(Objective::LatencyUnderPeriod(
                Rat::ONE,
            ))))
            .unwrap();
        assert_eq!(report.optimality, Optimality::Infeasible);
    }

    #[test]
    fn heuristic_override_handles_forkjoin() {
        let registry = EngineRegistry::default();
        let instance = ProblemInstance::new(
            ForkJoin::new(3, vec![5, 1, 4, 2], 2),
            Platform::heterogeneous(vec![3, 2, 1]),
            false,
            Objective::Latency,
        );
        let report = registry
            .solve(&SolveRequest::new(instance).engine(EnginePref::Heuristic))
            .unwrap();
        assert_eq!(report.engine_used, "heuristic");
        assert_eq!(report.optimality, Optimality::Heuristic);
        assert!(report.has_mapping());
    }

    #[test]
    fn paper_override_refuses_np_hard_cell() {
        let registry = EngineRegistry::default();
        let instance = ProblemInstance {
            cost_model: repliflow_core::instance::CostModel::Simplified,
            workflow: Pipeline::new(vec![5, 3, 9]).into(),
            platform: Platform::heterogeneous(vec![2, 1]),
            allow_data_parallel: false,
            objective: Objective::Period, // Theorem 9: NP-hard
        };
        let err = registry
            .solve(&SolveRequest::new(instance).engine(EnginePref::Paper))
            .unwrap_err();
        assert!(matches!(err, SolveError::Unsupported { .. }));
    }

    #[test]
    fn comm_bb_override_refuses_simplified_instances() {
        // The branch-and-bound prices mappings under the general model;
        // simplified instances already have a proven-optimal route.
        let registry = EngineRegistry::default();
        let err = registry
            .solve(&SolveRequest::new(section2(Objective::Period)).engine(EnginePref::CommBb))
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Unsupported {
                engine: "comm-bb",
                ..
            }
        ));
    }
}
