//! Integration tests of the communication-aware solve path: routing,
//! witness re-validation through the general-model evaluators and the
//! simulator, and the infinite-bandwidth degeneracy that anchors the
//! extension — comm-aware solving over a free network reproduces every
//! simplified-model result on the golden instance set.

use repliflow_core::comm::{pipeline_period_with_comm, IntervalAlloc};
use repliflow_core::gen::Gen;
use repliflow_core::instance::{Objective, ProblemInstance};
use repliflow_core::mapping::Mode;
use repliflow_core::platform::Platform;
use repliflow_core::workflow::{Fork, ForkJoin, Pipeline, Workflow};
use repliflow_heuristics::score::score_instance;
use repliflow_solver::{
    Budget, CommModel, CostModel, EnginePref, EngineRegistry, FallbackReason, Network, Optimality,
    Quality, SolveError, SolveRequest,
};
use std::path::PathBuf;

fn golden_instances() -> Vec<(PathBuf, ProblemInstance)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/instances");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("instances directory is readable")
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let json = std::fs::read_to_string(&p).unwrap();
            let instance: ProblemInstance =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{p:?} does not parse: {e}"));
            (p, instance)
        })
        .collect()
}

fn one_port(network: Network) -> CostModel {
    CostModel::WithComm {
        network,
        comm: CommModel::OnePort,
        overlap: true,
    }
}

/// A small communication-heavy pipeline instance whose heterogeneous
/// input/output links make a single-processor-per-interval mapping
/// optimal (replication would be billed at the slow links).
fn comm_pipeline_instance() -> ProblemInstance {
    let network = Network::heterogeneous(
        vec![vec![1, 1, 1], vec![1, 1, 1], vec![1, 1, 1]],
        vec![16, 1, 1],
        vec![16, 16, 1],
    );
    ProblemInstance {
        workflow: Pipeline::with_data_sizes(vec![8, 4], vec![8, 2, 8]).into(),
        platform: Platform::heterogeneous(vec![2, 2, 1]),
        allow_data_parallel: false,
        objective: Objective::Period,
        cost_model: one_port(network),
    }
}

#[test]
fn with_comm_routes_to_comm_exact_within_guard() {
    let registry = EngineRegistry::default();
    let report = registry
        .solve(&SolveRequest::new(comm_pipeline_instance()))
        .unwrap();
    assert_eq!(report.engine_used, "comm-exact");
    assert_eq!(report.optimality, Optimality::Proven);
    assert!(report.cost_model.is_comm_aware());
    assert!(report.has_mapping());
}

#[test]
fn with_comm_routes_to_comm_bb_beyond_enumeration_guard() {
    // Between the enumeration guard and the branch-and-bound guard the
    // auto route now proves optimality via comm-bb instead of falling
    // back to the heuristic.
    let registry = EngineRegistry::default();
    let tiny = Budget {
        max_comm_exact_stages: 0,
        max_comm_exact_procs: 0,
        ..Budget::default()
    };
    let report = registry
        .solve(&SolveRequest::new(comm_pipeline_instance()).budget(tiny))
        .unwrap();
    assert_eq!(report.engine_used, "comm-bb");
    assert_eq!(report.optimality, Optimality::Proven);
    assert!(report.search.unwrap().completed);
    assert!(report.has_mapping());
}

#[test]
fn with_comm_routes_to_comm_heuristic_beyond_bb_guard() {
    let registry = EngineRegistry::default();
    let tiny = Budget {
        max_comm_exact_stages: 0,
        max_comm_exact_procs: 0,
        max_comm_bb_stages: 0,
        max_comm_bb_procs: 0,
        ..Budget::default()
    };
    let report = registry
        .solve(&SolveRequest::new(comm_pipeline_instance()).budget(tiny))
        .unwrap();
    assert_eq!(report.engine_used, "comm-heuristic");
    assert_eq!(report.optimality, Optimality::Heuristic);
    assert!(report.search.is_none());
    assert!(report.has_mapping());
}

#[test]
fn comm_bb_surfaces_stage_capacity_as_an_error() {
    // 129 stages exceed the wide-mask stage capacity (128); a forced
    // comm-bb request must get a clean error, not a process abort.
    let registry = EngineRegistry::default();
    let instance = ProblemInstance {
        workflow: Pipeline::with_data_sizes(vec![1; 129], vec![1; 130]).into(),
        platform: Platform::homogeneous(2, 1),
        allow_data_parallel: false,
        objective: Objective::Period,
        cost_model: one_port(Network::uniform(2, 1)),
    };
    let err = registry
        .solve(&SolveRequest::new(instance).engine(EnginePref::CommBb))
        .unwrap_err();
    assert!(matches!(
        err,
        SolveError::ExceedsExactCapacity { n_stages: 129, .. }
    ));
}

#[test]
fn comm_bb_surfaces_processor_capacity_as_an_error() {
    // 129 processors exceed the wide-mask processor capacity (128); a
    // forced comm-bb request must get a clean capacity error before the
    // search starts — not a process abort, and certainly not a silently
    // truncated mask.
    let registry = EngineRegistry::default();
    let instance = ProblemInstance {
        workflow: Pipeline::with_data_sizes(vec![3, 5], vec![1, 1, 1]).into(),
        platform: Platform::homogeneous(129, 1),
        allow_data_parallel: false,
        objective: Objective::Period,
        cost_model: one_port(Network::uniform(129, 1)),
    };
    let err = registry
        .solve(&SolveRequest::new(instance).engine(EnginePref::CommBb))
        .unwrap_err();
    assert!(matches!(
        err,
        SolveError::ExceedsExactCapacity { n_procs: 129, .. }
    ));
}

#[test]
fn auto_proves_homogeneous_p33_through_comm_bb_under_default_budget() {
    // The headline of the lifted caps: 33 processors used to be beyond
    // the u32 masks (and beyond every budget guard), so this instance
    // could only ever get a heuristic answer. The wide-mask search plus
    // the symmetry escape hatch (a homogeneous platform collapses to a
    // single equivalence class, root branching width 34) now proves it
    // under the *default* budget.
    let registry = EngineRegistry::default();
    let instance = ProblemInstance {
        workflow: Pipeline::with_data_sizes(vec![3, 5], vec![1, 1, 1]).into(),
        platform: Platform::homogeneous(33, 1),
        allow_data_parallel: false,
        objective: Objective::Period,
        cost_model: one_port(Network::uniform(33, 1)),
    };
    let report = registry.solve(&SolveRequest::new(instance)).unwrap();
    assert_eq!(report.engine_used, "comm-bb");
    assert_eq!(report.optimality, Optimality::Proven);
    assert!(report.search.unwrap().completed);
    assert!(report.fallback.is_none());
    assert!(report.has_mapping());
}

#[test]
fn auto_surfaces_heuristic_fallback_reason_at_the_processor_cap() {
    // 33 *distinct-speed* processors defeat the symmetry escape hatch
    // (33 singleton classes, width 2^33 > 2^8), so the default budget
    // falls back to the heuristic — and the report must say why, as a
    // structured reason, instead of silently downgrading. One processor
    // fewer on the budget guard itself (p = 8 homogeneous would route
    // to comm-bb) pins the boundary from the admitted side below in
    // `auto_routing_is_exact_at_the_budget_boundaries`.
    let registry = EngineRegistry::default();
    let instance = ProblemInstance {
        workflow: Pipeline::with_data_sizes(vec![3, 5], vec![1, 1, 1]).into(),
        platform: Platform::heterogeneous((1..=33).collect()),
        allow_data_parallel: false,
        objective: Objective::Period,
        cost_model: one_port(Network::uniform(33, 1)),
    };
    // Routing guards stay at their defaults (that's what's under test);
    // only the heuristic's effort knobs are trimmed for suite speed.
    let budget = Budget {
        local_search_rounds: 1,
        quality: Quality::Fast,
        ..Budget::default()
    };
    let report = registry
        .solve(&SolveRequest::new(instance).budget(budget))
        .unwrap();
    assert_eq!(report.engine_used, "comm-heuristic");
    assert_eq!(report.optimality, Optimality::Heuristic);
    assert!(report.has_mapping());
    let reason = report.fallback.expect("auto fallback carries a reason");
    assert!(matches!(
        reason,
        FallbackReason::CommBbProcs {
            n_procs: 33,
            cap: 8
        }
    ));
    assert!(report
        .canonical_json()
        .contains("\"fallback\":\"comm-bb declined: 33 processors > cap 8\""));
}

/// The `Auto` boundary instances: an `n`-stage uniform comm pipeline on
/// `p` processors. The budget keeps the default routing guards but
/// strips the routed engines down to near-nothing (tiny node/time
/// limits, one local-search round, no annealing) — routing decisions
/// don't depend on those knobs, and the big-`p` rows would otherwise
/// spend minutes in the heuristic portfolio.
fn boundary_instance(n: usize, p: usize) -> (ProblemInstance, Budget) {
    let instance = ProblemInstance {
        workflow: Pipeline::with_data_sizes(vec![2; n], vec![1; n + 1]).into(),
        platform: Platform::homogeneous(p, 1),
        allow_data_parallel: false,
        objective: Objective::Period,
        cost_model: one_port(Network::uniform(p, 2)),
    };
    let budget = Budget {
        bb_node_limit: 10_000,
        bb_time_limit_ms: 500,
        local_search_rounds: 1,
        quality: Quality::Fast,
        ..Budget::default()
    };
    (instance, budget)
}

#[test]
fn auto_routing_is_exact_at_the_budget_boundaries() {
    // The default guards: comm-exact ≤ 6 stages / ≤ 5 procs, comm-bb
    // ≤ 12 stages / ≤ 8 procs — but these boundary instances are
    // *homogeneous*, so past the raw processor guard the symmetry
    // escape hatch keeps admitting comm-bb (one equivalence class,
    // width p + 1 ≤ 2^8) all the way to the 128-processor mask
    // capacity; comm-heuristic beyond. Each boundary and its off-by-one
    // neighbor routes to the documented engine.
    let registry = EngineRegistry::default();
    for (n, p, expected) in [
        (6, 5, "comm-exact"),        // exactly at the enumeration guard
        (7, 5, "comm-bb"),           // one stage past it
        (6, 6, "comm-bb"),           // one processor past it
        (12, 8, "comm-bb"),          // exactly at the comm-bb guard
        (13, 8, "comm-heuristic"),   // one stage past it
        (12, 9, "comm-bb"),          // past the proc guard, admitted by symmetry
        (12, 128, "comm-bb"),        // exactly at the wide-mask capacity
        (12, 129, "comm-heuristic"), // one processor past the mask capacity
    ] {
        let (instance, budget) = boundary_instance(n, p);
        let report = registry
            .solve(&SolveRequest::new(instance).budget(budget))
            .unwrap_or_else(|e| panic!("boundary ({n}, {p}) failed: {e}"));
        assert_eq!(
            report.engine_used, expected,
            "auto route at {n} stages / {p} procs"
        );
        assert!(report.has_mapping(), "({n}, {p})");
    }
}

#[test]
fn auto_fork_leaf_guard_bounds_comm_bb() {
    // Fork shapes respect the dedicated leaf guard: 10 leaves (11
    // stages) route to comm-bb, 11 leaves (12 stages — still within the
    // stage guard) fall through to the heuristic.
    use repliflow_core::workflow::Fork;
    let registry = EngineRegistry::default();
    for (leaves, expected) in [(10usize, "comm-bb"), (11, "comm-heuristic")] {
        let instance = ProblemInstance {
            workflow: Fork::with_data_sizes(2, vec![2; leaves], 1, 1, vec![1; leaves]).into(),
            platform: Platform::homogeneous(4, 1),
            allow_data_parallel: false,
            objective: Objective::Latency,
            cost_model: one_port(Network::uniform(4, 2)),
        };
        let budget = Budget {
            bb_node_limit: 5_000,
            ..Budget::default()
        };
        let report = registry
            .solve(&SolveRequest::new(instance).budget(budget))
            .unwrap();
        assert_eq!(report.engine_used, expected, "{leaves} leaves");
    }
}

#[test]
fn paper_pref_refuses_comm_instances() {
    let registry = EngineRegistry::default();
    let err = registry
        .solve(&SolveRequest::new(comm_pipeline_instance()).engine(EnginePref::Paper))
        .unwrap_err();
    assert!(matches!(err, SolveError::Unsupported { .. }));
}

#[test]
fn mis_sized_network_is_a_request_error() {
    let registry = EngineRegistry::default();
    let mut instance = comm_pipeline_instance();
    instance.cost_model = one_port(Network::uniform(2, 1));
    let err = registry.solve(&SolveRequest::new(instance)).unwrap_err();
    assert!(matches!(
        err,
        SolveError::NetworkMismatch {
            expected: 3,
            got: 2
        }
    ));
}

#[test]
fn comm_witness_revalidates_against_the_paper_formula() {
    // The heterogeneous-link instance's optimum maps one processor per
    // interval, so the report's witness converts to the paper's
    // IntervalAlloc form and formula (1) must reproduce the reported
    // period exactly (the registry already re-validated through the
    // general-model evaluators and the discrete-event simulator).
    let registry = EngineRegistry::default();
    let instance = comm_pipeline_instance();
    let report = registry
        .solve(&SolveRequest::new(instance.clone()))
        .unwrap();
    let mapping = report.mapping.as_ref().unwrap();
    assert!(
        mapping
            .assignments()
            .iter()
            .all(|a| a.n_procs() == 1 && a.mode == Mode::Replicated),
        "expected a single-processor interval witness, got {mapping}"
    );
    let mut alloc: Vec<IntervalAlloc> = mapping
        .assignments()
        .iter()
        .map(|a| IntervalAlloc {
            lo: a.stages()[0],
            hi: *a.stages().last().unwrap(),
            proc: a.procs()[0],
        })
        .collect();
    alloc.sort_by_key(|a| a.lo);
    let (Workflow::Pipeline(pipe), CostModel::WithComm { network, .. }) =
        (&instance.workflow, &instance.cost_model)
    else {
        unreachable!()
    };
    assert_eq!(
        pipeline_period_with_comm(pipe, &instance.platform, network, &alloc),
        report.period.unwrap()
    );
}

#[test]
fn infinite_bandwidth_comm_equals_simplified_on_every_golden_instance() {
    // The acceptance anchor: wrapping any golden instance in the general
    // model with a free network must reproduce the simplified-model
    // result bit for bit — proven cells through comm-exact enumeration,
    // heuristic cells through the identical portfolio trajectory.
    let registry = EngineRegistry::default();
    for (path, instance) in golden_instances() {
        if instance.cost_model.is_comm_aware() {
            continue; // comm golden instances have their own snapshots
        }
        let simplified = registry
            .solve(&SolveRequest::new(instance.clone()))
            .unwrap_or_else(|e| panic!("{path:?}: simplified solve failed: {e}"));
        let p = instance.platform.n_procs();
        let comm_instance = instance.with_cost_model(one_port(Network::infinite(p)));
        let comm = registry
            .solve(&SolveRequest::new(comm_instance))
            .unwrap_or_else(|e| panic!("{path:?}: comm solve failed: {e}"));
        assert_eq!(
            comm.objective_value, simplified.objective_value,
            "{path:?}: infinite-bandwidth comm result diverges from the simplified model \
             (comm engine `{}`, simplified engine `{}`)",
            comm.engine_used, simplified.engine_used
        );
        assert_eq!(comm.period, simplified.period, "{path:?}");
        assert_eq!(comm.latency, simplified.latency, "{path:?}");
    }
}

#[test]
fn one_port_never_beats_multi_port() {
    // Same instance, same engine: serializing the broadcast can only
    // delay completions, so the one-port optimum is >= the multi-port
    // optimum.
    use repliflow_core::workflow::Fork;
    let registry = EngineRegistry::default();
    let base = ProblemInstance {
        workflow: Fork::with_data_sizes(2, vec![3, 3, 3], 2, 4, vec![1, 1, 1]).into(),
        platform: Platform::heterogeneous(vec![2, 1, 1]),
        allow_data_parallel: false,
        objective: Objective::Latency,
        cost_model: CostModel::Simplified,
    };
    let solve_with = |comm: CommModel| {
        let instance = base.clone().with_cost_model(CostModel::WithComm {
            network: Network::uniform(3, 2),
            comm,
            overlap: true,
        });
        registry
            .solve(&SolveRequest::new(instance))
            .unwrap()
            .objective_value
            .unwrap()
    };
    assert!(solve_with(CommModel::OnePort) >= solve_with(CommModel::BoundedMultiPort));
}

/// Seeded instances of every workflow shape, with data sizes so the
/// communication-aware copies have real communication to price.
fn seeded_shapes(gen: &mut Gen, case: usize) -> Vec<ProblemInstance> {
    let objective = if case == 0 {
        Objective::Period
    } else {
        Objective::Latency
    };
    let n = 4 + case;
    let workflows: [Workflow; 3] = [
        Pipeline::with_data_sizes(gen.positive_ints(n, 1, 9), gen.positive_ints(n + 1, 0, 6))
            .into(),
        Fork::with_data_sizes(
            gen.int(1, 9),
            gen.positive_ints(n, 1, 9),
            gen.int(0, 6),
            gen.int(1, 6),
            gen.positive_ints(n, 0, 5),
        )
        .into(),
        ForkJoin::with_data_sizes(
            gen.int(1, 9),
            gen.positive_ints(n, 1, 9),
            gen.int(1, 6),
            gen.int(0, 6),
            gen.int(1, 6),
            gen.positive_ints(n, 0, 5),
        )
        .into(),
    ];
    workflows
        .into_iter()
        .map(|workflow| ProblemInstance {
            workflow,
            platform: gen.het_platform(4, 1, 6),
            allow_data_parallel: case == 0,
            objective,
            cost_model: CostModel::Simplified,
        })
        .collect()
}

#[test]
fn quality_tiers_never_worsen_the_heuristic_result() {
    // Fast's candidates are a subset of Balanced's, and Thorough anneals
    // on from Balanced's annealed candidate while keeping it, so each
    // tier only adds candidates: the portfolio's best score can only
    // improve, on every shape and under both cost models.
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0x0A11);
    let mut instances: Vec<ProblemInstance> = golden_instances()
        .into_iter()
        .filter(|(path, _)| path.ends_with("forkjoin_large_heuristic.json"))
        .map(|(_, instance)| instance)
        .collect();
    assert_eq!(instances.len(), 1, "the fork-join golden is in the set");
    for case in 0..2 {
        instances.extend(seeded_shapes(&mut gen, case));
    }
    let instances = instances.into_iter().flat_map(|instance| {
        let network = Network::uniform(instance.platform.n_procs(), 2);
        let comm = ProblemInstance {
            cost_model: one_port(network),
            ..instance.clone()
        };
        [instance, comm]
    });
    for instance in instances {
        let score_at = |quality: Quality| {
            let report = registry
                .solve(
                    &SolveRequest::new(instance.clone())
                        .engine(EnginePref::Heuristic)
                        .budget(Budget::default().quality(quality)),
                )
                .unwrap();
            score_instance(&instance, report.mapping.as_ref().unwrap())
        };
        let fast = score_at(Quality::Fast);
        let balanced = score_at(Quality::Balanced);
        let thorough = score_at(Quality::Thorough);
        let label = format!(
            "{} {:?}",
            instance.variant(),
            instance.cost_model.is_comm_aware()
        );
        assert!(
            balanced <= fast,
            "{label}: Balanced {balanced:?} > Fast {fast:?}"
        );
        assert!(
            thorough <= balanced,
            "{label}: Thorough {thorough:?} > Balanced {balanced:?}"
        );
    }
}

#[test]
fn comm_exact_agrees_with_comm_heuristic_lower_bound() {
    // On instances inside the enumeration guard the heuristic can never
    // beat the exhaustive optimum.
    let registry = EngineRegistry::default();
    let instance = comm_pipeline_instance();
    let exact = registry
        .solve(&SolveRequest::new(instance.clone()).engine(EnginePref::Exact))
        .unwrap();
    assert_eq!(exact.engine_used, "comm-exact");
    let heuristic = registry
        .solve(&SolveRequest::new(instance).engine(EnginePref::Heuristic))
        .unwrap();
    assert!(heuristic.objective_value.unwrap() >= exact.objective_value.unwrap());
}

#[test]
fn strict_start_rule_never_beats_overlap() {
    use repliflow_core::workflow::Fork;
    let registry = EngineRegistry::default();
    let base = ProblemInstance {
        workflow: Fork::with_data_sizes(4, vec![2, 2], 2, 6, vec![1, 1]).into(),
        platform: Platform::homogeneous(3, 1),
        allow_data_parallel: false,
        objective: Objective::Latency,
        cost_model: CostModel::Simplified,
    };
    let solve_with = |overlap: bool| {
        let instance = base.clone().with_cost_model(CostModel::WithComm {
            network: Network::uniform(3, 2),
            comm: CommModel::OnePort,
            overlap,
        });
        registry
            .solve(&SolveRequest::new(instance))
            .unwrap()
            .objective_value
            .unwrap()
    };
    assert!(solve_with(false) >= solve_with(true));
}
