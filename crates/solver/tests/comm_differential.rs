//! Differential property suite for the `comm-bb` branch-and-bound
//! engine: on seeded random communication-aware instances spanning
//! every shape (pipeline / fork / fork-join), send discipline
//! (one-port / bounded multi-port), start rule (strict / overlapped),
//! network kind (uniform / heterogeneous / capacity-bounded) and
//! objective, the branch-and-bound must agree **exactly** with
//! brute-force enumeration (`comm-exact`) on small instances, and must
//! never lose to the heuristic portfolio anywhere.
//!
//! The quick profile (default) runs on every PR; the `slow-tests`
//! feature multiplies the instance counts for the dedicated CI job:
//! `cargo test -p repliflow-solver --features slow-tests`.

use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::rational::Rat;
use repliflow_core::workflow::{Fork, ForkJoin, Workflow};
use repliflow_solver::{Budget, CommModel, EnginePref, EngineRegistry, Optimality, SolveRequest};

/// Per-shape instance count: "hundreds" total under `slow-tests`, a
/// quick-but-meaningful slice on every PR.
const SMALL_CASES: usize = if cfg!(feature = "slow-tests") {
    150
} else {
    40
};
const MEDIUM_CASES: usize = if cfg!(feature = "slow-tests") { 40 } else { 12 };

/// A random communication-aware instance; `shape` picks the workflow
/// kind, sizes stay small enough for full enumeration.
fn small_instance(gen: &mut Gen, shape: usize, case: usize) -> ProblemInstance {
    let (workflow, p): (Workflow, usize) = match shape {
        0 => {
            let n = gen.size(1, 4);
            let p = gen.size(1, 4);
            (
                repliflow_core::workflow::Pipeline::with_data_sizes(
                    gen.positive_ints(n, 1, 9),
                    gen.positive_ints(n + 1, 0, 6),
                )
                .into(),
                p,
            )
        }
        1 => {
            let leaves = gen.size(0, 3);
            let p = gen.size(1, 3);
            (
                Fork::with_data_sizes(
                    gen.int(1, 7),
                    gen.positive_ints(leaves, 1, 7),
                    gen.int(0, 5),
                    gen.int(0, 5),
                    gen.positive_ints(leaves, 0, 4),
                )
                .into(),
                p,
            )
        }
        _ => {
            let leaves = gen.size(0, 2);
            let p = gen.size(1, 3);
            (
                // nonzero data sizes exercise the deferred leaf→join
                // re-billing behind the fork dominance pruning and the
                // fork-join simulator cross-check in witness validation
                ForkJoin::with_data_sizes(
                    gen.int(1, 7),
                    gen.positive_ints(leaves, 1, 7),
                    gen.int(1, 5),
                    gen.int(0, 5),
                    gen.int(0, 5),
                    gen.positive_ints(leaves, 0, 4),
                )
                .into(),
                p,
            )
        }
    };
    let network = if gen.flip(0.5) {
        gen.uniform_network(p, 1, 4)
    } else {
        gen.het_network(p, 1, 4)
    };
    let objective = match case % 4 {
        0 => Objective::Period,
        1 | 2 => Objective::Latency,
        _ => {
            if gen.flip(0.5) {
                Objective::LatencyUnderPeriod(Rat::int(gen.int(2, 25) as i128))
            } else {
                Objective::PeriodUnderLatency(Rat::int(gen.int(2, 40) as i128))
            }
        }
    };
    ProblemInstance {
        workflow,
        platform: gen.het_platform(p, 1, 5),
        allow_data_parallel: gen.flip(0.6),
        objective,
        cost_model: CostModel::WithComm {
            network,
            comm: if gen.flip(0.5) {
                CommModel::OnePort
            } else {
                CommModel::BoundedMultiPort
            },
            overlap: gen.flip(0.5),
        },
    }
}

/// A medium instance beyond the enumeration guard (where only the
/// heuristic was available before `comm-bb`).
fn medium_instance(gen: &mut Gen, case: usize) -> ProblemInstance {
    let n = gen.size(7, 9);
    let p = gen.size(4, 6);
    let objective = if case.is_multiple_of(2) {
        Objective::Period
    } else {
        Objective::Latency
    };
    ProblemInstance {
        workflow: repliflow_core::workflow::Pipeline::with_data_sizes(
            gen.positive_ints(n, 1, 15),
            gen.positive_ints(n + 1, 0, 8),
        )
        .into(),
        platform: gen.het_platform(p, 1, 6),
        allow_data_parallel: gen.flip(0.5),
        objective,
        cost_model: CostModel::WithComm {
            network: if gen.flip(0.5) {
                gen.uniform_network(p, 1, 4)
            } else {
                gen.het_network(p, 1, 4)
            },
            comm: if gen.flip(0.5) {
                CommModel::OnePort
            } else {
                CommModel::BoundedMultiPort
            },
            overlap: gen.flip(0.5),
        },
    }
}

#[test]
fn comm_bb_equals_brute_force_enumeration_on_small_instances() {
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0xD1FF);
    for shape in 0..3 {
        for case in 0..SMALL_CASES {
            let instance = small_instance(&mut gen, shape, case);
            let label = format!("shape {shape} case {case}: {instance:?}");
            let exact = registry
                .solve(&SolveRequest::new(instance.clone()).engine(EnginePref::Exact))
                .unwrap_or_else(|e| panic!("enumeration failed on {label}: {e}"));
            assert_eq!(exact.engine_used, "comm-exact");
            let bb = registry
                .solve(&SolveRequest::new(instance.clone()).engine(EnginePref::CommBb))
                .unwrap_or_else(|e| panic!("comm-bb failed on {label}: {e}"));
            assert_eq!(bb.engine_used, "comm-bb");
            assert_eq!(bb.optimality, exact.optimality, "{label}");
            if exact.optimality == Optimality::Proven {
                let search = bb.search.expect("comm-bb reports search stats");
                assert!(search.completed, "budget tripped on a tiny instance");
                // both proven: the full (period, latency) pair must
                // agree, not just the optimized criterion — both sides
                // break ties lexicographically toward the other one
                assert_eq!(bb.objective_value, exact.objective_value, "{label}");
                assert_eq!(bb.period, exact.period, "{label}");
                assert_eq!(bb.latency, exact.latency, "{label}");
            }
        }
    }
}

#[test]
fn comm_bb_never_loses_to_the_heuristic() {
    // Incumbent seeding makes this structural: the branch-and-bound
    // starts from the portfolio's best, so even a budget-tripped run
    // can only improve on it. Checked on small AND beyond-guard
    // instances.
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0xD1FE);
    for case in 0..MEDIUM_CASES {
        let instance = medium_instance(&mut gen, case);
        let heuristic = registry
            .solve(&SolveRequest::new(instance.clone()).engine(EnginePref::Heuristic))
            .unwrap();
        assert_eq!(heuristic.engine_used, "comm-heuristic");
        let bb = registry
            .solve(&SolveRequest::new(instance).engine(EnginePref::CommBb))
            .unwrap();
        assert!(
            bb.objective_value.unwrap() <= heuristic.objective_value.unwrap(),
            "case {case}: comm-bb {:?} worse than heuristic {:?}",
            bb.objective_value,
            heuristic.objective_value
        );
    }
}

/// A fork or fork-join instance big enough that the comm-bb search must
/// lean on its fork dominance pruning, yet small enough for brute-force
/// enumeration to referee.
fn structural_instance(gen: &mut Gen, case: usize) -> ProblemInstance {
    let leaves = if cfg!(feature = "slow-tests") { 5 } else { 4 };
    let p = 3;
    let workflow: Workflow = if case.is_multiple_of(2) {
        Fork::with_data_sizes(
            gen.int(1, 8),
            gen.positive_ints(leaves, 1, 8),
            gen.int(0, 5),
            gen.int(1, 5),
            gen.positive_ints(leaves, 0, 4),
        )
        .into()
    } else {
        ForkJoin::with_data_sizes(
            gen.int(1, 8),
            gen.positive_ints(leaves - 1, 1, 8),
            gen.int(1, 5),
            gen.int(0, 5),
            gen.int(1, 5),
            gen.positive_ints(leaves - 1, 0, 4),
        )
        .into()
    };
    ProblemInstance {
        workflow,
        platform: gen.het_platform(p, 1, 5),
        allow_data_parallel: gen.flip(0.5),
        objective: if case % 4 < 2 {
            Objective::Latency
        } else {
            Objective::Period
        },
        cost_model: CostModel::WithComm {
            network: if gen.flip(0.5) {
                gen.uniform_network(p, 1, 4)
            } else {
                gen.het_network(p, 1, 4)
            },
            comm: if gen.flip(0.5) {
                CommModel::OnePort
            } else {
                CommModel::BoundedMultiPort
            },
            overlap: gen.flip(0.5),
        },
    }
}

#[test]
fn comm_bb_fork_dominance_agrees_with_enumeration() {
    // Fork/fork-join instances sized so equivalent partial states recur
    // (the dominance table fires) while enumeration can still referee:
    // the comm-bb result must match brute force exactly, and the
    // structural-move-strengthened heuristic must never beat it.
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0xD1FD);
    let cases = if cfg!(feature = "slow-tests") { 30 } else { 8 };
    for case in 0..cases {
        let instance = structural_instance(&mut gen, case);
        let label = format!("case {case}: {instance:?}");
        let exact = registry
            .solve(&SolveRequest::new(instance.clone()).engine(EnginePref::Exact))
            .unwrap_or_else(|e| panic!("enumeration failed on {label}: {e}"));
        let bb = registry
            .solve(&SolveRequest::new(instance.clone()).engine(EnginePref::CommBb))
            .unwrap_or_else(|e| panic!("comm-bb failed on {label}: {e}"));
        assert!(bb.search.unwrap().completed, "{label}");
        assert_eq!(bb.objective_value, exact.objective_value, "{label}");
        assert_eq!(bb.period, exact.period, "{label}");
        assert_eq!(bb.latency, exact.latency, "{label}");
        let heuristic = registry
            .solve(&SolveRequest::new(instance).engine(EnginePref::Heuristic))
            .unwrap();
        assert!(
            bb.objective_value.unwrap() <= heuristic.objective_value.unwrap(),
            "{label}"
        );
    }
}

/// The raised-guard acceptance bar, run in the release-built
/// `differential-slow` CI job: 10-leaf fork and fork-join comm
/// instances prove optimality through the auto route within the
/// **default** node/time budget (the pre-dominance engine capped out
/// near 6 leaves).
#[cfg(feature = "slow-tests")]
#[test]
fn comm_bb_proves_ten_leaf_fork_and_forkjoin_instances() {
    let registry = EngineRegistry::default();
    let leaves = 10;
    let mut gen = Gen::new(0xF0BB);
    let fork = ProblemInstance {
        workflow: Fork::with_data_sizes(
            gen.int(1, 9),
            gen.positive_ints(leaves, 1, 9),
            gen.int(0, 6),
            gen.int(1, 6),
            gen.positive_ints(leaves, 0, 5),
        )
        .into(),
        platform: gen.het_platform(4, 1, 5),
        allow_data_parallel: false,
        objective: Objective::Latency,
        cost_model: CostModel::WithComm {
            network: repliflow_solver::Network::uniform(4, 2),
            comm: CommModel::OnePort,
            overlap: true,
        },
    };
    let mut gen = Gen::new(0xF1BB);
    let forkjoin = ProblemInstance {
        workflow: ForkJoin::with_data_sizes(
            gen.int(1, 9),
            gen.positive_ints(leaves, 1, 9),
            gen.int(1, 6),
            gen.int(0, 6),
            gen.int(1, 6),
            gen.positive_ints(leaves, 0, 5),
        )
        .into(),
        platform: gen.het_platform(5, 1, 5),
        allow_data_parallel: false,
        objective: Objective::Latency,
        cost_model: CostModel::WithComm {
            network: repliflow_solver::Network::uniform(5, 2),
            comm: CommModel::OnePort,
            overlap: true,
        },
    };
    for (label, instance) in [("fork l10 p4", fork), ("forkjoin l10 p5", forkjoin)] {
        let budget = Budget::default();
        let report = registry
            .solve(&SolveRequest::new(instance.clone()).budget(budget))
            .unwrap();
        assert_eq!(report.engine_used, "comm-bb", "{label}");
        assert_eq!(report.optimality, Optimality::Proven, "{label}");
        let search = report.search.unwrap();
        assert!(search.completed, "{label}: budget tripped");
        assert!(
            search.pruned_dominated > 0,
            "{label}: the fork dominance never fired"
        );
        // the proof is meaningful: never worse than the heuristic
        let heuristic = registry
            .solve(&SolveRequest::new(instance).engine(EnginePref::Heuristic))
            .unwrap();
        assert!(report.objective_value.unwrap() <= heuristic.objective_value.unwrap());
    }
}

#[test]
fn comm_bb_proves_optimality_at_twice_the_enumeration_guard() {
    // The acceptance bar: 10 stages / 8 processors — refused by the
    // PR 2 `comm-exact` guard (6 / 5) and far beyond what raw
    // enumeration could visit — solves to PROVEN optimality through the
    // auto route within the default node/time budget.
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0xACCE);
    let pipe = repliflow_core::workflow::Pipeline::with_data_sizes(
        gen.positive_ints(10, 1, 20),
        gen.positive_ints(11, 0, 10),
    );
    let instance = ProblemInstance {
        workflow: pipe.into(),
        platform: gen.het_platform(8, 1, 6),
        allow_data_parallel: true,
        objective: Objective::Period,
        cost_model: CostModel::WithComm {
            network: repliflow_solver::Network::uniform(8, 3),
            comm: CommModel::OnePort,
            overlap: true,
        },
    };
    let budget = Budget::default();
    assert!(
        !budget.allows_comm_exact(10, 8),
        "instance must exceed the enumeration guard"
    );
    let report = registry
        .solve(&SolveRequest::new(instance.clone()).budget(budget))
        .unwrap();
    assert_eq!(report.engine_used, "comm-bb");
    assert_eq!(report.optimality, Optimality::Proven);
    let search = report.search.unwrap();
    assert!(search.completed, "search must finish within the budget");
    assert!(search.nodes <= budget.bb_node_limit);
    // ... and the proof is meaningful: it can only improve on the
    // heuristic portfolio
    let heuristic = registry
        .solve(&SolveRequest::new(instance).engine(EnginePref::Heuristic))
        .unwrap();
    assert!(report.objective_value.unwrap() <= heuristic.objective_value.unwrap());
}
