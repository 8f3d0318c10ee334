//! Front engine integration tests: endpoint agreement with the
//! single-objective optima, dominance ordering, completeness,
//! determinism/byte-identity, reliability annotations, and the front
//! cache's provenance tagging.

use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::platform::Platform;
use repliflow_core::rational::Rat;
use repliflow_core::workflow::{Pipeline, Workflow};
use repliflow_multicrit::{FrontEnginePref, FrontRequest, FrontSolver};
use repliflow_solver::{Budget, Optimality, Provenance, SolverService};
use repliflow_sync::sync::Arc;

fn service() -> Arc<SolverService> {
    Arc::new(SolverService::builder().workers(1).build())
}

/// A small heterogeneous pipeline instance with a real period/latency
/// trade-off (replication shortens period but hurts nothing here;
/// data-parallel off keeps the exact enumeration tiny).
fn golden_instance() -> ProblemInstance {
    ProblemInstance {
        cost_model: CostModel::Simplified,
        workflow: Pipeline::new(vec![4, 7, 3, 5]).into(),
        platform: Platform::heterogeneous(vec![1, 2, 3]),
        allow_data_parallel: true,
        objective: Objective::Period,
    }
}

fn failing_instance() -> ProblemInstance {
    let mut instance = golden_instance();
    instance.platform = Platform::heterogeneous(vec![1, 2, 3]).with_failure_probs(vec![
        Rat::new(1, 10),
        Rat::new(1, 20),
        Rat::new(1, 4),
    ]);
    instance
}

/// A random small instance with exact-range size, varied shape.
fn random_instance(gen: &mut Gen) -> ProblemInstance {
    let n = gen.size(2, 5);
    let workflow: Workflow = gen.uniform_pipeline(n, 1, 9).into();
    let platform = if gen.int(0, 1) == 0 {
        let p = gen.size(2, 4);
        gen.hom_platform(p, 1, 4)
    } else {
        Platform::heterogeneous(vec![gen.int(1, 4), gen.int(2, 5), gen.int(1, 6)])
    };
    ProblemInstance {
        cost_model: CostModel::Simplified,
        workflow,
        platform,
        allow_data_parallel: gen.int(0, 1) == 1,
        objective: Objective::Period,
    }
}

fn single_optimum(
    service: &SolverService,
    instance: &ProblemInstance,
    objective: Objective,
) -> Rat {
    let inner = ProblemInstance {
        objective,
        ..instance.clone()
    };
    let report = service
        .solve(&service.request(inner))
        .expect("single-objective solve succeeds");
    match objective {
        Objective::Period => report.period.expect("period witness"),
        Objective::Latency => report.latency.expect("latency witness"),
        _ => unreachable!("endpoint helper only handles the two pure objectives"),
    }
}

#[test]
fn exact_front_is_complete_sorted_and_witnessed() {
    let service = service();
    let solver = FrontSolver::new(service.clone());
    let report = solver
        .solve_front(&FrontRequest::new(golden_instance()).engine(FrontEnginePref::Exact))
        .expect("exact front");
    assert_eq!(report.engine_used, "front-exact");
    assert!(report.complete, "small instance front must complete");
    assert!(!report.truncated);
    assert!(!report.points.is_empty());
    assert!(report.is_dominance_sorted());
    for p in &report.points {
        assert_eq!(p.optimality, Optimality::Proven);
        assert_eq!(p.reliability, None, "fail-free platform: no annotation");
        // The witness really achieves the reported coordinates.
        let instance = golden_instance();
        assert_eq!(
            instance.period(&p.mapping).expect("valid witness"),
            p.period
        );
        assert_eq!(
            instance.latency(&p.mapping).expect("valid witness"),
            p.latency
        );
    }
}

#[test]
fn exact_front_endpoints_match_single_objective_optima_golden() {
    let service = service();
    let solver = FrontSolver::new(service.clone());
    let instance = golden_instance();
    let report = solver
        .solve_front(&FrontRequest::new(instance.clone()).engine(FrontEnginePref::Exact))
        .expect("exact front");
    let best_period = single_optimum(&service, &instance, Objective::Period);
    let best_latency = single_optimum(&service, &instance, Objective::Latency);
    assert_eq!(report.points.first().expect("nonempty").period, best_period);
    assert_eq!(
        report.points.last().expect("nonempty").latency,
        best_latency
    );
}

#[test]
fn exact_front_endpoints_match_single_objective_optima_random() {
    let service = service();
    let solver = FrontSolver::new(service.clone());
    let mut gen = Gen::new(0xF5041);
    for _ in 0..12 {
        let instance = random_instance(&mut gen);
        let report = solver
            .solve_front(&FrontRequest::new(instance.clone()).engine(FrontEnginePref::Exact))
            .expect("exact front");
        assert!(report.complete);
        assert!(report.is_dominance_sorted());
        let best_period = single_optimum(&service, &instance, Objective::Period);
        let best_latency = single_optimum(&service, &instance, Objective::Latency);
        assert_eq!(report.points.first().expect("nonempty").period, best_period);
        assert_eq!(
            report.points.last().expect("nonempty").latency,
            best_latency
        );
    }
}

#[test]
fn sweep_front_never_worse_than_portfolio_endpoints() {
    let service = service();
    let solver = FrontSolver::new(service.clone());
    let mut gen = Gen::new(0xBEEF);
    for _ in 0..8 {
        let instance = random_instance(&mut gen);
        let report = solver
            .solve_front(&FrontRequest::new(instance.clone()).engine(FrontEnginePref::Sweep))
            .expect("sweep front");
        assert_eq!(report.engine_used, "front-sweep");
        assert!(!report.complete, "sweeps never claim completeness");
        assert!(report.is_dominance_sorted());
        let best_period = single_optimum(&service, &instance, Objective::Period);
        let best_latency = single_optimum(&service, &instance, Objective::Latency);
        let first = report.points.first().expect("nonempty");
        let last = report.points.last().expect("nonempty");
        assert!(
            first.period <= best_period,
            "sweep endpoint beats portfolio"
        );
        assert!(
            last.latency <= best_latency,
            "sweep endpoint beats portfolio"
        );
        for p in &report.points {
            assert_eq!(p.optimality, Optimality::Heuristic);
        }
    }
}

#[test]
fn exact_front_annotates_reliability_on_failing_platforms() {
    let solver = FrontSolver::new(service());
    let instance = failing_instance();
    let report = solver
        .solve_front(&FrontRequest::new(instance.clone()).engine(FrontEnginePref::Exact))
        .expect("exact front");
    assert!(!report.points.is_empty());
    for p in &report.points {
        let r = p.reliability.expect("failing platform: annotation present");
        assert_eq!(r, instance.reliability(&p.mapping));
        assert!(r > Rat::new(0, 1) && r <= Rat::new(1, 1));
    }
}

#[test]
fn fronts_are_byte_identical_across_runs_and_worker_counts() {
    let mut snapshots = Vec::new();
    for workers in [1, 4] {
        let service = Arc::new(SolverService::builder().workers(workers).build());
        let solver = FrontSolver::without_cache(service);
        for _ in 0..2 {
            let report = solver
                .solve_front(&FrontRequest::new(golden_instance()))
                .expect("front");
            snapshots.push(report.canonical_json());
        }
    }
    for s in &snapshots[1..] {
        assert_eq!(s, &snapshots[0], "canonical JSON must be byte-identical");
    }
}

#[test]
fn auto_routes_small_instances_exact_and_capped_budgets_to_sweep() {
    let solver = FrontSolver::new(service());
    let exact = solver
        .solve_front(&FrontRequest::new(golden_instance()))
        .expect("auto front");
    assert_eq!(exact.engine_used, "front-exact");

    // Shrinking the exact budget below the instance size flips Auto to
    // the sweep.
    let tiny = Budget {
        max_exact_stages: 2,
        max_exact_procs: 2,
        ..Budget::default()
    };
    let sweep = solver
        .solve_front(&FrontRequest::new(golden_instance()).budget(tiny))
        .expect("auto front");
    assert_eq!(sweep.engine_used, "front-sweep");
}

#[test]
fn max_front_points_truncates_deterministically() {
    let solver = FrontSolver::new(service());
    let full = solver
        .solve_front(&FrontRequest::new(golden_instance()).engine(FrontEnginePref::Exact))
        .expect("full front");
    assert!(full.points.len() > 1, "golden instance has a trade-off");

    let capped = solver
        .solve_front(
            &FrontRequest::new(golden_instance())
                .engine(FrontEnginePref::Exact)
                .budget(Budget::default().max_front_points(1)),
        )
        .expect("capped front");
    assert_eq!(capped.points.len(), 1);
    assert!(capped.truncated);
    assert!(!capped.complete);
    // The cap cuts the tail, never reorders: the prefix is shared.
    assert_eq!(capped.points[0], full.points[0]);
}

#[test]
fn front_cache_serves_tagged_clones() {
    let solver = FrontSolver::new(service());
    let request = FrontRequest::new(golden_instance());
    let first = solver.solve_front(&request).expect("fresh front");
    assert_eq!(first.provenance, Provenance::Computed);
    let second = solver.solve_front(&request).expect("cached front");
    assert_eq!(second.provenance, Provenance::Cached);
    // Serving metadata aside, the hit is byte-identical.
    assert_eq!(first.canonical_json(), second.canonical_json());
    let stats = solver.cache_stats().expect("cache enabled");
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);

    // A different budget is a different fingerprint — no false hits.
    let other = solver
        .solve_front(
            &request
                .clone()
                .budget(Budget::default().max_front_points(1)),
        )
        .expect("front");
    assert_eq!(other.provenance, Provenance::Computed);

    solver.clear_cache();
    let third = solver.solve_front(&request).expect("recomputed front");
    assert_eq!(third.provenance, Provenance::Computed);
}

#[test]
fn without_cache_never_serves_cached_fronts() {
    let solver = FrontSolver::without_cache(service());
    assert!(solver.cache_stats().is_none());
    let request = FrontRequest::new(golden_instance());
    for _ in 0..2 {
        let report = solver.solve_front(&request).expect("front");
        assert_eq!(report.provenance, Provenance::Computed);
    }
}

#[test]
fn front_request_fingerprints_are_domain_separated_and_knob_sensitive() {
    let base = FrontRequest::new(golden_instance());
    let fp = base.fingerprint();
    assert_eq!(fp, base.clone().fingerprint(), "fingerprint is stable");
    assert_ne!(
        fp,
        base.clone().engine(FrontEnginePref::Exact).fingerprint()
    );
    assert_ne!(
        fp,
        base.clone()
            .budget(Budget::default().max_front_points(7))
            .fingerprint()
    );
    assert_ne!(
        fp,
        base.clone()
            .budget(Budget::default().front_time_limit_ms(1))
            .fingerprint()
    );
    assert_ne!(fp, base.clone().validate_witness(false).fingerprint());
    // Same instance, but a plain solve fingerprint: the leading domain
    // tag keeps the keyspaces apart.
    let solve_fp = repliflow_solver::SolveRequest::new(golden_instance()).fingerprint();
    assert_ne!(fp, solve_fp);
}

#[test]
fn every_budget_field_moves_both_request_fingerprints() {
    use repliflow_solver::{Quality, SolveRequest};
    // Naming every field (no `..`) makes a new `Budget` field fail to
    // compile here until it gets a row below.
    let Budget {
        max_exact_stages: _,
        max_exact_procs: _,
        max_comm_exact_stages: _,
        max_comm_exact_procs: _,
        max_comm_bb_stages: _,
        max_comm_bb_procs: _,
        max_comm_bb_fork_leaves: _,
        bb_node_limit: _,
        bb_time_limit_ms: _,
        local_search_rounds: _,
        hedge_delay_ms: _,
        quality: _,
        seed: _,
        max_front_points: _,
        front_time_limit_ms: _,
    } = Budget::default();
    type Edit = (&'static str, fn(&mut Budget));
    let edits: [Edit; 15] = [
        ("max_exact_stages", |b| b.max_exact_stages += 1),
        ("max_exact_procs", |b| b.max_exact_procs += 1),
        ("max_comm_exact_stages", |b| b.max_comm_exact_stages += 1),
        ("max_comm_exact_procs", |b| b.max_comm_exact_procs += 1),
        ("max_comm_bb_stages", |b| b.max_comm_bb_stages += 1),
        ("max_comm_bb_procs", |b| b.max_comm_bb_procs += 1),
        ("max_comm_bb_fork_leaves", |b| {
            b.max_comm_bb_fork_leaves += 1
        }),
        ("bb_node_limit", |b| b.bb_node_limit += 1),
        ("bb_time_limit_ms", |b| b.bb_time_limit_ms += 1),
        ("local_search_rounds", |b| b.local_search_rounds += 1),
        ("hedge_delay_ms", |b| b.hedge_delay_ms += 1),
        ("quality", |b| b.quality = Quality::Thorough),
        ("seed", |b| b.seed += 1),
        ("max_front_points", |b| b.max_front_points += 1),
        ("front_time_limit_ms", |b| b.front_time_limit_ms += 1),
    ];
    let instance = golden_instance();
    let solve_key = |budget: Budget| {
        SolveRequest::new(instance.clone())
            .budget(budget)
            .fingerprint()
    };
    let front_key = |budget: Budget| {
        FrontRequest::new(instance.clone())
            .budget(budget)
            .fingerprint()
    };
    let base = Budget::default();
    for (field, edit) in edits {
        let mut budget = base;
        edit(&mut budget);
        assert_ne!(budget, base, "{field}: the edit changes nothing");
        assert_ne!(solve_key(budget), solve_key(base), "{field}: SolveRequest");
        assert_ne!(front_key(budget), front_key(base), "{field}: FrontRequest");
    }
}
