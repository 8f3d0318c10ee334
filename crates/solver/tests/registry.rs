//! Integration tests of the Table 1 auto-dispatch: one routing truth
//! table over every cell and every guard, every polynomial cell's
//! report agrees with the exhaustive oracle, and `solve_batch` fans
//! out correctly at scale.

use repliflow_core::gen::Gen;
use repliflow_core::instance::{
    Complexity, GraphClass, Objective, ObjectiveClass, PlatformClass, ProblemInstance, Variant,
};
use repliflow_core::platform::Platform;
use repliflow_core::rational::Rat;
use repliflow_core::workflow::{Fork, ForkJoin, Pipeline, Workflow};
use repliflow_solver::{
    BatchOptions, Budget, CommModel, CostModel, Engine, EnginePref, EngineRegistry, FallbackReason,
    Network, Optimality, Quality, SolveError, SolveRequest, SolverService,
};

const GRAPHS: [GraphClass; 6] = [
    GraphClass::HomPipeline,
    GraphClass::HetPipeline,
    GraphClass::HomFork,
    GraphClass::HetFork,
    GraphClass::HomForkJoin,
    GraphClass::HetForkJoin,
];
const PLATFORMS: [PlatformClass; 2] = [PlatformClass::Homogeneous, PlatformClass::Heterogeneous];
const OBJECTIVES: [ObjectiveClass; 3] = [
    ObjectiveClass::Period,
    ObjectiveClass::Latency,
    ObjectiveClass::BiCriteria,
];

fn all_variants() -> Vec<Variant> {
    let mut out = Vec::new();
    for graph in GRAPHS {
        for platform in PLATFORMS {
            for data_parallel in [false, true] {
                for objective in OBJECTIVES {
                    out.push(Variant {
                        graph,
                        platform,
                        data_parallel,
                        objective,
                    });
                }
            }
        }
    }
    out
}

/// A random workflow of the given graph class (guaranteed to classify
/// as exactly that class).
fn workflow_of(gen: &mut Gen, graph: GraphClass) -> Workflow {
    match graph {
        GraphClass::HomPipeline => {
            let n = gen_size(gen);
            gen.uniform_pipeline(n, 1, 9).into()
        }
        GraphClass::HetPipeline => {
            let w = gen.int(1, 8);
            let extra = gen.int(1, 9);
            // at least two distinct weights
            Pipeline::new(vec![w, w + 1, extra]).into()
        }
        GraphClass::HomFork => {
            let leaves = gen.size(0, 4);
            gen.uniform_fork(leaves, 1, 9).into()
        }
        GraphClass::HetFork => {
            let w = gen.int(1, 8);
            let root = gen.int(1, 9);
            Fork::new(root, vec![w, w + 1]).into()
        }
        GraphClass::HomForkJoin => {
            let leaves = gen.size(0, 3);
            gen.uniform_forkjoin(leaves, 1, 9).into()
        }
        GraphClass::HetForkJoin => {
            let w = gen.int(1, 8);
            let root = gen.int(1, 9);
            let join = gen.int(1, 9);
            ForkJoin::new(root, vec![w, w + 1], join).into()
        }
    }
}

fn gen_size(gen: &mut Gen) -> usize {
    gen.size(1, 5)
}

/// A random platform of the given class.
fn platform_of(gen: &mut Gen, class: PlatformClass) -> Platform {
    match class {
        PlatformClass::Homogeneous => {
            let p = gen.size(1, 4);
            gen.hom_platform(p, 1, 4)
        }
        PlatformClass::Heterogeneous => {
            let s = gen.int(1, 4);
            let extra = gen.int(1, 5);
            Platform::heterogeneous(vec![s, s + 1, extra])
        }
    }
}

/// A concrete instance classifying exactly into `variant` (for
/// bi-criteria cells the bound is chosen feasible via the exact oracle).
fn instance_of(gen: &mut Gen, variant: &Variant) -> ProblemInstance {
    let workflow = workflow_of(gen, variant.graph);
    let platform = platform_of(gen, variant.platform);
    let objective = match variant.objective {
        ObjectiveClass::Period => Objective::Period,
        ObjectiveClass::Latency => Objective::Latency,
        ObjectiveClass::BiCriteria => {
            // 1.5x the optimal period is always attainable
            let best = repliflow_exact::min_period(&workflow, &platform, variant.data_parallel);
            Objective::LatencyUnderPeriod(best.period * Rat::new(3, 2))
        }
        // this generator's platforms are fail-free, so any bound ≤ 1 is
        // trivially met while still classifying into the reliability cell
        ObjectiveClass::Reliability => Objective::LatencyUnderReliability(Rat::new(9, 10)),
    };
    let instance = ProblemInstance {
        cost_model: repliflow_core::instance::CostModel::Simplified,
        workflow,
        platform,
        allow_data_parallel: variant.data_parallel,
        objective,
    };
    assert_eq!(
        &instance.variant(),
        variant,
        "generator must hit the requested cell"
    );
    instance
}

const PREFS: [EnginePref; 6] = [
    EnginePref::Auto,
    EnginePref::Exact,
    EnginePref::Heuristic,
    EnginePref::Paper,
    EnginePref::CommBb,
    EnginePref::Hedged,
];

/// The same instance under the general model over a uniform network.
fn with_comm(instance: &ProblemInstance) -> ProblemInstance {
    ProblemInstance {
        cost_model: CostModel::WithComm {
            network: Network::uniform(instance.platform.n_procs(), 2),
            comm: CommModel::OnePort,
            overlap: true,
        },
        ..instance.clone()
    }
}

/// `n` heterogeneous weights (the first one is never repeated).
fn het_weights(gen: &mut Gen, n: usize) -> Vec<u64> {
    let mut weights = gen.positive_ints(n, 1, 9);
    weights[0] = 10;
    weights
}

/// A platform of `p` pairwise distinct speeds.
fn distinct_speeds(p: usize) -> Platform {
    Platform::heterogeneous((1..=p as u64).collect())
}

/// One row of the routing truth table.
struct Probe {
    label: String,
    instance: ProblemInstance,
    budget: Budget,
    /// The engine `Auto` must pick, where the row pins it.
    auto: Option<&'static str>,
}

/// Every row of the routing truth table: one small instance per
/// Table 1 cell under both cost models, and instances on both sides of
/// every routing guard with the engine `Auto` must pick for them.
fn truth_table_probes() -> Vec<Probe> {
    // The guards under test are the default ones; the search knobs are
    // cut so every engine run in the table stays cheap.
    let budget = Budget {
        local_search_rounds: 2,
        bb_node_limit: 2_000,
        ..Budget::default()
    }
    .quality(Quality::Fast);
    // the exact solvers' representation caps (20 processors / 20 fork
    // leaves) bind ahead of a budget wide enough to admit them
    let wide = Budget {
        max_exact_stages: 64,
        max_exact_procs: 64,
        max_comm_exact_stages: 64,
        max_comm_exact_procs: 64,
        ..budget
    };
    let mut gen = Gen::new(0x7007);
    let mut probes = Vec::new();
    let mut row = |label: String, instance: ProblemInstance, budget: Budget, auto| {
        probes.push(Probe {
            label,
            instance,
            budget,
            auto,
        })
    };
    for variant in all_variants() {
        let instance = instance_of(&mut gen, &variant);
        row(
            format!("cell {variant} [comm]"),
            with_comm(&instance),
            budget,
            Some("comm-exact"),
        );
        row(format!("cell {variant}"), instance, budget, None);
    }
    // (label, instance, budget, Auto engine simplified, Auto engine comm)
    let np_hard = |workflow: Workflow, platform: Platform| {
        ProblemInstance::new(workflow, platform, false, Objective::Period)
    };
    let pipeline = |gen: &mut Gen, n: usize, platform: Platform| {
        np_hard(Pipeline::new(het_weights(gen, n)).into(), platform)
    };
    // A one-stage pipeline is a polynomial cell; a strict bound takes it
    // past the paper engine, so its processor count meets the exact
    // guards on the `Auto` route.
    let strict_on = |platform: Platform| {
        ProblemInstance::new(
            Pipeline::new(vec![7]),
            platform,
            false,
            Objective::PeriodUnderLatencyStrict(Rat::int(1000)),
        )
    };
    let fails = |p: usize| distinct_speeds(p).with_failure_probs(vec![Rat::new(1, 10); p]);
    let reliable = |gen: &mut Gen, n: usize| {
        ProblemInstance::new(
            Pipeline::new(het_weights(gen, n)),
            fails(3),
            false,
            Objective::LatencyUnderReliability(Rat::new(1, 2)),
        )
    };
    let guarded: Vec<(&str, ProblemInstance, Budget, &str, &str)> = vec![
        // the exact guard (10 stages / 12 processors) and the
        // comm-exact guard (6 stages / 5 processors)
        (
            "n=10 p=2",
            pipeline(&mut gen, 10, distinct_speeds(2)),
            budget,
            "exact",
            "comm-bb",
        ),
        (
            "n=11 p=2",
            pipeline(&mut gen, 11, distinct_speeds(2)),
            budget,
            "heuristic",
            "comm-bb",
        ),
        (
            "strict p=12",
            strict_on(distinct_speeds(12)),
            budget,
            "exact",
            "comm-heuristic",
        ),
        (
            "strict p=13",
            strict_on(distinct_speeds(13)),
            budget,
            "heuristic",
            "comm-heuristic",
        ),
        (
            "n=6 p=2",
            pipeline(&mut gen, 6, distinct_speeds(2)),
            budget,
            "exact",
            "comm-exact",
        ),
        (
            "n=7 p=2",
            pipeline(&mut gen, 7, distinct_speeds(2)),
            budget,
            "exact",
            "comm-bb",
        ),
        (
            "n=2 p=5",
            pipeline(&mut gen, 2, distinct_speeds(5)),
            budget,
            "exact",
            "comm-exact",
        ),
        (
            "n=2 p=6",
            pipeline(&mut gen, 2, distinct_speeds(6)),
            budget,
            "exact",
            "comm-bb",
        ),
        // the comm-bb guard: 12 stages, 10 fork leaves, 8 processors
        (
            "n=12 p=2",
            pipeline(&mut gen, 12, distinct_speeds(2)),
            budget,
            "heuristic",
            "comm-bb",
        ),
        (
            "n=13 p=2",
            pipeline(&mut gen, 13, distinct_speeds(2)),
            budget,
            "heuristic",
            "comm-heuristic",
        ),
        (
            "fork leaves=10",
            np_hard(
                Fork::new(3, het_weights(&mut gen, 10)).into(),
                distinct_speeds(2),
            ),
            budget,
            "heuristic",
            "comm-bb",
        ),
        (
            "fork leaves=11",
            np_hard(
                Fork::new(3, het_weights(&mut gen, 11)).into(),
                distinct_speeds(2),
            ),
            budget,
            "heuristic",
            "comm-heuristic",
        ),
        (
            "fork-join leaves=10",
            np_hard(
                ForkJoin::new(3, het_weights(&mut gen, 10), 2).into(),
                distinct_speeds(2),
            ),
            budget,
            "heuristic",
            "comm-bb",
        ),
        (
            "n=3 p=8",
            pipeline(&mut gen, 3, distinct_speeds(8)),
            budget,
            "exact",
            "comm-bb",
        ),
        (
            "n=3 p=9",
            pipeline(&mut gen, 3, distinct_speeds(9)),
            budget,
            "exact",
            "comm-heuristic",
        ),
        // the symmetry escape hatch: homogeneous p = 33 is one class
        (
            "n=3 hom p=33",
            pipeline(&mut gen, 3, Platform::homogeneous(33, 2)),
            budget,
            "paper",
            "comm-bb",
        ),
        (
            "n=3 p=33",
            pipeline(&mut gen, 3, distinct_speeds(33)),
            budget,
            "heuristic",
            "comm-heuristic",
        ),
        // comm-bb's wide-mask capacity
        (
            "n=3 hom p=128",
            pipeline(&mut gen, 3, Platform::homogeneous(128, 2)),
            budget,
            "paper",
            "comm-bb",
        ),
        (
            "n=3 hom p=129",
            pipeline(&mut gen, 3, Platform::homogeneous(129, 2)),
            budget,
            "paper",
            "comm-heuristic",
        ),
        // representation caps ahead of the budget guards
        (
            "wide, strict p=20",
            strict_on(distinct_speeds(20)),
            wide,
            "exact",
            "comm-exact",
        ),
        (
            "wide, strict p=21",
            strict_on(distinct_speeds(21)),
            wide,
            "heuristic",
            "comm-heuristic",
        ),
        // strict ε-bounds skip the paper engine on polynomial cells
        (
            "strict, hom n=3",
            ProblemInstance::new(
                gen.uniform_pipeline(3, 1, 9),
                Platform::homogeneous(3, 1),
                true,
                Objective::PeriodUnderLatencyStrict(Rat::int(1000)),
            ),
            budget,
            "exact",
            "comm-exact",
        ),
        // binding reliability bounds: comm-bb cannot enforce them
        (
            "reliability n=3",
            reliable(&mut gen, 3),
            budget,
            "exact",
            "comm-exact",
        ),
        (
            "reliability n=8",
            reliable(&mut gen, 8),
            budget,
            "exact",
            "comm-heuristic",
        ),
        (
            "reliability n=11",
            reliable(&mut gen, 11),
            budget,
            "heuristic",
            "comm-heuristic",
        ),
    ];
    for (label, instance, budget, simplified, comm) in guarded {
        row(
            format!("{label} [comm]"),
            with_comm(&instance),
            budget,
            Some(comm),
        );
        row(label.to_string(), instance, budget, Some(simplified));
    }
    // simplified only: a 20-leaf comm enumeration walks every set
    // partition of the leaves
    for (leaves, auto) in [(20, "exact"), (21, "heuristic")] {
        let fork = Fork::new(3, het_weights(&mut gen, leaves));
        let instance =
            ProblemInstance::new(fork, Platform::homogeneous(1, 1), false, Objective::Latency);
        row(
            format!("wide, fork leaves={leaves}"),
            instance,
            wide,
            Some(auto),
        );
    }
    probes
}

/// A routing answer in comparable form: engine name and fallback, or
/// the error's debug text.
fn outcome(
    routed: Result<(&dyn Engine, Option<FallbackReason>), SolveError>,
) -> Result<(&'static str, Option<FallbackReason>), String> {
    routed
        .map(|(engine, fallback)| (engine.name(), fallback))
        .map_err(|e| format!("{e:?}"))
}

#[test]
fn route_is_the_engine_and_fallback_solve_reports() {
    // One truth table for routing: for every probe and every engine
    // preference, `route` names the engine and fallback `solve`
    // reports, or fails with the error `solve` fails with. `resolve` /
    // `resolve_comm` (what the repository benchmark picks its pool
    // with) must agree with it wherever they apply.
    let registry = EngineRegistry::default();
    let mut seen = std::collections::BTreeSet::new();
    // representation caps only: whether the exact engine can take the
    // instance at all
    let uncapped = Budget {
        max_exact_stages: usize::MAX,
        max_exact_procs: usize::MAX,
        max_comm_exact_stages: usize::MAX,
        max_comm_exact_procs: usize::MAX,
        ..Budget::default()
    };
    for probe in truth_table_probes() {
        let Probe {
            label,
            instance,
            budget,
            auto,
        } = probe;
        if let Some(expected) = auto {
            let (engine, _) = registry
                .route(&instance, EnginePref::Auto, &budget)
                .unwrap();
            assert_eq!(engine.name(), expected, "{label}: Auto");
        }
        let variant = instance.variant();
        let comm = instance.cost_model.is_comm_aware();
        for pref in PREFS {
            let case = format!("{label}, {pref:?}");
            let routed = registry.route(&instance, pref, &budget);
            // A forced exhaustive search past the budget's exact guard
            // is unbounded by design: check the slot, skip the run.
            if pref == EnginePref::Exact
                && !budget.fits_exact(&instance)
                && uncapped.fits_exact(&instance)
            {
                let slot = if comm { "comm-exact" } else { "exact" };
                assert_eq!(routed.as_ref().unwrap().0.name(), slot, "{case}");
                continue;
            }
            let solved = registry.solve(
                &SolveRequest::new(instance.clone())
                    .engine(pref)
                    .budget(budget),
            );
            match (&routed, &solved) {
                (Ok((engine, fallback)), Ok(report)) => {
                    assert_eq!(report.engine_used, engine.name(), "{case}");
                    assert_eq!(&report.fallback, fallback, "{case}");
                    seen.insert((engine.name(), format!("{fallback:?}")));
                }
                (Err(routed), Err(solved)) => {
                    assert_eq!(format!("{routed:?}"), format!("{solved:?}"), "{case}")
                }
                // an error raised by the routed engine itself
                (Ok((engine, _)), Err(solved)) => {
                    let direct = engine.solve(&instance, &budget).unwrap_err();
                    assert_eq!(format!("{direct:?}"), format!("{solved:?}"), "{case}");
                }
                (Err(e), Ok(report)) => {
                    panic!(
                        "{case}: route refused ({e}) but solve used {}",
                        report.engine_used
                    )
                }
            }
            let routed = outcome(routed);
            if comm {
                let resolved = registry.resolve_comm(pref, &variant, &instance, &budget);
                assert_eq!(outcome(resolved), routed, "{case}: resolve_comm");
            } else if !instance.objective.is_strict() {
                let resolved = registry.resolve(
                    pref,
                    &variant,
                    instance.workflow.n_stages(),
                    instance.platform.n_procs(),
                    &budget,
                );
                assert_eq!(
                    outcome(resolved.map(|e| (e, None))),
                    routed,
                    "{case}: resolve"
                );
            }
        }
    }
    // every route arm was exercised, including every fallback reason
    for arm in [
        "paper",
        "exact",
        "heuristic",
        "comm-exact",
        "comm-bb",
        "comm-heuristic",
        "hedged",
    ] {
        assert!(
            seen.iter().any(|(e, _)| *e == arm),
            "no probe reached {arm}"
        );
    }
    for reason in [
        "ReliabilityBound",
        "CommBbStages",
        "CommBbForkLeaves",
        "CommBbProcs",
    ] {
        assert!(
            seen.iter().any(|(_, f)| f.contains(reason)),
            "no probe fell back for {reason}"
        );
    }
}

#[test]
fn paper_pref_resolves_exactly_on_polynomial_cells() {
    let registry = EngineRegistry::default();
    let budget = Budget::default();
    for variant in all_variants() {
        let resolved = registry.resolve(EnginePref::Paper, &variant, 3, 3, &budget);
        match variant.paper_complexity() {
            Complexity::Polynomial(_) => {
                assert_eq!(resolved.unwrap().name(), "paper");
            }
            Complexity::NpHard(_) => {
                assert!(resolved.is_err(), "paper engine must refuse [{variant}]");
            }
        }
    }
}

#[test]
fn polynomial_cells_agree_with_the_exact_oracle() {
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0x7AB1E);
    let mut covered = 0;
    for variant in all_variants() {
        if !matches!(variant.paper_complexity(), Complexity::Polynomial(_)) {
            continue;
        }
        covered += 1;
        for _ in 0..8 {
            let instance = instance_of(&mut gen, &variant);
            let auto = registry
                .solve(&SolveRequest::new(instance.clone()))
                .unwrap_or_else(|e| panic!("auto solve failed on [{variant}]: {e}"));
            assert_eq!(
                auto.engine_used, "paper",
                "poly cell [{variant}] must route to paper"
            );
            assert_eq!(auto.optimality, Optimality::Proven);
            let exact = registry
                .solve(&SolveRequest::new(instance).engine(EnginePref::Exact))
                .unwrap();
            assert_eq!(
                auto.objective_value, exact.objective_value,
                "paper route disagrees with oracle on [{variant}]"
            );
        }
    }
    // half of Table 1 plus fork-join extensions is polynomial; make sure
    // the loop really exercised a broad set of cells
    assert!(covered >= 30, "only {covered} polynomial variants covered");
}

#[test]
fn np_hard_cells_auto_route_small_to_exact_and_large_to_heuristics() {
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0x7AB1F);
    for variant in all_variants() {
        if !matches!(variant.paper_complexity(), Complexity::NpHard(_)) {
            continue;
        }
        let instance = instance_of(&mut gen, &variant);
        let report = registry
            .solve(&SolveRequest::new(instance.clone()))
            .unwrap();
        assert_eq!(
            report.engine_used, "exact",
            "small NP-hard instances use the oracle"
        );
        assert_eq!(report.optimality, Optimality::Proven);

        // Shrinking the exact threshold to zero forces the heuristic
        // fallback; it must still produce a witness-backed report.
        let tiny_budget = Budget {
            max_exact_stages: 0,
            max_exact_procs: 0,
            ..Budget::default()
        };
        let report = registry
            .solve(&SolveRequest::new(instance).budget(tiny_budget))
            .unwrap();
        assert_eq!(report.engine_used, "heuristic");
        assert!(
            report.has_mapping(),
            "heuristic must emit a mapping on [{variant}]"
        );
    }
}

#[test]
fn solve_batch_hundred_instances_in_parallel_marks_proven_cells() {
    let registry = EngineRegistry::default();
    let service = SolverService::builder().workers(2).build();
    let mut gen = Gen::new(0xBA7C4);
    let variants = all_variants();
    let instances: Vec<ProblemInstance> = (0..120)
        .map(|i| instance_of(&mut gen, &variants[i % variants.len()]))
        .collect();

    let reports = service.solve_batch(&instances);
    assert_eq!(reports.len(), instances.len());

    for (i, (instance, report)) in instances.iter().zip(&reports).enumerate() {
        let report = report
            .as_ref()
            .unwrap_or_else(|e| panic!("batch item {i} failed: {e}"));
        assert!(report.has_mapping(), "batch item {i} has no mapping");
        // Auto routing proves optimality everywhere small: polynomial
        // cells via the paper engine, NP-hard cells via the oracle.
        if matches!(
            instance.variant().paper_complexity(),
            Complexity::Polynomial(_)
        ) {
            assert_eq!(report.optimality, Optimality::Proven, "batch item {i}");
            assert_eq!(report.engine_used, "paper", "batch item {i}");
        }
    }

    // Spot-check a sample of the parallel reports against the oracle.
    for i in (0..instances.len()).step_by(7) {
        let exact = registry
            .solve(&SolveRequest::new(instances[i].clone()).engine(EnginePref::Exact))
            .unwrap();
        let batch = reports[i].as_ref().unwrap();
        assert_eq!(
            batch.objective_value, exact.objective_value,
            "batch item {i}"
        );
    }
}

#[test]
fn forkjoin_heuristic_route_solves_what_the_old_cli_refused() {
    // A fork-join too large for the exact threshold, forced through the
    // heuristic engine: the pre-registry CLI printed an error here.
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0xF04C);
    let instance = ProblemInstance::new(
        gen.forkjoin(14, 1, 20),
        gen.het_platform(6, 1, 8),
        false,
        Objective::Latency,
    );
    assert!(instance.workflow.n_stages() > Budget::default().max_exact_stages);

    let auto = registry
        .solve(&SolveRequest::new(instance.clone()))
        .unwrap();
    assert_eq!(auto.engine_used, "heuristic");
    assert_eq!(auto.optimality, Optimality::Heuristic);
    assert!(auto.has_mapping());

    let forced = registry
        .solve(&SolveRequest::new(instance).engine(EnginePref::Heuristic))
        .unwrap();
    assert!(forced.has_mapping());
}

#[test]
fn exact_capacity_is_an_error_not_a_panic() {
    // The bitmask exact solvers hard-cap at 20 processors; forcing the
    // exact engine beyond that must surface SolveError, not abort.
    let registry = EngineRegistry::default();
    let instance = ProblemInstance::new(
        Pipeline::new(vec![3, 1, 4]),
        Platform::homogeneous(25, 1),
        false,
        Objective::Period,
    );
    let err = registry
        .solve(&SolveRequest::new(instance.clone()).engine(EnginePref::Exact))
        .unwrap_err();
    assert!(matches!(
        err,
        repliflow_solver::SolveError::ExceedsExactCapacity { .. }
    ));

    // Auto never routes into the wall, even with a budget far above the
    // hard cap: it falls back to heuristics and still solves.
    let huge_budget = Budget {
        max_exact_stages: 100,
        max_exact_procs: 100,
        ..Budget::default()
    };
    let np_hard = ProblemInstance {
        cost_model: repliflow_core::instance::CostModel::Simplified,
        // het pipeline / het platform / period = Theorem 9, NP-hard
        workflow: Pipeline::new(vec![3, 1, 4]).into(),
        platform: Platform::heterogeneous((1..=25).collect()),
        allow_data_parallel: false,
        objective: Objective::Period,
    };
    let report = registry
        .solve(&SolveRequest::new(np_hard).budget(huge_budget))
        .unwrap();
    assert_eq!(report.engine_used, "heuristic");
    assert!(report.has_mapping());
}

#[test]
fn witness_validation_is_on_by_default_and_consistent() {
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(0x77D0);
    for _ in 0..25 {
        let n = gen_size(&mut gen);
        let p = gen.size(1, 4);
        let instance = ProblemInstance::new(
            gen.pipeline(n, 1, 12),
            gen.het_platform(p, 1, 5),
            gen.flip(0.5),
            Objective::Latency,
        );
        let report = registry
            .solve(&SolveRequest::new(instance.clone()))
            .unwrap();
        // the report's numbers must match a fresh cost-model evaluation
        let mapping = report.mapping.unwrap();
        assert_eq!(
            instance
                .workflow
                .period(&instance.platform, &mapping)
                .unwrap(),
            report.period.unwrap()
        );
        assert_eq!(
            instance
                .workflow
                .latency(&instance.platform, &mapping)
                .unwrap(),
            report.latency.unwrap()
        );
    }
}

#[test]
fn batch_options_allow_forcing_engines() {
    let service = SolverService::builder().workers(2).build();
    let mut gen = Gen::new(0xBEEF);
    let instances: Vec<ProblemInstance> = (0..10)
        .map(|_| {
            ProblemInstance::new(
                gen.uniform_pipeline(3, 1, 9),
                gen.hom_platform(3, 1, 3),
                true,
                Objective::Period,
            )
        })
        .collect();
    let options = BatchOptions {
        engine: EnginePref::Heuristic,
        ..BatchOptions::default()
    };
    for result in service.solve_batch_with(&instances, &options) {
        let report = result.unwrap();
        assert_eq!(report.engine_used, "heuristic");
        assert_eq!(report.optimality, Optimality::Heuristic);
    }
}
