//! Seeded instance generators for every workload.
//!
//! The program under test only ever sees what these functions build:
//! each workload derives its inputs from the `--seed` argument (hot-set
//! members) or from a fixed seed (the `cold_solve` pool, whose reference
//! answers are committed, and the fronts its traced run replays).

use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::platform::Platform;
use repliflow_core::workflow::{Pipeline, Workflow};
use repliflow_solver::CommModel;
use std::path::Path;

/// The engine route a `cold_solve` pool class is built to exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Polynomial Table 1 cells: the paper's algorithms.
    Paper,
    /// Small NP-hard cells: exhaustive search.
    Exact,
    /// Communication-aware instances of at most 12 stages.
    CommBb,
    /// Large simplified-model forks and fork-joins.
    Heuristic,
    /// Large communication-aware forks and fork-joins.
    CommHeuristic,
}

impl Route {
    /// Every route, in pool order.
    pub const ALL: [Route; 5] = [
        Route::Paper,
        Route::Exact,
        Route::CommBb,
        Route::Heuristic,
        Route::CommHeuristic,
    ];

    /// The engine name `SolveReport::engine_used` reports for the route.
    pub fn engine(self) -> &'static str {
        match self {
            Route::Paper => "paper",
            Route::Exact => "exact",
            Route::CommBb => "comm-bb",
            Route::Heuristic => "heuristic",
            Route::CommHeuristic => "comm-heuristic",
        }
    }
}

fn objective(gen: &mut Gen) -> Objective {
    if gen.flip(0.5) {
        Objective::Period
    } else {
        Objective::Latency
    }
}

fn het_network_model(gen: &mut Gen, p: usize) -> CostModel {
    CostModel::WithComm {
        network: gen.het_network(p, 1, 4),
        comm: if gen.flip(0.5) {
            CommModel::OnePort
        } else {
            CommModel::BoundedMultiPort
        },
        overlap: gen.flip(0.5),
    }
}

/// A pipeline whose data sizes are drawn too (comm-aware instances need
/// transfers to cost something).
fn pipeline_with_data(gen: &mut Gen, n: usize) -> Pipeline {
    let weights = (0..n).map(|_| gen.int(1, 12)).collect();
    let sizes = (0..=n).map(|_| gen.int(0, 6)).collect();
    Pipeline::with_data_sizes(weights, sizes)
}

/// One candidate instance for a pool route. Candidates are generated in
/// the cells the route serves; [`crate::reference::generate`] keeps
/// those the registry actually routes there.
pub fn cold_candidate(route: Route, gen: &mut Gen) -> ProblemInstance {
    let kind = gen.size(0, 5);
    match route {
        Route::Paper => {
            let (n, p) = (gen.size(10, 40), gen.size(3, 8));
            match kind {
                // Thm 1-4: any pipeline on a homogeneous platform
                0 => ProblemInstance::new(
                    gen.pipeline(n, 1, 20),
                    gen.hom_platform(p, 1, 4),
                    gen.flip(0.5),
                    objective(gen),
                ),
                // Thm 10: any fork, homogeneous platform, period
                1 => ProblemInstance::new(
                    gen.fork(n, 1, 20),
                    gen.hom_platform(p, 1, 4),
                    gen.flip(0.5),
                    Objective::Period,
                ),
                // Thm 11: homogeneous fork, homogeneous platform, latency
                2 => ProblemInstance::new(
                    gen.uniform_fork(n, 1, 20),
                    gen.hom_platform(p, 1, 4),
                    gen.flip(0.5),
                    Objective::Latency,
                ),
                // Thm 6-8: homogeneous pipeline, heterogeneous platform
                3 => ProblemInstance::new(
                    gen.uniform_pipeline(n, 1, 20),
                    gen.het_platform(p, 1, 6),
                    false,
                    objective(gen),
                ),
                // Thm 6: heterogeneous pipeline latency, heterogeneous platform
                4 => ProblemInstance::new(
                    gen.pipeline(n, 1, 20),
                    gen.het_platform(p, 1, 6),
                    false,
                    Objective::Latency,
                ),
                // Thm 14: homogeneous fork, heterogeneous platform, no data-par
                _ => ProblemInstance::new(
                    gen.uniform_fork(n, 1, 20),
                    gen.het_platform(p, 1, 6),
                    false,
                    objective(gen),
                ),
            }
        }
        Route::Exact => match kind % 3 {
            // Thm 9: heterogeneous pipeline period, heterogeneous platform
            0 => {
                let (n, p) = (gen.size(5, 8), gen.size(3, 5));
                ProblemInstance::new(
                    gen.pipeline(n, 1, 20),
                    gen.het_platform(p, 1, 6),
                    false,
                    Objective::Period,
                )
            }
            // Thm 5: pipelines with data-parallelism, heterogeneous platform
            1 => {
                let (n, p) = (gen.size(4, 6), gen.size(3, 4));
                ProblemInstance::new(
                    gen.pipeline(n, 1, 20),
                    gen.het_platform(p, 1, 6),
                    true,
                    objective(gen),
                )
            }
            // Thm 12/15: heterogeneous forks
            _ => {
                let (n, p) = (gen.size(3, 6), gen.size(2, 4));
                ProblemInstance::new(
                    gen.fork(n, 1, 20),
                    gen.het_platform(p, 1, 6),
                    false,
                    objective(gen),
                )
            }
        },
        Route::CommBb => {
            let (n, p) = (gen.size(7, 10), gen.size(3, 5));
            let platform = gen.het_platform(p, 1, 5);
            let model = het_network_model(gen, p);
            ProblemInstance::new(pipeline_with_data(gen, n), platform, false, objective(gen))
                .with_cost_model(model)
        }
        Route::Heuristic => {
            let (leaves, p) = (gen.size(11, 14), gen.size(3, 5));
            let workflow: Workflow = if kind.is_multiple_of(2) {
                gen.fork(leaves, 1, 20).into()
            } else {
                gen.forkjoin(leaves, 1, 20).into()
            };
            ProblemInstance::new(workflow, gen.het_platform(p, 1, 6), false, objective(gen))
        }
        Route::CommHeuristic => {
            let (leaves, p) = (gen.size(11, 14), gen.size(3, 5));
            let workflow: Workflow = if kind.is_multiple_of(2) {
                gen.fork(leaves, 1, 12).into()
            } else {
                gen.forkjoin(leaves, 1, 12).into()
            };
            let platform = gen.het_platform(p, 1, 5);
            let model = het_network_model(gen, p);
            ProblemInstance::new(workflow, platform, false, objective(gen)).with_cost_model(model)
        }
    }
}

/// A large single-line instance for the warm hot set: a long pipeline on
/// a polynomial cell (Thm 1 period or Thm 2 latency on a homogeneous
/// platform, Thm 6 latency on a heterogeneous one), so its one cold solve
/// during warm-up is cheap while its request line is `stages` numbers
/// long.
pub fn large_pipeline(gen: &mut Gen, stages: usize, kind: usize) -> ProblemInstance {
    let weights: Vec<u64> = (0..stages).map(|_| gen.int(100, 999)).collect();
    let sizes: Vec<u64> = (0..=stages).map(|_| gen.int(10, 99)).collect();
    let pipeline = Pipeline::with_data_sizes(weights, sizes);
    match kind % 3 {
        0 => ProblemInstance::new(
            pipeline,
            Platform::homogeneous(8, 3),
            false,
            Objective::Period,
        ),
        1 => ProblemInstance::new(
            pipeline,
            Platform::homogeneous(4, 2),
            false,
            Objective::Latency,
        ),
        _ => ProblemInstance::new(
            pipeline,
            gen.het_platform(6, 1, 9),
            false,
            Objective::Latency,
        ),
    }
}

/// A small mixed instance for the hot set:
/// pipelines, forks and fork-joins over both platform kinds, a third of
/// them communication-aware (kept inside the proven routes so warm-up
/// stays short).
pub fn small_mixed(gen: &mut Gen, i: usize) -> ProblemInstance {
    let p = 2 + i % 3;
    let platform = if i.is_multiple_of(2) {
        gen.hom_platform(p, 1, 4)
    } else {
        gen.het_platform(p, 1, 4)
    };
    let workflow: Workflow = match i % 3 {
        0 => gen.pipeline(2 + i % 5, 1, 9).into(),
        1 => gen.fork(2 + i % 4, 1, 9).into(),
        _ => gen.forkjoin(2 + i % 3, 1, 9).into(),
    };
    let objective = if i.is_multiple_of(2) {
        Objective::Period
    } else {
        Objective::Latency
    };
    let instance = ProblemInstance::new(workflow, platform, i.is_multiple_of(4), objective);
    if i.is_multiple_of(3) {
        instance.with_cost_model(CostModel::WithComm {
            network: gen.uniform_network(p, 1, 4),
            comm: CommModel::OnePort,
            overlap: i.is_multiple_of(2),
        })
    } else {
        instance
    }
}

/// Member `j` of the fixed sequence of front instances the traced
/// `cold_solve` run replays: a small heterogeneous pipeline whose exact
/// front is a handful of bounded solves.
pub fn front_instance(j: u64) -> ProblemInstance {
    let gen = &mut Gen::new(crate::config::FRONT_SEED ^ 0xF207_7000 ^ j);
    let (n, p) = (gen.size(4, 6), gen.size(3, 4));
    ProblemInstance::new(
        gen.pipeline(n, 1, 20),
        gen.het_platform(p, 1, 6),
        false,
        Objective::Latency,
    )
}

/// Every golden instance under `examples/instances/`, in file-name
/// order, with its name.
pub fn goldens(root: &Path) -> Result<Vec<(String, ProblemInstance)>, String> {
    let dir = root.join("examples/instances");
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let json = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            let instance = serde_json::from_str(&json)
                .map_err(|e| format!("cannot parse {}: {e}", p.display()))?;
            Ok((name, instance))
        })
        .collect()
}
