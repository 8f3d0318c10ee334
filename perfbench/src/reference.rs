//! The `cold_solve` pool and its committed reference answers.
//!
//! The pool is generated from [`config::POOL_SEED`], so every run and
//! every seed solves the same instances (the run seed only orders
//! them). `reference/cold_solve.json` records, per pool member, the
//! instance fingerprint, the engine, the optimality and the objective
//! the benchmark expects. `--regen-references` rewrites the file from
//! the current build; do that only when the benchmark itself changes.
//!
//! Checks against the reference: a proven or infeasible answer must
//! match exactly (a difference is a wrong answer); a heuristic answer's
//! objective ÷ the reference objective feeds `objective_gmean`.

use crate::config;
use crate::instances::{cold_candidate, Route};
use repliflow_core::gen::Gen;
use repliflow_core::instance::ProblemInstance;
use repliflow_solver::{
    Budget, EnginePref, EngineRegistry, Optimality, SolveReport, SolveRequest, SolverService,
};
use serde::Value;
use std::path::{Path, PathBuf};

pub struct PoolEntry {
    pub route: Route,
    pub request: SolveRequest,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    pub fingerprint: String,
    pub engine: String,
    pub optimality: String,
    pub objective: Option<String>,
}

/// The engine `Auto` routes an instance to under the default budget.
pub fn routed_engine(
    registry: &EngineRegistry,
    instance: &ProblemInstance,
) -> Option<&'static str> {
    let budget = Budget::default();
    let variant = instance.variant();
    if instance.cost_model.is_comm_aware() {
        registry
            .resolve_comm(EnginePref::Auto, &variant, instance, &budget)
            .ok()
            .map(|(engine, _)| engine.name())
    } else {
        registry
            .resolve(
                EnginePref::Auto,
                &variant,
                instance.workflow.n_stages(),
                instance.platform.n_procs(),
                &budget,
            )
            .ok()
            .map(|engine| engine.name())
    }
}

/// `count[r]` instances per route, drawn from `seed` and kept only when
/// `Auto` routes them to the route's engine.
pub fn generate(seed: u64, count: [usize; 5]) -> Vec<PoolEntry> {
    let registry = EngineRegistry::default();
    let mut gen = Gen::new(seed);
    let mut pool = Vec::new();
    for (route, n) in Route::ALL.into_iter().zip(count) {
        let mut kept = 0;
        while kept < n {
            let instance = cold_candidate(route, &mut gen);
            if routed_engine(&registry, &instance) == Some(route.engine()) {
                pool.push(PoolEntry {
                    route,
                    request: SolveRequest::new(instance),
                });
                kept += 1;
            }
        }
    }
    pool
}

/// The measured pool.
pub fn pool() -> Vec<PoolEntry> {
    generate(config::POOL_SEED, config::POOL_PER_ROUTE)
}

/// What a report says, in the reference's terms.
pub fn observed(entry: &PoolEntry, report: &SolveReport) -> Expected {
    Expected {
        fingerprint: format!("{:032x}", entry.request.fingerprint().as_u128()),
        engine: report.engine_used.to_string(),
        optimality: report.optimality.to_string(),
        objective: report.objective_value.map(|o| o.to_string()),
    }
}

pub fn path(root: &Path) -> PathBuf {
    root.join("perfbench/reference/cold_solve.json")
}

/// Loads the committed reference and checks it describes `pool`.
pub fn load(root: &Path, pool: &[PoolEntry]) -> Result<Vec<Expected>, String> {
    let file = path(root);
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let value = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    let entries = value
        .field("entries")
        .and_then(Value::as_array)
        .ok_or("reference file has no `entries` array")?;
    if entries.len() != pool.len() {
        return Err(format!(
            "reference lists {} pool members, the pool has {}; regenerate with --regen-references",
            entries.len(),
            pool.len()
        ));
    }
    let text_of = |v: &Value, key: &str| v.field(key).and_then(Value::as_str).map(str::to_string);
    entries
        .iter()
        .zip(pool)
        .enumerate()
        .map(|(i, (v, entry))| {
            let expected = Expected {
                fingerprint: text_of(v, "fingerprint").unwrap_or_default(),
                engine: text_of(v, "engine").unwrap_or_default(),
                optimality: text_of(v, "optimality").unwrap_or_default(),
                objective: text_of(v, "objective"),
            };
            let fingerprint = format!("{:032x}", entry.request.fingerprint().as_u128());
            if expected.fingerprint != fingerprint {
                return Err(format!(
                    "pool member {i} is not the instance the reference was made for; \
                     regenerate with --regen-references"
                ));
            }
            Ok(expected)
        })
        .collect()
}

/// Solves the pool and writes the reference file.
pub fn regenerate(root: &Path) -> Result<usize, String> {
    let pool = pool();
    let service = SolverService::builder().no_cache().build();
    let mut lines = Vec::new();
    for (i, entry) in pool.iter().enumerate() {
        let report = service
            .solve(&entry.request)
            .map_err(|e| format!("pool member {i} fails to solve: {e}"))?;
        if report.engine_used != entry.route.engine() {
            return Err(format!(
                "pool member {i} ran on {} instead of {}",
                report.engine_used,
                entry.route.engine()
            ));
        }
        if report.optimality == Optimality::Heuristic && report.search.is_some_and(|s| !s.completed)
        {
            return Err(format!(
                "pool member {i}: search hit its limits; its answer is timing-dependent"
            ));
        }
        let e = observed(entry, &report);
        let line = Value::Object(vec![
            ("fingerprint".into(), Value::String(e.fingerprint)),
            ("engine".into(), Value::String(e.engine)),
            ("optimality".into(), Value::String(e.optimality)),
            (
                "objective".into(),
                e.objective.map_or(Value::Null, Value::String),
            ),
        ]);
        lines.push(serde_json::to_string(&line).map_err(|e| e.to_string())?);
    }
    let text = format!(
        "{{\"pool_seed\":{},\"per_route\":{:?},\"entries\":[\n{}\n]}}\n",
        config::POOL_SEED,
        config::POOL_PER_ROUTE,
        lines.join(",\n")
    );
    let file = path(root);
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&file, text).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    Ok(pool.len())
}

/// `a/b` or `a` as f64.
pub fn rat_f64(text: &str) -> Option<f64> {
    match text.split_once('/') {
        Some((n, d)) => Some(n.trim().parse::<f64>().ok()? / d.trim().parse::<f64>().ok()?),
        None => text.trim().parse().ok(),
    }
}

/// Compares an answer with its reference: `Ok(Some(ratio))` for a
/// heuristic reference, `Ok(None)` for an exact match of a proven or
/// infeasible one, `Err` for a wrong answer.
pub fn compare(expected: &Expected, got: &Expected) -> Result<Option<f64>, String> {
    if expected.optimality == "heuristic" {
        if got.optimality == "infeasible" {
            return Err(format!(
                "answered infeasible, reference is heuristic {:?}",
                expected.objective
            ));
        }
        let (Some(e), Some(g)) = (
            expected.objective.as_deref().and_then(rat_f64),
            got.objective.as_deref().and_then(rat_f64),
        ) else {
            return Err("heuristic answer without an objective".into());
        };
        return Ok(Some(g / e));
    }
    if expected.optimality != got.optimality || expected.objective != got.objective {
        return Err(format!(
            "answered {} {:?}, reference is {} {:?}",
            got.optimality, got.objective, expected.optimality, expected.objective
        ));
    }
    Ok(None)
}
