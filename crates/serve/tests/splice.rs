//! The daemon renders `solve` and `pareto` answers by splicing each
//! report's canonical text into the response envelope instead of
//! parsing it back into a tree. These tests pin that the spliced line
//! is byte-identical to the tree-built one,
//! `ok_response(id, report_to_wire(&report))` (and its pareto twin),
//! over every golden instance, seeded instances, every report shape
//! (infeasible, fallback reasons, search counters) and ids that need
//! escaping.

use repliflow_core::gen::Gen;
use repliflow_core::prelude::*;
use repliflow_multicrit::{FrontReport, FrontRequest, FrontSolver};
use repliflow_serve::protocol::{
    front_ok_response, front_to_wire, ok_response, report_ok_response, report_to_wire,
};
use repliflow_solver::{
    Budget, FallbackReason, Optimality, Provenance, Quality, SearchStats, SolveReport,
    SolveRequest, SolverService,
};
use repliflow_sync::sync::Arc;
use serde::Value;
use std::path::Path;
use std::time::Duration;

/// Request ids a client may send: plain and escaped strings, and
/// integers up to the `i128` bounds.
fn ids() -> Vec<Value> {
    let strings = [
        "",
        "r-1",
        "quote \" backslash \\ slash /",
        "control \u{1}\u{8}\u{c}\u{1f} newline \n tab \t return \r",
        "non-ASCII é ✓ 😀",
    ];
    let ints = [
        0,
        7,
        -1,
        -42,
        i64::MIN as i128,
        i64::MAX as i128,
        i128::MIN,
        i128::MAX,
    ];
    strings
        .into_iter()
        .map(|s| Value::String(s.into()))
        .chain(ints.into_iter().map(Value::Int))
        .collect()
}

fn goldens() -> Vec<(String, ProblemInstance)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/instances");
    let mut goldens: Vec<(String, ProblemInstance)> = std::fs::read_dir(&dir)
        .expect("examples/instances is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("golden is readable");
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, serde_json::from_str(&text).expect("golden parses"))
        })
        .collect();
    goldens.sort_by(|a, b| a.0.cmp(&b.0));
    goldens
}

fn seeded_instances() -> Vec<ProblemInstance> {
    let mut gen = Gen::new(0x0591_1CE0);
    (0..12)
        .map(|i| {
            let n = gen.size(1, 5);
            let workflow: Workflow = match i % 3 {
                0 => gen.pipeline(n, 1, 20).into(),
                1 => gen.fork(n, 1, 20).into(),
                _ => gen.forkjoin(n, 1, 20).into(),
            };
            let p = gen.size(1, 4);
            let instance = ProblemInstance::new(
                workflow,
                gen.het_platform(p, 1, 5),
                i % 2 == 0,
                match i % 4 {
                    0 => Objective::Period,
                    1 => Objective::Latency,
                    // a tight bound: often unattainable, so infeasible
                    2 => Objective::LatencyUnderPeriod(Rat::new(1, 3)),
                    _ => Objective::PeriodUnderLatency(Rat::int(gen.int(5, 60) as i128)),
                },
            );
            if i % 3 == 1 {
                instance.with_cost_model(CostModel::WithComm {
                    network: gen.het_network(p, 1, 4),
                    comm: CommModel::OnePort,
                    overlap: false,
                })
            } else {
                instance
            }
        })
        .collect()
}

fn service() -> Arc<SolverService> {
    Arc::new(SolverService::builder().workers(2).no_cache().build())
}

fn assert_solve_splice(report: &SolveReport, what: &str) {
    for id in ids() {
        let tree = ok_response(&id, report_to_wire(report));
        // once with the memo empty, once with it filled
        let fresh = SolveReport { ..report.clone() };
        assert_eq!(report_ok_response(&id, &fresh), tree, "{what}, id {id:?}");
        assert_eq!(
            report_ok_response(&id, &fresh),
            tree,
            "{what}, id {id:?} (memo)"
        );
    }
}

fn assert_front_splice(report: &FrontReport, what: &str) {
    for id in ids() {
        let tree = ok_response(&id, front_to_wire(report));
        assert_eq!(front_ok_response(&id, report), tree, "{what}, id {id:?}");
    }
}

#[test]
fn solve_responses_splice_byte_identically() {
    let service = service();
    let budget = Budget::default().quality(Quality::Fast);
    let mut solved = 0;
    let instances = goldens().into_iter().chain(
        seeded_instances()
            .into_iter()
            .enumerate()
            .map(|(i, inst)| (format!("seeded {i}"), inst)),
    );
    for (name, instance) in instances {
        let request = SolveRequest::new(instance).budget(budget);
        match service.solve(&request) {
            Ok(report) => {
                assert_solve_splice(&report, &name);
                solved += 1;
            }
            Err(e) => panic!("{name}: {e}"),
        }
    }
    assert!(solved >= 20, "too few reports checked");
}

#[test]
fn every_report_shape_splices_byte_identically() {
    let service = service();
    let instance = goldens().remove(0).1;
    let base = (*service.solve(&SolveRequest::new(instance)).expect("solves")).clone();
    let mut shapes = vec![
        (
            "infeasible",
            SolveReport {
                optimality: Optimality::Infeasible,
                mapping: None,
                period: None,
                latency: None,
                objective_value: None,
                ..base.clone()
            },
        ),
        (
            "search stats",
            SolveReport {
                search: Some(SearchStats {
                    nodes: u64::MAX,
                    pruned_bound: 0,
                    pruned_dominated: 17,
                    completed: false,
                }),
                provenance: Provenance::Escalated,
                wall_time: Duration::from_nanos(1_234_567_891),
                ..base.clone()
            },
        ),
    ];
    for fallback in [
        FallbackReason::CommBbProcs {
            n_procs: 33,
            cap: 32,
        },
        FallbackReason::CommBbStages {
            n_stages: 200,
            cap: 128,
        },
        FallbackReason::CommBbForkLeaves {
            leaves: 40,
            cap: 24,
        },
        FallbackReason::ReliabilityBound,
    ] {
        shapes.push((
            "fallback",
            SolveReport {
                fallback: Some(fallback),
                provenance: Provenance::Cached,
                ..base.clone()
            },
        ));
    }
    for (what, report) in &shapes {
        assert_solve_splice(report, what);
    }
}

#[test]
fn pareto_responses_splice_byte_identically() {
    let fronts = FrontSolver::without_cache(service());
    let budget = Budget::default().quality(Quality::Fast).max_front_points(6);
    let instances = goldens()
        .into_iter()
        .filter(|(name, _)| name.starts_with("multicrit") || name.starts_with("hom_pipeline"))
        .chain(
            seeded_instances()
                .into_iter()
                .take(4)
                .enumerate()
                .map(|(i, inst)| (format!("seeded {i}"), inst)),
        );
    for (name, instance) in instances {
        let report = fronts
            .solve_front(&FrontRequest::new(instance).budget(budget))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!report.points.is_empty(), "{name}: empty front");
        assert_front_splice(&report, &name);
    }
    let empty = FrontReport {
        points: Vec::new(),
        complete: false,
        truncated: true,
        engine_used: "front-sweep",
        provenance: Provenance::Cached,
        wall_time: Duration::ZERO,
    };
    assert_front_splice(&empty, "empty front");
}
