//! `SolveReport` memoizes its canonical text on the first
//! `canonical_json()` call. These tests pin that the memo never serves
//! stale bytes: a clone starts empty, a struct-update copy with changed
//! fields renders its own text, and a cached entry's memo equals a
//! fresh render of the same report.

use repliflow_core::gen::Gen;
use repliflow_core::prelude::*;
use repliflow_solver::{
    Budget, FallbackReason, Optimality, Provenance, Quality, SolveReport, SolveRequest,
    SolverService,
};
use repliflow_sync::sync::Arc;

fn filled(report: &SolveReport) -> bool {
    format!("{:?}", report.canonical).contains("filled: true")
}

/// A fresh render of `report`'s canonical text: a clone starts with an
/// empty memo.
fn fresh_render(report: &SolveReport) -> String {
    report.clone().canonical_json()
}

fn seeded_instances(count: usize) -> Vec<ProblemInstance> {
    let mut gen = Gen::new(0xC40E);
    (0..count)
        .map(|i| {
            let n = gen.size(1, 6);
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
                match i % 3 {
                    0 => Objective::Period,
                    1 => Objective::Latency,
                    _ => Objective::LatencyUnderPeriod(Rat::new(gen.int(1, 30) as i128, 2)),
                },
            );
            if i % 4 == 3 {
                instance.with_cost_model(CostModel::WithComm {
                    network: gen.het_network(p, 1, 4),
                    comm: CommModel::BoundedMultiPort,
                    overlap: true,
                })
            } else {
                instance
            }
        })
        .collect()
}

fn solved() -> SolveReport {
    let service = SolverService::builder().workers(1).no_cache().build();
    let instance = seeded_instances(1).remove(0);
    (*service.solve(&SolveRequest::new(instance)).expect("solves")).clone()
}

#[test]
fn a_clone_starts_empty() {
    let report = solved();
    assert!(!filled(&report));
    let text = report.canonical_json();
    assert!(filled(&report));
    assert_eq!(report.canonical_text(), text);
    let copy = report.clone();
    assert!(!filled(&copy), "a clone must not carry the memo");
    assert_eq!(copy.canonical_json(), text);
}

#[test]
fn struct_update_copies_render_their_own_text() {
    let report = solved();
    let before = report.canonical_json();
    assert!(!before.contains("fallback"));

    let fallback = SolveReport {
        fallback: Some(FallbackReason::ReliabilityBound),
        ..report.clone()
    };
    let text = fallback.canonical_json();
    assert_ne!(text, before);
    assert!(
        text.ends_with(r#","fallback":"comm-bb declined: binding reliability bound"}"#),
        "{text}"
    );

    let heuristic = SolveReport {
        optimality: Optimality::Heuristic,
        ..report.clone()
    };
    let text = heuristic.canonical_json();
    assert!(text.contains(r#""optimality":"heuristic""#), "{text}");
    assert_eq!(
        text,
        before.replace(r#""optimality":"proven""#, r#""optimality":"heuristic""#)
    );

    // serving metadata stays out of the canonical text
    let cached = SolveReport {
        provenance: Provenance::Cached,
        ..report.clone()
    };
    assert_eq!(cached.canonical_json(), before);
    assert_eq!(
        report.canonical_json(),
        before,
        "the original memo is untouched"
    );
}

#[test]
fn cached_entries_memoize_a_fresh_render() {
    let service = SolverService::builder().workers(2).build();
    let budget = Budget::default().quality(Quality::Fast);
    for (i, instance) in seeded_instances(24).into_iter().enumerate() {
        let request = SolveRequest::new(instance).budget(budget);
        let computed = service.solve(&request).expect("solves");
        let first_hit = service.solve(&request).expect("hits");
        assert_eq!(first_hit.provenance, Provenance::Cached, "instance {i}");
        let text = first_hit.canonical_text().to_string();
        assert_eq!(text, computed.canonical_json(), "instance {i}");
        assert_eq!(text, fresh_render(&first_hit), "instance {i}");
        // later hits share the entry and its filled memo
        let second_hit = service.solve(&request).expect("hits");
        assert!(Arc::ptr_eq(&first_hit, &second_hit), "instance {i}");
        assert!(filled(&second_hit), "instance {i}");
        assert_eq!(
            second_hit.canonical_text(),
            fresh_render(&second_hit),
            "instance {i}"
        );
    }
}
