//! The request parser decodes `instance` straight from the line's
//! text. These tests pin that it yields exactly the instance — and so
//! the fingerprint the solve cache keys on — that decoding the same
//! JSON through a `Value` tree yields, over every golden instance and
//! seeded random instances in every wire shape the tree path accepts.

use repliflow_core::gen::Gen;
use repliflow_core::prelude::*;
use repliflow_serve::protocol::{parse_request, Verb};
use serde::{Deserialize, Serialize, Value};
use serde_json::parse_value;
use std::path::Path;

/// The instance a tree decode of `text` yields.
fn tree_decode(text: &str) -> ProblemInstance {
    let value = parse_value(text).expect("instance JSON parses");
    ProblemInstance::deserialize(&value).expect("tree decode accepts the instance")
}

/// `instance` embedded in a `solve` and a `pareto` request, with the
/// field first, in the middle and last on the line.
fn request_lines(text: &str) -> Vec<String> {
    vec![
        format!(r#"{{"instance":{text},"v":1,"id":"a","verb":"solve"}}"#),
        format!(r#"{{"v":1,"id":2,"verb":"solve","instance":{text},"engine":"auto"}}"#),
        format!(r#"{{"v":1,"verb":"pareto","id":"c","points":4,"instance":{text}}}"#),
    ]
}

/// Checks every request form of `text` against the tree decode.
fn assert_stream_matches_tree(text: &str, what: &str) {
    let expected = tree_decode(text);
    for line in request_lines(text) {
        let request = parse_request(&line)
            .unwrap_or_else(|f| panic!("{what}: request rejected: {}", f.message));
        let instance = match request.verb {
            Verb::Solve(body) => body.instance,
            Verb::Pareto(body) => body.instance,
            _ => panic!("{what}: parsed as an admin verb"),
        };
        assert_eq!(instance, expected, "{what}: instance differs");
        assert_eq!(
            instance.fingerprint(),
            expected.fingerprint(),
            "{what}: fingerprint differs"
        );
    }
}

#[test]
fn every_golden_instance_decodes_as_the_tree_decodes_it() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/instances");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/instances is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("golden is readable");
        assert_stream_matches_tree(&text, &path.display().to_string());
        seen += 1;
    }
    assert!(seen >= 8, "golden instance set shrank unexpectedly");
}

/// A random instance: any workflow kind, platform shape, objective and
/// cost model, sometimes with failure probabilities.
fn random_instance(gen: &mut Gen) -> ProblemInstance {
    let n = gen.size(1, 7);
    let workflow: Workflow = match gen.int(0, 2) {
        0 => gen.pipeline(n, 1, 20).into(),
        1 => gen.fork(n, 1, 20).into(),
        _ => gen.forkjoin(n, 1, 20).into(),
    };
    let p = gen.size(1, 5);
    let mut platform = if gen.flip(0.5) {
        gen.hom_platform(p, 1, 4)
    } else {
        gen.het_platform(p, 1, 4)
    };
    if gen.flip(0.3) {
        let probs = (0..p)
            .map(|_| Rat::new(gen.int(0, 9) as i128, 10))
            .collect();
        platform = platform.with_failure_probs(probs);
    }
    let bound = Rat::new(gen.int(1, 60) as i128, gen.int(1, 4) as i128);
    let objective = match gen.int(0, 5) {
        0 => Objective::Period,
        1 => Objective::Latency,
        2 => Objective::LatencyUnderPeriod(bound),
        3 => Objective::PeriodUnderLatency(bound),
        4 => Objective::LatencyUnderReliability(Rat::new(9, 10)),
        _ => Objective::PeriodUnderReliability(Rat::new(1, 2)),
    };
    let instance = ProblemInstance::new(workflow, platform, gen.flip(0.5), objective);
    if gen.flip(0.5) {
        return instance;
    }
    let network = if gen.flip(0.5) {
        gen.uniform_network(p, 1, 5)
    } else {
        gen.het_network(p, 1, 5)
    };
    let comm = if gen.flip(0.5) {
        CommModel::OnePort
    } else {
        CommModel::BoundedMultiPort
    };
    instance.with_cost_model(CostModel::WithComm {
        network,
        comm,
        overlap: gen.flip(0.5),
    })
}

/// Rewrites a serialized instance into another wire shape the tree
/// decode accepts: object fields shuffled at every level, some
/// integers written as integral floats (`4.0`).
fn reshape(gen: &mut Gen, value: Value) -> Value {
    match value {
        Value::Object(mut fields) => {
            for i in (1..fields.len()).rev() {
                fields.swap(i, gen.size(0, i));
            }
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k, reshape(gen, v)))
                    .collect(),
            )
        }
        Value::Array(items) => Value::Array(items.into_iter().map(|v| reshape(gen, v)).collect()),
        Value::Int(i) if gen.flip(0.2) => Value::Float(i as f64),
        other => other,
    }
}

/// Drops `cost_model` when it names the simplified model, as instance
/// JSON from before the field existed lacks it. (`failure` is already
/// absent unless some probability is nonzero.)
fn legacy(value: Value) -> Value {
    match value {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, v)| !(k == "cost_model" && v == &Value::String("Simplified".into())))
                .map(|(k, v)| (k, legacy(v)))
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn random_instances_decode_as_the_tree_decodes_them() {
    let mut gen = Gen::new(0x57_2EA4);
    for case in 0..300 {
        let instance = random_instance(&mut gen);
        let mut value = instance.serialize();
        if gen.flip(0.5) {
            value = legacy(value);
        }
        let reshaped = gen.flip(0.7);
        if reshaped {
            value = reshape(&mut gen, value);
        }
        let text = serde_json::to_string(&value).expect("instance renders");
        assert_stream_matches_tree(&text, &format!("case {case}: {text}"));
        if !reshaped {
            assert_eq!(tree_decode(&text), instance, "case {case}: round trip");
        }
    }
}

#[test]
fn broken_instances_fail_alike_with_the_id_echoed() {
    for bad in [
        r#"{"nope":1}"#,
        "null",
        "[1,2]",
        r#"{"workflow":{"Pipeline":{"weights":[1],"data_sizes":[0,0]}},"platform":{"speeds":[0]},"allow_data_parallel":true,"objective":"Period"}"#,
        r#"{"workflow":{"Spiral":{}},"platform":{"speeds":[1]},"allow_data_parallel":true,"objective":"Period"}"#,
    ] {
        let tree = parse_value(bad)
            .ok()
            .and_then(|v| ProblemInstance::deserialize(&v).ok());
        assert!(tree.is_none(), "{bad}: the tree decode rejects it");
        for line in request_lines(bad) {
            let failure = parse_request(&line).expect_err("a broken instance is rejected");
            assert_eq!(failure.code.as_str(), "bad_request", "{line}");
            assert!(failure.message.starts_with("invalid instance"), "{line}");
            assert_ne!(failure.id, Value::Null, "{line}: id echoed");
        }
    }
    // Malformed JSON inside the instance is a syntax error of the whole
    // line: no id is trusted from it.
    for line in request_lines(r#"{"workflow":[1.2.3]}"#) {
        let failure = parse_request(&line).expect_err("malformed JSON is rejected");
        assert!(failure.message.starts_with("malformed JSON"), "{line}");
        assert_eq!(failure.id, Value::Null);
    }
}

#[test]
fn checks_run_in_the_same_order_whatever_the_field_order() {
    // A bad version wins over a bad instance, wherever either sits.
    for line in [
        r#"{"instance":{"nope":1},"v":2,"id":"x","verb":"solve"}"#,
        r#"{"v":2,"id":"x","verb":"solve","instance":{"nope":1}}"#,
    ] {
        let failure = parse_request(line).expect_err("rejected");
        assert_eq!(failure.code.as_str(), "unsupported_version", "{line}");
        assert_eq!(failure.id, Value::String("x".into()));
    }
    // An unknown field wins over a bad instance.
    let failure = parse_request(r#"{"instance":{"nope":1},"v":1,"id":"x","verb":"solve","zz":1}"#)
        .expect_err("rejected");
    assert!(
        failure.message.contains("unknown field `zz`"),
        "{}",
        failure.message
    );
    // An instance on an admin verb is an unknown field, not decoded.
    let failure =
        parse_request(r#"{"v":1,"id":"x","verb":"ping","instance":{"nope":1}}"#).expect_err("x");
    assert!(
        failure.message.contains("only valid on verbs"),
        "{}",
        failure.message
    );
}
