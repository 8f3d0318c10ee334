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

/// A direct decode's outcome, with the error as text.
type Decoded = Result<ProblemInstance, String>;

/// Both direct decodes of `text`: the tree decode and the streaming
/// decode.
fn both_decodes(text: &str) -> (Decoded, Decoded) {
    let tree = serde_json::from_str::<ProblemInstance>(text).map_err(|e| e.to_string());
    let streamed =
        serde_json::from_str_streaming::<ProblemInstance>(text).map_err(|e| e.to_string());
    (tree, streamed)
}

/// Repeats keys at every object level of a serialized instance. A
/// repeat after the original carries any valid JSON (it is skipped); a
/// repeat before it, rarer, carries junk the decode of that field
/// mostly rejects, and `junk_first` records it.
fn with_duplicates(gen: &mut Gen, value: Value, junk_first: &mut bool) -> Value {
    let junk = |gen: &mut Gen| match gen.int(0, 3) {
        0 => Value::Array(vec![Value::Int(99), Value::Int(99)]),
        1 => Value::Null,
        2 => Value::String("junk".into()),
        _ => Value::Object(vec![("junk".into(), Value::Array(Vec::new()))]),
    };
    match value {
        Value::Object(fields) => {
            let single = fields.len() == 1;
            let mut out = Vec::new();
            for (key, field) in fields {
                // a variant object (`{"Pipeline": {...}}`) must keep
                // one key on both paths; only its payload gets repeats
                let repeat = !single && gen.flip(0.4);
                if repeat && gen.flip(0.1) {
                    *junk_first = true;
                    out.push((key.clone(), junk(gen)));
                }
                out.push((key.clone(), with_duplicates(gen, field, junk_first)));
                if repeat {
                    out.push((key, junk(gen)));
                }
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(
            items
                .into_iter()
                .map(|v| with_duplicates(gen, v, junk_first))
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn the_first_of_repeated_keys_wins_at_every_level() {
    // A valid first value wins over a valid repeat on both paths, in
    // the instance, workflow, platform, cost model and network objects.
    let text = r#"{
        "workflow": {"Pipeline": {"weights": [99, 99], "data_sizes": [1, 2, 3],
                                  "weights": [14, 4, 2, 4], "data_sizes": [0, 0, 0, 0, 0]}},
        "workflow": {"Pipeline": {"weights": [5], "data_sizes": [0, 0]}},
        "platform": {"speeds": [2, 1], "failure": [{"num": 1, "den": 10}, {"num": 0, "den": 1}],
                     "speeds": [7], "failure": "junk"},
        "platform": {"speeds": [3]},
        "allow_data_parallel": false, "allow_data_parallel": true,
        "objective": "Period", "objective": {"LatencyUnderPeriod": {"num": 1, "den": 2}},
        "cost_model": {"WithComm": {
            "network": {"proc_bw": [[1, 2], [2, 1]], "input_bw": [3, 3], "output_bw": [4, 4],
                        "node_capacity": 2, "infinite": false,
                        "proc_bw": [[9]], "input_bw": [9], "node_capacity": null},
            "network": {"proc_bw": []},
            "comm": "OnePort", "overlap": true, "comm": "BoundedMultiPort", "overlap": false}},
        "cost_model": "Simplified"
    }"#;
    let expected = tree_decode(text);
    let Workflow::Pipeline(pipeline) = &expected.workflow else {
        panic!("the first workflow wins");
    };
    assert_eq!(pipeline.weights(), &[99, 99]);
    assert_eq!(expected.platform.speeds(), &[2, 1]);
    assert!(!expected.allow_data_parallel);
    assert_eq!(expected.objective, Objective::Period);
    assert!(expected.cost_model.is_comm_aware());
    let (tree, streamed) = both_decodes(text);
    assert_eq!(tree.as_ref(), Ok(&expected));
    assert_eq!(streamed.as_ref(), Ok(&expected));
    assert_stream_matches_tree(text, "hand-written repeats");

    let mut gen = Gen::new(0xD0_0B1E);
    let mut failed = 0;
    for case in 0..300 {
        let instance = random_instance(&mut gen);
        let mut junk_first = false;
        let value = with_duplicates(&mut gen, instance.serialize(), &mut junk_first);
        let text = serde_json::to_string(&value).expect("instance renders");
        let what = format!("case {case}: {text}");
        match both_decodes(&text) {
            (Ok(tree), Ok(streamed)) => {
                // junk that happens to fit its field (`[99,99]` for a
                // bandwidth vector) wins on both paths
                if !junk_first {
                    assert_eq!(tree, instance, "{what}: tree decode");
                }
                assert_eq!(streamed, tree, "{what}: streaming decode");
                assert_eq!(streamed.fingerprint(), tree.fingerprint(), "{what}");
                assert_stream_matches_tree(&text, &what);
            }
            (Err(_), Err(_)) => {
                assert!(junk_first, "{what}: rejected without a junk first value");
                failed += 1;
                for line in request_lines(&text) {
                    let failure = parse_request(&line).expect_err("junk first is rejected");
                    assert!(failure.message.starts_with("invalid instance"), "{line}");
                }
            }
            (tree, streamed) => panic!("{what}: decodes disagree: {tree:?} vs {streamed:?}"),
        }
    }
    assert!(failed > 0 && failed < 150, "{failed} junk-first cases");
}

/// Malformed workflow and platform shapes, each with the message both
/// decodes fail with.
fn malformed_shapes() -> Vec<(String, &'static str)> {
    let instance = |workflow: &str, platform: &str| {
        format!(
            r#"{{"workflow":{workflow},"platform":{platform},"allow_data_parallel":false,"objective":"Period"}}"#
        )
    };
    let speeds = r#"{"speeds":[2,1]}"#;
    let pipeline_sizes = "need n+1 data sizes for an n-stage pipeline";
    let fork_sizes = "need one output size per fork leaf";
    let fork = |sizes: &str| {
        format!(
            r#"{{"root_weight":1,"leaf_weights":[2,3],"input_size":1,"broadcast_size":1,"output_sizes":{sizes}}}"#
        )
    };
    vec![
        (
            instance(r#"{"Pipeline":{"weights":[],"data_sizes":[0]}}"#, speeds),
            "a pipeline needs at least one stage",
        ),
        (
            instance(r#"{"Pipeline":{"weights":[],"data_sizes":[]}}"#, speeds),
            "a pipeline needs at least one stage",
        ),
        (
            instance(
                r#"{"Pipeline":{"weights":[1,2,3,4],"data_sizes":[3]}}"#,
                speeds,
            ),
            pipeline_sizes,
        ),
        (
            instance(r#"{"Pipeline":{"weights":[1,2],"data_sizes":[]}}"#, speeds),
            pipeline_sizes,
        ),
        (
            instance(
                r#"{"Pipeline":{"weights":[1,2],"data_sizes":[1,1,1,1]}}"#,
                speeds,
            ),
            pipeline_sizes,
        ),
        (
            instance(&format!(r#"{{"Fork":{}}}"#, fork("[1]")), speeds),
            fork_sizes,
        ),
        (
            instance(&format!(r#"{{"Fork":{}}}"#, fork("[1,1,1]")), speeds),
            fork_sizes,
        ),
        (
            instance(
                &format!(
                    r#"{{"ForkJoin":{{"fork":{},"join_weight":2}}}}"#,
                    fork("[]")
                ),
                speeds,
            ),
            fork_sizes,
        ),
        (
            instance(
                r#"{"Pipeline":{"weights":[1],"data_sizes":[0,0]}}"#,
                r#"{"speeds":[]}"#,
            ),
            "a platform needs at least one processor",
        ),
        (
            instance(
                r#"{"Pipeline":{"weights":[1],"data_sizes":[0,0]}}"#,
                r#"{"speeds":[1,0]}"#,
            ),
            "processor speeds must be positive",
        ),
        (
            instance(
                r#"{"Pipeline":{"weights":[1],"data_sizes":[0,0]}}"#,
                r#"{"speeds":[1,2],"failure":[{"num":1,"den":2}]}"#,
            ),
            "failure probabilities cover 1 processors but the platform has 2",
        ),
        (
            instance(
                r#"{"Pipeline":{"weights":[1],"data_sizes":[0,0]}}"#,
                r#"{"speeds":[1],"failure":[{"num":1,"den":1}]}"#,
            ),
            "failure probabilities must lie in [0, 1)",
        ),
    ]
}

#[test]
fn malformed_shapes_fail_both_decodes_and_the_request() {
    for (text, message) in malformed_shapes() {
        let (tree, streamed) = both_decodes(&text);
        let tree = tree.expect_err(&text);
        assert!(tree.starts_with(message), "{text}: tree decode says {tree}");
        assert_eq!(streamed, Err(tree.clone()), "{text}: streaming decode");
        for line in request_lines(&text) {
            let failure = parse_request(&line).expect_err("a malformed shape is rejected");
            assert_eq!(failure.code.as_str(), "bad_request", "{line}");
            assert_eq!(
                failure.message,
                format!("invalid instance: {tree}"),
                "{line}"
            );
            assert_ne!(failure.id, Value::Null, "{line}: id echoed");
        }
    }
}
