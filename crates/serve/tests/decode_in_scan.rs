//! `parse_request` decodes `instance` inside its single scan of the
//! line. These tests pin that every line — valid, truncated, mutated,
//! with duplicate `instance` keys or an `instance` on an admin verb —
//! gets the same result as the older parser, which skipped over the
//! instance first and decoded its text in a second pass: the same
//! request, or the same `(code, id, message)`.
//!
//! The older parser is kept below, verbatim but for names, as the
//! oracle.

use repliflow_core::gen::Gen;
use repliflow_core::prelude::*;
use repliflow_multicrit::FrontEnginePref;
use repliflow_serve::protocol::{
    parse_request, ErrorCode, ParetoBody, ParseFailure, SolveBody, Verb, WireRequest,
    PROTOCOL_VERSION,
};
use repliflow_solver::{EnginePref, Quality};
use serde::de::JsonParser;
use serde::{Serialize, Value};
use std::borrow::Cow;
use std::path::Path;

fn failure(id: Value, code: ErrorCode, message: impl Into<String>) -> ParseFailure {
    ParseFailure {
        id,
        code,
        message: message.into(),
    }
}

// ---- the oracle: the skip-then-decode parser ----

/// Whether a value is usable as a request id (string or integer).
fn valid_id(v: &Value) -> bool {
    matches!(v, Value::String(_) | Value::Int(_))
}

/// One top-level field of a request line, as the single scan left it.
enum Field<'a> {
    /// A small field, parsed into a tree.
    Value(Value),
    /// The `instance` field: the text of its value, decoded straight
    /// into a [`ProblemInstance`] once every other check has passed.
    Instance(&'a str),
}

/// The top-level fields of a request object, in line order.
type Fields<'a> = Vec<(Cow<'a, str>, Field<'a>)>;

/// Scans a request line once: its top-level fields, or `None` when the
/// line is well-formed JSON but not an object.
fn scan_fields(line: &str) -> Result<Option<Fields<'_>>, serde::de::Error> {
    let mut parser = JsonParser::new(line);
    if parser.peek() != Some(b'{') {
        parser.skip_value()?;
        parser.end()?;
        return Ok(None);
    }
    parser.begin_object()?;
    let mut fields = Vec::new();
    let mut first = true;
    while let Some(key) = parser.object_next(first)? {
        first = false;
        let field = if key == "instance" {
            parser.peek();
            let start = parser.position();
            parser.skip_value()?;
            let text = line
                .get(start..parser.position())
                .ok_or_else(|| serde::de::Error::custom("instance span is not valid UTF-8"))?;
            Field::Instance(text)
        } else {
            Field::Value(parser.parse_value_tree()?)
        };
        fields.push((key, field));
    }
    parser.end()?;
    Ok(Some(fields))
}

/// Parses one request line. On failure the returned [`ParseFailure`]
/// still carries the request id whenever the line was well-formed
/// enough to contain one, so the error envelope stays matchable.
///
/// The line is scanned once: small fields become [`Value`]s, while the
/// `instance` value (nearly all of a large request) is only skipped
/// over and then decoded straight from its text, with no tree in
/// between. Checks run in a fixed order — JSON syntax, object shape,
/// version, id, verb, unknown fields, then the instance and the
/// remaining fields — so each error envelope is the same whatever the
/// field order on the line.
fn oracle_parse(line: &str) -> Result<WireRequest, ParseFailure> {
    let fields = match scan_fields(line) {
        Ok(Some(fields)) => fields,
        Ok(None) => {
            return Err(failure(
                Value::Null,
                ErrorCode::BadRequest,
                "request must be a JSON object",
            ));
        }
        Err(e) => {
            return Err(failure(
                Value::Null,
                ErrorCode::BadRequest,
                format!("malformed JSON: {e}"),
            ));
        }
    };
    // Duplicate keys: the first occurrence wins, as in a tree lookup.
    let field = |name: &str| {
        fields.iter().find_map(|(key, field)| match field {
            Field::Value(value) if key == name => Some(value),
            _ => None,
        })
    };
    let instance_text = fields.iter().find_map(|(_, field)| match field {
        Field::Instance(text) => Some(*text),
        Field::Value(_) => None,
    });
    // Best-effort id for error envelopes from here on.
    let id = match field("id") {
        Some(v) if valid_id(v) => v.clone(),
        _ => Value::Null,
    };
    let fail = |code, message: String| Err(failure(id.clone(), code, message));
    match field("v") {
        Some(v) if v.as_int() == Some(PROTOCOL_VERSION) => {}
        Some(v) => {
            return fail(
                ErrorCode::UnsupportedVersion,
                format!(
                    "unsupported protocol version {v:?} (this daemon speaks v{PROTOCOL_VERSION})"
                ),
            );
        }
        None => {
            return fail(
                ErrorCode::UnsupportedVersion,
                format!("missing protocol version field `v` (expected {PROTOCOL_VERSION})"),
            );
        }
    }
    if id == Value::Null {
        return fail(
            ErrorCode::BadRequest,
            "missing or invalid `id` (string or integer required)".to_string(),
        );
    }
    let Some(verb) = field("verb").and_then(Value::as_str) else {
        return fail(ErrorCode::BadRequest, "missing `verb` string".to_string());
    };
    let allowed: &[&str] = match verb {
        "solve" => &[
            "v",
            "id",
            "verb",
            "instance",
            "engine",
            "quality",
            "validate",
            "deadline_ms",
        ],
        "pareto" => &[
            "v", "id", "verb", "instance", "engine", "quality", "validate", "points",
        ],
        "stats" | "ping" | "shutdown" => &["v", "id", "verb"],
        other => {
            return fail(ErrorCode::BadRequest, format!("unknown verb `{other}`"));
        }
    };
    for (key, _) in &fields {
        if !allowed.contains(&key.as_ref()) {
            // Point a misplaced-but-known field at the verb it belongs
            // to instead of calling it unknown.
            let hint = match key.as_ref() {
                "deadline_ms" => format!(" (only valid on verb `solve`, not `{verb}`)"),
                "points" => format!(" (only valid on verb `pareto`, not `{verb}`)"),
                "instance" | "engine" | "quality" | "validate" => {
                    format!(" (only valid on verbs `solve` and `pareto`, not `{verb}`)")
                }
                _ => String::new(),
            };
            return fail(
                ErrorCode::BadRequest,
                format!("unknown field `{key}`{hint}"),
            );
        }
    }
    let bad = |message: String| failure(id.clone(), ErrorCode::BadRequest, message);
    let verb = match verb {
        "stats" => Verb::Stats,
        "ping" => Verb::Ping,
        "shutdown" => Verb::Shutdown,
        "pareto" => {
            let instance = instance_of(instance_text, verb).map_err(bad)?;
            let engine = match field("engine") {
                None => FrontEnginePref::Auto,
                Some(v) => v.as_str().and_then(FrontEnginePref::parse).ok_or_else(|| {
                    bad(format!("invalid front `engine` {v:?} (auto|exact|sweep)"))
                })?,
            };
            let quality = quality_of(field("quality")).map_err(bad)?;
            let validate = validate_of(field("validate")).map_err(bad)?;
            let points = match field("points") {
                None => None,
                Some(v) => match v.as_int() {
                    Some(n) if (1..=u32::MAX as i128).contains(&n) => Some(n as usize),
                    _ => {
                        return Err(bad(format!(
                            "invalid `points` {v:?} (positive integer required)"
                        )));
                    }
                },
            };
            Verb::Pareto(Box::new(ParetoBody {
                instance,
                engine,
                quality,
                validate,
                points,
            }))
        }
        _solve => {
            let instance = instance_of(instance_text, verb).map_err(bad)?;
            let engine = match field("engine") {
                None => EnginePref::Auto,
                Some(v) => v.as_str().and_then(EnginePref::parse).ok_or_else(|| {
                    bad(format!(
                        "invalid `engine` {v:?} (auto|exact|heuristic|paper|comm-bb)"
                    ))
                })?,
            };
            let quality = quality_of(field("quality")).map_err(bad)?;
            let validate = validate_of(field("validate")).map_err(bad)?;
            let deadline_ms = match field("deadline_ms") {
                None => None,
                Some(v) => match v.as_int() {
                    Some(ms) if (0..=u64::MAX as i128).contains(&ms) => Some(ms as u64),
                    _ => {
                        return Err(bad(format!(
                            "invalid `deadline_ms` {v:?} (non-negative integer required)"
                        )));
                    }
                },
            };
            Verb::Solve(Box::new(SolveBody {
                instance,
                engine,
                quality,
                validate,
                deadline_ms,
            }))
        }
    };
    Ok(WireRequest { id, verb })
}

/// Decodes the `instance` value of a `solve` or `pareto` request.
fn instance_of(text: Option<&str>, verb: &str) -> Result<ProblemInstance, String> {
    let text = text.ok_or_else(|| format!("verb `{verb}` requires an `instance` object"))?;
    serde_json::from_str_streaming(text).map_err(|e| format!("invalid instance: {e}"))
}

/// The `quality` field (default `balanced`).
fn quality_of(value: Option<&Value>) -> Result<Quality, String> {
    match value {
        None => Ok(Quality::Balanced),
        Some(v) => v
            .as_str()
            .and_then(Quality::parse)
            .ok_or_else(|| format!("invalid `quality` {v:?} (fast|balanced|thorough)")),
    }
}

/// The `validate` field (default true).
fn validate_of(value: Option<&Value>) -> Result<bool, String> {
    match value {
        None => Ok(true),
        Some(Value::Bool(b)) => Ok(*b),
        Some(v) => Err(format!("invalid `validate` {v:?} (boolean required)")),
    }
}

// ---- the parity checks ----

/// The comparable outcome of one parse: the request's debug rendering,
/// or the failure's code, id and message.
fn outcome(result: Result<WireRequest, ParseFailure>) -> Result<String, (String, Value, String)> {
    result
        .map(|request| format!("{request:?}"))
        .map_err(|f| (f.code.as_str().to_string(), f.id, f.message))
}

fn assert_parity(line: &str, what: &str) {
    assert_eq!(
        outcome(parse_request(line)),
        outcome(oracle_parse(line)),
        "{what}: {line}"
    );
}

/// Every golden instance plus seeded small instances, as JSON text.
fn instance_texts() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/instances");
    let mut texts = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("examples/instances is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("golden is readable");
            // one line, as a client sends it
            texts.push(text.split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }
    let mut gen = Gen::new(0x00DE_C0DE);
    for i in 0..24 {
        let n = gen.size(1, 6);
        let workflow: Workflow = match i % 3 {
            0 => gen.pipeline(n, 1, 30).into(),
            1 => gen.fork(n, 1, 30).into(),
            _ => gen.forkjoin(n, 1, 30).into(),
        };
        let p = gen.size(1, 4);
        let mut instance = ProblemInstance::new(
            workflow,
            gen.het_platform(p, 1, 9),
            i % 2 == 0,
            Objective::LatencyUnderPeriod(Rat::new(gen.int(1, 40) as i128, 3)),
        );
        if i % 4 == 1 {
            instance = instance.with_cost_model(CostModel::WithComm {
                network: gen.het_network(p, 1, 5),
                comm: CommModel::BoundedMultiPort,
                overlap: i % 3 == 0,
            });
        }
        texts.push(serde_json::to_string(&instance.serialize()).expect("renders"));
    }
    texts
}

/// Valid solve and pareto lines around `instance`, with the field at
/// different places on the line.
fn valid_lines(instance: &str) -> Vec<String> {
    vec![
        format!(
            r#"{{"v":1,"id":"r-1","verb":"solve","instance":{instance},"engine":"auto","quality":"fast"}}"#
        ),
        format!(r#"{{"instance":{instance},"v":1,"id":7,"verb":"pareto","points":3}}"#),
        format!(
            r#"{{"v":1,"verb":"solve","instance":{instance},"id":"x","validate":false,"deadline_ms":9}}"#
        ),
    ]
}

#[test]
fn valid_lines_parse_alike() {
    for instance in instance_texts() {
        for line in valid_lines(&instance) {
            assert!(parse_request(&line).is_ok(), "{line}");
            assert_parity(&line, "valid");
        }
    }
}

#[test]
fn truncations_fail_alike() {
    let mut gen = Gen::new(0x7A_0C);
    let texts = instance_texts();
    // every prefix of one small line
    let line = &valid_lines(&texts[texts.len() - 1])[0];
    for cut in 0..line.len() {
        assert_parity(&line[..cut], "prefix");
    }
    // seeded cuts of every line
    for instance in &texts {
        for line in valid_lines(instance) {
            for _ in 0..12 {
                let cut = gen.size(0, line.len() - 1);
                assert_parity(&line[..cut], "truncation");
            }
        }
    }
}

/// Bytes a mutation writes: JSON punctuation, digits, letters that
/// start or break literals, whitespace and an escape.
const MUTATION_BYTES: &[u8] = b"{}[],:\"0159-.eE+tfnx \\";

#[test]
fn byte_mutations_fail_alike() {
    let mut gen = Gen::new(0x3B_17E5);
    for instance in instance_texts() {
        for line in valid_lines(&instance) {
            for _ in 0..40 {
                let mut bytes = line.clone().into_bytes();
                let at = gen.size(0, bytes.len() - 1);
                let byte = MUTATION_BYTES[gen.size(0, MUTATION_BYTES.len() - 1)];
                match gen.int(0, 2) {
                    0 => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ => {
                        bytes.remove(at);
                    }
                }
                // every line and mutation byte is ASCII
                let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
                assert_parity(&mutated, "mutation");
            }
        }
    }
}

#[test]
fn duplicate_instance_keys_resolve_alike() {
    let texts = instance_texts();
    let good = &texts[0];
    let other = &texts[texts.len() - 1];
    for second in [
        other.as_str(),
        r#"{"nope":1}"#,
        "null",
        r#"{"workflow":[1.2.3]}"#,
        r#"{"workflow":"#,
    ] {
        for (first, second) in [(good.as_str(), second), (second, good.as_str())] {
            for verb in ["solve", "pareto"] {
                let line = format!(
                    r#"{{"v":1,"id":"d","verb":"{verb}","instance":{first},"instance":{second}}}"#
                );
                assert_parity(&line, "duplicate instance");
            }
        }
    }
}

#[test]
fn instances_on_admin_verbs_fail_alike() {
    let texts = instance_texts();
    for verb in ["ping", "stats", "shutdown", "bogus"] {
        for instance in [
            texts[0].as_str(),
            r#"{"nope":1}"#,
            r#"{"workflow":[1.2.3]}"#,
        ] {
            for line in [
                format!(r#"{{"v":1,"id":3,"verb":"{verb}","instance":{instance}}}"#),
                format!(r#"{{"instance":{instance},"v":1,"id":3,"verb":"{verb}"}}"#),
                format!(r#"{{"instance":{instance},"v":5,"id":3,"verb":"{verb}"}}"#),
            ] {
                assert_parity(&line, "admin verb");
            }
        }
    }
}

#[test]
fn decode_errors_count_bytes_from_the_instance() {
    // the weight list breaks at byte 36 of the instance, wherever the
    // instance sits on the line
    let bad = r#"{"workflow":{"Pipeline":{"weights":["w"],"data_sizes":[0,0]}},"platform":{"speeds":[1]},"allow_data_parallel":true,"objective":"Period"}"#;
    for line in [
        format!(r#"{{"v":1,"id":"a","verb":"solve","instance":{bad}}}"#),
        format!(r#"{{"instance":  {bad},"v":1,"id":"a","verb":"solve"}}"#),
    ] {
        let failure = parse_request(&line).expect_err("rejected");
        assert!(
            failure.message.starts_with("invalid instance"),
            "{}",
            failure.message
        );
        assert!(
            failure.message.contains("at byte 36"),
            "{}",
            failure.message
        );
        assert_parity(&line, "offset");
    }
}
