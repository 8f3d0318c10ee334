//! The wire protocol: one line of JSON per request, one line of JSON
//! per response, over a plain TCP stream.
//!
//! ## Grammar
//!
//! Every request is a single JSON object terminated by `\n`:
//!
//! ```json
//! {"v":1,"id":"r-1","verb":"solve","instance":{...},"engine":"auto",
//!  "quality":"balanced","validate":true,"deadline_ms":250}
//! {"v":1,"id":2,"verb":"stats"}
//! {"v":1,"id":3,"verb":"ping"}
//! {"v":1,"id":4,"verb":"shutdown"}
//! {"v":1,"id":5,"verb":"pareto","instance":{...},"engine":"auto",
//!  "quality":"balanced","validate":true,"points":16}
//! ```
//!
//! * `v` — protocol version, required, must equal
//!   [`PROTOCOL_VERSION`]; anything else is answered with an
//!   `unsupported_version` error envelope.
//! * `id` — required request id (string or integer), echoed verbatim
//!   on the response so clients may pipeline requests and match
//!   responses arriving in completion order.
//! * `verb` — `solve`, `pareto`, `stats`, `ping` or `shutdown`.
//! * `solve` only: `instance` (required; the same JSON accepted by the
//!   `solve` CLI and golden instance files), plus optional `engine`
//!   (`auto`/`exact`/`heuristic`/`paper`/`comm-bb`), `quality`
//!   (`fast`/`balanced`/`thorough`), `validate` (bool, default true)
//!   and `deadline_ms` (integer; the deadline clock starts when the
//!   daemon parses the request, so it covers queueing).
//! * `pareto` only: `instance` (required, same JSON; its `objective`
//!   field is ignored — a front is always traced over period and
//!   latency), plus optional `engine` (`auto`/`exact`/`sweep` — the
//!   *front* engine vocabulary, not the solve one), `quality`,
//!   `validate`, and `points` (positive integer overriding the
//!   daemon budget's `max_front_points`).
//!
//! Unknown top-level fields are rejected (`bad_request`) instead of
//! ignored: a client typo like `"dedline_ms"` must not silently solve
//! without its deadline.
//!
//! Responses are one JSON object per line, always carrying `v` and the
//! echoed `id` (or `null` when the request line was too broken to
//! extract one):
//!
//! ```json
//! {"v":1,"id":"r-1","ok":{...}}
//! {"v":1,"id":"r-1","err":{"code":"overloaded","message":"..."}}
//! ```
//!
//! `ok` payloads: a [report object](report_to_wire) for `solve`, a
//! [front object](front_to_wire) for `pareto`, a metrics snapshot for
//! `stats`, `{"pong":true}` for `ping`, `{"draining":true}` for
//! `shutdown`. Error codes are enumerated by [`ErrorCode`].

use repliflow_core::instance::ProblemInstance;
use repliflow_multicrit::{FrontEnginePref, FrontReport};
use repliflow_solver::{EnginePref, Quality, SolveError, SolveReport};
use serde::de::JsonParser;
use serde::DeserializeStream;
use serde::Value;
use serde_json::parse_value;
use std::borrow::Cow;

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: i128 = 1;

/// Default cap on one request line, in bytes (1 MiB). Lines longer
/// than the cap are consumed and answered with a `line_too_long`
/// error envelope — the connection survives.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Machine-readable error category of an error envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a valid request object (malformed JSON,
    /// missing/mistyped/unknown fields, bad instance).
    BadRequest,
    /// `v` was missing or not [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The request line exceeded the daemon's line-length cap.
    LineTooLong,
    /// Admission control shed the request (queue full or the
    /// connection's in-flight cap reached). Retry later, or elsewhere.
    Overloaded,
    /// The daemon is draining and no longer admits solve requests.
    ShuttingDown,
    /// The request's deadline expired before an engine started.
    DeadlineExceeded,
    /// The request was cancelled before an engine started.
    Cancelled,
    /// The solver rejected or failed the request (unsupported cell,
    /// capacity, network mismatch, invalid witness, unattainable
    /// bound...). The message carries the solver's description.
    SolveFailed,
    /// An engine bug (contained panic). The daemon survives.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::SolveFailed => "solve_failed",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling (clients matching on responses).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "line_too_long" => ErrorCode::LineTooLong,
            "overloaded" => ErrorCode::Overloaded,
            "shutting_down" => ErrorCode::ShuttingDown,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "cancelled" => ErrorCode::Cancelled,
            "solve_failed" => ErrorCode::SolveFailed,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The envelope for a [`SolveError`] (code + human-readable
    /// message).
    pub fn of_solve_error(error: &SolveError) -> (ErrorCode, String) {
        let code = match error {
            SolveError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            SolveError::Cancelled => ErrorCode::Cancelled,
            SolveError::EnginePanicked => ErrorCode::Internal,
            _ => ErrorCode::SolveFailed,
        };
        (code, error.to_string())
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The solve-specific body of a request.
#[derive(Clone, Debug)]
pub struct SolveBody {
    /// The instance, exactly as the `solve` CLI accepts it.
    pub instance: ProblemInstance,
    /// Engine routing preference (default `auto`).
    pub engine: EnginePref,
    /// Heuristic effort tier (default `balanced`), applied on top of
    /// the daemon's default budget.
    pub quality: Quality,
    /// Witness re-validation (default true).
    pub validate: bool,
    /// Optional wall-clock deadline in milliseconds, measured from
    /// request parse time (covers queueing).
    pub deadline_ms: Option<u64>,
}

/// The pareto-specific body of a request.
#[derive(Clone, Debug)]
pub struct ParetoBody {
    /// The instance whose (period, latency) front to trace; its
    /// `objective` field is ignored (see
    /// [`repliflow_multicrit::FrontRequest`]).
    pub instance: ProblemInstance,
    /// Front engine routing preference (default `auto`).
    pub engine: FrontEnginePref,
    /// Heuristic effort tier applied to every inner solve (default
    /// `balanced`).
    pub quality: Quality,
    /// Per-point witness re-validation (default true).
    pub validate: bool,
    /// Optional override of the daemon budget's `max_front_points`.
    pub points: Option<usize>,
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub struct WireRequest {
    /// The client-chosen request id (string or integer), echoed on the
    /// response.
    pub id: Value,
    /// What to do.
    pub verb: Verb,
}

/// The request verb.
#[derive(Clone, Debug)]
pub enum Verb {
    /// Solve one instance.
    Solve(Box<SolveBody>),
    /// Trace one instance's (period, latency) Pareto front.
    Pareto(Box<ParetoBody>),
    /// Return the metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain: stop accepting, answer everything
    /// admitted, exit.
    Shutdown,
}

/// A request parse failure: the best-effort extracted id (for the
/// error envelope), the error category and a message.
#[derive(Clone, Debug)]
pub struct ParseFailure {
    /// Echoable id when one could be extracted, else `Value::Null`.
    pub id: Value,
    /// Error category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ParseFailure {
    fn new(id: Value, code: ErrorCode, message: impl Into<String>) -> ParseFailure {
        ParseFailure {
            id,
            code,
            message: message.into(),
        }
    }
}

/// Whether a value is usable as a request id (string or integer).
fn valid_id(v: &Value) -> bool {
    matches!(v, Value::String(_) | Value::Int(_))
}

/// One top-level field of a request line, as the single scan left it.
enum Field {
    /// A small field, parsed into a tree.
    Value(Value),
    /// An `instance` field; its value is in [`Scan::instance`] (the
    /// first occurrence) or was skipped (a duplicate).
    Instance,
}

/// What the single scan of a request object found.
struct Scan<'a> {
    /// The top-level fields, in line order.
    fields: Vec<(Cow<'a, str>, Field)>,
    /// The first `instance` value, decoded during the scan, or its
    /// decode error (reported only once every earlier check passed).
    instance: Option<Result<ProblemInstance, String>>,
}

/// Scans a request line once: its top-level fields, or `None` when the
/// line is well-formed JSON but not an object.
fn scan_fields(line: &str) -> Result<Option<Scan<'_>>, serde::de::Error> {
    let mut parser = JsonParser::new(line);
    if parser.peek() != Some(b'{') {
        parser.skip_value()?;
        parser.end()?;
        return Ok(None);
    }
    parser.begin_object()?;
    let mut scan = Scan {
        fields: Vec::new(),
        instance: None,
    };
    let mut first = true;
    while let Some(key) = parser.object_next(first)? {
        first = false;
        let field = if key != "instance" {
            Field::Value(parser.parse_value_tree()?)
        } else if scan.instance.is_some() {
            // the first `instance` wins; a duplicate must still be JSON
            parser.skip_value()?;
            Field::Instance
        } else {
            scan.instance = Some(decode_instance(line, &mut parser)?);
            Field::Instance
        };
        scan.fields.push((key, field));
    }
    parser.end()?;
    Ok(Some(scan))
}

/// Decodes the `instance` value at the cursor, with a parser of its own
/// over the rest of the line so error offsets count from the value's
/// first byte. On success the cursor moves past the value. On a decode
/// error the cursor skips the value instead: a JSON syntax error in it
/// still fails the scan, and otherwise the decode error is returned
/// for the checks that run after the scan.
fn decode_instance(
    line: &str,
    parser: &mut JsonParser<'_>,
) -> Result<Result<ProblemInstance, String>, serde::de::Error> {
    parser.peek();
    let start = parser.position();
    let rest = line.get(start..).ok_or_else(|| {
        serde::de::Error::custom("instance does not start on a character boundary")
    })?;
    let mut inner = JsonParser::new(rest);
    match ProblemInstance::deserialize_stream(&mut inner) {
        Ok(instance) => {
            parser.seek(start + inner.position());
            Ok(Ok(instance))
        }
        Err(e) => {
            parser.skip_value()?;
            Ok(Err(e.to_string()))
        }
    }
}

/// Parses one request line. On failure the returned [`ParseFailure`]
/// still carries the request id whenever the line was well-formed
/// enough to contain one, so the error envelope stays matchable.
///
/// The line is scanned once: small fields become [`Value`]s, and the
/// `instance` value (nearly all of a large request) is decoded straight
/// from the line during the same scan, with no tree in between. Checks
/// run in a fixed order — JSON syntax, object shape, version, id, verb,
/// unknown fields, then the instance and the remaining fields — so each
/// error envelope is the same whatever the field order on the line.
pub fn parse_request(line: &str) -> Result<WireRequest, ParseFailure> {
    let Scan { fields, instance } = match scan_fields(line) {
        Ok(Some(scan)) => scan,
        Ok(None) => {
            return Err(ParseFailure::new(
                Value::Null,
                ErrorCode::BadRequest,
                "request must be a JSON object",
            ));
        }
        Err(e) => {
            return Err(ParseFailure::new(
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
    // Best-effort id for error envelopes from here on.
    let id = match field("id") {
        Some(v) if valid_id(v) => v.clone(),
        _ => Value::Null,
    };
    let fail = |code, message: String| Err(ParseFailure::new(id.clone(), code, message));
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
    let bad = |message: String| ParseFailure::new(id.clone(), ErrorCode::BadRequest, message);
    let verb = match verb {
        "stats" => Verb::Stats,
        "ping" => Verb::Ping,
        "shutdown" => Verb::Shutdown,
        "pareto" => {
            let instance = instance_of(instance, verb).map_err(bad)?;
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
            let instance = instance_of(instance, verb).map_err(bad)?;
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

/// The `instance` value of a `solve` or `pareto` request, as the scan
/// decoded it.
fn instance_of(
    decoded: Option<Result<ProblemInstance, String>>,
    verb: &str,
) -> Result<ProblemInstance, String> {
    decoded
        .ok_or_else(|| format!("verb `{verb}` requires an `instance` object"))?
        .map_err(|e| format!("invalid instance: {e}"))
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

/// Renders a success response line (without the trailing newline).
pub fn ok_response(id: &Value, body: Value) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("v".into(), Value::Int(PROTOCOL_VERSION)),
        ("id".into(), id.clone()),
        ("ok".into(), body),
    ]))
    .unwrap_or_else(|_| fallback_error_line())
}

/// A hand-assembled error line for the (unreachable in practice) case
/// where serializing a [`Value`] tree fails: serving paths must never
/// panic, and a malformed-but-parseable envelope beats a dead
/// connection.
fn fallback_error_line() -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":null,\"err\":{{\"code\":\"solve_failed\",\
         \"message\":\"internal: response serialization failed\"}}}}"
    )
}

/// Renders an error response line (without the trailing newline).
pub fn err_response(id: &Value, code: ErrorCode, message: &str) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("v".into(), Value::Int(PROTOCOL_VERSION)),
        ("id".into(), id.clone()),
        (
            "err".into(),
            Value::Object(vec![
                ("code".into(), Value::String(code.as_str().into())),
                ("message".into(), Value::String(message.into())),
            ]),
        ),
    ]))
    .unwrap_or_else(|_| fallback_error_line())
}

/// The `ok` payload of a solve response. The `canonical` field embeds
/// the report's [`canonical_json`] object **verbatim** — the
/// deterministic solution content a remote client re-serializes to get
/// bytes identical to an in-process solve (pinned by the daemon
/// integration suite). The siblings carry serving metadata and float
/// renderings that are excluded from the canonical form.
///
/// The daemon renders the same line with [`report_ok_response`], which
/// splices the canonical text in instead of building this tree.
///
/// [`canonical_json`]: SolveReport::canonical_json
pub fn report_to_wire(report: &SolveReport) -> Value {
    wire_object(report.canonical_text(), report_siblings(report))
}

/// `ok_response(id, report_to_wire(report))`, byte for byte, without
/// parsing the report's canonical text back into a tree: the memoized
/// text is copied into the line as it is.
pub fn report_ok_response(id: &Value, report: &SolveReport) -> String {
    ok_response_with_canonical(id, report.canonical_text(), report_siblings(report))
}

/// The fields of a solve payload after `canonical`.
fn report_siblings(report: &SolveReport) -> Vec<(String, Value)> {
    let cell = match report.complexity {
        repliflow_core::instance::Complexity::Polynomial(thm) => format!("polynomial ({thm})"),
        repliflow_core::instance::Complexity::NpHard(thm) => format!("NP-hard ({thm})"),
    };
    let opt_f64 = |r: Option<repliflow_core::rational::Rat>| match r {
        Some(v) => Value::Float(v.to_f64()),
        None => Value::Null,
    };
    vec![
        ("cell".into(), Value::String(cell)),
        (
            "provenance".into(),
            Value::String(report.provenance.to_string()),
        ),
        (
            "wall_time_ms".into(),
            Value::Float(report.wall_time.as_secs_f64() * 1e3),
        ),
        ("period_f64".into(), opt_f64(report.period)),
        ("latency_f64".into(), opt_f64(report.latency)),
        ("objective_f64".into(), opt_f64(report.objective_value)),
        (
            // Search counters are timing-dependent under the parallel
            // root-branch search, so the canonical form only records
            // completion; the full counters ride along here as serving
            // metadata for remote observability.
            "search_stats".into(),
            match &report.search {
                Some(s) => Value::Object(vec![
                    ("nodes".into(), Value::Int(s.nodes as i128)),
                    ("pruned_bound".into(), Value::Int(s.pruned_bound as i128)),
                    (
                        "pruned_dominated".into(),
                        Value::Int(s.pruned_dominated as i128),
                    ),
                    ("completed".into(), Value::Bool(s.completed)),
                ]),
                None => Value::Null,
            },
        ),
    ]
}

/// The `ok` payload of a pareto response. Mirrors [`report_to_wire`]:
/// the `canonical` field embeds the front's
/// [`canonical_json`](FrontReport::canonical_json) object **verbatim**
/// — the deterministic front content a remote client re-serializes to
/// get bytes identical to an in-process front solve — and the siblings
/// carry serving metadata the canonical form deliberately excludes.
pub fn front_to_wire(report: &FrontReport) -> Value {
    wire_object(&report.canonical_json(), front_siblings(report))
}

/// `ok_response(id, front_to_wire(report))`, byte for byte, with the
/// canonical text spliced in as [`report_ok_response`] does.
pub fn front_ok_response(id: &Value, report: &FrontReport) -> String {
    ok_response_with_canonical(id, &report.canonical_json(), front_siblings(report))
}

/// The fields of a pareto payload after `canonical`.
fn front_siblings(report: &FrontReport) -> Vec<(String, Value)> {
    vec![
        ("n_points".into(), Value::Int(report.points.len() as i128)),
        (
            "provenance".into(),
            Value::String(report.provenance.to_string()),
        ),
        (
            "wall_time_ms".into(),
            Value::Float(report.wall_time.as_secs_f64() * 1e3),
        ),
    ]
}

/// A payload tree: `canonical` parsed from its text, then `siblings`.
fn wire_object(canonical: &str, siblings: Vec<(String, Value)>) -> Value {
    // The canonical text comes from our own serializer, so the parse
    // cannot fail; if it ever did, ship the text as an opaque string
    // instead of panicking the connection thread.
    let canonical = parse_value(canonical).unwrap_or_else(|_| Value::String(canonical.into()));
    let mut fields = vec![("canonical".into(), canonical)];
    fields.extend(siblings);
    Value::Object(fields)
}

/// The shared envelope of the spliced responses: the line
/// `ok_response(id, wire_object(canonical, siblings))` renders, built
/// by copying `canonical` (compact JSON from our own serializer, which
/// a parse and re-render reproduces byte for byte) between the
/// rendered envelope head and the rendered siblings.
fn ok_response_with_canonical(
    id: &Value,
    canonical: &str,
    siblings: Vec<(String, Value)>,
) -> String {
    let (Ok(id), Ok(siblings)) = (
        serde_json::to_string(id),
        serde_json::to_string(&Value::Object(siblings)),
    ) else {
        return fallback_error_line();
    };
    let mut line = String::with_capacity(32 + id.len() + canonical.len() + siblings.len());
    line.push_str(&format!("{{\"v\":{PROTOCOL_VERSION},\"id\":"));
    line.push_str(&id);
    line.push_str(",\"ok\":{\"canonical\":");
    line.push_str(canonical);
    // `siblings` renders as `{...}`: its fields continue the payload
    // object after `canonical`, and its `}` closes it.
    match siblings.strip_prefix('{') {
        Some(fields) if fields != "}" => {
            line.push(',');
            line.push_str(fields);
        }
        _ => line.push('}'),
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance_json() -> &'static str {
        r#"{"workflow":{"Pipeline":{"weights":[14,4,2,4],"data_sizes":[0,0,0,0,0]}},
            "platform":{"speeds":[2,2,1,1]},"allow_data_parallel":true,"objective":"Period"}"#
    }

    #[test]
    fn parses_a_full_solve_request() {
        let line = format!(
            r#"{{"v":1,"id":"r-7","verb":"solve","instance":{},"engine":"exact",
                "quality":"fast","validate":false,"deadline_ms":250}}"#,
            instance_json()
        );
        let request = parse_request(&line).unwrap();
        assert_eq!(request.id, Value::String("r-7".into()));
        let Verb::Solve(body) = request.verb else {
            panic!("expected solve verb");
        };
        assert_eq!(body.engine, EnginePref::Exact);
        assert_eq!(body.quality, Quality::Fast);
        assert!(!body.validate);
        assert_eq!(body.deadline_ms, Some(250));
        assert_eq!(body.instance.workflow.n_stages(), 4);
    }

    #[test]
    fn parses_a_full_pareto_request() {
        let line = format!(
            r#"{{"v":1,"id":"p-1","verb":"pareto","instance":{},"engine":"sweep",
                "quality":"thorough","validate":false,"points":16}}"#,
            instance_json()
        );
        let request = parse_request(&line).unwrap();
        let Verb::Pareto(body) = request.verb else {
            panic!("expected pareto verb");
        };
        assert_eq!(body.engine, FrontEnginePref::Sweep);
        assert_eq!(body.quality, Quality::Thorough);
        assert!(!body.validate);
        assert_eq!(body.points, Some(16));
        assert_eq!(body.instance.workflow.n_stages(), 4);
    }

    #[test]
    fn pareto_defaults_mirror_solve_defaults() {
        let line = format!(
            r#"{{"v":1,"id":"p-2","verb":"pareto","instance":{}}}"#,
            instance_json()
        );
        let Verb::Pareto(body) = parse_request(&line).unwrap().verb else {
            panic!("expected pareto verb");
        };
        assert_eq!(body.engine, FrontEnginePref::Auto);
        assert_eq!(body.quality, Quality::Balanced);
        assert!(body.validate);
        assert_eq!(body.points, None);
    }

    #[test]
    fn pareto_rejects_the_solve_engine_vocabulary() {
        let line = format!(
            r#"{{"v":1,"id":"p-3","verb":"pareto","instance":{},"engine":"comm-bb"}}"#,
            instance_json()
        );
        let failure = parse_request(&line).unwrap_err();
        assert_eq!(failure.code, ErrorCode::BadRequest);
        assert!(failure.message.contains("auto|exact|sweep"));
    }

    #[test]
    fn pareto_rejects_non_positive_points() {
        for points in ["0", "-3", "\"many\""] {
            let line = format!(
                r#"{{"v":1,"id":"p-4","verb":"pareto","instance":{},"points":{points}}}"#,
                instance_json()
            );
            let failure = parse_request(&line).unwrap_err();
            assert_eq!(failure.code, ErrorCode::BadRequest);
            assert!(failure.message.contains("points"), "{}", failure.message);
        }
    }

    #[test]
    fn misplaced_fields_name_the_right_verb() {
        let failure = parse_request(r#"{"v":1,"id":"x","verb":"solve","instance":{},"points":4}"#)
            .unwrap_err();
        assert!(failure.message.contains("only valid on verb `pareto`"));
        let line = format!(
            r#"{{"v":1,"id":"x","verb":"pareto","instance":{},"deadline_ms":5}}"#,
            instance_json()
        );
        let failure = parse_request(&line).unwrap_err();
        assert!(failure.message.contains("only valid on verb `solve`"));
    }

    #[test]
    fn admin_verbs_parse_with_integer_ids() {
        for (verb, pattern) in [
            (
                "stats",
                matches!(
                    parse_request(r#"{"v":1,"id":3,"verb":"stats"}"#)
                        .unwrap()
                        .verb,
                    Verb::Stats
                ),
            ),
            (
                "ping",
                matches!(
                    parse_request(r#"{"v":1,"id":3,"verb":"ping"}"#)
                        .unwrap()
                        .verb,
                    Verb::Ping
                ),
            ),
            (
                "shutdown",
                matches!(
                    parse_request(r#"{"v":1,"id":3,"verb":"shutdown"}"#)
                        .unwrap()
                        .verb,
                    Verb::Shutdown
                ),
            ),
        ] {
            assert!(pattern, "verb {verb}");
        }
    }

    #[test]
    fn rejects_malformed_json_with_null_id() {
        let failure = parse_request("this is not json").unwrap_err();
        assert_eq!(failure.code, ErrorCode::BadRequest);
        assert_eq!(failure.id, Value::Null);
    }

    #[test]
    fn rejects_truncated_json() {
        let failure = parse_request(r#"{"v":1,"id":"x","verb":"solve","instance":{"#).unwrap_err();
        assert_eq!(failure.code, ErrorCode::BadRequest);
    }

    #[test]
    fn rejects_wrong_version_but_echoes_the_id() {
        let failure = parse_request(r#"{"v":99,"id":"x","verb":"ping"}"#).unwrap_err();
        assert_eq!(failure.code, ErrorCode::UnsupportedVersion);
        assert_eq!(failure.id, Value::String("x".into()));
    }

    #[test]
    fn rejects_missing_version() {
        let failure = parse_request(r#"{"id":"x","verb":"ping"}"#).unwrap_err();
        assert_eq!(failure.code, ErrorCode::UnsupportedVersion);
    }

    #[test]
    fn rejects_unknown_fields() {
        let failure = parse_request(r#"{"v":1,"id":"x","verb":"ping","zzz":1}"#).unwrap_err();
        assert_eq!(failure.code, ErrorCode::BadRequest);
        assert!(failure.message.contains("zzz"), "{}", failure.message);
    }

    #[test]
    fn rejects_solve_fields_on_admin_verbs_with_a_hint() {
        let failure =
            parse_request(r#"{"v":1,"id":"x","verb":"stats","deadline_ms":5}"#).unwrap_err();
        assert_eq!(failure.code, ErrorCode::BadRequest);
        assert!(failure.message.contains("only valid on verb `solve`"));
    }

    #[test]
    fn rejects_missing_id() {
        let failure = parse_request(r#"{"v":1,"verb":"ping"}"#).unwrap_err();
        assert_eq!(failure.code, ErrorCode::BadRequest);
        assert!(failure.message.contains("id"));
    }

    #[test]
    fn rejects_bad_instance_with_message() {
        let failure =
            parse_request(r#"{"v":1,"id":"x","verb":"solve","instance":{"nope":1}}"#).unwrap_err();
        assert_eq!(failure.code, ErrorCode::BadRequest);
        assert!(failure.message.contains("invalid instance"));
    }

    #[test]
    fn response_envelopes_round_trip() {
        let ok = ok_response(
            &Value::Int(5),
            Value::Object(vec![("pong".into(), Value::Bool(true))]),
        );
        let parsed = parse_value(&ok).unwrap();
        assert_eq!(parsed.field("id").unwrap(), &Value::Int(5));
        assert_eq!(
            parsed.field("ok").unwrap().field("pong"),
            Some(&Value::Bool(true))
        );

        let err = err_response(
            &Value::String("a".into()),
            ErrorCode::Overloaded,
            "queue full",
        );
        let parsed = parse_value(&err).unwrap();
        let envelope = parsed.field("err").unwrap();
        assert_eq!(envelope.field("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(ErrorCode::parse("overloaded"), Some(ErrorCode::Overloaded));
    }

    #[test]
    fn every_error_code_round_trips_its_spelling() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::LineTooLong,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Cancelled,
            ErrorCode::SolveFailed,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
    }
}
