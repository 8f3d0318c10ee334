//! The hot set the daemon workloads repeat, its warm-up, and the traced
//! replay of a warm hit through the serving stages.
//!
//! Every hot-set answer is computed once in process first; the daemon's
//! answers must match those `canonical_json()` bytes exactly.

use crate::common::{mean, us, Metric};
use crate::config;
use crate::daemon::{ok_prefix, Conn, Daemon, RequestLine};
use crate::instances;
use crate::stats::Samples;
use crate::trace::Tracer;
use repliflow_core::gen::Gen;
use repliflow_core::instance::ProblemInstance;
use repliflow_serve::protocol::{ok_response, parse_request, report_to_wire, Verb};
use repliflow_solver::{Budget, Optimality, SolveCache, SolveReport, SolveRequest, SolverService};
use repliflow_sync::sync::Arc;
use serde::{Serialize, Value};
use std::path::Path;
use std::time::Instant;

pub struct HotEntry {
    pub name: String,
    pub large: bool,
    pub line: RequestLine,
    /// The in-process answer's canonical JSON.
    pub canonical: String,
    pub report: Arc<SolveReport>,
}

impl HotEntry {
    pub fn proven(&self) -> bool {
        self.report.optimality == Optimality::Proven
    }
}

/// The wire fields of a default `solve` request for `instance`.
fn solve_fields(instance: &ProblemInstance) -> Vec<(String, Value)> {
    vec![
        ("verb".into(), Value::String("solve".into())),
        ("instance".into(), instance.serialize()),
        ("engine".into(), Value::String("auto".into())),
        ("quality".into(), Value::String("balanced".into())),
        ("validate".into(), Value::Bool(true)),
    ]
}

/// Builds the hot set: every golden, [`config::HOT_SMALL`] seeded small
/// instances, and the [`config::HOT_LARGE`] long pipelines — each solved
/// once in process for its reference answer.
pub fn build(root: &Path, seed: u64) -> Result<Vec<HotEntry>, String> {
    let mut gen = Gen::new(seed ^ 0x4807_5E75);
    let mut list: Vec<(String, bool, ProblemInstance)> = instances::goldens(root)?
        .into_iter()
        .map(|(name, instance)| (name, false, instance))
        .collect();
    for i in 0..config::HOT_SMALL {
        list.push((
            format!("small-{i}"),
            false,
            instances::small_mixed(&mut gen, i),
        ));
    }
    for (stages, kind) in config::HOT_LARGE {
        list.push((
            format!("large-{stages}"),
            true,
            instances::large_pipeline(&mut gen, stages, kind),
        ));
    }
    let service = SolverService::builder().workers(1).build();
    list.into_iter()
        .map(|(name, large, instance)| {
            let line = RequestLine::new(solve_fields(&instance));
            let report = service
                .solve(&SolveRequest::new(instance))
                .map_err(|e| format!("hot-set member {name} does not solve in process: {e}"))?;
            Ok(HotEntry {
                name,
                large,
                line,
                canonical: report.canonical_json(),
                report,
            })
        })
        .collect()
}

/// Checks a `solve` response against the expected canonical bytes;
/// `Ok(true)` when the daemon served it from its cache.
pub fn check_solve(line: &str, id: u64, canonical: &str) -> Result<bool, String> {
    let prefix = ok_prefix(id);
    let Some(rest) = line
        .strip_prefix(prefix.as_str())
        .and_then(|r| r.strip_prefix("{\"canonical\":"))
    else {
        return Err(format!(
            "request {id}: not an ok solve response: {}",
            clip(line)
        ));
    };
    let Some(tail) = rest.strip_prefix(canonical) else {
        return Err(format!(
            "request {id}: canonical answer differs from the in-process one: {}",
            clip(rest)
        ));
    };
    Ok(tail.contains("\"provenance\":\"cached\""))
}

/// The first 200 bytes of a line, for error messages.
pub fn clip(line: &str) -> &str {
    let mut end = line.len().min(200);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

/// Sends every hot-set member once over one connection and checks the
/// answers; afterwards every member is a cache hit.
fn warm(daemon: &Daemon, entries: &[HotEntry]) -> Result<(), String> {
    let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for (i, entry) in entries.iter().enumerate() {
        let id = i as u64 + 1;
        conn.send(id, &entry.line)
            .and_then(|()| conn.recv())
            .map_err(|e| format!("warm-up of {}: {e}", entry.name))?;
        check_solve(&conn.line, id, &entry.canonical)
            .map_err(|e| format!("warm-up of {}: {e}", entry.name))?;
    }
    Ok(())
}

/// Spawns and warms the daemon [`config::SETUPS`] times; returns the last
/// one (ready for measurement) and every set-up time in seconds.
pub fn setup(
    bin: &Path,
    workers: usize,
    entries: &[HotEntry],
) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    for k in 0..config::SETUPS {
        let start = Instant::now();
        let daemon = Daemon::spawn(bin, workers)?;
        warm(&daemon, entries)?;
        times.push(start.elapsed().as_secs_f64());
        if k + 1 == config::SETUPS {
            return Ok((daemon, times));
        }
        daemon.shutdown()?;
    }
    Err("no set-up ran".into())
}

/// Connect plus the first `ping` round trip on fresh connections, µs
/// (median of [`config::FIRST_REPLY_PROBES`]).
pub fn first_reply_us(
    daemon: &Daemon,
    tracer: &mut Tracer,
    request: &mut u64,
) -> Result<f64, String> {
    let ping = RequestLine::new(vec![("verb".into(), Value::String("ping".into()))]);
    let mut samples = Samples::default();
    for _ in 0..config::FIRST_REPLY_PROBES {
        *request += 1;
        let start = Instant::now();
        let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        conn.send(*request, &ping)
            .and_then(|()| conn.recv())
            .map_err(|e| format!("ping: {e}"))?;
        let took = start.elapsed();
        if !conn.line.contains("\"pong\":true") {
            return Err(format!("ping answered {}", clip(&conn.line)));
        }
        tracer.record("first_reply", "serve", None, *request, start, took);
        samples.push(us(took));
    }
    Ok(samples.median())
}

/// Replays every hot-set member [`config::REPLAY_REPEATS`] times: one
/// warm round trip to the daemon, then the daemon's own stages in
/// process (parse, fingerprint, cache lookup, encode) as children of the
/// round trip. What the children do not account for is the wire: line
/// reading, socket and scheduling time.
pub fn replay_hits(
    daemon: &Daemon,
    entries: &[HotEntry],
    tracer: &mut Tracer,
    request: &mut u64,
) -> Result<Vec<Metric>, String> {
    let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let cache = SolveCache::with_shards(entries.len().max(1) * 2, 8);
    let mut wire = [Samples::default(), Samples::default()];
    let mut parse = [Samples::default(), Samples::default()];
    let mut fingerprint = [Samples::default(), Samples::default()];
    let mut cache_get = Vec::new();
    let mut encode = Vec::new();
    let mut text = Vec::new();
    for round in 0..=config::REPLAY_REPEATS {
        for entry in entries {
            *request += 1;
            let rid = *request;
            let root = tracer.begin("hit_request", "loadgen", None, rid);
            let start = Instant::now();
            conn.send(rid, &entry.line)
                .and_then(|()| conn.recv())
                .map_err(|e| format!("replay of {}: {e}", entry.name))?;
            let round_trip = start.elapsed();
            check_solve(&conn.line, rid, &entry.canonical)?;
            let wire_id = tracer.record(
                "wire_round_trip",
                "serve",
                Some(root),
                rid,
                start,
                round_trip,
            );

            entry.line.render(rid, &mut text);
            let line = std::str::from_utf8(&text[..text.len() - 1]).map_err(|e| e.to_string())?;
            let (parsed, parse_id) =
                tracer.time("parse_request", "serve", Some(wire_id), rid, || {
                    parse_request(line)
                });
            let parsed = parsed.map_err(|f| format!("replay parse: {}", f.message))?;
            let Verb::Solve(body) = parsed.verb else {
                return Err("replayed line is not a solve".into());
            };
            let solve = SolveRequest::new(body.instance)
                .engine(body.engine)
                .budget(Budget::default().quality(body.quality))
                .validate_witness(body.validate);
            let (key, fp_id) = tracer.time("fingerprint", "core", Some(wire_id), rid, || {
                solve.fingerprint()
            });
            if round == 0 {
                // the first round fills the in-process cache; the
                // measured rounds hit it, as the daemon does
                cache.insert(key, Arc::clone(&entry.report));
                tracer.end(root);
                continue;
            }
            let (hit, get_id) =
                tracer.time("cache_get", "solver", Some(wire_id), rid, || cache.get(key));
            let report = hit.ok_or("replay cache missed a warm key")?;
            let (encoded, enc_id) = tracer.time("encode", "serve", Some(wire_id), rid, || {
                ok_response(&parsed.id, report_to_wire(&report))
            });
            std::hint::black_box(encoded);
            tracer.end(root);

            let class = usize::from(entry.large);
            let stages = [parse_id, fp_id, get_id, enc_id]
                .iter()
                .map(|&id| tracer.duration(id))
                .sum::<std::time::Duration>();
            wire[class].push(us(round_trip.saturating_sub(stages)));
            parse[class].push(us(tracer.duration(parse_id)));
            fingerprint[class].push(us(tracer.duration(fp_id)));
            cache_get.push(us(tracer.duration(get_id)));
            encode.push(us(tracer.duration(enc_id)));
        }
    }
    let [mut wire_small, mut wire_large] = wire;
    let [mut parse_small, mut parse_large] = parse;
    let [mut fp_small, mut fp_large] = fingerprint;
    Ok(vec![
        Metric::new("serve.wire_us.small", wire_small.median(), "us"),
        Metric::new("serve.wire_us.large", wire_large.median(), "us"),
        Metric::new("serve.parse_request_us.small", parse_small.median(), "us"),
        Metric::new("serve.parse_request_us.large", parse_large.median(), "us"),
        Metric::new("serve.encode_us", mean(&encode), "us"),
        Metric::new("core.fingerprint_us.small", fp_small.median(), "us"),
        Metric::new("core.fingerprint_us.large", fp_large.median(), "us"),
        Metric::new("solver.cache_get_us", mean(&cache_get), "us"),
    ])
}
