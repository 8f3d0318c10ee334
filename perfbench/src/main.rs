//! `perfbench` — the repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload warm_wire|cold_solve --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH [--root DIR] [--out-dir DIR]
//!           [--revision REV]
//! perfbench --regen-references [--root DIR]
//! ```
//!
//! `perfbench/run.py` builds the daemon and this program and runs it;
//! see `perfbench/README.md` for the workloads and metrics. The last
//! line of standard output is the result object; the line before it is
//! the run's metadata. With `--trace 0` the result carries every
//! `end_to_end` metric of `BENCHMARK.json`, with `--trace 1` every
//! `per_layer` metric (layers a workload does not load read zero).

mod cold_solve;
mod common;
mod config;
mod daemon;
mod hotset;
mod instances;
mod layers;
mod reference;
mod stats;
mod trace;
mod warm_wire;
mod witness;

use common::{Ctx, Outcome};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --serve-bin PATH \
         [--root DIR] [--out-dir DIR] [--revision REV]\n       perfbench --regen-references [--root DIR]",
        config::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Writes a traced run's spans and notes where in the metadata.
pub fn write_spans(
    ctx: &Ctx,
    workload: &str,
    spans: &trace::Tracer,
    meta: &mut Vec<(String, Value)>,
) {
    let path = ctx
        .out_dir
        .join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
    let note = match spans.write_jsonl(&path) {
        Ok(()) => (
            "spans".to_string(),
            Value::String(path.display().to_string()),
        ),
        Err(e) => ("spans_error".to_string(), Value::String(e.to_string())),
    };
    meta.push(note);
    meta.push(("span_count".into(), Value::Int(spans.spans().len() as i128)));
}

/// The `(name, unit)` metric list of one `BENCHMARK.json` section.
fn declared(root: &Path, section: &str) -> Result<Vec<(String, String)>, String> {
    let file = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let value = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = value
        .field(section)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no `{section}` list"))?;
    rows.iter()
        .map(|row| {
            let get = |key: &str| row.field(key).and_then(Value::as_str).map(str::to_string);
            match (get("name"), get("unit")) {
                (Some(name), Some(unit)) => Ok((name, unit)),
                _ => Err(format!("a `{section}` entry lacks its name or unit")),
            }
        })
        .collect()
}

/// The result object: exactly the declared metrics of the run's kind.
/// An end-to-end metric the workload did not measure is an error; a
/// per-layer metric of a layer the workload does not load reads zero.
fn result_line(
    ctx: &Ctx,
    outcome: &Outcome,
    meta: &mut Vec<(String, Value)>,
) -> Result<Value, String> {
    let section = if ctx.trace { "per_layer" } else { "end_to_end" };
    let mut metrics = Vec::new();
    let mut unmeasured = Vec::new();
    for (name, unit) in declared(&ctx.root, section)? {
        let value = match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                return Err(format!(
                    "metric {name} measured in {} but declared in {unit}",
                    m.unit
                ));
            }
            Some(m) if m.value.is_finite() => m.value,
            Some(m) => return Err(format!("metric {name} is not finite: {}", m.value)),
            None if ctx.trace => {
                unmeasured.push(Value::String(name.clone()));
                0.0
            }
            None => return Err(format!("workload did not measure end-to-end metric {name}")),
        };
        metrics.push((
            name,
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::String(unit)),
            ]),
        ));
    }
    if !unmeasured.is_empty() {
        meta.push(("not_loaded_metrics".into(), Value::Array(unmeasured)));
    }
    let extra: Vec<Value> = outcome
        .metrics
        .iter()
        .filter(|m| !metrics.iter().any(|(n, _)| *n == m.name))
        .map(|m| Value::Object(vec![(m.name.clone(), Value::Float(m.value))]))
        .collect();
    if !extra.is_empty() {
        meta.push(("undeclared_metrics".into(), Value::Array(extra)));
    }
    Ok(Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), Value::Int(outcome.attempted as i128)),
        ("failed".into(), Value::Int(outcome.failed as i128)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut root = PathBuf::from(".");
    let mut out_dir = None;
    let mut revision = String::from("unknown");
    let mut regen = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next();
        match arg.as_str() {
            "--workload" => workload = value(),
            "--seed" => seed = value().and_then(|s| s.parse::<u64>().ok()),
            "--seconds" => {
                seconds = value()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|s| *s > 0.0)
            }
            "--trace" => {
                trace = value()
                    .and_then(|t| t.parse::<u8>().ok())
                    .filter(|t| *t <= 1)
            }
            "--serve-bin" => serve_bin = value().map(PathBuf::from),
            "--root" => match value() {
                Some(r) => root = PathBuf::from(r),
                None => return usage(),
            },
            "--out-dir" => out_dir = value().map(PathBuf::from),
            "--revision" => match value() {
                Some(r) => revision = r,
                None => return usage(),
            },
            "--regen-references" => regen = true,
            _ => return usage(),
        }
    }
    if regen {
        return match reference::regenerate(&root) {
            Ok(n) => {
                eprintln!(
                    "wrote {} ({n} pool members)",
                    reference::path(&root).display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(serve_bin)) =
        (workload, seed, seconds, trace, serve_bin)
    else {
        return usage();
    };
    let nproc = repliflow_sync::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let ctx = Ctx {
        out_dir: out_dir.unwrap_or_else(|| root.join(".bench_out")),
        root,
        serve_bin,
        seed,
        seconds,
        trace: trace == 1,
        nproc,
    };
    let outcome = match workload.as_str() {
        "warm_wire" => warm_wire::run(&ctx),
        "cold_solve" => cold_solve::run(&ctx),
        _ => return usage(),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("request error: {e}");
    }
    let mut meta = vec![
        ("workload".into(), Value::String(workload.clone())),
        ("seed".into(), Value::Int(seed as i128)),
        ("seconds".into(), Value::Float(seconds)),
        ("trace".into(), Value::Bool(ctx.trace)),
        ("nproc".into(), Value::Int(nproc as i128)),
        ("daemon_workers".into(), Value::Int(nproc as i128)),
        (
            "profile".into(),
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("revision".into(), Value::String(revision)),
    ];
    meta.extend(outcome.meta.iter().cloned());
    let result = match result_line(&ctx, &outcome, &mut meta) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let meta = Value::Object(vec![("meta".into(), Value::Object(meta))]);
    match (serde_json::to_string(&meta), serde_json::to_string(&result)) {
        (Ok(meta), Ok(result)) => {
            println!("{meta}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("error: result serialization failed");
            ExitCode::FAILURE
        }
    }
}
