//! `solve` — command-line solver for workflow mapping instances.
//!
//! Reads [`ProblemInstance`]s as JSON (file arguments or stdin), routes
//! them through the [`repliflow_solver::EngineRegistry`] — the paper's
//! polynomial algorithm on polynomial Table 1 cells, exhaustive search
//! on small NP-hard instances, heuristics beyond that, and the
//! communication-aware engines for instances carrying a network — and
//! prints the resulting [`SolveReport`]s.
//!
//! ```text
//! solve instance.json              # Table 1 auto-dispatch
//! solve --engine exact inst.json   # force exhaustive search (small only)
//! solve --engine heuristic i.json  # force the heuristic portfolio
//! solve --engine paper i.json      # paper algorithm or refuse
//! solve --engine comm-bb i.json    # force branch-and-bound (comm instances)
//! solve --comm one-port i.json     # general model, serialized sends
//! solve --comm multi-port --overlap --bandwidth 4 i.json
//! solve --quality thorough i.json  # escalate heuristics to long annealing
//! solve --json a.json b.json       # machine-readable reports (one array)
//! solve a.json b.json c.json       # parallel batch over many instances
//! solve --workers 4 *.json         # size the service worker pool
//! solve --cache a.json a.json      # LRU solve cache (repeats become hits)
//! solve --deadline-ms 50 a.json    # whole-invocation deadline: pre-start
//!                                  # gate + comm-bb time clamp
//! solve --hedge i.json             # race comm-bb vs comm-heuristic
//! solve --hedge-delay-ms 50 i.json # widen the proof grace window
//! solve --escalate a.json          # background thorough re-solve refreshes
//!                                  # the cache (implies --cache)
//! solve --cache-shards 4 a.json    # lock-striping of the solve cache
//! solve --stats *.json             # serving summary on stderr
//! solve --remote HOST:PORT a.json  # solve on a repliflow-serve daemon
//! cat inst.json | solve -
//! ```
//!
//! Every local solve goes through a [`SolverService`] (worker pool
//! sized by `--workers`, LRU cache enabled by `--cache`); `--stats`
//! prints the serving summary — cache hit rate, queue wait, latency
//! percentiles, per-engine wall time — to **stderr**, keeping stdout
//! snapshots and `--json` output stable.
//!
//! `--remote` ships the same requests to a `repliflow-serve` daemon
//! instead and renders the responses through the same report printer —
//! a remote solve's output is **identical** to the local output for the
//! same instance (the daemon returns the report's canonical JSON
//! verbatim). `--deadline-ms` maps onto the wire `deadline_ms` field;
//! `--stats` prints the daemon's metrics snapshot.
//!
//! Exit status: `0` when every instance was solved, `1` when one failed
//! (an error, or an unattainable bound). A reader that closes stdout
//! early (`solve a.json b.json | head -1`) ends the run quietly: no
//! further solves and no further output, and the status is that of the
//! reports printed until then.
//!
//! `--comm` switches an instance to the general model of Sections
//! 3.2–3.3. Instances that already carry a `cost_model.WithComm` network
//! keep it (the flag sets the discipline; `--overlap` adds overlapped
//! sends, and an embedded `overlap: true` is preserved); simplified instances
//! get a uniform network with `--bandwidth` (default 1) on every link.
//!
//! Example instance:
//! ```json
//! {
//!   "workflow": { "Pipeline": { "weights": [14,4,2,4], "data_sizes": [0,0,0,0,0] } },
//!   "platform": { "speeds": [2,2,1,1] },
//!   "allow_data_parallel": true,
//!   "objective": "Period"
//! }
//! ```
//!
//! [`ProblemInstance`]: repliflow_core::instance::ProblemInstance
//! [`SolveReport`]: repliflow_solver::SolveReport
//! [`SolverService`]: repliflow_solver::SolverService

use repliflow_core::instance::{Complexity, CostModel, ProblemInstance};
use repliflow_serve::{RemoteClient, RemoteReport, RemoteSolveOptions};
use repliflow_solver::{
    BatchOptions, Budget, CommModel, Deadline, EnginePref, Network, Quality, ServiceStats,
    SolveReport, SolveRequest, SolverService,
};
use serde_json::Value;
use std::io::{ErrorKind, Read, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: solve [--engine auto|exact|heuristic|paper|comm-bb|hedged] [--no-validate] \
         [--comm one-port|multi-port] [--overlap] [--bandwidth B] \
         [--quality fast|balanced|thorough] [--workers N] [--deadline-ms D] \
         [--hedge] [--hedge-delay-ms W] [--escalate] \
         [--cache] [--cache-shards S] [--stats] [--json] [--remote HOST:PORT] \
         <instance.json ... | ->"
    );
    ExitCode::FAILURE
}

fn read_instance(path: &str) -> Result<ProblemInstance, String> {
    let json = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    // The streaming deserializer builds the instance straight off the
    // byte cursor — no intermediate `Value` tree — so multi-megabyte
    // instance files load in one near-linear pass.
    serde_json::from_str_streaming(&json)
        .map_err(|e| format!("invalid instance JSON in {path}: {e}"))
}

/// Applies the `--comm` / `--overlap` / `--bandwidth` flags: `--comm`
/// sets the send discipline (keeping an instance-supplied network, else
/// building a uniform one); `--overlap` additionally enables overlapped
/// fork sends. An instance's own `overlap: true` is never silently
/// downgraded — restating `--comm one-port` on a one-port instance is a
/// no-op.
fn apply_comm_flags(
    mut instance: ProblemInstance,
    comm: Option<CommModel>,
    overlap: bool,
    bandwidth: u64,
) -> ProblemInstance {
    match (comm, &mut instance.cost_model) {
        (
            Some(c),
            CostModel::WithComm {
                comm, overlap: o, ..
            },
        ) => {
            *comm = c;
            *o = *o || overlap;
        }
        (Some(c), cost_model @ CostModel::Simplified) => {
            *cost_model = CostModel::WithComm {
                network: Network::uniform(instance.platform.n_procs(), bandwidth),
                comm: c,
                overlap,
            };
        }
        (None, CostModel::WithComm { overlap: o, .. }) if overlap => *o = true,
        (None, _) => {}
    }
    instance
}

/// One report, flattened for rendering — the bridge that lets local
/// [`SolveReport`]s and remote [`RemoteReport`]s share one printer and
/// one `--json` encoder, so `--remote` output is identical to local
/// output by construction.
struct ReportFields {
    variant: String,
    cell: String,
    cost_model: String,
    comm_aware: bool,
    engine: String,
    optimality: String,
    /// Why auto-dispatch downgraded from the exact comm route, when it
    /// did (the `SolveReport::fallback` reason, rendered).
    fallback: Option<String>,
    provenance: String,
    search: Option<(u64, u64, u64, bool)>,
    mapping: Option<String>,
    /// `(exact rational, float rendering)`.
    period: Option<(String, f64)>,
    latency: Option<(String, f64)>,
    objective: Option<(String, f64)>,
    wall_time_ms: f64,
}

impl ReportFields {
    fn from_local(report: &SolveReport) -> ReportFields {
        let rat = |r: Option<repliflow_core::rational::Rat>| r.map(|v| (v.to_string(), v.to_f64()));
        ReportFields {
            variant: report.variant.to_string(),
            cell: match report.complexity {
                Complexity::Polynomial(thm) => format!("polynomial ({thm})"),
                Complexity::NpHard(thm) => format!("NP-hard ({thm})"),
            },
            cost_model: report.cost_model.to_string(),
            comm_aware: report.cost_model.is_comm_aware(),
            engine: report.engine_used.to_string(),
            optimality: report.optimality.to_string(),
            fallback: report.fallback.as_ref().map(|r| r.to_string()),
            provenance: report.provenance.to_string(),
            search: report
                .search
                .map(|s| (s.nodes, s.pruned_bound, s.pruned_dominated, s.completed)),
            mapping: report.mapping.as_ref().map(|m| m.to_string()),
            period: rat(report.period),
            latency: rat(report.latency),
            objective: rat(report.objective_value),
            wall_time_ms: report.wall_time.as_secs_f64() * 1e3,
        }
    }

    fn from_remote(report: &RemoteReport) -> ReportFields {
        let canonical = |name: &str| report.canonical_str(name).unwrap_or("?").to_string();
        let pair = |name: &str, f: Option<f64>| {
            Some((
                report.canonical_str(name)?.to_string(),
                f.unwrap_or(f64::NAN),
            ))
        };
        let cost_model = canonical("cost_model");
        ReportFields {
            variant: canonical("variant"),
            cell: report.cell.clone(),
            comm_aware: cost_model != "simplified",
            cost_model,
            engine: canonical("engine"),
            optimality: canonical("optimality"),
            fallback: report.canonical_str("fallback").map(str::to_string),
            provenance: report.provenance.clone(),
            search: report.search(),
            mapping: report.canonical_str("mapping").map(str::to_string),
            period: pair("period", report.period_f64),
            latency: pair("latency", report.latency_f64),
            objective: pair("objective", report.objective_f64),
            wall_time_ms: report.wall_time_ms,
        }
    }

    /// Prints the human-readable report to `out`; returns whether it
    /// represents a solved instance (an unattainable bound is reported,
    /// but counts as a failure for the process exit code).
    fn print(&self, out: &mut impl Write) -> std::io::Result<bool> {
        writeln!(out, "instance : {}", self.variant)?;
        writeln!(out, "cell     : {}", self.cell)?;
        if self.comm_aware {
            writeln!(out, "model    : {}", self.cost_model)?;
        }
        writeln!(out, "engine   : {}", self.engine)?;
        writeln!(out, "optimal  : {}", self.optimality)?;
        // only instances beyond an exact-route cap carry a reason, so
        // the golden snapshots (all within caps) stay byte-stable
        if let Some(reason) = &self.fallback {
            writeln!(out, "fallback : {reason}")?;
        }
        // only surfaced when a cache is in play, so cacheless snapshots
        // stay byte-stable
        if self.provenance == "cached" {
            writeln!(out, "cache    : hit (served from the solve cache)")?;
        }
        if let Some((nodes, pruned_bound, pruned_dominated, completed)) = self.search {
            writeln!(
                out,
                "search   : {nodes} nodes ({pruned_bound} bound-pruned, {pruned_dominated} \
                 dominated), {}",
                if completed {
                    "exhausted"
                } else {
                    "budget-limited"
                }
            )?;
        }
        match (&self.mapping, &self.period, &self.latency) {
            (Some(mapping), Some((period, period_f)), Some((latency, latency_f))) => {
                writeln!(out, "mapping  : {mapping}")?;
                writeln!(out, "period   : {period} ({period_f:.6})")?;
                writeln!(out, "latency  : {latency} ({latency_f:.6})")?;
                if let Some((objective, _)) = &self.objective {
                    writeln!(out, "objective: {objective}")?;
                }
                if self.optimality == "infeasible" {
                    writeln!(
                        out,
                        "status   : bound unattainable (best bound-violating witness shown)"
                    )?;
                } else {
                    writeln!(out, "status   : feasible")?;
                }
            }
            _ => writeln!(
                out,
                "status   : bound proven unattainable (no mapping exists)"
            )?,
        }
        Ok(self.optimality != "infeasible")
    }

    /// The report as a JSON object for `--json` mode (exact rationals
    /// as strings, floats for plotting, wall time for the perf
    /// trajectory).
    fn json(&self, path: &str) -> Value {
        let rat = |p: &Option<(String, f64)>| match p {
            Some((s, _)) => Value::String(s.clone()),
            None => Value::Null,
        };
        let ratf = |p: &Option<(String, f64)>| match p {
            Some((_, f)) => Value::Float(*f),
            None => Value::Null,
        };
        Value::Object(vec![
            ("file".into(), Value::String(path.to_string())),
            ("variant".into(), Value::String(self.variant.clone())),
            ("cell".into(), Value::String(self.cell.clone())),
            ("cost_model".into(), Value::String(self.cost_model.clone())),
            ("engine".into(), Value::String(self.engine.clone())),
            ("optimality".into(), Value::String(self.optimality.clone())),
            (
                "fallback".into(),
                match &self.fallback {
                    Some(reason) => Value::String(reason.clone()),
                    None => Value::Null,
                },
            ),
            ("provenance".into(), Value::String(self.provenance.clone())),
            ("period".into(), rat(&self.period)),
            ("period_f64".into(), ratf(&self.period)),
            ("latency".into(), rat(&self.latency)),
            ("latency_f64".into(), ratf(&self.latency)),
            ("objective".into(), rat(&self.objective)),
            ("objective_f64".into(), ratf(&self.objective)),
            (
                "search_nodes".into(),
                match self.search {
                    Some((nodes, ..)) => Value::Float(nodes as f64),
                    None => Value::Null,
                },
            ),
            (
                "search_completed".into(),
                match self.search {
                    Some((.., completed)) => Value::Bool(completed),
                    None => Value::Null,
                },
            ),
            ("wall_time_ms".into(), Value::Float(self.wall_time_ms)),
        ])
    }
}

/// `--stats` aggregate of auto-dispatch downgrades: one line per
/// distinct reason, counted — the serving-side view of the structured
/// [`SolveReport::fallback`] field.
fn print_fallbacks(fallbacks: &[String]) {
    if fallbacks.is_empty() {
        return;
    }
    let mut counts: Vec<(&String, usize)> = Vec::new();
    for reason in fallbacks {
        match counts.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, n)) => *n += 1,
            None => counts.push((reason, 1)),
        }
    }
    eprintln!(
        "fallback  : {} auto downgrade{} to the heuristic",
        fallbacks.len(),
        if fallbacks.len() == 1 { "" } else { "s" }
    );
    for (reason, count) in counts {
        eprintln!("            {count}x {reason}");
    }
}

/// `--stats`: the serving summary, on stderr so stdout stays
/// machine-readable (`--json`) and snapshot-stable.
fn print_stats(service: &SolverService, stats: &ServiceStats) {
    eprintln!("== service stats ==");
    eprintln!(
        "requests  : {} ({} computed, {} cached, {} errors; hit rate {:.1}%)",
        stats.requests,
        stats.computed,
        stats.cache_hits,
        stats.errors,
        stats.hit_rate() * 100.0
    );
    eprintln!(
        "pool      : {} workers, {} jobs, queue wait {:.3} ms total, utilization {:.1}%",
        service.pool_size(),
        stats.jobs_executed,
        stats.queue_wait.as_secs_f64() * 1e3,
        stats.worker_utilization * 100.0
    );
    let us = |d: Option<std::time::Duration>| match d {
        Some(d) => format!("{:.3} ms", d.as_secs_f64() * 1e3),
        None => "-".to_string(),
    };
    eprintln!(
        "latency   : p50 {}, p95 {}, p99 {}, max {} over {} serves",
        us(stats.latency.p50),
        us(stats.latency.p95),
        us(stats.latency.p99),
        us(stats.latency.max),
        stats.latency.count
    );
    for engine in &stats.per_engine {
        eprintln!(
            "engine    : {:<14} {:>9.3} ms across {} solve{}",
            engine.engine,
            engine.wall.as_secs_f64() * 1e3,
            engine.solves,
            if engine.solves == 1 { "" } else { "s" }
        );
    }
    // hedge/escalation lines appear only when the machinery ran, so
    // plain invocations keep their historical stats output
    if stats.hedge.races > 0 {
        eprintln!(
            "hedge     : {} races ({} primary wins, {} secondary wins, {} losers cancelled, \
             {} window rescues)",
            stats.hedge.races,
            stats.hedge.primary_wins,
            stats.hedge.secondary_wins,
            stats.hedge.losers_cancelled,
            stats.hedge.window_rescues
        );
    }
    let esc = &stats.escalation;
    if esc.scheduled + esc.shed > 0 {
        eprintln!(
            "escalation: {} scheduled ({} refreshed, {} unimproved, {} failed), {} shed",
            esc.scheduled, esc.refreshed, esc.unimproved, esc.failed, esc.shed
        );
    }
}

/// Warns when a forced exhaustive search exceeds the auto-dispatch
/// size threshold (it will still run — possibly for a very long time).
fn warn_if_slow(engine: EnginePref, instances: &[ProblemInstance]) {
    if engine != EnginePref::Exact {
        return;
    }
    let budget = Budget::default();
    for instance in instances.iter().filter(|i| !budget.fits_exact(i)) {
        let (n, p) = (instance.workflow.n_stages(), instance.platform.n_procs());
        eprintln!("warning: exact search on n={n}, p={p} may take very long");
    }
}

/// The exit status of a run whose report printing ended with `printed`.
/// A reader that closes stdout early (`solve a.json b.json | head -1`)
/// is not an error: the run stops quietly, without further solves or
/// output, and exits with the status of the reports printed until then
/// (`0` unless one of them failed). Any other write error is reported
/// and fails the run.
fn exit_status(printed: std::io::Result<()>, failed: bool) -> ExitCode {
    match printed {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write the reports: {e}");
            ExitCode::FAILURE
        }
        _ if failed => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

/// `--remote`: ship every instance to a `repliflow-serve` daemon over
/// one connection and render the responses through the same printers as
/// local solves.
fn run_remote(
    addr: &str,
    paths: &[String],
    instances: Vec<ProblemInstance>,
    options: &RemoteSolveOptions,
    json: bool,
    stats: bool,
) -> ExitCode {
    let mut client = match RemoteClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    let single = instances.len() == 1;
    let mut fallbacks: Vec<String> = Vec::new();
    let mut out = std::io::stdout().lock();
    let print_reports = || -> std::io::Result<()> {
        let mut items = Vec::new();
        for (path, instance) in paths.iter().zip(instances) {
            if !single && !json {
                writeln!(out, "== {path} ==")?;
            }
            match client.solve(&instance, options) {
                Ok(report) => {
                    let fields = ReportFields::from_remote(&report);
                    fallbacks.extend(fields.fallback.clone());
                    if json {
                        failed |= fields.optimality == "infeasible";
                        items.push(fields.json(path));
                    } else {
                        failed |= !fields.print(&mut out)?;
                    }
                }
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    failed = true;
                }
            }
            if !single && !json {
                writeln!(out)?;
            }
        }
        if json {
            writeln!(
                out,
                "{}",
                serde_json::to_string_pretty(&Value::Array(items))
                    .expect("report serialization is infallible")
            )?;
        }
        out.flush()
    };
    let printed = print_reports();
    if printed.is_ok() && stats {
        match client.stats() {
            Ok(snapshot) => {
                eprintln!("== daemon stats ==");
                eprintln!(
                    "{}",
                    serde_json::to_string_pretty(&snapshot)
                        .expect("snapshot serialization is infallible")
                );
            }
            Err(e) => {
                eprintln!("error: stats: {e}");
                failed = true;
            }
        }
        print_fallbacks(&fallbacks);
    }
    exit_status(printed, failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut engine = EnginePref::Auto;
    let mut validate = true;
    let mut json = false;
    let mut comm: Option<CommModel> = None;
    let mut overlap = false;
    let mut bandwidth = 1u64;
    let mut quality = Quality::Balanced;
    let mut workers: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut hedge_delay_ms: Option<u64> = None;
    let mut escalate = false;
    let mut cache = false;
    let mut cache_shards: Option<usize> = None;
    let mut stats = false;
    let mut remote: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--engine" => match it.next().as_deref().and_then(EnginePref::parse) {
                Some(pref) => engine = pref,
                None => return usage(),
            },
            "--comm" => match it.next().as_deref().and_then(CommModel::parse) {
                Some(model) => comm = Some(model),
                None => return usage(),
            },
            "--quality" => match it.next().as_deref().and_then(Quality::parse) {
                Some(q) => quality = q,
                None => return usage(),
            },
            "--bandwidth" => match it.next().as_deref().and_then(|b| b.parse().ok()) {
                Some(b) if b > 0 => bandwidth = b,
                _ => return usage(),
            },
            "--workers" => match it.next().as_deref().and_then(|w| w.parse().ok()) {
                Some(w) if w > 0 => workers = Some(w),
                _ => return usage(),
            },
            "--deadline-ms" => match it.next().as_deref().and_then(|d| d.parse().ok()) {
                Some(d) => deadline_ms = Some(d),
                None => return usage(),
            },
            "--hedge-delay-ms" => match it.next().as_deref().and_then(|d| d.parse().ok()) {
                Some(d) => hedge_delay_ms = Some(d),
                None => return usage(),
            },
            "--cache-shards" => match it.next().as_deref().and_then(|s| s.parse().ok()) {
                Some(s) if s > 0 => cache_shards = Some(s),
                _ => return usage(),
            },
            "--remote" => match it.next() {
                Some(addr) => remote = Some(addr),
                None => return usage(),
            },
            "--hedge" => engine = EnginePref::Hedged,
            "--escalate" => escalate = true,
            "--cache" => cache = true,
            "--stats" => stats = true,
            "--overlap" => overlap = true,
            "--no-validate" => validate = false,
            "--json" => json = true,
            "-h" | "--help" => return usage(),
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        return usage();
    }

    let mut instances = Vec::new();
    for path in &paths {
        match read_instance(path) {
            Ok(instance) => instances.push(apply_comm_flags(instance, comm, overlap, bandwidth)),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    warn_if_slow(engine, &instances);

    if let Some(addr) = remote {
        let options = RemoteSolveOptions {
            engine,
            quality,
            validate,
            deadline_ms,
        };
        return run_remote(&addr, &paths, instances, &options, json, stats);
    }

    let mut budget = Budget::default().quality(quality);
    if let Some(ms) = hedge_delay_ms {
        budget = budget.hedge_delay_ms(ms);
    }
    // escalation refreshes cache entries, so it needs the cache
    let cache = cache || escalate;
    let mut builder = SolverService::builder()
        .default_budget(budget)
        .escalation(escalate);
    if let Some(workers) = workers {
        builder = builder.workers(workers);
    }
    if let Some(shards) = cache_shards {
        builder = builder.cache_shards(shards);
    }
    if !cache {
        builder = builder.no_cache();
    }
    let service = builder.build();
    let deadline = deadline_ms.map(Deadline::in_ms);
    let mut failed = false;
    let mut fallbacks: Vec<String> = Vec::new();
    let mut out = std::io::stdout().lock();
    let print_reports = || -> std::io::Result<()> {
        if instances.len() == 1 && !json {
            let mut request = SolveRequest::new(instances.into_iter().next().unwrap())
                .engine(engine)
                .budget(budget)
                .validate_witness(validate);
            request.deadline = deadline;
            match service.solve(&request) {
                Ok(report) => {
                    let fields = ReportFields::from_local(&report);
                    fallbacks.extend(fields.fallback.clone());
                    failed |= !fields.print(&mut out)?;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    failed = true;
                }
            }
            return out.flush();
        }
        // Many instances (or machine-readable mode): fan out across the
        // service's persistent worker pool.
        let options = BatchOptions {
            engine,
            budget,
            validate_witness: validate,
            deadline,
            ..BatchOptions::default()
        };
        let results = service.solve_batch_with(&instances, &options);
        if json {
            let mut items = Vec::new();
            for (path, result) in paths.iter().zip(&results) {
                match result {
                    Ok(report) => {
                        failed |= report.optimality == repliflow_solver::Optimality::Infeasible;
                        let fields = ReportFields::from_local(report);
                        fallbacks.extend(fields.fallback.clone());
                        items.push(fields.json(path));
                    }
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        failed = true;
                    }
                }
            }
            writeln!(
                out,
                "{}",
                serde_json::to_string_pretty(&Value::Array(items))
                    .expect("report serialization is infallible")
            )?;
        } else {
            for (path, result) in paths.iter().zip(results) {
                writeln!(out, "== {path} ==")?;
                match result {
                    Ok(report) => {
                        let fields = ReportFields::from_local(&report);
                        fallbacks.extend(fields.fallback.clone());
                        failed |= !fields.print(&mut out)?;
                    }
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        failed = true;
                    }
                }
                writeln!(out)?;
            }
        }
        out.flush()
    };
    let printed = print_reports();
    if escalate {
        // let in-flight background re-solves finish before the process
        // exits (and before their counters are reported)
        service.drain_escalations();
    }
    if printed.is_ok() && stats {
        print_stats(&service, &service.stats());
        print_fallbacks(&fallbacks);
    }
    exit_status(printed, failed)
}
