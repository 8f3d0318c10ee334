//! `repliflow-serve` — run the solver daemon, or administrate one.
//!
//! ```text
//! repliflow-serve                          # serve on 127.0.0.1:7473
//! repliflow-serve --addr 0.0.0.0:9000     # custom bind address
//! repliflow-serve --workers 4 --no-cache  # pool and cache knobs
//! repliflow-serve --cache-shards 16       # cache lock striping
//! repliflow-serve --escalate              # background thorough re-solves
//! repliflow-serve --queue-depth 16 --per-conn-inflight 4
//! repliflow-serve --quality fast          # default heuristic tier
//! repliflow-serve ctl ping                # admin: liveness probe
//! repliflow-serve ctl stats               # admin: metrics snapshot
//! repliflow-serve ctl shutdown            # admin: graceful drain
//! repliflow-serve ctl stats --addr 127.0.0.1:9000
//! ```
//!
//! The daemon prints `listening on ADDR` to stdout once ready (scripts
//! wait for that line), serves until SIGINT/SIGTERM or a `shutdown`
//! verb, drains — every admitted request is answered — and exits 0.
//!
//! On glibc the daemon caps its malloc arenas at two per pool worker,
//! never above glibc's own default (see `ARENAS_PER_WORKER`), so its
//! RSS tracks the live set rather than the number of threads that ever
//! allocated.
//!
//! `ctl` connects as a client, runs one verb, prints the response
//! (pretty JSON for `stats`) and exits 0 on success.

use repliflow_serve::server::{Server, ServerConfig};
use repliflow_serve::{signal, RemoteClient, DEFAULT_PORT};
use repliflow_solver::{Budget, Quality};
use std::process::ExitCode;

/// glibc malloc arenas the daemon may use per pool worker. glibc gives
/// a thread that meets a locked arena a fresh one, up to eight per
/// core by default, and each arena keeps its own free memory, so RSS
/// grows with the arena count rather than with what is live. The
/// threads that allocate at once are the pool workers (misses) and the
/// connection threads (hits, parse and encode), so two arenas per
/// worker leaves room for as many busy connections as workers. On the
/// `warm_wire` benchmark (2 vCPUs, 2 workers, interleaved 30 s runs)
/// this cap of 4 held daemon RSS at 17–19 MB against 24–26 MB
/// uncapped, at the uncapped p50. A cap of 1 or 2 cut RSS further
/// (12–17 MB), but threads then queue on the arena locks: the median
/// p50 was 17% above the uncapped one. Other worker counts are not
/// measured: scaling with `--workers` is an assumption, and the cap is
/// clamped to glibc's default so that it can only lower the limit.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const ARENAS_PER_WORKER: usize = 2;

/// glibc's default arena limit per core on 64-bit targets. Setting
/// `M_ARENA_MAX` replaces that limit rather than lowering it, so the
/// cap is clamped to it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const GLIBC_ARENAS_PER_CORE: usize = 8;

/// glibc's `mallopt` parameter that caps the arena count.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc's `mallopt(3)`: sets a malloc tuning parameter, returns 1
    /// on success.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Caps glibc's malloc arenas at [`ARENAS_PER_WORKER`] per pool
/// worker, and at most at glibc's default of
/// [`GLIBC_ARENAS_PER_CORE`] per core. Call before the daemon starts
/// its threads.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas(workers: usize) {
    let cores = repliflow_sync::thread::available_parallelism().map_or(1, usize::from);
    let arenas = workers
        .saturating_mul(ARENAS_PER_WORKER)
        .min(cores.saturating_mul(GLIBC_ARENAS_PER_CORE));
    let arenas = i32::try_from(arenas).unwrap_or(i32::MAX);
    // SAFETY: `mallopt` is glibc's own entry point with this C `int`
    // signature; it only sets an allocator parameter, and it runs here
    // before any other thread exists. A refusal (return 0) leaves the
    // default policy in place, so the result is ignored.
    unsafe {
        mallopt(M_ARENA_MAX, arenas);
    }
}

/// Other targets keep their allocator's own arena policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas(_workers: usize) {}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repliflow-serve [--addr HOST:PORT] [--workers N] [--queue-depth N] \
         [--per-conn-inflight N] [--no-cache] [--cache-capacity N] [--cache-shards N] \
         [--escalate] [--quality fast|balanced|thorough] [--max-line-bytes N]\n\
         \x20      repliflow-serve ctl ping|stats|shutdown [--addr HOST:PORT]"
    );
    ExitCode::FAILURE
}

/// The `ctl` admin subcommand: one verb over one connection.
fn ctl(args: &[String]) -> ExitCode {
    let mut verb: Option<String> = None;
    let mut addr = format!("127.0.0.1:{DEFAULT_PORT}");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return usage(),
            },
            "ping" | "stats" | "shutdown" if verb.is_none() => verb = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(verb) = verb else {
        return usage();
    };
    let mut client = match RemoteClient::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match verb.as_str() {
        "ping" => client.ping().map(|()| println!("pong")),
        "shutdown" => client.shutdown().map(|()| println!("draining")),
        _stats => client.stats().map(|snapshot| {
            // Value trees always serialize; "{}" keeps the CLI's output
            // valid JSON even if that ever changes.
            println!(
                "{}",
                serde_json::to_string_pretty(&snapshot).unwrap_or_else(|_| "{}".into())
            );
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("ctl") {
        return ctl(&args[1..]);
    }

    let mut config = ServerConfig {
        honor_process_signals: true,
        ..ServerConfig::default()
    };
    let mut quality = Quality::Balanced;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => config.addr = a,
                None => return usage(),
            },
            "--workers" => match it.next().as_deref().and_then(|w| w.parse().ok()) {
                Some(w) if w > 0 => config.workers = Some(w),
                _ => return usage(),
            },
            "--queue-depth" => match it.next().as_deref().and_then(|d| d.parse().ok()) {
                Some(d) => config.admission.queue_depth = d,
                None => return usage(),
            },
            "--per-conn-inflight" => match it.next().as_deref().and_then(|c| c.parse().ok()) {
                Some(c) if c > 0 => config.admission.per_conn_inflight = c,
                _ => return usage(),
            },
            "--no-cache" => config.cache_capacity = 0,
            "--cache-capacity" => match it.next().as_deref().and_then(|c| c.parse().ok()) {
                Some(c) => config.cache_capacity = c,
                None => return usage(),
            },
            "--cache-shards" => match it.next().as_deref().and_then(|s| s.parse().ok()) {
                Some(s) if s > 0 => config.cache_shards = s,
                _ => return usage(),
            },
            "--escalate" => config.escalation = true,
            "--quality" => match it.next().as_deref().and_then(Quality::parse) {
                Some(q) => quality = q,
                None => return usage(),
            },
            "--max-line-bytes" => match it.next().as_deref().and_then(|b| b.parse().ok()) {
                Some(b) if b > 0 => config.max_line_bytes = b,
                _ => return usage(),
            },
            "-h" | "--help" => return usage(),
            _ => return usage(),
        }
    }
    config.default_budget = Budget::default().quality(quality);

    signal::install_handlers();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Binding starts no thread: the service pool spawns on first use.
    cap_malloc_arenas(server.service().pool_size());
    match server.local_addr() {
        Ok(addr) => {
            // Readiness line; scripts wait for it before connecting.
            println!("listening on {addr}");
        }
        Err(e) => {
            eprintln!("error: no local address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            eprintln!("drained; exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
