//! The daemon itself: accept loop, per-connection protocol handling,
//! admission, and graceful drain.
//!
//! ## Architecture
//!
//! One [`Server`] owns one shared [`SolverService`] (persistent worker
//! pool + solve cache) and a TCP listener. Each accepted connection
//! gets two threads:
//!
//! * a **reader** (the connection thread): parses bounded request
//!   lines and answers everything that needs no engine compute itself
//!   — admin verbs, malformed lines, drain refusals, sheds
//!   (`overloaded`), and cache hits and fail-fast errors of admitted
//!   `solve` requests. A cache miss is queued on the service pool;
//! * a **writer**: the only thread that writes to the socket. It
//!   serializes responses from an unbounded mpsc channel, one JSON line
//!   each. The reader, pool workers and front threads only queue, so
//!   none of them ever blocks on a slow peer, and the reader keeps
//!   draining a client that pipelines a large batch before it reads.
//!
//! Answers go out in *completion* order — the echoed request `id` is
//! the client's correlation key, so one connection can pipeline many
//! solves, and a hit or a fast solve overtakes a slow sibling.
//!
//! Engine compute never runs on connection threads: connections stay
//! cheap (two mostly-parked threads), and `solve` compute is bounded by
//! the service pool regardless of the connection count. A `pareto`
//! front computes on a thread of its own, which admission bounds in
//! number but not the pool.
//!
//! ## Warm hits
//!
//! The daemon-wide instance memo (`memo.rs`, held in the server's
//! shared state) recognizes a `solve` line's `instance` by its raw
//! bytes. The request scan skims the value once, digesting it as it
//! goes; on a memo hit the reader finishes the request fingerprint from
//! the remembered instance walk ([`request_fingerprint`]) and asks the
//! cache with [`SolverService::lookup_keyed`]. A repeated hit thus
//! costs a skim, a digest and a lookup: no decode, no fingerprint, no
//! pool round trip. A memo miss, or a memo hit whose lookup misses,
//! decodes the instance as before ([`SolverService::solve_detached`] or
//! [`SolverService::compute_detached`]), and each successful decode
//! enters the memo. The memo holds at most the solve cache's entry
//! capacity and no raw bytes; two distinct instances within the line
//! cap collide with probability below 2^-87 under evaluation points
//! drawn per process (`memo.rs` gives the argument).
//!
//! ## Lifecycle
//!
//! Drain is requested by SIGINT/SIGTERM (when
//! [`ServerConfig::honor_process_signals`] is set), by the protocol
//! `shutdown` verb, or by [`ServerHandle::shutdown`]. The server then
//! 1. stops accepting: the request wakes the accept loop out of its
//!    blocking `accept` by connecting to the listener once, a
//!    connection accepted from then on is dropped unserved, and the
//!    listener closes — new connects are refused,
//! 2. stops reading new requests on every connection,
//! 3. answers every already-admitted request (each reader drops its
//!    channel sender and joins its writer, which drains the in-flight
//!    solve callbacks' responses first),
//! 4. joins every connection thread and returns cleanly — the binary
//!    exits 0.
//!
//! Nothing admitted is ever dropped: a ticket only dies right before
//! its response line is queued to the writer, and the writer only
//! exits after the queue is empty.

use crate::admission::{Admission, AdmissionConfig, Ticket};
use crate::framing::{Frame, LineBuffer};
use crate::memo::InstanceMemo;
use crate::protocol::{
    err_response, front_ok_response, ok_response, parse_request_memo, report_ok_response,
    ErrorCode, ScannedInstance, SolveBody, Verb, DEFAULT_MAX_LINE_BYTES,
};
use crate::{metrics, signal};
use repliflow_multicrit::{FrontRequest, FrontSolver};
use repliflow_solver::{
    request_fingerprint, Budget, Deadline, Lookup, SolveError, SolveReport, SolveRequest,
    SolverService,
};
use repliflow_sync::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use repliflow_sync::sync::{mpsc, Arc};
use repliflow_sync::thread::JoinHandle;
use serde::Value;
use std::io::{BufWriter, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Default TCP port of the daemon.
pub const DEFAULT_PORT: u16 = 7473;

/// The read timeout of a connection waiting for its next request, and
/// so the bound on how long a parked connection takes to notice a
/// drain. The accept loop does not poll: it blocks in `accept`, and a
/// drain request wakes it (see [`ServerShared::request_drain`]). The
/// interval also paces the signal watcher thread and the back-off
/// after a failed `accept`.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long the drain wake-up connect may take before it gives up.
/// Loopback connects to a listening socket complete at once; the bound
/// only matters when the accept backlog is full.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Everything configurable about a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port —
    /// see [`Server::local_addr`]).
    pub addr: String,
    /// Admission limits (global queue depth, per-connection in-flight
    /// cap).
    pub admission: AdmissionConfig,
    /// Request line length cap in bytes (terminator excluded); longer
    /// lines are answered with `line_too_long` and skipped.
    pub max_line_bytes: usize,
    /// Worker threads for the shared solver service (`None`: available
    /// parallelism).
    pub workers: Option<usize>,
    /// Solve-cache capacity in reports (`0` disables caching).
    pub cache_capacity: usize,
    /// Lock-striped solve-cache shard count (rounded to a power of two
    /// and clamped to the capacity; see `SolveCache::with_shards`).
    pub cache_shards: usize,
    /// Whether budgeted background escalation is enabled: heuristic
    /// answers get a bounded thorough-tier re-solve whose improvement
    /// refreshes the cache (`escalated` provenance on later hits).
    pub escalation: bool,
    /// Default budget applied to every request (the wire `quality`
    /// field overrides its quality tier per request).
    pub default_budget: Budget,
    /// Whether SIGINT/SIGTERM (via [`signal::install_handlers`])
    /// request drain. The binary sets this; library users and tests
    /// drive drain via [`ServerHandle::shutdown`] instead.
    pub honor_process_signals: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: format!("127.0.0.1:{DEFAULT_PORT}"),
            admission: AdmissionConfig::default(),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            workers: None,
            cache_capacity: repliflow_solver::DEFAULT_CACHE_CAPACITY,
            cache_shards: repliflow_solver::DEFAULT_CACHE_SHARDS,
            escalation: false,
            default_budget: Budget::default(),
            honor_process_signals: false,
        }
    }
}

/// State shared between the accept loop, every connection, and
/// [`ServerHandle`]s.
pub(crate) struct ServerShared {
    pub(crate) admission: Arc<Admission>,
    draining: AtomicBool,
    /// Where the drain wake-up connects: the listener's own address,
    /// with a wildcard bind mapped to loopback.
    wake_addr: SocketAddr,
    honor_signals: bool,
    pub(crate) started: Instant,
    pub(crate) connections_total: AtomicU64,
    pub(crate) connections_open: AtomicUsize,
    max_line_bytes: usize,
    default_budget: Budget,
    /// The instance memo (see [`crate::memo`]), capped at the solve
    /// cache's entry capacity; `None` when the daemon runs cacheless.
    pub(crate) memo: Option<InstanceMemo>,
}

impl ServerShared {
    /// Whether drain has been requested through any channel.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || (self.honor_signals && signal::drain_requested())
    }

    /// Raises the drain flag and wakes the accept loop: the first
    /// request connects once to the listener, so the blocked `accept`
    /// returns, sees the flag and drops that connection. Later requests
    /// only find the flag raised.
    pub(crate) fn request_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
    }
}

/// A handle for requesting drain (and observing it) from outside the
/// server thread. Cloneable; safe to keep after the server exits.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<ServerShared>,
}

impl ServerHandle {
    /// Requests a graceful drain: stop accepting, answer everything
    /// admitted, return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.request_drain();
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] consumes it and
/// blocks until drained.
pub struct Server {
    listener: TcpListener,
    service: Arc<SolverService>,
    front: Arc<FrontSolver>,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Binds the listener and builds the shared solver service. The
    /// service's worker pool spawns lazily on the first admitted
    /// solve.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let mut builder = SolverService::builder()
            .cache_capacity(config.cache_capacity)
            .cache_shards(config.cache_shards)
            .escalation(config.escalation)
            .default_budget(config.default_budget);
        if let Some(workers) = config.workers {
            builder = builder.workers(workers);
        }
        let service = Arc::new(builder.build());
        // Front cache geometry follows the solve cache's on/off switch:
        // a daemon with solve caching disabled caches no fronts either.
        let front = if config.cache_capacity == 0 {
            FrontSolver::without_cache(Arc::clone(&service))
        } else {
            FrontSolver::new(Arc::clone(&service))
        };
        Ok(Server {
            listener,
            service,
            front: Arc::new(front),
            shared: Arc::new(ServerShared {
                admission: Admission::new(config.admission),
                draining: AtomicBool::new(false),
                wake_addr,
                honor_signals: config.honor_process_signals,
                started: Instant::now(),
                connections_total: AtomicU64::new(0),
                connections_open: AtomicUsize::new(0),
                max_line_bytes: config.max_line_bytes,
                default_budget: config.default_budget,
                memo: (config.cache_capacity > 0)
                    .then(|| InstanceMemo::new(config.cache_capacity, config.cache_shards)),
            }),
        })
    }

    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A drain handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The shared solver service (for in-process observability).
    pub fn service(&self) -> &Arc<SolverService> {
        &self.service
    }

    /// The shared front solver behind the `pareto` verb.
    pub fn front_solver(&self) -> &Arc<FrontSolver> {
        &self.front
    }

    /// Serves until drain is requested, then drains and returns. On a
    /// clean drain every admitted request has been answered and every
    /// connection closed by the time this returns.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            service,
            front,
            shared,
        } = self;
        // SIGINT/SIGTERM only raise a flag (and glibc's `signal()`
        // restarts an interrupted `accept`), so a watcher thread turns
        // a signal into a drain request that wakes the accept.
        let signal_watcher = if shared.honor_signals {
            let shared = Arc::clone(&shared);
            Some(
                repliflow_sync::thread::Builder::new()
                    .name("repliflow-serve-signal".into())
                    .spawn(move || {
                        while !shared.draining() {
                            repliflow_sync::thread::sleep(POLL_INTERVAL);
                        }
                        shared.request_drain();
                    })?,
            )
        } else {
            None
        };
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !shared.draining() {
            match listener.accept() {
                // The drain wake-up, or a client that lost the race
                // with a drain: dropped unserved.
                Ok(_) if shared.draining() => break,
                Ok((stream, _peer)) => {
                    // relaxed: gauge/counter metrics only — nothing is
                    // ordered against these loads, stats() tolerates a
                    // momentarily stale value.
                    shared.connections_total.fetch_add(1, Ordering::Relaxed);
                    shared.connections_open.fetch_add(1, Ordering::Relaxed);
                    let service = Arc::clone(&service);
                    let front = Arc::clone(&front);
                    let shared_conn = Arc::clone(&shared);
                    let spawned = repliflow_sync::thread::Builder::new()
                        .name("repliflow-serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &service, &front, &shared_conn);
                            // relaxed: gauge metric only (see above).
                            shared_conn.connections_open.fetch_sub(1, Ordering::Relaxed);
                        });
                    match spawned {
                        Ok(handle) => connections.push(handle),
                        // Spawn fails only under resource exhaustion;
                        // shedding this connection (the dropped closure
                        // drops the stream, hanging up on the peer) is
                        // strictly better than panicking the accept
                        // loop and killing every live connection.
                        Err(_) => {
                            // relaxed: gauge metric only (see above).
                            shared.connections_open.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    // Reap finished connection threads so a long-lived
                    // daemon's handle list doesn't grow without bound.
                    connections.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient accept errors (e.g. a connection reset
                // between accept queue and accept, or running out of
                // file descriptors) must not kill the daemon; back off
                // instead of spinning on them.
                Err(_) => repliflow_sync::thread::sleep(POLL_INTERVAL),
            }
        }
        // A drain seen through the signal flag alone still raises the
        // server's own flag, so later requests need not wake anything.
        shared.draining.store(true, Ordering::SeqCst);
        // Drain: close the listener first (new connects are refused),
        // then wait for every connection to answer its admitted
        // requests and hang up.
        drop(listener);
        if let Some(watcher) = signal_watcher {
            let _ = watcher.join();
        }
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Outcome of one bounded line read.
enum Line<'a> {
    /// A complete line (without the terminator), borrowed from the
    /// reader's buffer.
    Full(&'a [u8]),
    /// The line exceeded the cap; it was consumed and discarded.
    TooLong,
    /// Clean end of stream (or an unterminated trailing fragment).
    Eof,
    /// Drain was requested while waiting for bytes.
    Draining,
    /// Unrecoverable stream error.
    Failed,
}

/// A connection's request reader: [`LineBuffer`] framing over the
/// socket, with drain-aware blocking — reads time out after
/// [`POLL_INTERVAL`] so a parked connection notices a drain request.
struct LineReader<'a> {
    stream: TcpStream,
    shared: &'a ServerShared,
    buffer: LineBuffer,
}

impl<'a> LineReader<'a> {
    fn new(stream: TcpStream, shared: &'a ServerShared) -> LineReader<'a> {
        LineReader {
            stream,
            shared,
            buffer: LineBuffer::new(shared.max_line_bytes),
        }
    }

    fn next_line(&mut self) -> Line<'_> {
        loop {
            match self.buffer.next_frame() {
                Some(Frame::Line(range)) => return Line::Full(self.buffer.bytes(range)),
                Some(Frame::TooLong) => return Line::TooLong,
                None => {}
            }
            match self.buffer.fill(&mut self.stream) {
                Ok(0) => return Line::Eof,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if self.shared.draining() {
                        return Line::Draining;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Line::Failed,
            }
        }
    }
}

/// The line for a solve's outcome.
fn solve_response(id: &Value, result: Result<Arc<SolveReport>, SolveError>) -> String {
    match result {
        Ok(report) => report_ok_response(id, &report),
        Err(error) => {
            let (code, message) = ErrorCode::of_solve_error(&error);
            err_response(id, code, &message)
        }
    }
}

/// Serves one connection: reads requests until EOF/drain, answers via
/// the writer thread, then waits for every admitted solve's response
/// to flush before hanging up.
fn handle_connection(
    stream: TcpStream,
    service: &Arc<SolverService>,
    front: &Arc<FrontSolver>,
    shared: &Arc<ServerShared>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    // A stuck peer must not wedge the writer (and thus drain) forever.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    let spawned = repliflow_sync::thread::Builder::new()
        .name("repliflow-serve-write".into())
        .spawn(move || {
            let mut out = BufWriter::new(write_half);
            for line in rx {
                if out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    // Peer is gone: stop writing. Senders' `send`s fail
                    // harmlessly; admission tickets still release.
                    return;
                }
            }
        });
    // Without a writer thread the connection cannot answer anything;
    // hang up (the peer retries) rather than panic the daemon. Spawn
    // fails only under resource exhaustion.
    let Ok(writer) = spawned else {
        return;
    };

    let conn_inflight = Arc::new(AtomicUsize::new(0));
    let mut reader = LineReader::new(stream, shared);
    loop {
        if shared.draining() {
            break;
        }
        match reader.next_line() {
            Line::Full(bytes) => {
                // invalid UTF-8 surfaces as a parse failure
                let line = std::str::from_utf8(bytes).unwrap_or("\u{fffd}");
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(line, service, front, shared, &conn_inflight, &tx);
            }
            Line::TooLong => {
                let _ = tx.send(err_response(
                    &Value::Null,
                    ErrorCode::LineTooLong,
                    &format!(
                        "request line exceeds the {} byte cap; request skipped",
                        shared.max_line_bytes
                    ),
                ));
            }
            Line::Draining | Line::Eof | Line::Failed => break,
        }
    }
    // Dropping our sender lets the writer exit once every in-flight
    // solve callback has delivered its response — the "no admitted
    // request is ever dropped" half of graceful drain.
    drop(tx);
    let _ = writer.join();
}

/// Dispatches one parsed request line. Everything answered without
/// compute — errors, sheds, admin verbs, cache hits — is answered here,
/// on the connection thread; cache misses go to the service pool and
/// fronts to their own thread. Every answer is queued to the writer
/// through `tx`, so this thread never blocks on the peer and keeps
/// draining pipelined requests.
fn handle_line(
    line: &str,
    service: &Arc<SolverService>,
    front: &Arc<FrontSolver>,
    shared: &Arc<ServerShared>,
    conn_inflight: &Arc<AtomicUsize>,
    tx: &mpsc::Sender<String>,
) {
    let request = match parse_request_memo(line, shared.memo.as_ref()) {
        Ok(request) => request,
        Err(failure) => {
            let _ = tx.send(err_response(&failure.id, failure.code, &failure.message));
            return;
        }
    };
    let id = request.id;
    match request.verb {
        Verb::Ping => {
            let _ = tx.send(ok_response(
                &id,
                Value::Object(vec![("pong".into(), Value::Bool(true))]),
            ));
        }
        Verb::Stats => {
            let _ = tx.send(ok_response(&id, metrics::snapshot(service, shared)));
        }
        Verb::Shutdown => {
            // Answer first, then raise the flag: the writer drains its
            // queue before exiting, so the acknowledgement always ships.
            let _ = tx.send(ok_response(
                &id,
                Value::Object(vec![("draining".into(), Value::Bool(true))]),
            ));
            shared.request_drain();
        }
        Verb::Solve(body) => handle_solve(line, id, *body, service, shared, conn_inflight, tx),
        Verb::Pareto(body) => {
            let ticket = match admit(shared, conn_inflight, &id) {
                Ok(ticket) => ticket,
                Err(refusal) => {
                    let _ = tx.send(refusal);
                    return;
                }
            };
            let mut budget = shared.default_budget.quality(body.quality);
            if let Some(points) = body.points {
                budget = budget.max_front_points(points);
            }
            let request = FrontRequest::new(body.instance)
                .engine(body.engine)
                .budget(budget)
                .validate_witness(body.validate);
            let front = Arc::clone(front);
            let front_tx = tx.clone();
            let front_id = id.clone();
            // A front solve is a *sequence* of inner solves; running it
            // on the connection thread would stall pipelined siblings
            // behind the whole sweep, so it gets its own thread. The
            // inner solves (`FrontSolver::inner_solve` calls
            // `SolverService::solve`) run on that thread, not on the
            // shared pool: admission bounds how many fronts are in
            // flight, but nothing bounds how many compute at once.
            let spawned = repliflow_sync::thread::Builder::new()
                .name("repliflow-serve-front".into())
                .spawn(move || {
                    let response = match front.solve_front(&request) {
                        Ok(report) => front_ok_response(&front_id, &report),
                        Err(error) => {
                            let (code, message) = ErrorCode::of_solve_error(&error);
                            err_response(&front_id, code, &message)
                        }
                    };
                    // Same release-before-answer ordering as solve.
                    drop(ticket);
                    let _ = front_tx.send(response);
                });
            if spawned.is_err() {
                // Resource exhaustion: shed this request; the ticket
                // (moved into the dropped closure) releases on drop.
                let _ = tx.send(err_response(
                    &id,
                    ErrorCode::Overloaded,
                    "cannot spawn a front orchestration thread; retry later",
                ));
            }
        }
    }
}

/// Admits and answers one `solve`. A shed, a cache hit or a fail-fast
/// error is answered here, on the connection thread; a miss computes on
/// the service pool. When the instance has a memo walk, the request key
/// is finished from it and looked up before anything is decoded: a warm
/// hit costs the skim, the digest and the lookup. Otherwise the request
/// fingerprints its decoded instance, as without a memo.
fn handle_solve(
    line: &str,
    id: Value,
    body: SolveBody<ScannedInstance>,
    service: &Arc<SolverService>,
    shared: &Arc<ServerShared>,
    conn_inflight: &Arc<AtomicUsize>,
    tx: &mpsc::Sender<String>,
) {
    let ticket = match admit(shared, conn_inflight, &id) {
        Ok(ticket) => ticket,
        Err(refusal) => {
            let _ = tx.send(refusal);
            return;
        }
    };
    let SolveBody {
        instance,
        engine,
        quality,
        validate,
        deadline_ms,
    } = body;
    let budget = shared.default_budget.quality(quality);
    let deadline = deadline_ms.map(Deadline::in_ms);
    let pool_tx = tx.clone();
    let pool_id = id.clone();
    let on_done = move |result| {
        let response = solve_response(&pool_id, result);
        // Release the slot before queuing the response: a client that
        // has read its answer must already see the request as completed
        // (e.g. in a follow-up `stats`).
        drop(ticket);
        let _ = pool_tx.send(response);
    };
    // Every inline answer below drops `on_done`, and the ticket in it,
    // before it is queued: released before answered here too.
    let miss = match instance.walk() {
        Some(walk) => {
            let key = request_fingerprint(walk, engine, &budget, validate);
            match service.lookup_keyed(key, &budget, deadline, None) {
                Lookup::Answered(result) => {
                    drop(on_done);
                    let _ = tx.send(solve_response(&id, result));
                    return;
                }
                Lookup::Miss(miss) => Some(miss),
            }
        }
        None => None,
    };
    let instance = match instance.into_instance(line) {
        Ok(instance) => instance,
        // A memoized span decodes as it did when it entered the memo;
        // only a digest collision gets here.
        Err(message) => {
            drop(on_done);
            let _ = tx.send(err_response(&id, ErrorCode::BadRequest, &message));
            return;
        }
    };
    let request = SolveRequest {
        deadline,
        ..SolveRequest::new(instance)
            .engine(engine)
            .budget(budget)
            .validate_witness(validate)
    };
    match miss {
        Some(miss) => service.compute_detached(request, miss, on_done),
        None => {
            if let Some(result) = service.solve_detached(request, on_done) {
                let _ = tx.send(solve_response(&id, result));
            }
        }
    }
}

/// The drain check and the admission gate every compute verb passes;
/// a refusal is the error line to answer request `id` with.
fn admit(
    shared: &ServerShared,
    conn_inflight: &Arc<AtomicUsize>,
    id: &Value,
) -> Result<Ticket, String> {
    if shared.draining() {
        return Err(err_response(
            id,
            ErrorCode::ShuttingDown,
            "daemon is draining; no new requests admitted",
        ));
    }
    shared.admission.try_admit(conn_inflight).map_err(|reason| {
        err_response(
            id,
            ErrorCode::Overloaded,
            &reason.message(shared.admission.config()),
        )
    })
}
